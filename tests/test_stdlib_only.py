"""The runtime is stdlib-only: importing the package pulls in nothing else.

The imports run in a fresh interpreter, and only the modules they add to
sys.modules count, so whatever the interpreter loads at startup (site
hooks such as _distutils_hack) is left out. sys.stdlib_module_names
exists from Python 3.10, the requires-python floor.
"""

import json
import subprocess
import sys
from pathlib import Path

import stackyring

SCRIPT = """
import json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import stackyring
for info in pkgutil.walk_packages(stackyring.__path__, "stackyring."):
    __import__(info.name)
added = set(sys.modules) - before
print(json.dumps({
    "package": sorted(m for m in added if m.startswith("stackyring.")),
    "foreign": sorted({m.partition(".")[0] for m in added}
                      - {"stackyring"} - sys.stdlib_module_names)}))
"""


def test_package_imports_only_the_standard_library():
    package = Path(stackyring.__file__).parent
    run = subprocess.run([sys.executable, "-c", SCRIPT, str(package.parent)],
                         capture_output=True, text=True, check=True)
    found = json.loads(run.stdout)
    assert found["package"] == sorted(
        f"stackyring.{p.stem}" for p in package.glob("*.py")
        if p.stem != "__init__")
    assert found["foreign"] == []
