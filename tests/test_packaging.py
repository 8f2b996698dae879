"""The packaging metadata agrees with the code it ships.

The tests run from the source tree and never install the package, so a
renamed entry point, a fixture outside the package-data glob or a
requires-python floor that no CI job runs would pass them unseen. These
checks read pyproject.toml with tomllib, which Python 3.11 added; on
3.10 they are skipped.
"""

import fnmatch
import importlib
import re
from pathlib import Path

import pytest

from stackyring import cli, fixtures

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stackyring"


@pytest.fixture(scope="module")
def project():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def test_script_entry_point_is_cli_main(project):
    target = project["project"]["scripts"]["stackyring"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main


def test_every_data_file_is_package_data(project):
    globs = project["tool"]["setuptools"]["package-data"]["stackyring"]
    shipped = sorted(p.relative_to(PACKAGE).as_posix()
                     for p in (PACKAGE / "data").iterdir())
    assert shipped
    unmatched = [p for p in shipped
                 if not any(fnmatch.fnmatchcase(p, g) for g in globs)]
    assert unmatched == []
    for name in fixtures.FAN_FIXTURES + fixtures.BASE_FIXTURES:
        assert fixtures.fixture_path(name).parent == PACKAGE / "data", name


def _version(text):
    return tuple(int(x) for x in text.split("."))


def test_requires_python_floor_is_the_lowest_ci_python(project):
    floor = re.fullmatch(r">=\s*(\d+\.\d+)",
                         project["project"]["requires-python"])
    assert floor, project["project"]["requires-python"]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    matrices = re.findall(r"python-version:\s*\[([^\]]*)\]", workflow)
    versions = [_version(v.strip().strip("\"'"))
                for m in matrices for v in m.split(",") if v.strip()]
    assert versions
    assert min(versions) == _version(floor.group(1))
