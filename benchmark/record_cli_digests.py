"""Record the stdout digest of every fixed CLI command of `cli_sweep`.

Run from the repository root when a change to the library's output is
intended:

    python3 benchmark/record_cli_digests.py

The digests land in benchmark/cli_digests.json; the benchmark compares
each `cli_sweep` op and each cold CLI process against them.
"""

import json
import random
import sys

import run


def main():
    run.load_library()
    import workloads
    digests = {}
    for item in workloads.cli_sweep_items(random.Random(0)):
        if item.kind == "cli":
            code, _, text = workloads.run_op(item)
            if code != 0:
                sys.exit(f"{item.key}: exit code {code}")
            digests[item.key] = workloads.digest(text)
    for cmd in workloads.CLI_COLD_COMMANDS:
        item = workloads.Item(" ".join(cmd), "cli", {"argv": list(cmd)})
        code, _, text = workloads.run_op(item)
        if code != 0:
            sys.exit(f"{item.key}: exit code {code}")
        digests["cold: " + item.key] = workloads.digest(text)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {run.DIGESTS}")


if __name__ == "__main__":
    main()
