"""The benchmark's outputs, pinned byte for byte.

One sha256 over f"{item.key}\\0{code}\\0{text}\\0" from workloads.run_op,
for every item of the four workloads at seeds 1 to 3, in the order
make_items lists them. text is the canonical JSON (or the CLI's stdout)
of each operation, so a change to any basis, table, sector list, Gale
dual or CLI output changes the digest. A change to the library that
claims the same outputs keeps it; a benchmark change that alters the
workloads' inputs re-records it.
"""

import hashlib

from generators import benchmark_workloads

WORKLOADS = ("wps_ring", "gerbe_table", "inertia_sectors", "cli_sweep")
RUN_OP_DIGEST = \
    "0fdb3a1010a6fdb0cb040e2bb9d0f207b2bf9d5f058519daf542bc5bd93492a6"


def test_run_op_outputs_are_pinned():
    workloads = benchmark_workloads()
    digest = hashlib.sha256()
    for name in WORKLOADS:
        for seed in (1, 2, 3):
            for item in workloads.make_items(name, seed):
                code, _, text = workloads.run_op(item)
                digest.update(f"{item.key}\0{code}\0{text}\0".encode())
    assert digest.hexdigest() == RUN_OP_DIGEST
