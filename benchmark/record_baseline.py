"""Measure every workload and write the medians to benchmark/BASELINE.json.

Run from the repository root:

    python3 benchmark/record_baseline.py

Each workload runs RUNS times untraced, with seeds 1..RUNS, and once
traced with seed 1, one process after another, for BENCHMARK.json's
run_seconds each. The record keeps the machine, the median of every
end-to-end metric with its quartile spread (interquartile distance over
the median), and the traced per-layer metrics.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run

RUNS = 10


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900,
        check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [l for l in lines[:-1]
                                   if not l.startswith(workload + " ")]


def main():
    seconds = run.benchmark_spec()["run_seconds"]
    record = {
        "machine": {"python": platform.python_version(),
                    "nproc": os.cpu_count(), "cpu": cpu_model()},
        "run_seconds": seconds,
        "default_seed": run.parse_args(["--workload", run.WORKLOADS[0]]).seed,
        "untraced_seeds": list(range(1, RUNS + 1)),
        "traced_seed": 1,
        "note": ("Measured with this benchmark on the machine above. The "
                 "hand-timed table in ROADMAP.md (for example 1.47 s for "
                 "the gerbe_z4z9 ring) came from another machine state and "
                 "other inputs; it is not this baseline."),
        "workloads": {},
    }
    for workload in run.WORKLOADS:
        results = []
        tails = []
        for seed in record["untraced_seeds"]:
            result, notes = one_run(workload, seed, seconds, 0)
            results.append(result)
            tails += [n for n in notes if n.startswith("op_tail_s")]
            print(workload, seed, notes, flush=True)
        end_to_end = {}
        for name, entry in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            end_to_end[name] = {"median": median,
                                "spread": (q3 - q1) / median,
                                "unit": entry["unit"]}
        traced, report = one_run(workload, record["traced_seed"], seconds, 1)
        record["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": end_to_end,
            "op_tail_s_percentiles": tails,
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()},
            "layer_report": report[:2],
        }
    record["recorded_at"] = time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime())
    with open(run.BENCH_DIR / "BASELINE.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
