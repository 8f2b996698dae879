"""Benchmark of stackyring: one workload, one seed, one closed-loop run.

Run from the repository root:

    python3 benchmark/run.py --workload wps_ring --seed 1 --seconds 20 --trace 0

One caller in one thread starts the next op when the previous one returns,
cycling over the workload's seeded inputs until --seconds have passed.
Every output is checked (see workloads.py); a failed check counts as a
failed op and never stops the run. The last line of stdout is a JSON
object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics: throughput, median and tail op
time, set-up time in fresh processes, peak memory and the time of cold
CLI processes. Times are in seconds at a reference host speed, measured
beside every op (calibration.py); the wall times are printed above the
JSON line. --trace 1 instead runs the workload's input list untraced
and then traced, in pairs, and reports per-op call counts and self times
of the wrapped library functions (spans.py); the spans of the first pass
over the inputs are written to .bench_out/spans_<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "cli_digests.json"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("wps_ring", "gerbe_table", "inertia_sectors", "cli_sweep")
PROBES = 6
# a run on a slow host stops after this many --seconds of wall time
MAX_WALL = 1.5
TAIL_BEYOND = 10
MAX_LOGGED_FAILURES = 5


def load_library():
    """Import stackyring from this checkout's sources, or exit non-zero."""
    if not (SRC / "stackyring" / "__init__.py").is_file():
        sys.exit(f"run.py: stackyring sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import stackyring
    if Path(stackyring.__file__).resolve().parent != SRC / "stackyring":
        sys.exit(f"run.py: imported stackyring from {stackyring.__file__}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def pin_to_one_cpu():
    """Run this process and the processes it starts on one CPU.

    The reference processes, set-up probes and cold CLI processes then
    run, one at a time while the benchmark waits, on the CPU whose speed
    the reference chunks measure.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def setup(workload, seed):
    """Generate the seeded inputs and parse every document once."""
    import workloads
    items = workloads.make_items(workload, seed)
    for item in items:
        workloads.parse_item(item)
    return items


def report_setup_time(workload, seed, t0):
    """Fresh-process body: import, generate and parse, print the seconds."""
    load_library()
    setup(workload, seed)
    print(repr(time.perf_counter() - t0))


def time_fresh_setup(workload, seed):
    """Set-up seconds of one fresh process: import, generate, parse."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def time_cold_cli(runner, procs):
    """Seconds of one batch of cold `python -m stackyring.cli` runs.

    Each process is timed between reference processes and scaled to the
    reference speed by procs; its exit code and stdout are checked as ops
    of the run.
    """
    import workloads
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    parts = []
    for cmd in workloads.CLI_COLD_COMMANDS:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "stackyring.cli"]
            + workloads.cli_argv(list(cmd)),
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        procs.add(parts, time.perf_counter() - t0)
        procs.close()
        key = "cold: " + " ".join(cmd)
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}")
        elif workloads.digest(proc.stdout) != runner.recorded.get(key):
            problems.append("stdout differs from the recorded digest")
        runner.record(key, problems)
    return sum(parts)


def tail(durations):
    """The highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples): the sample with exactly
    TAIL_BEYOND larger ones. With too few samples for that the maximum
    is returned as percentile 100.
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100 * (n - TAIL_BEYOND) / n, n


class Runner:
    """Runs ops, checks each output and counts the failed ones."""

    def __init__(self, recorded):
        self.recorded = recorded
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def op(self, item, expect=None, run=None):
        """One op on item; returns (seconds, output digest or None).

        expect is the digest of an earlier run of the same input, which
        this one must reproduce. run replaces workloads.run_op, to call it
        inside a span.
        """
        import workloads
        t0 = time.perf_counter()
        try:
            code, payload, text = (run or workloads.run_op)(item)
            seconds = time.perf_counter() - t0
            problems = workloads.check_output(item, code, payload, text,
                                              self.recorded)
            result = workloads.digest(text)
            if expect is not None and result != expect:
                problems.append("output differs from an earlier run")
        except Exception as exc:  # a raising op is a failed op, not a crash
            seconds = time.perf_counter() - t0
            problems = [f"raised {type(exc).__name__}: {exc}"]
            result = None
        self.record(item.key, problems)
        return seconds, result

    def record(self, key, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.append(f"{key}: {'; '.join(problems)}")


def run_untraced(args, items, recorded):
    """Closed loop over whole passes of the inputs for about --seconds.

    Every op is timed beside reference chunks, and every set-up probe
    and cold CLI process beside reference processes, and scaled to the
    reference speed (calibration.py); the time metrics are of the scaled
    times, and the wall times of the ops are printed beside them. The
    run's length is counted at the reference speed too, probes and
    references included, so a run holds the same number of ops however
    fast the host is at the time; the loop ends at the pass
    boundary nearest to --seconds, so every input runs equally often,
    or after MAX_WALL times --seconds of wall time on a slow host.
    The probes run at PROBES evenly spaced points of the loop, so they
    see the same machine as the ops.
    """
    import calibration
    runner = Runner(recorded)
    cal = calibration.Calibrated()
    procs = calibration.Calibrated(calibration.time_process,
                                   calibration.REF_PROCESS_S)
    digests = {}
    durations = []
    wall = []
    completed = 0
    setup_times = []
    cold_times = []
    start = time.perf_counter()
    pass_start = 0.0
    cal.start()
    while True:
        # the run's length so far at the reference speed
        elapsed = cal.total + procs.total
        if len(setup_times) < PROBES and elapsed >= args.seconds * (
                len(setup_times) + 0.5) / PROBES:
            cal.close()
            procs.start()
            procs.add(setup_times, time_fresh_setup(args.workload, args.seed))
            procs.close()
            cold_times.append(time_cold_cli(runner, procs))
            cal.start()
            continue
        if time.perf_counter() - start >= MAX_WALL * args.seconds:
            break
        index = len(wall) % len(items)
        if index == 0 and wall:
            last_pass, pass_start = elapsed - pass_start, elapsed
            if (len(setup_times) == PROBES
                    and elapsed + last_pass / 2 >= args.seconds):
                break
        failed = runner.failed
        seconds, result = runner.op(items[index], digests.get(index))
        digests.setdefault(index, result)
        cal.add(durations, seconds)
        wall.append(seconds)
        completed += runner.failed == failed
    cal.close()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tail_s, tail_pct, samples = tail(durations)
    metrics = {
        "throughput_ops_s": (completed / sum(durations), "1/s"),
        "op_p50_s": (statistics.median(durations), "s"),
        "op_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "cli_cold_s": (statistics.median(cold_times), "s"),
    }
    notes = [f"op_tail_s is p{tail_pct:.4g} of {samples} ops",
             f"wall: {len(wall)} ops in {sum(wall):.6g} s, op p50 "
             f"{statistics.median(wall):.6g} s, p{tail_pct:.4g} "
             f"{tail(wall)[0]:.6g} s",
             f"reference chunk: median {statistics.median(cal.refs):.6g} s"
             f" of {len(cal.refs)} ({calibration.REF_S} s nominal); "
             f"reference process: median {statistics.median(procs.refs):.6g}"
             f" s of {len(procs.refs)} ({calibration.REF_PROCESS_S} s "
             "nominal)"]
    return runner, metrics, notes


def run_traced(args, items, recorded):
    """Each input runs untraced and traced, back to back.

    The pair's order alternates, which keeps slow drifts of the machine's
    speed out of the overhead ratio. Whole passes over the input list
    repeat while another one fits in --seconds, so call counts per op are
    exact for a seed.
    """
    import spans
    import workloads
    runner = Runner(recorded)
    tracer = spans.Tracer()
    elapsed = {False: 0.0, True: 0.0}
    ops = 0
    start = time.perf_counter()
    last_pass = 0.0
    while ops == 0 or time.perf_counter() - start + last_pass <= args.seconds:
        t_pass = time.perf_counter()
        for item in items:
            first = None
            for traced in ((True, False) if ops % 2 else (False, True)):
                if traced:
                    with tracer.installed():
                        seconds, result = runner.op(
                            item, first, lambda it, op=ops: tracer.run_op(
                                op, workloads.run_op, it))
                else:
                    seconds, result = runner.op(item, first)
                elapsed[traced] += seconds
                first = first or result
            ops += 1
        last_pass = time.perf_counter() - t_pass

    OUT_DIR.mkdir(exist_ok=True)
    # one pass over the inputs is representative; later passes repeat it
    tracer.write(OUT_DIR / f"spans_{args.workload}.json", start, len(items))
    per_op = {name: {k: v / ops for k, v in entry.items()}
              for name, entry in tracer.summary().items()}
    # the op spans' durations: layer self times sum to exactly this
    op_s = sum(layer_self_times(per_op).values())
    overhead = elapsed[True] / elapsed[False]
    return (runner, layer_metrics(per_op, op_s, overhead),
            layer_report(per_op, elapsed[True] / ops))


def layer_self_times(per_op):
    import spans
    totals = {}
    for name, entry in per_op.items():
        layer = spans.layer_of(name)
        totals[layer] = totals.get(layer, 0.0) + entry["self_s"]
    return totals


def layer_metrics(per_op, op_s, overhead):
    """Every per-layer metric named in BENCHMARK.json, per op.

    Self times are reported as shares of the traced op time, which the
    machine's speed changes cancel out of; the seconds are in the report.
    """
    import spans
    values = {"trace_overhead_ratio": (overhead, "ratio"),
              "traced_op_s": (op_s, "s")}
    for name in spans.traced_names():
        entry = per_op[name]
        values[f"{name}.calls"] = (entry["calls"], "count")
        values[f"{name}.self_share"] = (entry["self_s"] / op_s, "ratio")
        if name in spans.OUTCOMES:
            ratio = entry["hits"] / entry["calls"] if entry["calls"] else 0.0
            values[f"{name}.{spans.OUTCOMES[name][0]}"] = (ratio, "ratio")
    for layer, total in layer_self_times(per_op).items():
        values[f"{layer}.self_share"] = (total / op_s, "ratio")
    return {m["name"]: values[m["name"]]
            for m in benchmark_spec()["per_layer"]}


def layer_report(per_op, op_s):
    """Readable per-op calls and self times of every function and layer.

    op_s is the traced op time as the caller measured it, to compare with
    the sum of the layers' self times.
    """
    import spans
    layers = layer_self_times(per_op)
    top = max((l for l in layers if l != "benchmark"), key=layers.get)
    lines = ["per-op self time by layer: " + ", ".join(
                 f"{l} {s:.6g} s" for l, s in sorted(
                     layers.items(), key=lambda kv: -kv[1])),
             f"layer self times sum to {sum(layers.values()):.6g} s/op; "
             f"traced op time {op_s:.6g} s/op; top layer: {top}"]
    for name in spans.traced_names():
        entry = per_op[name]
        lines.append(f"  {name}: {entry['calls']:.6g} calls/op, "
                     f"{entry['self_s']:.6g} s/op self")
    return lines


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_digests():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    t0 = time.perf_counter()
    args = parse_args(argv)
    if args.setup_probe:
        report_setup_time(args.workload, args.seed, t0)
        return 0
    load_library()
    pin_to_one_cpu()
    items = setup(args.workload, args.seed)
    recorded = load_digests()
    if args.trace:
        runner, metrics, notes = run_traced(args, items, recorded)
    else:
        runner, metrics, notes = run_untraced(args, items, recorded)
    for message in runner.messages[:MAX_LOGGED_FAILURES]:
        print(f"FAILED {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    for note in notes:
        print(note)
    print(f"fail_ratio {runner.failed}/{runner.attempted}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
