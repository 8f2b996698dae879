"""Tests of the benchmark's generators, checks and tracer.

Run from the repository root: python3 -m pytest benchmark/tests -q
"""

import copy
import itertools
import json
import math
import random
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import calibration
import run
import spans
import workloads as W
from stackyring import chowring, cli, resolution, stacky

RNG_SEED = 7


def small_items():
    """Cheap inputs of every kind, for the tests that run ops."""
    rng = random.Random(RNG_SEED)
    cli_items = [i for i in W.cli_sweep_items(rng) if i.kind == "cli"]
    gale = [i for i in W.cli_sweep_items(rng) if i.kind == "gale"]
    return [
        W._wps_item((1, 1, 2), rng, "ring"),
        W._gerbe_ring_item(6, 1, rng),
        W._gerbe_sectors_item(6, 2, rng),
        W._wps_item((1, 2, 3), rng, "sectors"),
        gale[0],
        next(i for i in cli_items if i.key.startswith("ring p112 ")),
        next(i for i in cli_items if i.key.startswith("resolve-check")),
    ]


def traced_originals():
    out = {}
    for layer, attrs in spans.TRACED.items():
        module = sys.modules[f"stackyring.{layer}"]
        for attr in attrs:
            if "." in attr:
                cls_name, meth = attr.split(".")
                out[f"{layer}.{attr}"] = vars(getattr(module, cls_name))[meth]
            else:
                out[f"{layer}.{attr}"] = getattr(module, attr)
    return out


def bindings():
    """(owner, key) -> object for every module attribute of the package."""
    return {(mod.__name__, key): value
            for mod in spans.package_modules()
            for key, value in vars(mod).items()}


def test_tracer_replaces_and_restores_every_alias():
    originals = traced_originals()
    before = bindings()
    aliases = [(owner, key) for (owner, key), value in before.items()
               if any(value is f for f in originals.values())]
    # the bindings a patch on the defining module alone would miss
    for owner, key in [("stackyring.stacky", "cokernel"),
                       ("stackyring.stacky", "solve_integer_linear"),
                       ("stackyring.resolution", "smith_normal_form"),
                       ("stackyring.cli", "gale_dual"),
                       ("stackyring.cli", "orbifold_ring"),
                       ("stackyring", "orbifold_ring"),
                       ("stackyring", "three_sectors")]:
        assert (owner, key) in aliases
    tracer = spans.Tracer()
    with tracer.installed():
        during = bindings()
        for owner, key in aliases:
            assert during[(owner, key)] is not before[(owner, key)]
            assert during[(owner, key)].__wrapped__ is before[(owner, key)]
        for value in during.values():
            assert not any(value is f for f in originals.values())
        assert (stacky.ExtendedStackyFan.box_complement.__wrapped__
                is originals["stacky.ExtendedStackyFan.box_complement"])
        assert stacky.cokernel is not originals["lattice.cokernel"]
        assert resolution.orbifold_ring is not originals[
            "chowring.orbifold_ring"]
    assert bindings() == before
    assert chowring.OrbifoldRing.mul is originals["chowring.OrbifoldRing.mul"]
    assert cli.main is originals["cli.main"]


def trace_items(items):
    tracer = spans.Tracer()
    digests = []
    with tracer.installed():
        for op, item in enumerate(items):
            _, _, text = tracer.run_op(op, W.run_op, item)
            digests.append(W.digest(text))
    return tracer, digests


def test_traced_and_untraced_outputs_are_identical():
    items = small_items()
    plain = [W.digest(W.run_op(item)[2]) for item in items]
    _, traced = trace_items(items)
    assert traced == plain


def test_two_traced_runs_give_identical_call_counts():
    items = small_items()
    first, _ = trace_items(items)
    second, _ = trace_items(items)
    counts = [{n: e["calls"] for n, e in t.summary().items()}
              for t in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["linalg.rref"] > 0
    assert counts[0][spans.OP_SPAN] == len(items)


def test_self_times_sum_to_op_time():
    tracer, _ = trace_items(small_items())
    summary = tracer.summary()
    total_self = sum(e["self_s"] for e in summary.values())
    ops = [e - s for n, s, e in zip(tracer.name_col, tracer.start_col,
                                    tracer.end_col) if n == 0]
    assert total_self == pytest.approx(sum(ops), rel=1e-9)
    assert all(e["self_s"] >= 0 for e in summary.values())


def test_traced_op_spans_are_nested_under_their_op():
    tracer, _ = trace_items(small_items())
    for i, parent in enumerate(tracer.parent_col):
        if parent >= 0:
            assert tracer.start_col[parent] <= tracer.start_col[i]
            assert tracer.end_col[i] <= tracer.end_col[parent]
            assert tracer.op_col[i] == tracer.op_col[parent]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    def docs(seed):
        return [(i.key, i.docs, i.expect)
                for i in W.make_items(workload, seed)]
    assert docs(3) == docs(3)
    assert docs(3) != docs(4)


def test_wps_ring_draws_its_weights_from_the_seed():
    def weights(seed):
        return sorted(tuple(sorted(map(int, i.key[2:-1].split(","))))
                      for i in W.make_items("wps_ring", seed))
    draws = [weights(seed) for seed in range(1, 6)]
    for ws in draws:
        assert sorted(map(sum, ws)) == sorted(
            t for t, k in W.WPS_RING_DRAWS.items() for _ in range(k))
        assert all(max(w) <= 5 and math.gcd(*w) == 1 for w in ws)
        for total in W.WPS_RING_DRAWS:
            counts = Counter(w for w in ws if sum(w) == total)
            assert len(counts) == min(len(W.coprime_weights(3, total)),
                                      W.WPS_RING_DRAWS[total])
            assert max(counts.values()) - min(counts.values()) <= 1
    assert len(set(map(tuple, draws))) > 1
    assert W.coprime_weights(3, 10) == [(1, 4, 5), (2, 3, 5), (3, 3, 4)]


def test_weight_projection_presents_the_cokernel():
    for weights in itertools.product(range(1, 6), repeat=4):
        if math.gcd(*weights) != 1:
            continue
        proj = W.weight_projection(weights)
        assert all(sum(a * w for a, w in zip(row, weights)) == 0
                   for row in proj)
        minors = [abs(det3([[row[c] for c in cols] for row in proj]))
                  for cols in itertools.combinations(range(4), 3)]
        assert math.gcd(*minors) == 1


def det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def test_cyclic_decompositions():
    assert sorted(W.cyclic_decompositions(12)) == [(2, 2, 3), (2, 6),
                                                   (3, 4), (12,)]
    for torsion in W.cyclic_decompositions(36):
        assert math.prod(torsion) == 36 and 1 <= len(torsion) <= 3
    assert W.cyclic_decompositions(20, (2,)) == [(2, 10), (4, 5)]


def outputs(item):
    code, payload, text = W.run_op(item)
    return code, copy.deepcopy(payload), text


def test_ring_checks_fail_on_doctored_rings():
    rng = random.Random(RNG_SEED)
    for item in (W._wps_item((1, 1, 2), rng, "ring"),
                 W._gerbe_ring_item(6, 2, rng)):
        code, payload, text = outputs(item)
        assert W.check_output(item, code, payload, text, {}) == []
        dropped = copy.deepcopy(payload)
        dropped["basis"].pop()
        dropped["dimension"] -= 1
        assert W.check_output(item, code, dropped, text, {})
        shifted = copy.deepcopy(payload)
        shifted["basis"][0]["degree"] = "1/2"
        assert W.check_output(item, code, shifted, text, {})


def test_sector_checks_fail_on_doctored_sectors():
    rng = random.Random(RNG_SEED)
    gerbe = W._gerbe_sectors_item(6, 2, rng)
    code, payload, text = outputs(gerbe)
    assert payload["count"] == 36
    assert W.check_output(gerbe, code, payload, text, {}) == []
    extra = copy.deepcopy(payload)
    extra["sectors"].append(copy.deepcopy(extra["sectors"][-1]))
    extra["count"] += 1
    assert W.check_output(gerbe, code, extra, text, {})

    wps = W._wps_item((1, 2, 3), rng, "sectors")
    code, payload, text = outputs(wps)
    assert W.check_output(wps, code, payload, text, {}) == []
    missing = copy.deepcopy(payload)
    # a sector that is not its own rotation: its rotation loses its partner
    missing["sectors"].remove(next(
        s for s in missing["sectors"]
        if len({tuple(e) for e in s["elements"]}) > 1))
    missing["count"] -= 1
    assert W.check_output(wps, code, missing, text, {})
    aged = copy.deepcopy(payload)
    aged["sectors"][0]["total_age"] = str(
        Fraction(aged["sectors"][0]["total_age"]) + 1)
    assert W.check_output(wps, code, aged, text, {})


def test_cli_and_gale_checks_fail_on_doctored_output():
    recorded = run.load_digests()
    items = small_items()
    cli_item = items[-2]
    code, payload, text = outputs(cli_item)
    assert W.check_output(cli_item, code, payload, text, recorded) == []
    assert W.check_output(cli_item, code, payload, text + " ", recorded)
    assert W.check_output(cli_item, 1, payload, text, recorded)
    gale = items[4]
    code, payload, text = outputs(gale)
    assert W.check_output(gale, code, payload, text, {}) == []
    payload["dual_rank"] += 1
    assert W.check_output(gale, code, payload, text, {})


def test_runner_counts_a_changed_repeat_as_failed():
    runner = run.Runner(run.load_digests())
    item = small_items()[0]
    _, first = runner.op(item)
    runner.op(item, first)
    assert runner.failed == 0
    runner.op(item, "0" * 64)
    assert (runner.attempted, runner.failed) == (3, 1)


def test_every_fixed_cli_command_has_a_recorded_digest():
    recorded = run.load_digests()
    keys = {i.key for i in W.cli_sweep_items(random.Random(0))
            if i.kind == "cli"}
    keys |= {"cold: " + " ".join(c) for c in W.CLI_COLD_COMMANDS}
    assert keys == set(recorded)


def test_calibration_scales_each_group_by_its_references():
    refs = iter([0.02, 0.02, 0.005, 0.01, 0.04, 0.04])
    cal = calibration.Calibrated(lambda: next(refs))
    ops, probes = [], []
    step = calibration.CHUNK_EVERY_S / 2
    cal.start()  # reference 0.02
    cal.add(ops, step)
    assert ops == []
    cal.add(ops, step)  # the group reaches CHUNK_EVERY_S: reference 0.02
    cal.add(probes, 1.0)  # reference 0.005 after it
    cal.add(ops, step)
    cal.close()  # reference 0.01
    cal.close()  # nothing queued: no reference
    cal.start()  # reference 0.04, before the next group
    cal.add(ops, 1.0)  # reference 0.04
    ref = calibration.REF_S
    assert ops == pytest.approx([step * ref / 0.02] * 2
                                + [step * ref / 0.0075, ref / 0.04])
    assert probes == pytest.approx([ref / 0.0125])
    assert cal.refs == [0.02, 0.02, 0.005, 0.01, 0.04, 0.04]
    assert cal.total == pytest.approx(sum(ops) + sum(probes) + 6 * ref)


def test_reference_work_is_fixed():
    assert calibration.chunk() == calibration.chunk()
    assert 0 < calibration.time_chunk() < 1
    assert 0 < calibration.time_process() < 10


def test_tail_has_ten_samples_beyond():
    for n in (11, 12, 30, 257):
        durations = [float(k) for k in range(n)]
        value, pct, samples = run.tail(durations)
        assert samples == n
        assert sum(d > value for d in durations) == 10
        assert pct == 100 * (n - 10) / n
    assert run.tail([1.0, 2.0]) == (2.0, 100.0, 2)


def test_per_layer_metrics_match_the_spec():
    spec = run.benchmark_spec()
    names = {m["name"] for m in spec["per_layer"]}
    summary = {n: {"calls": 1, "self_s": 0.5, "hits": 1}
               for n in [spans.OP_SPAN] + spans.traced_names()}
    assert set(run.layer_metrics(summary, 2.0, 1.25)) == names


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        ["python3"] + spec["command"][1:] + ["--workload", "cli_sweep",
                                             "--seed", "1", "--seconds", "1",
                                             "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
