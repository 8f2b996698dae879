"""End-to-end command tests: payload shapes, exit codes, determinism."""

import argparse
import hashlib
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from generators import twisted_p3
from stackyring import chowring, cli, documents, fixtures, lattice
from stackyring.cli import main
from stackyring.errors import DocumentError
from stackyring.stacky import ExtendedStackyFan


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def fan_path(name):
    return str(fixtures.fixture_path(name))


def test_validate_ok(capsys):
    code, payload = run(capsys, "validate", fan_path("p112"))
    assert code == 0
    assert payload == {"valid": True, "complete": True, "diagnostics": []}


def test_validate_dependent_rays(capsys, tmp_path):
    doc = {"group": {"rank": 2, "torsion": []},
           "rays": [[1, 0], [2, 0], [-1, -1]],
           "cones": [[0, 1], [1, 2], [0, 2]]}
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc))
    code, payload = run(capsys, "validate", str(path))
    assert code == 1
    assert not payload["valid"]
    assert payload["diagnostics"][0]["code"] == "NotSimplicial"


def test_validate_non_spanning_rays(capsys, tmp_path):
    doc = {"group": {"rank": 2, "torsion": []},
           "rays": [[1, 0], [-1, 0]], "cones": [[0], [1]]}
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc))
    code, payload = run(capsys, "validate", str(path))
    assert code == 1
    assert payload["diagnostics"][0]["code"] == "InfiniteCokernel"


def test_validate_malformed_document(capsys, tmp_path):
    path = tmp_path / "fan.json"
    path.write_text('{"group": {"rank": 1}}')
    code, payload = run(capsys, "validate", str(path))
    assert code == 1
    assert payload["diagnostics"][0]["code"] == "DocumentError"


def test_missing_file_is_usage_error(capsys):
    code = main(["validate", "/nonexistent/fan.json"])
    assert code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_gale_payload(capsys):
    code, payload = run(capsys, "gale", fan_path("example_rank1"))
    assert code == 0
    assert payload["dual_group"] == {"rank": 2, "invariant_factors": [],
                                     "order": None, "description": "Z^2"}
    code, payload = run(capsys, "gale", fan_path("example_rank1_tilde"))
    assert payload["dual_group"]["rank"] == 2
    assert payload["dual_group"]["invariant_factors"] == [2]


def test_gale_takes_each_cokernel_once(capsys, monkeypatch):
    """gale on p2 takes 3 Smith forms, all in gale_dual: loading the fan
    tests finiteness by a rank. They are those of [B | Q], [B | Q]^T and
    [beta_vee | Q_DG], which give coker(beta), DG and beta_vee, and
    coker(beta_vee); the exactness check reads both sequences off these
    three witnesses, and the payload reports the same two groups. A check
    by fresh subgroup equalities made 13, and taking both cokernels again
    in the command 17. gerbe_group takes no more than gale_dual."""
    calls = []
    snf = lattice.smith_normal_form

    def counted(matrix):
        calls.append(matrix)
        return snf(matrix)

    monkeypatch.setattr(lattice, "smith_normal_form", counted)
    code, payload = run(capsys, "gale", fan_path("p2"))
    assert code == 0 and calls == [[[1, 0, -1], [0, 1, -1]],
                                   [[1, 0], [0, 1], [-1, -1]], [[1, 1, 1]]]
    beta = fixtures.load_fan("p2").beta()
    calls.clear()
    gale = lattice.gale_dual(beta)
    assert len(calls) == 3
    calls.clear()
    assert lattice.gerbe_group(beta) == gale.gerbe_group
    assert len(calls) == 3
    # the groups the check took are the cokernels themselves
    assert gale.cokernel == lattice.cokernel(beta)[0]
    assert gale.gerbe_group == lattice.cokernel(gale[1])[0]


def test_box_payload(capsys):
    code, payload = run(capsys, "box", fan_path("p112"))
    assert code == 0
    assert payload["count"] == 2
    ages = [e["age"] for e in payload["elements"]]
    assert ages == ["0", "1"]
    assert payload["elements"][1]["coeffs"] == ["1/2", "1/2"]


def test_inertia_payload(capsys):
    code, payload = run(capsys, "inertia", fan_path("p112"), "--order", "2")
    assert code == 0
    assert payload["count"] == 4
    assert all("quotient" in comp for comp in payload["components"])


def test_inertia_order_past_the_bound_is_a_json_error(capsys):
    start = time.perf_counter()
    code, payload = run(capsys, "inertia", fan_path("gerbe_z4z9"),
                        "--order", "6")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert payload["error"]["type"] == "TooManyTuples"
    assert payload["error"]["detail"].startswith(
        "inertia order r = 6 over |Box| = 36: ")


def test_sectors_payload(capsys):
    code, payload = run(capsys, "sectors", fan_path("p112"))
    assert code == 0
    assert payload["count"] == 4
    assert all(s["obstruction_rays"] == [] for s in payload["sectors"])


def test_sectors_past_the_bound_is_a_json_error(capsys, tmp_path):
    # Box(0, 2) has 1000 elements, so the pairs would hold 2 |Box|^2 =
    # 2 10^6 box elements
    doc = {"group": {"rank": 2, "torsion": []},
           "rays": [[1, 0], [0, 1], [-1, -1000]],
           "cones": [[0, 1], [1, 2], [0, 2]]}
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, payload = run(capsys, "sectors", str(path))
    assert time.perf_counter() - start < 1
    assert code == 1
    assert payload["error"]["type"] == "TooManyTuples"
    assert payload["error"]["detail"].startswith(
        "3-sector pairs, r = 2, over |Box| = 1000: ")


def test_ring_dimension(capsys):
    code, payload = run(capsys, "ring", fan_path("p112"))
    assert code == 0
    assert payload["dimension"] == 4
    code, payload = run(capsys, "ring", fan_path("p1"))
    assert payload["dimension"] == 2


def test_ring_with_base(capsys):
    code, payload = run(capsys, "ring", fan_path("gerbe_r2"),
                        "--base", fan_path("base_p1"))
    assert code == 0
    assert payload["dimension"] == 4


def test_ring_out_is_byte_identical(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    code, _ = run(capsys, "ring", fan_path("p112"), "--out", str(out1))
    assert code == 0
    run(capsys, "ring", fan_path("p112"), "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_gerbe_command(capsys):
    code, payload = run(capsys, "gerbe", "--torsion", "3",
                        "--base", fan_path("base_p1"))
    assert code == 0
    assert payload["dimension"] == 6

    code, payload = run(capsys, "gerbe", "--torsion", "2,9")
    assert payload["dimension"] == 18

    code, payload = run(capsys, "gerbe", "--torsion", "1")
    assert payload["dimension"] == 1


# Z/99999999999 x Z/2 is cyclic of order 199999999998: one Box(sigma)
# past the 10^6 bound
HUGE_TORSION = (99999999999, 2)


def test_gerbe_past_the_box_bound_is_a_json_error(capsys):
    code, payload = run(capsys, "gerbe", "--torsion",
                        ",".join(map(str, HUGE_TORSION)))
    assert code == 1
    assert payload["error"]["type"] == "TooManyTuples"


def test_gerbe_past_the_table_bound_is_a_json_error(capsys, monkeypatch):
    # BG(Z/2 x Z/2) has dimension 4, so its table has 10 basis pairs
    monkeypatch.setattr(chowring, "ENUMERATION_BOUND", 9)
    code, payload = run(capsys, "gerbe", "--torsion", "2,2")
    assert code == 1
    assert payload["error"] == {
        "type": "TooManyTuples",
        "detail": "a ring of dimension 4 would fill 10 basis pairs, more "
                  "than the bound 9"}


def test_box_past_the_box_bound_is_a_json_error(capsys, tmp_path):
    doc = {"group": {"rank": 0, "torsion": list(HUGE_TORSION)},
           "rays": [], "cones": [[]], "extra": [[1, 1]]}
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc))
    code, payload = run(capsys, "box", str(path))
    assert code == 1
    assert payload["error"]["type"] == "TooManyTuples"


def test_gerbe_takes_no_line_bundle_class():
    # N has rank 0 here, so M = 0 and no linear relation carries a twist
    # class: the flag that set one changed no ring and is gone
    with pytest.raises(SystemExit) as err:
        main(["gerbe", "--torsion", "2", "--base", fan_path("base_p1"),
              "--line-bundle-class=-H"])
    assert err.value.code == 2


def test_resolve_check(capsys):
    code, payload = run(capsys, "resolve-check", fan_path("p112"),
                        fan_path("p112_hirzebruch"), "--h", "0,0,0,1",
                        "--base", fan_path("base_p1"))
    assert code == 0
    assert payload["support_function"]["h_values"] == [0, 0, 0, 1]
    assert payload["fiber_dimensions"] == {"orbifold": 8, "resolved": 8,
                                           "equal": True}


def test_resolve_check_search(capsys):
    code, payload = run(capsys, "resolve-check", fan_path("p112"),
                        fan_path("p112_hirzebruch"), "--fiber")
    assert code == 0
    assert payload["support_function"]["h_values"] == [0, 0, 0, 1]
    assert payload["fiber_dimensions"]["orbifold"] == 4


def test_internal_fault_exits_with_json_error(capsys, doctor_ring_table):
    def break_unit(table):
        table[(0, 1)] = {1: Fraction(2)}

    doctor_ring_table(break_unit)
    code, payload = run(capsys, "ring", fan_path("p112"))
    assert code == 1
    assert payload == {"error": {"type": "InternalInconsistency",
                                 "detail": "unit law fails"}}


def test_validate_rays_outside_every_cone(capsys, tmp_path):
    doc = {"group": {"rank": 1, "torsion": [3]},
           "rays": [[-1, 0], [-1, 0], [-1, 1], [2, 2]],
           "cones": [[2], [3]], "extra": [[2, 2]]}
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc))
    code, payload = run(capsys, "validate", str(path))
    assert code == 1
    assert payload["valid"] is False
    assert payload["diagnostics"] == [
        {"code": "UnusedRay", "detail": f"ray {i} lies in no maximal cone"}
        for i in (0, 1)]


@pytest.mark.parametrize("k", [7, -1])
@pytest.mark.parametrize("kind", ["product", "twist"])
def test_ring_base_term_index_out_of_range(capsys, tmp_path, kind, k):
    term = [{"k": k, "coeff": "1"}]
    if kind == "product":
        doc = {"basis": [{"label": "1", "degree": 0},
                         {"label": "H", "degree": 1},
                         {"label": "H^2", "degree": 2}],
               "products": [{"i": 1, "j": 1, "terms": term}]}
    else:
        doc = {"basis": [{"label": "1", "degree": 0},
                         {"label": "H", "degree": 1}],
               "products": [{"i": 1, "j": 1, "terms": []}],
               "twists": [term, []]}
    path = tmp_path / "base.json"
    path.write_text(json.dumps(doc))
    code = main(["ring", fan_path("p1"), "--base", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert json.loads(captured.out) == {"error": {
        "type": "DocumentError",
        "detail": f"/: {kind} term index {k} out of range"}}


@pytest.mark.parametrize("kind", ["pair", "term", "twist"])
def test_ring_base_repeat_is_refused(capsys, tmp_path, kind):
    # the parser kept the last repeat: two H H entries gave H H = 5 H^2
    doc = {"basis": [{"label": "1", "degree": 0},
                     {"label": "H", "degree": 1},
                     {"label": "H^2", "degree": 2}],
           "products": [{"i": 1, "j": 1, "terms": [{"k": 2, "coeff": 1}]}],
           "twists": [[{"k": 1, "coeff": -1}], []]}
    if kind == "pair":
        doc["products"].append({"i": 1, "j": 1,
                                "terms": [{"k": 2, "coeff": 5}]})
        detail = "/products/1: repeated product (1,1)"
    elif kind == "term":
        doc["products"][0]["terms"].append({"k": 2, "coeff": 4})
        detail = "/products/0/terms/1: repeated product term 2"
    else:
        doc["twists"][1] = [{"k": 1, "coeff": 1}, {"k": 1, "coeff": 2}]
        detail = "/twists/1/1: repeated twist term 1"
    path = tmp_path / "base.json"
    path.write_text(json.dumps(doc))
    code, payload = run(capsys, "ring", fan_path("p1"), "--base", str(path))
    assert code == 1
    assert payload == {"error": {"type": "DocumentError", "detail": detail}}


@pytest.mark.parametrize("kind,field", [("fan", "group"),
                                        ("base", "basis")])
def test_missing_top_level_field_names_the_root(capsys, tmp_path, kind,
                                                 field):
    """A field missing at the top level is reported at "/", as every other
    refusal of the whole document is, and a nested one at its parent."""
    parse = {"fan": documents.parse_fan_document,
             "base": documents.parse_base_document}[kind]
    with pytest.raises(DocumentError) as err:
        parse({})
    assert (err.value.pointer, str(err.value)) == (
        "/", f"/: missing field {field!r}")
    nested = {"fan": ({"group": {}}, "/group: missing field 'rank'"),
              "base": ({"basis": [{}]},
                       "/basis/0: missing field 'label'")}[kind]
    with pytest.raises(DocumentError, match=f"^{re.escape(nested[1])}$"):
        parse(nested[0])
    path = tmp_path / f"{kind}.json"
    path.write_text("{}")
    argv = (["ring", str(path)] if kind == "fan"
            else ["ring", fan_path("p1"), "--base", str(path)])
    code, payload = run(capsys, *argv)
    assert code == 1
    assert payload == {"error": {"type": "DocumentError",
                                 "detail": f"/: missing field {field!r}"}}


def test_infinite_dimensional_exits_with_json_error(capsys, monkeypatch):
    monkeypatch.setattr(chowring, "linear_relations", lambda sfan, base: [])
    code, payload = run(capsys, "ring", fan_path("p1"))
    assert code == 1
    assert payload == {"error": {
        "type": "InfiniteDimensional",
        "detail": "sector (0,) has a class at degree 2 beyond the bound 1"}}


def test_resolve_check_bad_support_function(capsys):
    code, payload = run(capsys, "resolve-check", fan_path("p112"),
                        fan_path("p112_hirzebruch"), "--h", "0,0,0,0")
    assert code == 1
    assert payload["error"]["type"] == "Inconsistent"


def test_resolve_check_without_a_support_function(capsys, tmp_path):
    sub = twisted_p3((True, True, True))
    refined = ExtendedStackyFan.build(
        sub.coarse.group, sub.refined.rays,
        sub.refined.max_cones)
    paths = []
    for name, sfan in (("coarse", sub.coarse), ("refined", refined)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(documents.fan_to_document(sfan)))
        paths.append(str(path))
    code, payload = run(capsys, "resolve-check", *paths)
    assert code == 1
    assert payload == {"error": {
        "type": "Unsatisfiable",
        "detail": "no support function exists: the strict convexity "
                  "conditions have no rational solution"}}


def test_round_trip_all_fixtures():
    for name in fixtures.FAN_FIXTURES:
        sfan = fixtures.load_fan(name)
        doc = documents.fan_to_document(sfan)
        assert documents.parse_fan_document(doc) == sfan, name
    for name in fixtures.BASE_FIXTURES:
        base = fixtures.load_base(name)
        doc = documents.base_to_document(base)
        again = documents.parse_base_document(doc)
        assert again.labels == base.labels, name
        assert again.degrees == base.degrees, name
        assert again.twists == base.twists, name
        for i in range(base.dim):
            for j in range(base.dim):
                assert again.product(i, j) == base.product(i, j), name


# stdout digests of the fixed commands the benchmark's CLI sweep runs;
# "cold: " keys repeat commands run there as separate processes
DIGESTS = json.loads((Path(__file__).resolve().parent.parent / "benchmark"
                      / "cli_digests.json").read_text())


@pytest.mark.parametrize("command", sorted(
    key for key in DIGESTS if not key.startswith("cold: ")))
def test_recorded_stdout_digest(capsys, command):
    names = fixtures.FAN_FIXTURES + fixtures.BASE_FIXTURES
    argv = [fan_path(a) if a in names else a for a in command.split(" ")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[command]


def test_gerbe_sectors_stdout_digest(capsys):
    """The 1,296 3-sectors of BG(Z/4 x Z/9), all of zero image, which the
    digests above leave out: every pair's complement is -(g1 + g2) in N."""
    assert main(["sectors", fan_path("gerbe_z4z9")]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["count"] == 36 ** 2
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "5f88322ecfd9507905524ba989321ce1705694a9bfc8161c50ef1af963f0f637")


def _call(capsys, argv):
    """(exit code, stdout, stderr) of one main call; usage errors exit 2."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reused_parser_leaks_no_state(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    fan, base = fan_path("gerbe_r2"), fan_path("base_p1")
    calls = [["inertia", fan, "--order", "3"], ["inertia", fan],
             ["ring", fan, "--base", base], ["ring", fan],
             ["ring", fan, "--order", "3"], ["validate", fan]]
    reused = [_call(capsys, argv) for argv in calls]
    assert built.count("stackyring") == 1
    assert [r[0] for r in reused] == [0, 0, 0, 0, 2, 0]
    for argv, got in zip(calls, reused):
        cli._parser.cache_clear()
        assert _call(capsys, argv) == got, argv


def test_commands_are_looked_up_per_call(capsys, monkeypatch):
    run(capsys, "validate", fan_path("p1"))
    monkeypatch.setattr(cli, "cmd_validate", lambda args: (0, {"seen": True}))
    assert run(capsys, "validate", fan_path("p1")) == (0, {"seen": True})
