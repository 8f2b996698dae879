"""Base rings, the deformed product, and assembled ring tables."""

import hashlib
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from generators import (complete_2d_fan, coprime_weights, doctor_table,
                        weighted_projective_fan)
from oracles import is_unital_associative
from stackyring import chowring, documents, fixtures
from stackyring.chowring import (BaseRing, deformed_mul,
                                 isomorphic_presentation_check,
                                 linear_relations,
                                 module_decomposition_report,
                                 ordinary_chow_ring, orbifold_ring,
                                 stanley_reisner_generators)
from stackyring.errors import (DimensionMismatch, DocumentError, IncompleteFan,
                               InfiniteDimensional, InternalInconsistency,
                               TwistArityMismatch)
from stackyring.fan import SimplicialFan
from stackyring.lattice import FgAbGroup
from stackyring.linalg import rank
from stackyring.stacky import ExtendedStackyFan

POINT = BaseRing.point()


# graded, commutative and unital, but (x x) y = c while x (x y) = 2c
NON_ASSOCIATIVE = (("1", "x", "y", "a", "b", "c"), (0, 1, 1, 2, 2, 3),
                   {(1, 1): {3: 1}, (1, 2): {4: 1}, (2, 3): {5: 1},
                    (1, 4): {5: 2}})

# (ab)c = (bc)a = d but (ac)b = 0: comparing (ij)k with (jk)i alone
# misses it, and so does checking a(bc) = (ab)c for b <= c only
ONE_ORDER_ASSOCIATIVE = (("1", "a", "b", "c", "x", "y", "z", "d"),
                         (0, 1, 1, 1, 2, 2, 2, 3),
                         {(1, 2): {4: 1}, (2, 3): {5: 1}, (1, 3): {6: 1},
                          (3, 4): {7: 1}, (1, 5): {7: 1}})

# graded, commutative and unital, but (b b) a = d while b (b a) = 0; every
# spanning product factors, and only L_a L_b != L_b L_a (on b) shows it
NONCOMMUTING_GENERATORS = (("1", "a", "b", "c", "d"), (0, 1, 1, 2, 3),
                           {(2, 2): {3: 1}, (1, 3): {4: 1}})

# (x x)(x x) = z but x (x (x x)) = 0; z is a generator, as no product of
# x reaches it. The generators x and z commute, as their products vanish,
# and s_i s_j = s_p (h s_j) for j >= i fails at y y only, so check (2) on
# j > i alone accepts it, and so does check (2) on j < i alone
SQUARE_DOES_NOT_FACTOR = (("1", "x", "y", "z"), (0, 1, 2, 4),
                          {(1, 1): {2: 1}, (2, 2): {3: 1}})


def test_base_ring_validation():
    with pytest.raises(ValueError):
        BaseRing(("1", "x"), (0, 0), {})  # two units
    with pytest.raises(ValueError,
                       match=r"^product \(1,1\) not degree additive at 1$"):
        BaseRing(("1", "x"), (0, 1), {(1, 1): {1: 1}})  # degree drift
    with pytest.raises(ValueError, match="^unit law fails$"):
        # unit row must be the identity
        BaseRing(("1", "x"), (0, 1), {(0, 1): {1: 2}})
    with pytest.raises(ValueError,
                       match=r"^associativity fails on \(1,1,2\)$"):
        BaseRing(*NON_ASSOCIATIVE)
    with pytest.raises(ValueError,
                       match=r"^associativity fails on \(1,2,3\)$"):
        BaseRing(*ONE_ORDER_ASSOCIATIVE)


@pytest.mark.parametrize("ring, commute, factor, triple", [
    (NONCOMMUTING_GENERATORS, False, True, "1,2,2"),
    (SQUARE_DOES_NOT_FACTOR, True, False, "1,1,2")],
    ids=["commute", "factor"])
def test_each_certificate_check_carries_weight(ring, commute, factor, triple):
    """Each table fails one of the two checks alone, so the certificate
    without check (1), or with check (2) on j > i or on j < i only, would
    accept a table that is not associative."""
    labels, degrees, products = ring
    product = {(0, j): {j: 1} for j in range(len(degrees))}
    product.update({(j, 0): {j: 1} for j in range(len(degrees))})
    for (i, j), terms in products.items():
        product[i, j] = product[j, i] = terms
    generators, spanning, factors = chowring._generating_walk(degrees, 0,
                                                              product)
    assert chowring._generators_commute(degrees, generators,
                                        product) == commute
    assert chowring._spanning_pairs_factor(degrees, spanning, factors,
                                           product) == factor
    with pytest.raises(ValueError,
                       match=rf"^associativity fails on \({triple}\)$"):
        BaseRing(*ring)


def test_base_document_refuses_repeats():
    """A repeated product pair, product term or twist term is refused at
    its pointer; the parser used to keep the last one (H H = 5 H^2)."""
    def doc(products, twists=None):
        out = {"basis": [{"label": "1", "degree": 0},
                         {"label": "H", "degree": 1},
                         {"label": "H^2", "degree": 2}],
               "products": [{"i": 1, "j": 1,
                             "terms": [{"k": 2, "coeff": q} for q in qs]}
                            for qs in products]}
        if twists is not None:
            out["twists"] = [[{"k": 1, "coeff": q} for q in twists]]
        return out

    assert documents.parse_base_document(doc([[1]], [-1])).product(1, 1) \
        == {2: 1}
    for bad, message in (
            (doc([[1], [5]]), "/products/1: repeated product (1,1)"),
            (doc([[1, 5]]), "/products/0/terms/1: repeated product term 2"),
            (doc([[1]], [1, -1]), "/twists/0/1: repeated twist term 1")):
        with pytest.raises(DocumentError) as err:
            documents.parse_base_document(bad)
        assert str(err.value) == message


@pytest.mark.parametrize("k", [7, -1])
def test_base_ring_term_indices_in_range(k):
    # -1 used to index from the end: H^2 here, H in the twist
    with pytest.raises(ValueError,
                       match=rf"^product term index {k} out of range$"):
        BaseRing(("1", "H", "H^2"), (0, 1, 2), {(1, 1): {k: 1}})
    with pytest.raises(ValueError,
                       match=rf"^twist term index {k} out of range$"):
        BaseRing.projective_space(1).with_twists([{k: 1}, {}])


def test_base_document_must_be_associative():
    for ring, triple in ((NON_ASSOCIATIVE, r"\(1,1,2\)"),
                         (ONE_ORDER_ASSOCIATIVE, r"\(1,2,3\)")):
        labels, degrees, products = ring
        doc = {"basis": [{"label": lab, "degree": d}
                         for lab, d in zip(labels, degrees)],
               "products": [{"i": i, "j": j,
                             "terms": [{"k": k, "coeff": str(q)}
                                       for k, q in terms.items()]}
                            for (i, j), terms in products.items()]}
        with pytest.raises(DocumentError,
                           match=rf"^/: associativity fails on {triple}$"):
            documents.parse_base_document(doc)


def _p112_over_p1_doctorings():
    """(change, message) pairs for the table of P(1,1,2) over P^1.

    Over a point every product of three non-unit classes of P(1,1,2) has
    degree above its top degree 2, so no changed coefficient could break
    associativity there; over P^1 the triple D D H reaches degree 3.
    """
    ring = orbifold_ring(fixtures.load_fan("p112"),
                         fixtures.load_base("base_p1"))
    h = ring.basis_index((0, 0), (0, 0, 0), "H")
    d = ring.basis_index((0, 0), (1, 0, 0), "1")
    dd = ring.basis_index((0, 0), (2, 0, 0), "1")
    ddh = ring.basis_index((0, 0), (2, 0, 0), "H")
    twisted = ring.basis_index((0, -1), (0, 0, 0), "1")
    u = ring.unit_index
    assert h < d and {(h, d), (d, d), (u, twisted)} <= set(ring._table)

    def double_dd(table):
        table[(d, d)] = {dd: Fraction(2)}

    def break_unit(table):
        table[(u, twisted)] = {twisted: Fraction(2)}

    def wrong_degree(table):
        table[(h, d)] = {**table[(h, d)], ddh: Fraction(1)}

    return [(double_dd, f"associativity fails on ({h},{d},{d})"),
            (break_unit, "unit law fails"),
            (wrong_degree, f"product ({h},{d}) not degree additive at {ddh}")]


@pytest.mark.parametrize("case", range(3),
                         ids=["coefficient", "unit_row", "degree"])
def test_doctored_table_raises_internal_inconsistency(case, doctor_ring_table):
    change, message = _p112_over_p1_doctorings()[case]
    doctor_ring_table(change)
    with pytest.raises(InternalInconsistency) as err:
        orbifold_ring(fixtures.load_fan("p112"), fixtures.load_base("base_p1"))
    assert str(err.value) == message


def test_doctored_gerbe_table_is_checked_in_degree_zero(doctor_ring_table):
    """On BG(Z/4) every class has degree 0; a generating set that assumed
    the degree-0 part to be Q 1 would check nothing here."""
    sfan = ExtendedStackyFan.build(FgAbGroup(0, (4,)), (), ((),), ((1,),))
    ring = orbifold_ring(sfan, POINT)
    one = ring.basis_index((1,), (), "1")
    two = ring.basis_index((2,), (), "1")
    assert (one, two) == (1, 2) and ring.product(one, one) == {two: 1}

    def double(table):
        table[(one, one)] = {two: Fraction(2)}

    doctor_ring_table(double)
    with pytest.raises(InternalInconsistency,
                       match=r"^associativity fails on \(1,1,2\)$"):
        orbifold_ring(sfan, POINT)


def _gerbe(torsion, extra):
    return ExtendedStackyFan.build(FgAbGroup(0, torsion), (), ((),), (extra,))


def _doctoring_tables():
    """(name, degrees, unit, table) of small assembled ring tables."""
    p1 = fixtures.load_base("base_p1")
    cases = [
        ("p112/P1", fixtures.load_fan("p112"), p1),
        ("Z/12/P1", _gerbe((12,), (5,)), BaseRing.projective_space(1)
         .with_twists([{"H": -1}])),
        ("Z/2xZ/6", _gerbe((2, 6), (1, 3)), POINT),
        ("Z/2xZ/2xZ/3/P1", _gerbe((2, 2, 3), (1, 1, 2)),
         BaseRing.projective_space(1).with_twists([{"H": 1}])),
        ("P(1,2,3)", weighted_projective_fan([1, 2, 3]), POINT),
        ("P(1,1,3)", weighted_projective_fan([1, 1, 3]), POINT)]
    for name, sfan, base in cases:
        ring = orbifold_ring(sfan, base)
        yield (name, [b.degree for b in ring.basis], ring.unit_index,
               ring._table)


def test_check_refuses_exactly_what_the_oracle_refuses():
    """Seeded doctorings of small tables, each one changed coefficient or
    one added term of the right degree, are refused by _check_structure
    exactly when the brute-force oracle, which compares every triple
    i <= j <= k, refuses them."""
    verdicts = Counter()
    for name, degrees, unit, table in _doctoring_tables():
        assert is_unital_associative(degrees, unit, table), name
        rng = random.Random(f"doctor:{name}")
        for case in range(20):
            doctored = {key: dict(terms) for key, terms in table.items()}
            doctor_table(doctored, degrees, rng)
            try:
                chowring._check_structure(degrees, unit, doctored,
                                          InternalInconsistency)
                refused = False
            except InternalInconsistency:
                refused = True
            assert refused == (not is_unital_associative(
                degrees, unit, doctored)), (name, case)
            verdicts[refused] += 1
    assert verdicts[True] and verdicts[False]


def test_doctored_rings_are_refused_as_the_oracle_says(doctor_ring_table):
    """The same through ring assembly: orbifold_ring on P(1,1,2) over P^1
    raises InternalInconsistency exactly for the doctored tables the
    oracle refuses."""
    sfan, base = fixtures.load_fan("p112"), fixtures.load_base("base_p1")
    ring = orbifold_ring(sfan, base)
    degrees = [b.degree for b in ring.basis]
    rng = random.Random(5)
    doctored = []

    def change(table):
        doctor_table(table, degrees, rng)
        doctored.append({key: dict(terms) for key, terms in table.items()})

    doctor_ring_table(change)
    for case in range(12):
        try:
            orbifold_ring(sfan, base)
            refused = False
        except InternalInconsistency:
            refused = True
        assert refused == (not is_unital_associative(
            degrees, ring.unit_index, doctored[-1])), case


def test_base_ring_twists_must_have_degree_one():
    p1 = BaseRing.projective_space(1)
    with pytest.raises(ValueError):
        p1.with_twists([{"1": 1}])
    twisted = p1.with_twists([{"H": Fraction(-1)}, {}])
    assert twisted.twists == (((1, Fraction(-1)),), ())


def test_projective_space_ring():
    p2 = BaseRing.projective_space(2)
    assert p2.labels == ("1", "H", "H^2")
    h = p2.label_index("H")
    assert p2.product(h, h) == {2: Fraction(1)}
    assert p2.product(2, h) == {}
    assert p2.top_degree == 2


def test_tensor_ring():
    t = BaseRing.tensor(BaseRing.projective_space(1),
                        BaseRing.projective_space(1))
    assert t.dim == 4
    assert sorted(t.degrees) == [0, 1, 1, 2]
    hh = t.label_index("H*H")
    assert t.product(hh, hh) == {}


def test_stanley_reisner_generators():
    p112 = fixtures.load_fan("p112")
    assert stanley_reisner_generators(p112) == ((0, 1, 2),)
    hirz = fixtures.load_fan("p112_hirzebruch")
    assert stanley_reisner_generators(hirz) == ((0, 2), (1, 3))
    rng = random.Random(4242)
    fans = [fixtures.load_fan(name).fan for name in fixtures.FAN_FIXTURES]
    fans += [complete_2d_fan(rng).fan for _ in range(20)]
    fans += [weighted_projective_fan(coprime_weights(rng, 4)).fan
             for _ in range(5)]
    # rays 3 and 4 lie in no cone, so each is a minimal non-face alone
    fans.append(SimplicialFan(2, [(1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0)],
                              [(0, 1), (1, 2), (0, 2)]))
    for fan in fans:
        assert stanley_reisner_generators(fan) == oracles.minimal_non_faces(
            fan.num_rays, fan.max_cones), fan


def test_stanley_reisner_generators_of_forty_rays_in_under_a_second():
    # 48 primitive directions in [-4, 4]^2, every sixth left out; gaps
    # between consecutive directions stay below pi, so the fan is complete
    dirs = sorted(((a, b) for a in range(-4, 5) for b in range(-4, 5)
                   if math.gcd(a, b) == 1),
                  key=lambda v: math.atan2(v[1], v[0]))
    rays = [v for k, v in enumerate(dirs) if k % 6]
    n = len(rays)
    fan = SimplicialFan(2, rays, [sorted((i, (i + 1) % n)) for i in range(n)])
    assert n == 40 and fan.validate() == []
    start = time.perf_counter()
    got = stanley_reisner_generators(fan)
    assert time.perf_counter() - start < 1.0
    # the non-adjacent pairs, n (n - 3) / 2 of them
    assert got == tuple((i, j) for i in range(n) for j in range(i + 2, n)
                        if (i, j) != (0, n - 1))


def test_deformed_mul_cone_gate(p112):
    # keys are (c, minimal cone of c_bar as a ray bit mask, label)
    # (1,1) and (-1,-1) have no common cone, so the product vanishes
    a = {((1, 1), 0b011, 0): Fraction(1)}
    b = {((-1, -1), 0b110, 0): Fraction(1)}
    assert deformed_mul(p112, POINT, a, b) == {}
    c = {((0, 1), 0b010, 0): Fraction(1)}
    got = deformed_mul(p112, POINT, a, c)
    assert got == {((1, 2), 0b011, 0): Fraction(1)}
    # on the Hirzebruch surface every ray is a face but (0, 2) is not, so
    # y^{b0} y^{b2} = 0 while y^{b0} y^{b1} = y^{b0 + b1}
    hirz = fixtures.load_fan("p112_hirzebruch")
    assert (0, 2) in stanley_reisner_generators(hirz)
    y = [{(lift, 1 << i, 0): Fraction(1)}
         for i, lift in enumerate(hirz.ray_lifts)]
    assert all(hirz.fan.is_face((i,)) for i in range(4))
    assert deformed_mul(hirz, POINT, y[0], y[2]) == {}
    assert deformed_mul(hirz, POINT, y[0], y[1]) \
        == {((1, 1), 0b0011, 0): Fraction(1)}


def test_linear_relations_p112(p112):
    rels = linear_relations(p112, POINT)
    assert len(rels) == 2
    as_dicts = [{c: q for (c, _, _), q in rel.items()} for rel in rels]
    assert {(1, 0): Fraction(1), (-1, -2): Fraction(-1)} in as_dicts
    assert {(0, 1): Fraction(1), (-1, -2): Fraction(-2)} in as_dicts
    # each term y^{b_i} carries the ray i as its cone
    assert {((1, 0), 0b001, 0): Fraction(1),
            ((-1, -2), 0b100, 0): Fraction(-1)} in rels
    assert {((0, 1), 0b010, 0): Fraction(1),
            ((-1, -2), 0b100, 0): Fraction(-2)} in rels


def test_ring_requires_complete_fan():
    half = ExtendedStackyFan.build(FgAbGroup(2, ()), [[1, 0], [0, 1]],
                                   [[0, 1]])
    with pytest.raises(IncompleteFan):
        orbifold_ring(half, POINT)


def test_twist_arity_checked_against_fan():
    p1 = fixtures.load_fan("p1")
    base = fixtures.load_base("base_p1_minus_h")  # arity 3
    with pytest.raises(TwistArityMismatch):
        orbifold_ring(p1, base)


FROZEN_DIMENSIONS = {
    ("p1", "base_point"): (2, {Fraction(0): 1, Fraction(1): 1}),
    ("p2", "base_point"): (3, {Fraction(0): 1, Fraction(1): 1,
                               Fraction(2): 1}),
    ("p112", "base_point"): (4, {Fraction(0): 1, Fraction(1): 2,
                                 Fraction(2): 1}),
    ("p112_hirzebruch", "base_point"): (4, {Fraction(0): 1, Fraction(1): 2,
                                            Fraction(2): 1}),
    ("example_rank1", "base_p1_minus_h"): (
        8, {Fraction(0): 1, Fraction(1, 2): 2, Fraction(1): 2,
            Fraction(3, 2): 2, Fraction(2): 1}),
    ("example_rank1_tilde", "base_point"): (
        4, {Fraction(0): 1, Fraction(1, 2): 2, Fraction(1): 1}),
    ("gerbe_r2", "base_p1"): (4, {Fraction(0): 2, Fraction(1): 2}),
    ("gerbe_r3", "base_p1"): (6, {Fraction(0): 3, Fraction(1): 3}),
    ("gerbe_z4z9", "base_p1"): (72, {Fraction(0): 36, Fraction(1): 36}),
}


def test_ring_dimensions_and_histograms():
    for (fan_name, base_name), (dim, hist) in FROZEN_DIMENSIONS.items():
        ring = orbifold_ring(fixtures.load_fan(fan_name),
                             fixtures.load_base(base_name))
        assert ring.dimension == dim, fan_name
        assert ring.degree_histogram() == hist, fan_name


def test_ordinary_ring_is_untwisted_sector(p112):
    ring = ordinary_chow_ring(p112, POINT)
    assert ring.dimension == 3
    assert ring.degree_histogram() == {Fraction(0): 1, Fraction(1): 1,
                                       Fraction(2): 1}


def test_unit_and_commutativity(p112):
    ring = orbifold_ring(p112, POINT)
    u = ring.unit_index
    for i in range(ring.dimension):
        assert ring.product(u, i) == {i: Fraction(1)}
        for j in range(ring.dimension):
            assert ring.product(i, j) == ring.product(j, i)


def test_sector_indices_and_basis_index(p112):
    ring = orbifold_ring(p112, POINT)
    twisted = ring.sector_indices((0, -1))
    assert len(twisted) == 1
    idx = ring.basis_index((0, -1), (0, 0, 0), "1")
    assert idx == twisted[0]
    with pytest.raises(KeyError):
        ring.basis_index((0, -1), (9, 9, 9), "1")


def test_module_decomposition_p112(p112):
    ring = orbifold_ring(p112, POINT)
    reports = module_decomposition_report(ring)
    assert [r.value for r in reports] == [(0, 0), (0, -1)]
    assert [r.dim for r in reports] == [3, 1]
    assert reports[1].age == 1
    assert reports[1].histogram == ((Fraction(1), 1),)


def test_module_decomposition_all_cases():
    for fan_name, base_name in fixtures.RING_CASES:
        ring = orbifold_ring(fixtures.load_fan(fan_name),
                             fixtures.load_base(base_name))
        reports = module_decomposition_report(ring)
        assert sum(r.dim for r in reports) == ring.dimension, fan_name


def test_isomorphic_presentation_identity(p112):
    ring = orbifold_ring(p112, POINT)
    assert isomorphic_presentation_check(ring, ring,
                                         range(ring.dimension))


def test_isomorphic_presentation_detects_difference():
    r1 = orbifold_ring(fixtures.load_fan("p112"), POINT)
    r2 = orbifold_ring(fixtures.load_fan("p112_hirzebruch"), POINT)
    # both histograms are {0:1, 1:2, 2:1}; neither degree-preserving
    # bijection makes the tables agree
    degree_one_1 = [i for i, b in enumerate(r1.basis) if b.degree == 1]
    degree_one_2 = [i for i, b in enumerate(r2.basis) if b.degree == 1]
    others = {i: j for i, j in ((r1.unit_index, r2.unit_index),)}
    top_1 = next(i for i, b in enumerate(r1.basis) if b.degree == 2)
    top_2 = next(i for i, b in enumerate(r2.basis) if b.degree == 2)
    matches = []
    for swap in (False, True):
        pair = list(degree_one_2)
        if swap:
            pair.reverse()
        bij = [None] * 4
        bij[r1.unit_index] = r2.unit_index
        bij[top_1] = top_2
        for a, b in zip(degree_one_1, pair):
            bij[a] = b
        matches.append(isomorphic_presentation_check(r1, r2, bij))
    assert matches == [False, False]


def test_isomorphic_presentation_dimension_mismatch():
    r1 = orbifold_ring(fixtures.load_fan("p1"), POINT)
    r2 = orbifold_ring(fixtures.load_fan("p2"), POINT)
    with pytest.raises(DimensionMismatch):
        isomorphic_presentation_check(r1, r2, range(2))


def test_ring_json_dict_shape(p112):
    ring = orbifold_ring(p112, POINT)
    doc = ring.to_json_dict()
    assert doc["dimension"] == 4
    assert len(doc["basis"]) == 4
    assert all(len(entry) == 4 for entry in doc["products"])
    # products are stored once per unordered pair
    pairs = {(i, j) for i, j, _, _ in doc["products"]}
    assert all(i <= j for i, j in pairs)


# N = Z + Z/3; rays 0 and 1 point along ray 2 but lie in no maximal cone
UNUSED_RAYS = {"group": {"rank": 1, "torsion": [3]},
               "rays": [[-1, 0], [-1, 0], [-1, 1], [2, 2]],
               "cones": [[2], [3]], "extra": [[2, 2]]}


def test_ring_refuses_rays_outside_every_cone():
    sfan = documents.parse_fan_document(UNUSED_RAYS)
    assert sfan.fan.is_complete()
    assert [d.detail for d in sfan.validate()] == [
        "ray 0 lies in no maximal cone", "ray 1 lies in no maximal cone"]
    with pytest.raises(ValueError, match=r"^invalid fan: \['ray 0 lies"):
        orbifold_ring(sfan, POINT)


def test_infinite_dimensional_names_sector_and_degree(monkeypatch):
    # without relations every monomial survives, up to twice the cap
    monkeypatch.setattr(chowring, "linear_relations", lambda sfan, base: [])
    with pytest.raises(InfiniteDimensional,
                       match=r"^sector \(0,\) has a class at degree 2 "
                             r"beyond the bound 1$"):
        orbifold_ring(fixtures.load_fan("p1"), POINT)


def test_ring_assembly_never_decomposes(monkeypatch):
    calls = []
    decompose = ExtendedStackyFan.box_decompose

    def counted(self, c):
        calls.append(c)
        return decompose(self, c)

    monkeypatch.setattr(ExtendedStackyFan, "box_decompose", counted)
    for fan_name, base_name in fixtures.RING_CASES:
        sfan = fixtures.load_fan(fan_name)
        base = fixtures.load_base(base_name)
        orbifold_ring(sfan, base)
        ordinary_chow_ring(sfan, base)
    assert calls == []
    sfan.box_decompose(sfan.group.zero())
    assert len(calls) == 1  # the counter is live


def test_failing_triple_is_named_on_refusal_only(monkeypatch):
    calls = []
    scan = chowring._name_failing_triple

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(chowring, "_name_failing_triple", counted)
    for fan_name, base_name in fixtures.RING_CASES:
        orbifold_ring(fixtures.load_fan(fan_name),
                      fixtures.load_base(base_name))
    assert calls == []
    with pytest.raises(ValueError,
                       match=r"^associativity fails on \(1,2,3\)$"):
        BaseRing(*ONE_ORDER_ASSOCIATIVE)
    assert len(calls) == 1  # the counter is live


# sha256 of canonical ring documents that faster assembly must not change
PINNED_RING_DIGESTS = {
    (1, 2, 3, 5):
        "2dd2c434ca7b24a0e9dbcb4d0667f6b47ff4b34214d0c513b9240c4e3b236cb1",
    (1, 1, 1, 3):
        "83d0f8fcc66bfee06b954357b7be1715568eea7b81930c7c922e019880676571",
}
P112_OVER_P2_DIGEST = \
    "62bf87b4d3e7ab094c9072b1673e0924a534b1e98b73a5d3970e78a8fb0bd1e2"
# (torsion, extra vector, base P^n, twist coefficient of H) of gerbes:
# the 108-dimensional BG(Z/2 x Z/3 x Z/6) over P^2 and a three-factor
# order-24 gerbe over P^1 like those of the gerbe_table benchmark
PINNED_GERBE_DIGESTS = {
    ((2, 3, 6), (1, 1, 1), 2, 1):
        "3d8042b72ef5e72b72c481a66424908211d9939fd7c561d7060ec15ec9d9bf9e",
    ((2, 3, 4), (1, 2, 3), 1, -2):
        "b9d2b164459bfd2c30545ac2cc1da0670e91d20d824296f60843325ba2619a78",
}


def _ring_digest(sfan, base):
    text = documents.dumps_canonical(orbifold_ring(sfan, base).to_json_dict())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_pinned_ring_digests():
    for weights, want in PINNED_RING_DIGESTS.items():
        assert _ring_digest(weighted_projective_fan(list(weights)),
                            POINT) == want, weights
    assert _ring_digest(fixtures.load_fan("p112"),
                        BaseRing.projective_space(2)) == P112_OVER_P2_DIGEST
    for (torsion, extra, n, twist), want in PINNED_GERBE_DIGESTS.items():
        base = BaseRing.projective_space(n).with_twists([{"H": twist}])
        assert _ring_digest(_gerbe(torsion, extra), base) == want, torsion


def test_sectors_are_enumerated_to_cap_plus_one(monkeypatch):
    spaces = []
    enumerate_sector = chowring._sector_monomials

    def recorded(sfan, base, box, bound):
        monomials = enumerate_sector(sfan, base, box, bound)
        spaces.append((box, monomials))
        return monomials

    monkeypatch.setattr(chowring, "_sector_monomials", recorded)
    sfan = weighted_projective_fan([1, 1, 1, 1, 2])
    assert orbifold_ring(sfan, POINT).dimension == 6
    unit = [m for box, m in spaces if box.value == sfan.group.zero()]
    # 1231 monomials when the bound was twice the cap 4
    assert [len(m) for m in unit] == [251]


def test_relation_row_stays_in_its_sector_and_degree(monkeypatch):
    """A relation row of sector v at degree d + 1 may touch only monomials
    of that sector and degree. The row of a degree-d monomial times a
    degree-0 relation is that monomial, at degree d; filed at degree d + 1
    by its position alone, it gave P1 a 2-dimensional "ring" that every
    check accepted."""
    sfan = fixtures.load_fan("p1")
    zero = sfan.group.zero()
    monkeypatch.setattr(chowring, "linear_relations",
                        lambda sfan, base: [{(zero, 0, base.unit_index): 1}])
    with pytest.raises(InternalInconsistency,
                       match=r"^relation term escaped sector \(0,\) "
                             r"at degree 1$"):
        orbifold_ring(sfan, POINT)


def test_product_outside_the_computed_sectors_is_refused():
    """BG(Z/3) assembled from the sectors 0 and 1 alone: y^1 y^1 = y^2
    lies in no computed sector."""
    sfan = fixtures.load_fan("gerbe_r3")
    with pytest.raises(InternalInconsistency,
                       match="^product term left the computed sectors$"):
        chowring._assemble(sfan, POINT, sfan.box()[:2])


def _ring_cases():
    for fan_name, base_name in fixtures.RING_CASES:
        yield fan_name, fixtures.load_fan(fan_name), fixtures.load_base(
            base_name)
    rng = random.Random(4)
    for _ in range(4):
        weights = coprime_weights(rng, 4)
        yield f"P{tuple(weights)}", weighted_projective_fan(weights), POINT


def test_monomial_keys_decompose_to_their_monomials():
    """Every key (c, tau, label) of every sector's monomials splits back
    into its sector and exponents, so no two monomials share a key."""
    for name, sfan, base in _ring_cases():
        bound = 2 * (base.top_degree + sfan.fan.ambient_dim)
        keys, count = set(), 0
        for box in sfan.box():
            monomials = chowring._sector_monomials(sfan, base, box, bound)
            assert monomials == sorted(monomials), name
            for deg, exp, (c, _, li) in monomials:
                assert deg == box.age + sum(exp) + base.degrees[li] <= bound
                v, mult = sfan.box_decompose(c)
                assert v == box, (name, c)
                assert tuple(mult.get(i, 0) for i in range(sfan.n)) \
                    == exp, (name, c)
                keys.add((c, li))
                count += 1
        assert len(keys) == count, name


def _oracle_cone(sfan, points):
    """The oracle's minimal cone of images c_bar, read off the free
    coordinates, as a ray bit mask; None without a common cone."""
    rank = sfan.group.rank
    rays = [list(r) for r in sfan.fan.rays]
    cone = oracles.minimal_cone(rays, sfan.fan.max_cones,
                                [list(p[:rank]) for p in points])
    return None if cone is None else sum(1 << i for i in cone)


def test_key_cones_match_the_oracle():
    """Each monomial's tau is the oracle's minimal cone of c_bar; for
    sampled key pairs, the product is nonzero exactly when the oracle finds
    a common cone, and its key carries the oracle's cone of the sum."""
    rng = random.Random(20261018)
    cases = list(_ring_cases())
    cases += [(f"2d fan {k}", complete_2d_fan(rng), POINT) for k in range(4)]
    for name, sfan, base in cases:
        assert sfan.validate() == [], name
        bound = base.top_degree + sfan.fan.ambient_dim + 1
        keys = {(c, tau) for box in sfan.box()
                for _, _, (c, tau, _) in chowring._sector_monomials(
                    sfan, base, box, bound)}
        keys.update((c, tau) for rel in linear_relations(sfan, base)
                    for c, tau, _ in rel)
        keys = sorted(keys)
        for c, tau in keys:
            assert tau == _oracle_cone(sfan, [c]), (name, c)
        unit = base.unit_index
        for _ in range(60):
            (c1, t1), (c2, t2) = rng.choice(keys), rng.choice(keys)
            got = deformed_mul(sfan, base, {(c1, t1, unit): Fraction(1)},
                               {(c2, t2, unit): Fraction(1)})
            if _oracle_cone(sfan, [c1, c2]) is None:
                assert got == {}, (name, c1, c2)
                continue
            [(c, tau, label)] = got
            assert (c, label) == (sfan.group.add(c1, c2), unit), name
            assert tau == _oracle_cone(sfan, [c]), (name, c1, c2)


def test_dimension_is_base_times_local_group_orders():
    for name, sfan, base in _ring_cases():
        orders = sum(sfan.local_group(sigma)[0].order()
                     for sigma in sfan.fan.max_cones)
        assert orbifold_ring(sfan, base).dimension == base.dim * orders, name


def test_orbifold_poincare_pairing_is_nondegenerate():
    for name, sfan, base in _ring_cases():
        ring = orbifold_ring(sfan, base)
        cap = base.top_degree + sfan.fan.ambient_dim
        [top] = [i for i, b in enumerate(ring.basis)
                 if b.sector == sfan.group.zero() and b.degree == cap]
        n = ring.dimension
        pairing = [[ring.product(i, j).get(top, 0) for j in range(n)]
                   for i in range(n)]
        assert rank(pairing) == n, name
