"""Base rings, the deformed product, and assembled ring tables."""

import copy
import dataclasses
import hashlib
import itertools
import math
import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from generators import (complete_2d_fan, coprime_weights, doctor_table,
                        weighted_projective_fan)
from oracles import is_unital_associative
from stackyring import chowring, documents, fixtures, stacky
from stackyring.chowring import (BaseRing, deformed_mul,
                                 isomorphic_presentation_check,
                                 linear_relations,
                                 module_decomposition_report,
                                 ordinary_chow_ring, orbifold_ring,
                                 stanley_reisner_generators)
from stackyring.errors import (DecompositionMismatch, DimensionMismatch,
                               DocumentError, IncompleteFan,
                               InfiniteDimensional, InternalInconsistency,
                               TooManyTuples, TwistArityMismatch)
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


@pytest.mark.parametrize("k, text", [
    (2.7, "2.7 is not an exact rational"),
    (True, "True is not an exact rational"),
    (Fraction(3, 2), "3/2 is not an integer")],
    ids=["float", "bool", "fraction"])
def test_base_ring_term_indices_are_integers(k, text):
    # int() used to read the term index 2.7 as 2 and the twist index 1.2
    # as 1
    with pytest.raises(ValueError, match=rf"^product term index {text}$"):
        BaseRing(("1", "H", "H^2"), (0, 1, 2), {(1, 1): {k: 1}})
    with pytest.raises(ValueError, match=rf"^twist term index {text}$"):
        BaseRing.projective_space(1).with_twists([{k: 1}, {}])


@pytest.mark.parametrize("key, text", [
    ((1.0, 1), "1.0 is not an exact rational"),
    ((1, False), "False is not an exact rational"),
    ((Fraction(1, 2), 1), "1/2 is not an integer")],
    ids=["float", "bool", "fraction"])
def test_base_ring_product_keys_are_integers(key, text):
    # the key (1.0, 1) used to end in a TypeError inside _check_structure
    with pytest.raises(ValueError, match=rf"^product key {text}$"):
        BaseRing(("1", "H", "H^2"), (0, 1, 2), {key: {2: 1}})


def test_base_ring_takes_integral_fraction_indices_as_ints():
    ring = BaseRing(("1", "H", "H^2"), (0, 1, 2),
                    {(Fraction(1), Fraction(2, 2)): {Fraction(4, 2): 1}})
    assert ring.product(1, 1) == {2: 1}
    assert all(type(x) is int for key in ring._table for x in key)
    twisted = ring.with_twists([{Fraction(1): 1}])
    assert twisted.twists == (((1, 1),),)
    assert type(twisted.twists[0][0][0]) is int


@pytest.mark.parametrize("bad", [0.1, 2.0, True],
                         ids=["float", "integral_float", "bool"])
def test_base_ring_refuses_inexact_coefficients(bad):
    # 0.1 used to become 3602879701896397/36028797018963968, and True 1
    shown = re.escape(repr(bad))
    with pytest.raises(ValueError, match=rf"^coefficient {shown}"
                                         r" is not an exact rational$"):
        BaseRing(("1", "H", "H^2"), (0, 1, 2), {(1, 1): {2: bad}})
    with pytest.raises(ValueError, match=rf"^twist coefficient {shown}"
                                         r" is not an exact rational$"):
        BaseRing.projective_space(1).with_twists([{"H": bad}])


@pytest.mark.parametrize("degree, message", [
    (1.9, "degree 1.9 is not an exact rational"),
    (1.0, "degree 1.0 is not an exact rational"),
    (True, "degree True is not an exact rational"),
    (Fraction(3, 2), "degrees must be integers"),
    ("3/2", "degrees must be integers")],
    ids=["float", "integral_float", "bool", "fraction", "string"])
def test_base_ring_refuses_inexact_degrees(degree, message):
    # int() used to truncate 1.9 to 1
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BaseRing(("1", "H"), (0, degree), {})


def test_base_ring_stores_integral_numbers_as_ints():
    ring = BaseRing(("1", "H", "H^2"), (0, "1", Fraction(2)),
                    {(1, 1): {2: Fraction(6, 3)}}).with_twists(
        [{"H": "-1"}, {"H": Fraction(1, 2)}])
    assert ring.degrees == (0, 1, 2) and ring.product(1, 1) == {2: 2}
    assert ring.twists == (((1, -1),), ((1, Fraction(1, 2)),))
    assert [type(x) for x in ring.degrees + (ring.product(1, 1)[2],
                                             ring.twists[0][0][1])] \
        == [int] * 5


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


def test_shared_entries_are_read_only():
    """On BG(Z/6) over P^1, y^1 y^4 and y^2 y^3 are one product monomial
    y^5 and share one stored entry. Writing into the dict that product
    returns for one pair changes neither the other pair's product nor the
    ring document; doctor_table, given the assembled table, changes
    exactly one entry and leaves the shared dicts alone, so the doctored
    table tests still doctor one product."""
    ring = orbifold_ring(_gerbe((6,), (1,)), BaseRing.projective_space(1))
    index = {(g, label): ring.basis_index((g,), (), label)
             for g in range(6) for label in ("1", "H")}
    first = (index[1, "1"], index[4, "1"])
    second = (index[2, "1"], index[3, "1"])
    stored = [ring._table[tuple(sorted(pair))] for pair in (first, second)]
    assert stored[0] is stored[1] and stored[0] == {index[5, "1"]: 1}
    before = documents.dumps_canonical(ring.to_json_dict())
    got = ring.product(*first)
    got[index[5, "1"]] = 2
    got[index[5, "H"]] = 1
    assert ring.product(*second) == {index[5, "1"]: 1}
    assert ring.product(*first) == {index[5, "1"]: 1}
    assert documents.dumps_canonical(ring.to_json_dict()) == before

    degrees = [b.degree for b in ring.basis]
    snapshot = copy.deepcopy(ring._table)
    ids = Counter(id(terms) for terms in ring._table.values())
    rng = random.Random("shared")
    shared_hits = 0
    for _ in range(30):
        doctored = dict(ring._table)  # the stored entry dicts themselves
        doctor_table(doctored, degrees, rng)
        changed = [key for key in set(doctored) | set(snapshot)
                   if doctored.get(key, {}) != snapshot.get(key, {})]
        assert len(changed) == 1, changed
        shared_hits += ids[id(ring._table.get(changed[0]))] > 1
        assert ring._table == snapshot
    assert shared_hits  # some doctored entry was a shared one


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
        ("P(1,1,3)", weighted_projective_fan([1, 1, 3]), POINT),
        # coefficients in (1/9) Z, degrees in (1/5) Z
        ("P(3,4,5)", weighted_projective_fan([3, 4, 5]), POINT),
        ("example_rank1", fixtures.load_fan("example_rank1"),
         fixtures.load_base("base_p1_minus_h"))]
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


def test_scaled_certificate_accepts_the_doctoring_tables():
    """_check_structure runs on D T and L deg. The doctoring tables include
    some with D > 1 and some with L > 1, and each is accepted as it is: a
    unit row compared with e_j instead of D e_j, or degrees truncated
    instead of scaled, would refuse one."""
    lcms = {}  # name -> (D, L)
    for name, degrees, unit, table in _doctoring_tables():
        chowring._check_structure(degrees, unit, table, InternalInconsistency)
        lcms[name] = (math.lcm(*(q.denominator for terms in table.values()
                                 for q in terms.values())),
                      math.lcm(*(d.denominator for d in degrees)))
    assert lcms["P(3,4,5)"] == (9, 5)
    assert lcms["example_rank1"] == (1, 2)


def test_check_structure_leaves_its_table_alone():
    """_check_structure reads D = 1 tables in place and scales the others
    into its own dicts; either way the table it is given, including one
    that it refuses, comes back unchanged, down to the type of each
    coefficient and the order of each dict."""
    scaled = set()  # whether D > 1, over the cases
    fresh = {}
    for name, degrees, unit, assembled in _doctoring_tables():
        # a fresh table, stored as _exact stores one: the assembled one
        # has been through the check inside _assemble already
        table = {pair: {k: chowring._exact(Fraction(q))
                        for k, q in terms.items()}
                 for pair, terms in assembled.items()}
        fresh[name] = degrees, unit, copy.deepcopy(table)
        chowring._check_structure(degrees, unit, table, InternalInconsistency)
        assert repr(table) == repr(fresh[name][2]), name
        scaled.add(math.lcm(*(q.denominator for terms in table.values()
                              for q in terms.values())) > 1)
    assert scaled == {False, True}
    degrees, unit, table = fresh["Z/2xZ/6"]  # D = 1
    rng = random.Random("untouched")
    for _ in range(20):
        doctored = copy.deepcopy(table)
        doctor_table(doctored, degrees, rng)
        if not is_unital_associative(degrees, unit, doctored):
            break
    else:
        raise AssertionError("no refused doctoring drawn")
    before = copy.deepcopy(doctored)
    with pytest.raises(InternalInconsistency):
        chowring._check_structure(degrees, unit, doctored,
                                  InternalInconsistency)
    assert repr(doctored) == repr(before)


def test_scaled_certificate_names_the_unscaled_triple():
    """Each fractional coefficient of P(3,4,5), D = 9, doubled: the scaled
    certificate refuses exactly the tables the oracle refuses, and names
    the triple that the scan by generators names on the unscaled table."""
    [(degrees, unit, table)] = [
        case[1:] for case in _doctoring_tables() if case[0] == "P(3,4,5)"]
    fractional = sorted((key, k) for key, terms in table.items()
                        for k, q in terms.items() if q.denominator > 1)
    assert len(fractional) >= 4
    refusals = 0
    for key, k in fractional:
        doctored = {pair: dict(terms) for pair, terms in table.items()}
        doctored[key][k] *= 2
        product = {(j, i): terms for (i, j), terms in doctored.items()}
        product.update(doctored)
        generators = chowring._generating_walk(degrees, unit, product)[0]
        try:
            chowring._name_failing_triple(degrees, generators, product,
                                          InternalInconsistency)
            want = None
        except InternalInconsistency as exc:
            want = str(exc)
        try:
            chowring._check_structure(degrees, unit, doctored,
                                      InternalInconsistency)
            got = None
        except InternalInconsistency as exc:
            got = str(exc)
        assert got == want, (key, k)
        assert (got is None) == is_unital_associative(degrees, unit,
                                                      doctored), (key, k)
        refusals += got is not None
    assert refusals


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


def _group_ring_calls(monkeypatch):
    """Record (arguments, verdict) of every _group_ring call."""
    calls = []
    certify = chowring._group_ring

    def spy(*args):
        verdict = certify(*args)
        calls.append((args, verdict))
        return verdict

    monkeypatch.setattr(chowring, "_group_ring", spy)
    return calls


def _structure_checks(monkeypatch):
    """Record the class count of every _check_structure call."""
    checked = []
    check = chowring._check_structure

    def spy(degrees, *args):
        checked.append(len(degrees))
        return check(degrees, *args)

    monkeypatch.setattr(chowring, "_check_structure", spy)
    return checked


def test_group_ring_is_taken_exactly_on_gerbes(monkeypatch):
    """The group-ring certificate is called once, and accepts, on every
    gerbe: the gerbe_table shapes (|G| = 24 over P^1, 16 over P^2, twisted
    or not) and BG(Z/6) over a point, so the full check runs on none of
    their tables. No ring with rank N > 0 calls it, and each runs
    _check_structure once, on its whole table: weighted projective planes
    over a point, seeded untwisted 2-D fans over P^1 and P^2 with no
    twists or all-zero ones, P(1,1,2) over P^2, and example_rank1 over
    base_p1_minus_h. Every base is built before the spies count."""
    rng = random.Random("group ring")
    gerbes = []
    for torsion, n in (((24,), 1), ((2, 12), 1), ((2, 2, 6), 1),
                       ((16,), 2), ((4, 4), 2), ((2, 2, 4), 2)):
        extra = tuple(rng.randrange(1, q) for q in torsion)
        base = BaseRing.projective_space(n).with_twists(
            [{"H": rng.randint(-2, 2)}])
        gerbes.append((_gerbe(torsion, extra), base))
    gerbes.append((_gerbe((6,), (1,)), POINT))
    others = [(weighted_projective_fan(w), POINT)
              for w in ([1, 1, 1], [1, 2, 3], [2, 3, 5])]
    for n in (1, 2):
        for zero_twists in (False, True):
            for _ in range(4):
                sfan = complete_2d_fan(rng)
                base = BaseRing.projective_space(n)
                if zero_twists:
                    base = base.with_twists([{}] * sfan.m)
                others.append((sfan, base))
    others += [(fixtures.load_fan("p112"), BaseRing.projective_space(2)),
               (fixtures.load_fan("example_rank1"),
                fixtures.load_base("base_p1_minus_h"))]
    calls = _group_ring_calls(monkeypatch)
    checked = _structure_checks(monkeypatch)
    for sfan, base in gerbes:
        del calls[:], checked[:]
        orbifold_ring(sfan, base)
        assert [verdict for _, verdict in calls] == [True], sfan
        assert checked == [], sfan
    for sfan, base in others:
        del calls[:], checked[:]
        ring = orbifold_ring(sfan, base)
        assert sfan.group.rank > 0
        assert calls == [], sfan
        assert checked == [ring.dimension], sfan


def _split_doctorings(calls):
    """The arguments _assemble hands the group-ring certificate for the
    table of BG(Z/6) over P^1, Q[Z/6] (x) A*(P^1), read off the spy's
    calls, and doctorings of that table, each (change of the table, basis
    index whose degree is raised by 1 or None, the full check's
    refusal)."""
    def pair(a, b):
        return (a, b) if a <= b else (b, a)

    def scaled(keys, by):
        def change(table):
            for key in keys:
                table[key] = {k: by * q for k, q in table[key].items()}
        return change

    def unchanged(table):
        pass

    ring = orbifold_ring(_gerbe((6,), (1,)), BaseRing.projective_space(1))
    [(args, accepted)] = calls
    assert accepted
    del calls[:]
    one = [ring.basis_index((g,), (), "1") for g in range(6)]
    h = [ring.basis_index((g,), (), "H") for g in range(6)]
    off = pair(one[1], h[2])  # y^1 (y^2 H) = y^3 H, off the fibre

    def drop(table):  # no entry differs from the tensor; one is missing
        del table[off]

    def h_term(table):  # a product of two unit-label classes leaves F
        table[one[1], one[2]] = {one[3]: 1, h[3]: 1}

    def fibre(table):  # F' (x) A*(B), F' the group ring with y^1 y^2 = 2 y^3
        scaled([(one[1], one[2]), pair(one[1], h[2]),
                pair(h[1], one[2])], 2)(table)

    def zero_base(table):  # the count holds, with a pair whose H^2 = 0
        del table[off]
        table[pair(h[1], h[2])] = {}

    def reversed_pair(table):  # the count holds, with y^2 y^1 stored twice
        del table[off]
        table[one[2], one[1]] = table[one[1], one[2]]

    doctorings = {
        "dropped": (drop, None,
                    f"associativity fails on ({one[1]},{h[0]},{one[2]})"),
        "h_term": (h_term, None,
                   f"product ({one[1]},{one[2]}) not degree additive "
                   f"at {h[3]}"),
        "coefficient": (scaled([off], 2), None,
                        f"associativity fails on ({one[1]},{h[0]},{one[2]})"),
        "fibre": (fibre, None,
                  f"associativity fails on ({one[1]},{one[1]},{one[2]})"),
        "degree": (unchanged, h[2],
                   f"product ({h[0]},{one[2]}) not degree additive "
                   f"at {h[2]}"),
        "zero_base": (zero_base, None,
                      f"associativity fails on ({one[1]},{h[0]},{one[2]})"),
        "reversed_pair": (reversed_pair, None,
                          f"associativity fails on ({one[1]},{h[0]},"
                          f"{one[2]})")}
    return args, doctorings


@pytest.mark.parametrize("case", ["dropped", "h_term", "coefficient",
                                  "fibre", "degree", "zero_base",
                                  "reversed_pair"])
def test_split_refuses_a_doctored_gerbe_table(case, monkeypatch,
                                              doctor_ring_table):
    """Each doctoring of a gerbe table over P^1 is refused by the
    group-ring certificate: by the pair count (f), by an entry that is not
    its tensor entry (e), by the degrees of the bijection (b), by a stored
    pair whose base product is zero (e), and by a stored pair (i, j) with
    i > j (e); the last two keep the count, and every entry of the
    reversed pair is its tensor entry. Through ring assembly the full
    check then raises its own refusal, word for word."""
    calls = _group_ring_calls(monkeypatch)
    (keys, degrees, unit, table, base, group), doctorings = \
        _split_doctorings(calls)
    change, shifted, message = doctorings[case]
    doctored = dict(table)
    change(doctored)
    degrees = list(degrees)
    if shifted is not None:
        degrees[shifted] += 1
    assert chowring._group_ring(keys, degrees, unit, doctored, base,
                                group) is False
    with pytest.raises(InternalInconsistency) as err:
        chowring._check_structure(degrees, unit, doctored,
                                  InternalInconsistency)
    assert str(err.value) == message

    def change_basis(basis):
        if shifted is not None:
            basis[shifted] = dataclasses.replace(
                basis[shifted], degree=basis[shifted].degree + 1)

    del calls[:]  # the direct call above went through the spy too
    doctor_ring_table(change, change_basis)
    with pytest.raises(InternalInconsistency) as err:
        orbifold_ring(_gerbe((6,), (1,)), BaseRing.projective_space(1))
    assert str(err.value) == message
    assert [verdict for _, verdict in calls] == [False]


def test_split_refuses_a_unit_off_the_base_unit(monkeypatch):
    """A unit that is y^0 H, not y^0 1, is no unit of Q[Z/6] (x) A*(P^1):
    the certificate refuses it, as the full check does."""
    (keys, degrees, unit, table, base, group), _ = _split_doctorings(
        _group_ring_calls(monkeypatch))
    assert chowring._group_ring(keys, degrees, unit, table, base, group)
    [wrong] = [i for i, (c, tau, l) in enumerate(keys)
               if c == keys[unit][0] and l != base.unit_index]
    assert chowring._group_ring(keys, degrees, wrong, table, base,
                                group) is False
    with pytest.raises(InternalInconsistency, match="^unit law fails$"):
        chowring._check_structure(degrees, wrong, table,
                                  InternalInconsistency)


def test_group_ring_refuses_a_repeated_key(monkeypatch):
    """Two basis elements with one (c, l) fail the bijection (a). On
    the intact table of BG(Z/6) over P^1, y^1 H keyed as y^1 1 keeps
    the class count and leaves the slot of y^1 H empty; the certificate
    refuses it at the repeat, before it reads that slot. A box that lists
    y^1 twice repeats both keys of its sector; through ring assembly the
    certificate refuses that table and the full check raises its own
    refusal."""
    calls = _group_ring_calls(monkeypatch)
    (keys, degrees, unit, table, base, group), _ = _split_doctorings(calls)
    assert chowring._group_ring(keys, degrees, unit, table, base, group)
    one, h = keys.index(((1,), 0, 0)), keys.index(((1,), 0, 1))
    doctored = list(keys)
    doctored[h] = keys[one]
    assert chowring._group_ring(doctored, degrees, unit, table, base,
                                group) is False

    sfan = _gerbe((6,), (1,))
    box = sfan.box()
    monkeypatch.setattr(ExtendedStackyFan, "box",
                        lambda self: box + [box[1]])
    del calls[:]
    with pytest.raises(InternalInconsistency, match="^unit law fails$"):
        orbifold_ring(sfan, BaseRing.projective_space(1))
    [(args, verdict)] = calls
    assert verdict is False
    assert args[0][-2:] == [keys[one], keys[h]]


def _gerbe_family(rng):
    """Seeded rank-0 cases: BG(N) with |N| in 1..36 as 1 to 3 cyclic
    factors and 0 to 3 extra vectors, over P^1, P^2, P^1 x P^1 and a
    point, each base untwisted and with seeded twists in -2..2 (all empty
    over the point), and the trivial group over each base."""
    p1 = BaseRing.projective_space(1)
    bases = (p1, BaseRing.projective_space(2), BaseRing.tensor(p1, p1),
             POINT)
    cases = []
    for base in bases:
        lines = [label for label, deg in zip(base.labels, base.degrees)
                 if deg == 1]
        for twisted in (False, True):
            for _ in range(5):
                # each prime factor of the order goes to one of 1 to 3
                # cyclic factors; a factor that gets none is left out
                order, p = rng.randint(1, 36), 2
                factors = [1] * rng.randint(1, 3)
                while order > 1:
                    while order % p:
                        p += 1
                    factors[rng.randrange(len(factors))] *= p
                    order //= p
                torsion = [q for q in factors if q > 1]
                extra = [tuple(rng.randrange(q) for q in torsion)
                         for _ in range(rng.randint(0, 3))]
                sfan = ExtendedStackyFan.build(FgAbGroup(0, tuple(torsion)),
                                               (), ((),), tuple(extra))
                if twisted:
                    cases.append((sfan, base.with_twists(
                        [{label: rng.randint(-2, 2) for label in lines}
                         for _ in range(sfan.m)])))
                else:
                    cases.append((sfan, base))
    trivial = ExtendedStackyFan.build(FgAbGroup(0, ()), (), ((),), ())
    return cases + [(trivial, base) for base in bases]


def test_group_law_matches_the_generic_fibre_check(monkeypatch):
    """On seeded gerbes the group-ring certificate accepts every table and
    _check_structure runs on none; with the certificate forced to refuse,
    every ring document is byte-identical and _check_structure runs once,
    on the whole table."""
    cases = _gerbe_family(random.Random("group law"))
    assert {base.dim for _, base in cases} == {1, 2, 3, 4}
    assert {len(sfan.group.torsion) for sfan, _ in cases} == {0, 1, 2, 3}
    assert {sfan.m for sfan, _ in cases} == {0, 1, 2, 3}
    calls = _group_ring_calls(monkeypatch)
    checked = _structure_checks(monkeypatch)
    fast = []
    for sfan, base in cases:
        del calls[:], checked[:]
        ring = orbifold_ring(sfan, base)
        fast.append(documents.dumps_canonical(ring.to_json_dict()))
        assert [verdict for _, verdict in calls] == [True], sfan
        assert checked == [], sfan
    monkeypatch.setattr(chowring, "_group_ring", lambda *args: False)
    for (sfan, base), text in zip(cases, fast):
        del checked[:]
        ring = orbifold_ring(sfan, base)
        assert documents.dumps_canonical(ring.to_json_dict()) == text, sfan
        assert checked == [ring.dimension], sfan


def _group_law_doctorings(one):
    """The group ring Q[Z/6], the fibre F of BG(Z/6) over P^1, and its
    doctorings, each (fibre table F' on Z/6; whether the unit moves to
    y^1 1; whether y^2 1 and y^2 H gain degree 1; the full check's
    refusal). one[g] is the basis index of y^g 1. The table is rebuilt
    as F' (x) A*(P^1) throughout, so only the group law of F' is off."""
    law = {(a, b): {(a + b) % 6: 1} for a in range(6) for b in range(a, 6)}
    dropped = dict(law)
    del dropped[1, 2]
    return law, {
        "coefficient": ({**law, (1, 2): {3: 2}}, False, False,
                        f"associativity fails on ({one[1]},{one[1]},"
                        f"{one[2]})"),
        "shifted_sum": ({(a, b): {(a + b + 1) % 6: 1} for a, b in law},
                        False, False, "unit law fails"),
        "dropped": (dropped, False, False,
                    f"associativity fails on ({one[1]},{one[1]},{one[2]})"),
        "unit": (law, True, False, "unit law fails"),
        "degree": (law, False, True,
                   f"product ({one[1]},{one[1]}) not degree additive at "
                   f"{one[2]}")}


@pytest.mark.parametrize("case", ["coefficient", "shifted_sum", "dropped",
                                  "unit", "degree"])
def test_group_law_refuses_a_doctored_gerbe_fibre(case, monkeypatch,
                                                  doctor_ring_table):
    """Each doctored fibre of BG(Z/6) over P^1, carried through the
    tensor product, is refused by the group-ring certificate: by its
    entries (e), its pair count (f), its unit (c) and its fibre degrees
    (d). Through ring assembly the full check then raises its own
    refusal."""
    calls = _group_ring_calls(monkeypatch)
    (keys, degrees, unit, table, base, group), _ = _split_doctorings(calls)
    one = [keys.index(((g,), 0, 0)) for g in range(6)]
    h = [keys.index(((g,), 0, 1)) for g in range(6)]

    def tensor(fibre):  # F (x) A*(P^1): H^2 = 0
        out = {}
        for (a, b), terms in fibre.items():
            for i, j, label in ((one[a], one[b], one), (one[a], h[b], h),
                                (h[a], one[b], h)):
                out[(i, j) if i <= j else (j, i)] = {
                    label[g]: q for g, q in terms.items()}
        return out

    law, doctorings = _group_law_doctorings(one)
    fibre, moved, shifted, message = doctorings[case]
    assert tensor(law) == table
    doctored = tensor(fibre)
    degrees = list(degrees)
    if shifted:
        degrees[one[2]] += 1
        degrees[h[2]] += 1
    if moved:
        unit = one[1]
    assert chowring._group_ring(keys, degrees, unit, doctored, base,
                                group) is False
    with pytest.raises(InternalInconsistency) as err:
        chowring._check_structure(degrees, unit, doctored,
                                  InternalInconsistency)
    assert str(err.value) == message

    def change(table):
        table.clear()
        table.update(doctored)

    def change_basis(basis):
        if moved:  # the ring's unit is the degree-0 class in sector 0
            basis[one[0]], basis[one[1]] = (
                dataclasses.replace(basis[one[0]], sector=(1,)),
                dataclasses.replace(basis[one[1]], sector=(0,)))
        if shifted:
            for i in (one[2], h[2]):
                basis[i] = dataclasses.replace(
                    basis[i], degree=basis[i].degree + 1)

    del calls[:]
    doctor_ring_table(change, change_basis)
    with pytest.raises(InternalInconsistency) as err:
        orbifold_ring(_gerbe((6,), (1,)), BaseRing.projective_space(1))
    assert str(err.value) == message
    assert [verdict for _, verdict in calls] == [False]


def test_base_ring_twists_must_have_degree_one():
    p1 = BaseRing.projective_space(1)
    with pytest.raises(ValueError):
        p1.with_twists([{"1": 1}])
    twisted = p1.with_twists([{"H": Fraction(-1)}, {}])
    assert twisted.twists == (((1, Fraction(-1)),), ())


def test_twisted_copies_share_the_certified_table(monkeypatch):
    """with_twists checks only the new twists: the copy shares the table
    its constructor certified, and the ring it copies is unchanged."""
    p2 = BaseRing.projective_space(2)
    calls = []
    check = chowring._check_structure

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(chowring, "_check_structure", counted)
    twisted = p2.with_twists([{"H": -1}, {}, {"H": 2}])
    assert calls == []
    assert twisted._table is p2._table
    assert twisted._products is p2._products
    assert twisted.twists == (((1, -1),), (), ((1, 2),))
    assert p2.twists is None
    assert twisted.with_twists(None).twists is None
    BaseRing.projective_space(1)
    assert len(calls) == 1  # the counter is live


def test_base_products_index_one_table():
    p2 = BaseRing.projective_space(2)
    assert [[p2.product(i, j) for j in range(3)] for i in range(3)] == [
        [{0: 1}, {1: 1}, {2: 1}], [{1: 1}, {2: 1}, {}], [{2: 1}, {}, {}]]
    # a copy: the caller may write to it
    p2.product(1, 1)[2] = 5
    assert p2.product(1, 1) == {2: 1}
    for i, j in ((3, 0), (0, -1)):
        with pytest.raises(IndexError,
                           match=rf"^product \({i}, {j}\) out of range$"):
            p2.product(i, j)


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


def _assert_exact(values, where, stored=True):
    """Every value is an int or a Fraction, and a stored one is an int
    exactly when it is integral."""
    for q in values:
        assert type(q) in (int, Fraction), (where, q)
        if stored:
            assert (type(q) is int) == (q.denominator == 1), (where, q)


def test_coefficients_are_exact_and_ints_where_integral():
    """On every fixture ring and five seeded planes no coefficient of a
    base table or twist, ring table, relation row or deformed product is a
    float; the stored ones are ints where integral, and a gerbe table is
    all ints."""
    rng = random.Random(1313)
    cases = [(fan_name, fixtures.load_fan(fan_name),
              fixtures.load_base(base_name))
             for fan_name, base_name in fixtures.RING_CASES]
    cases += [(f"P{tuple(w)}", weighted_projective_fan(w), POINT)
              for w in (coprime_weights(rng, 3) for _ in range(5))]
    cases.append(("gerbe Z/2xZ/3xZ/4/P1", _gerbe((2, 3, 4), (1, 2, 3)),
                  BaseRing.projective_space(1).with_twists([{"H": -2}])))
    # H H = 2 h: here some entries come out of Fraction arithmetic integral
    cases.append(("P(2,3,5) over H H = 2 h",
                  weighted_projective_fan([2, 3, 5]),
                  BaseRing(("1", "H", "h"), (0, 1, 2), {(1, 1): {2: 2}})))
    gerbes = 0
    for name, sfan, base in cases:
        _assert_exact((q for terms in base._table.values()
                       for q in terms.values()), (name, "base"))
        _assert_exact((q for twist in base.twists or () for _, q in twist),
                      (name, "twist"))
        relations = linear_relations(sfan, base)
        _assert_exact((q for rel in relations for q in rel.values()),
                      (name, "relation"), stored=False)
        cap = base.top_degree + sfan.fan.ambient_dim
        for box in sfan.box():
            budget = math.floor(cap - box.age)
            for _, _, key in chowring._sector_monomials(sfan, base, box,
                                                        budget):
                for rel in relations:
                    _assert_exact(deformed_mul(sfan, base, {key: 1},
                                               rel).values(),
                                  (name, "deformed_mul"), stored=False)
        ring = orbifold_ring(sfan, base)
        entries = [q for terms in ring._table.values() for q in terms.values()]
        _assert_exact(entries, (name, "table"))
        if name.startswith("gerbe"):
            gerbes += 1
            assert all(type(q) is int for q in entries), name
    assert gerbes == 12


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


def _report_cases():
    """The ring cases and seeded families: 20 complete 2-D fans, with
    torsion drawn by the generator, over a point, P^1 and P^2; six
    weighted projective 3-spaces over P^1; and ten twisted P^1 and P^2
    bases under 2-D fans and weighted projective planes and 3-spaces."""
    yield from _ring_cases()
    rng = random.Random(22)
    bases = (POINT, BaseRing.projective_space(1),
             BaseRing.projective_space(2))
    for k in range(20):
        yield f"2d fan {k}", complete_2d_fan(rng), bases[k % 3]
    for _ in range(6):
        weights = coprime_weights(rng, 4)
        yield f"P{tuple(weights)}", weighted_projective_fan(weights), bases[1]
    for k in range(10):
        sfan = (complete_2d_fan(rng) if k % 2 else
                weighted_projective_fan(coprime_weights(rng, 3 + k % 4 // 2)))
        yield f"twisted {k}", sfan, _twisted_projective_space(
            rng, 1 + k % 2, sfan)


def test_module_decomposition_matches_the_quotient_ring_oracle():
    """Each sector's reported histogram is the one of the ordinary ring
    of its quotient stacky fan under the induced twists."""
    twisted = 0
    for name, sfan, base in _report_cases():
        ring = orbifold_ring(sfan, base)
        reports = module_decomposition_report(ring)
        assert [(r.value, dict(r.histogram)) for r in reports] \
            == oracles.sector_histograms(ring), name
        twisted += base.twists is not None and any(base.twists)
    assert twisted >= 10


def test_module_decomposition_builds_no_ring(monkeypatch):
    rings = [orbifold_ring(sfan, base) for _, sfan, base in _ring_cases()]
    calls = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(chowring, "_assemble")
    counted(chowring, "ordinary_chow_ring")
    counted(ExtendedStackyFan, "quotient_stacky_fan")
    counted(BaseRing, "with_twists")
    for ring in rings:
        module_decomposition_report(ring)
    assert calls == Counter()
    chowring.ordinary_chow_ring(rings[0].sfan, POINT)
    assert calls == Counter(ordinary_chow_ring=1, _assemble=1)  # live


def _twisted_sector(ring):
    """A twisted sector of the ring and the positions of its basis."""
    box = next(b for b in ring.sectors if b.min_cone)
    return box, ring.sector_indices(box.value)


def test_module_decomposition_refuses_a_shifted_age():
    ring = copy.copy(orbifold_ring(fixtures.load_fan("example_rank1"),
                                   fixtures.load_base("base_p1_minus_h")))
    box, _ = _twisted_sector(ring)
    ring.sectors = tuple(dataclasses.replace(b, age=b.age + 1)
                         if b == box else b for b in ring.sectors)
    with pytest.raises(DecompositionMismatch,
                       match=rf"^sector {re.escape(str(box.value))}: "
                             r"face-count histogram \{.*\} != "
                             r"sector histogram \{.*\}$"):
        module_decomposition_report(ring)


def test_module_decomposition_refuses_a_short_sector():
    """A sector's basis one element short, as a face filter in
    _sector_monomials that drops a face would leave it."""
    ring = copy.copy(orbifold_ring(weighted_projective_fan([1, 2, 3]),
                                   BaseRing.projective_space(1)))
    box, idxs = _twisted_sector(ring)
    ring.basis = tuple(b for i, b in enumerate(ring.basis) if i != idxs[-1])
    with pytest.raises(DecompositionMismatch,
                       match=rf"^sector {re.escape(str(box.value))}: "):
        module_decomposition_report(ring)


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


@pytest.mark.parametrize("entry, text", [
    (0.9, "0.9 is not an exact rational"),
    (True, "True is not an exact rational"),
    (Fraction(1, 2), "1/2 is not an integer")],
    ids=["float", "bool", "fraction"])
def test_isomorphic_presentation_bijection_is_integers(p112, entry, text):
    # int() used to read the bijection (0.9, 1.5, 2, 3) as the identity
    ring = orbifold_ring(p112, POINT)
    with pytest.raises(ValueError, match=rf"^bijection entry {text}$"):
        isomorphic_presentation_check(ring, ring, [entry, 1, 2, 3])


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
    # the sector of age 1/2 of P(1, 2) alone: its layer (1, 2] is the
    # degree 3/2, and the text names it as a fraction
    sfan = weighted_projective_fan([1, 2])
    [half] = [box for box in sfan.box() if box.age == Fraction(1, 2)]
    with pytest.raises(InfiniteDimensional,
                       match=r"^sector \(-1,\) has a class at degree 3/2 "
                             r"beyond the bound 1$"):
        chowring._assemble(sfan, POINT, [half])


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


def test_ring_assembly_takes_no_cokernel(monkeypatch):
    """orbifold_ring reads Box(sigma) off the cone records, and no N(sigma)
    projection is made for a ring."""
    calls = []
    cokernel_of_snf = stacky._cokernel_of_snf

    def counted(*args):
        calls.append(args)
        return cokernel_of_snf(*args)

    cases = [(fixtures.load_fan(fan_name), fixtures.load_base(base_name))
             for fan_name, base_name in fixtures.RING_CASES]
    monkeypatch.setattr(stacky, "_cokernel_of_snf", counted)
    for sfan, base in cases:
        orbifold_ring(sfan, base)
    assert calls == []
    sfan.local_group(sfan.fan.max_cones[0])
    assert len(calls) == 1  # the counter is live


def test_ring_table_refused_past_the_pair_bound(monkeypatch):
    """A ring of dimension n has n (n + 1) / 2 basis pairs, filled up to
    the bound and refused beyond it before any entry is made."""
    sfan = fixtures.load_fan("p112")
    monkeypatch.setattr(chowring, "ENUMERATION_BOUND", 10)
    assert orbifold_ring(sfan, POINT).dimension == 4
    calls = []
    combination = chowring._combination

    def counted(*args):
        calls.append(args)
        return combination(*args)

    monkeypatch.setattr(chowring, "_combination", counted)
    monkeypatch.setattr(chowring, "ENUMERATION_BOUND", 9)
    with pytest.raises(TooManyTuples,
                       match=r"^a ring of dimension 4 would fill 10 basis "
                             r"pairs, more than the bound 9$"):
        orbifold_ring(sfan, POINT)
    assert calls == []


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
# the 108-dimensional BG(Z/2 x Z/3 x Z/6) over P^2, then gerbes like those
# of the gerbe_table benchmark, of order 24 over P^1 and 16 over P^2 with
# one, two and three cyclic factors, in shuffled order and with twist
# coefficients from -2 to 2 (N is finite, so no relation reads them)
PINNED_GERBE_DIGESTS = {
    ((2, 3, 6), (1, 1, 1), 2, 1):
        "3d8042b72ef5e72b72c481a66424908211d9939fd7c561d7060ec15ec9d9bf9e",
    ((2, 3, 4), (1, 2, 3), 1, -2):
        "b9d2b164459bfd2c30545ac2cc1da0670e91d20d824296f60843325ba2619a78",
    ((24,), (5,), 1, -2):
        "ca89d19cacb47df9151d42c161240efb785ed0d5a47e189a02cd6856d0dadacd",
    ((16,), (3,), 2, 2):
        "1bbe0fb4751b2ef17d3c081540ebf3de6e35f4b1e11fa2132a7fb31d95dec377",
    ((4, 6), (1, 5), 1, 0):
        "d4f745c1c7952a12253e95ef10275c32025590751ad907894591ef4a7095d352",
    ((6, 4), (5, 3), 2, -1):
        "6bd6c93df13723258ac2ae80dd9ecf944769bab6d509c655b3b5cbf3723e83c3",
    ((2, 12), (1, 7), 1, 1):
        "b8cafed732d161d2e5e5d52ec7a576cac6f5dc2217da7193559c2fab582522d5",
    ((4, 4), (3, 1), 2, 0):
        "66552792438c7eec3ba3381c8759dc4fa1bafca22ae3481cb3f55cf29226e7f4",
    ((8, 2), (5, 1), 2, 1):
        "8c7d21b3ad4b2665e76d544804966923c4c4ff205df6a3149fc4abcbc19ac6e2",
    ((2, 2, 6), (1, 1, 5), 1, -1):
        "386571911efc229f5d17474041c140123f85bedf2f5a15237e7962417ef517c0",
    ((3, 2, 4), (2, 1, 1), 1, 2):
        "340d04e47345bfd88a385e9db0f434767a38f915ff24be032b38b7529166d2e7",
    ((2, 2, 4), (1, 1, 3), 2, -2):
        "e98fffe56f55b37afeb5295a6499909b25e25b11c69ee69fb8ceb02ee66a5d25",
    ((4, 2, 2), (3, 0, 1), 2, 2):
        "19302665aa746519d39bce80df5e0abe74e78c1ac80b67c4d23db458a4f07c05",
}
# weighted projective 3-spaces over P^1 with the twists H, -H, 2H, 0 on
# their four coordinates, so that the relations read the twists and the
# table holds base products
PINNED_TWISTED_WPS_DIGESTS = {
    (1, 1, 2, 3):
        "6c7aba49e36c48b7ed64ec91a2a926637b9b85cbb8ee1115f368d0ae8a79a242",
    (1, 2, 2, 3):
        "a4f3f8a0b37c7cbff6edd370d9e60bd53d49a7fb5020e16b35d9fff8ab096a46",
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


def test_pinned_twisted_wps_digests():
    base = BaseRing.projective_space(1).with_twists(
        [{"H": 1}, {"H": -1}, {"H": 2}, {}])
    for weights, want in PINNED_TWISTED_WPS_DIGESTS.items():
        assert _ring_digest(weighted_projective_fan(list(weights)),
                            base) == want, weights


# fan dimension 5, where pivot entries and row coefficients grow most
PINNED_FAN_DIM_5_DIGESTS = {
    (1, 2, 3, 5, 7, 11):
        "8c120faeef9a88fc7a1c3696d4cdee23daf36f63a6e41da698a92a544fcc0c85",
    (1, 1, 2, 3, 5, 7):
        "a85f8de2189ae3529c9e1f112ac8e70c624ab3b5c043cbb934ddb5a9bc9956aa",
}


def test_pinned_ring_digests_at_fan_dimension_5():
    for weights, want in PINNED_FAN_DIM_5_DIGESTS.items():
        assert _ring_digest(weighted_projective_fan(list(weights)),
                            POINT) == want, weights


def _assert_pivot_rows(pivots, where):
    """Each pivot row is a primitive int row, positive at its own pivot
    and zero at every other pivot."""
    for c, prow in pivots.items():
        assert all(type(q) is int and q for q in prow.values()), (where, c)
        assert math.gcd(*prow.values()) == 1, (where, c)
        assert prow[c] > 0, (where, c)
        assert not any(k in prow for k in pivots if k != c), (where, c)


def _oracle_normal_form(pivots, width, row):
    """The normal form of a sparse row against the span of pivots, from
    the dense oracle's rref: row minus row[c] times the rref row of c."""
    rows, columns = oracles.rref([[prow.get(k, 0) for k in range(width)]
                                  for prow in pivots.values()])
    out = [Fraction(row.get(k, 0)) for k in range(width)]
    for r, c in zip(rows, columns):
        f = out[c]
        out = [x - f * y for x, y in zip(out, r)]
    return {k: q for k, q in enumerate(out) if q}


def _is_positive_multiple(row, want):
    """row = lam want for some rational lam > 0; both may be empty."""
    if row.keys() != want.keys():
        return False
    if not row:
        return True
    k = min(row)
    lam = Fraction(row[k]) / want[k]
    return lam > 0 and all(row[j] == lam * want[j] for j in row)


def test_pivot_rows_are_ints_where_integral():
    """Seeded integer rows with small entries: every pivot row is a
    primitive int row with a positive pivot and zeros at the other pivots,
    the rows span exactly what was inserted, and the rows divided by their
    pivot entries, as rref and _assemble read them, are the dense oracle's
    reduced rows."""
    rng = random.Random(77)
    non_unit = fractional = 0
    for _ in range(150):
        pivots, rows = {}, []
        for _ in range(rng.randint(1, 6)):
            row = {k: rng.choice((-3, -2, -1, 1, 2, 3))
                   for k in rng.sample(range(6), rng.randint(1, 4))}
            rows.append([row.get(k, 0) for k in range(6)])
            chowring._insert_row(pivots, row)
            _assert_pivot_rows(pivots, rows)
            stored = [[prow.get(k, 0) for k in range(6)]
                      for prow in pivots.values()]
            assert len(pivots) == rank(rows) == oracles.rref_rank(rows) \
                == oracles.rref_rank(rows + stored), rows
            want_rows, want_columns = oracles.rref(rows)
            assert sorted(pivots) == want_columns, rows
            for c, want in zip(want_columns, want_rows):
                p = pivots[c][c]
                read = [chowring._quotient(pivots[c].get(k, 0), p)
                        for k in range(6)]
                assert read == want, (rows, c)
                _assert_exact(read, (rows, c))
                non_unit += p > 1
                fractional += any(type(q) is Fraction for q in read)
    assert non_unit and fractional


def test_reduce_is_linear_over_seeded_pivots():
    """_assemble reads each table entry as sum q_k NF(e_k), so the normal
    form must be linear. Seeded pivot sets built as in the test above,
    non-unit pivot entries among them, and seeded rows touching both pivot
    and non-pivot columns, Fraction entries among them: _reduce of a row
    is a positive multiple of sum row[k] NF(e_k), with NF read from the
    dense oracle, and so is _reduce of each e_k of NF(e_k)."""
    rng = random.Random(78)
    non_unit = fractional = checked = 0
    for _ in range(150):
        pivots = {}
        for _ in range(rng.randint(1, 5)):
            chowring._insert_row(pivots, {
                k: rng.choice((-3, -2, -1, 1, 2, 3))
                for k in rng.sample(range(7), rng.randint(1, 4))})
        _assert_pivot_rows(pivots, pivots)
        non_unit += any(prow[c] > 1 for c, prow in pivots.items())
        free = [k for k in range(7) if k not in pivots]
        if not free:
            continue
        normal = {k: _oracle_normal_form(pivots, 7, {k: 1})
                  for k in range(7)}
        for k in range(7):
            assert _is_positive_multiple(chowring._reduce(pivots, {k: 1}),
                                         normal[k]), (pivots, k)
        for _ in range(4):
            cols = {rng.choice(sorted(pivots)), rng.choice(free)}
            cols.update(rng.sample(range(7), rng.randint(0, 3)))
            row = {k: rng.choice((-2, -1, 1, 2, Fraction(1, 3)))
                   for k in cols}
            want = {}
            for k, q in row.items():
                for p2, q2 in normal[k].items():
                    want[p2] = want.get(p2, 0) + q * q2
            want = {p2: q for p2, q in want.items() if q}
            assert want == _oracle_normal_form(pivots, 7, row), row
            got = chowring._reduce(pivots, row)
            assert all(type(q) is int for q in got.values()), (pivots, row)
            assert not got or math.gcd(*got.values()) == 1, (pivots, row)
            assert _is_positive_multiple(got, want), (pivots, row)
            fractional += any(type(q) is Fraction for q in row.values())
            checked += 1
    assert non_unit and fractional and checked


def test_compositions_are_the_filtered_product():
    """_sector_monomials' exponent tuples: the positive tuples with sum
    at most the budget, as the filtered product lists them."""
    for parts in range(5):
        for budget in range(7):
            want = [(t, sum(t)) for t in itertools.product(
                range(1, budget + 1), repeat=parts) if sum(t) <= budget]
            assert chowring._compositions(parts, budget) == want, \
                (parts, budget)


def test_sectors_are_enumerated_to_cap_plus_one(monkeypatch):
    spaces = []
    enumerate_sector = chowring._sector_monomials

    def recorded(sfan, base, box, budget):
        monomials = enumerate_sector(sfan, base, box, budget)
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
    # in the sector of age 1/2 of P(1, 2), the row of its degree-1/2
    # monomial is filed at degree 3/2
    sfan = weighted_projective_fan([1, 2])
    [half] = [box for box in sfan.box() if box.age == Fraction(1, 2)]
    with pytest.raises(InternalInconsistency,
                       match=r"^relation term escaped sector \(-1,\) "
                             r"at degree 3/2$"):
        chowring._assemble(sfan, POINT, [half])


def test_product_outside_the_computed_sectors_is_refused():
    """BG(Z/3) assembled from the sectors 0 and 1 alone: y^1 y^1 = y^2
    lies in no computed sector."""
    sfan = fixtures.load_fan("gerbe_r3")
    with pytest.raises(InternalInconsistency,
                       match="^product term left the computed sectors$"):
        chowring._assemble(sfan, POINT, sfan.box()[:2])


def _twisted_projective_space(rng, n, sfan):
    """P^n with a seeded twist class k H, k in -2..2, per fan coordinate."""
    return BaseRing.projective_space(n).with_twists(
        [{"H": rng.randint(-2, 2)} for _ in range(sfan.m)])


def _ring_cases():
    """The ring cases, four weighted projective 3-spaces, two complete
    2-D fans with torsion and two twisted weighted projective 3-spaces,
    over P^1 and over P^2."""
    for fan_name, base_name in fixtures.RING_CASES:
        yield fan_name, fixtures.load_fan(fan_name), fixtures.load_base(
            base_name)
    rng = random.Random(4)
    for _ in range(4):
        weights = coprime_weights(rng, 4)
        yield f"P{tuple(weights)}", weighted_projective_fan(weights), POINT
    for torsion in ((2,), (3,)):
        yield f"2d fan {torsion}", complete_2d_fan(rng, torsion), POINT
    for n in (1, 2):
        weights = coprime_weights(rng, 4)
        sfan = weighted_projective_fan(weights)
        yield f"P{tuple(weights)} over twisted P^{n}", sfan, \
            _twisted_projective_space(rng, n, sfan)


def test_monomial_keys_decompose_to_their_monomials():
    """Every key (c, tau, label) of every sector's monomials splits back
    into its sector and exponents, so no two monomials share a key. The
    sectors are enumerated as _assemble enumerates them, to the step
    budget floor(cap + 1 - age)."""
    for name, sfan, base in _ring_cases():
        cap = base.top_degree + sfan.fan.ambient_dim
        keys, count = set(), 0
        for box in sfan.box():
            budget = math.floor(cap + 1 - box.age)
            monomials = chowring._sector_monomials(sfan, base, box, budget)
            assert monomials == sorted(monomials), name
            for step, exp, (c, _, li) in monomials:
                assert step == sum(exp) + base.degrees[li] <= budget
                assert box.age + step <= cap + 1
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
        cap = base.top_degree + sfan.fan.ambient_dim
        keys = {(c, tau) for box in sfan.box()
                for _, _, (c, tau, _) in chowring._sector_monomials(
                    sfan, base, box, math.floor(cap + 1 - box.age))}
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
    """Orbifold Poincare duality, block by block. The pairing <x, y> is
    the coefficient of the top class in xy. Sector v pairs only with its
    inverse v^-1 = box_complement(v, 0), degree k only with cap - k, and
    each such block is square and nondegenerate; age(v) + age(v^-1) =
    |sigma(v)|."""
    for name, sfan, base in _ring_cases():
        ring = orbifold_ring(sfan, base)
        cap = base.top_degree + sfan.fan.ambient_dim
        sectors = {b.value: b for b in ring.sectors}
        zero = sectors[sfan.group.zero()]
        [top] = [i for i, b in enumerate(ring.basis)
                 if b.sector == zero.value and b.degree == cap]
        inverse = {v: sfan.box_complement(b, zero).value
                   for v, b in sectors.items()}
        for v, b in sectors.items():
            assert b.age + sectors[inverse[v]].age == len(b.min_cone), \
                (name, v)
        blocks = {}
        for i, b in enumerate(ring.basis):
            blocks.setdefault((b.sector, b.degree), []).append(i)
        for i, x in enumerate(ring.basis):
            for j, y in enumerate(ring.basis):
                if ring.product(i, j).get(top, 0):
                    assert y.sector == inverse[x.sector], (name, i, j)
                    assert x.degree + y.degree == cap, (name, i, j)
        for (sector, degree), rows in blocks.items():
            cols = blocks.get((inverse[sector], cap - degree), [])
            assert len(cols) == len(rows), (name, sector, degree)
            pairing = [[ring.product(i, j).get(top, 0) for j in cols]
                       for i in rows]
            assert rank(pairing) == len(rows), (name, sector, degree)
