"""Acceptance suite: eleven end-to-end criteria, one verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they are produced; without -s they still appear in captured output and
the test names mirror the criteria.
"""

import itertools
import random
from fractions import Fraction

import oracles
from generators import random_finite_cokernel_map
from stackyring import fixtures
from stackyring.chowring import (BaseRing, isomorphic_presentation_check,
                                 module_decomposition_report, orbifold_ring)
from stackyring.inertia import obstruction_exponents, three_sectors
from stackyring.lattice import FgAbGroup, GroupHom, cokernel, gale_dual
from stackyring.resolution import (Subdivision, check_support_function,
                                   fiber_dimension_check)

_RING_CACHE = {}


def ring_for(fan_name, base_name):
    key = (fan_name, base_name)
    if key not in _RING_CACHE:
        _RING_CACHE[key] = orbifold_ring(fixtures.load_fan(fan_name),
                                         fixtures.load_base(base_name))
    return _RING_CACHE[key]


def _verdict(num, name, fn):
    try:
        fn()
        ok, detail = True, ""
    except Exception as exc:
        ok, detail = False, f" ({type(exc).__name__}: {exc})"
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}{detail}")
    assert ok, f"criterion {num:02d} {name}{detail}"


def test_criterion_01_rank_one_dual_pair():
    def check():
        n = FgAbGroup(1, ())
        dg, _ = gale_dual(GroupHom.from_columns(3, n, [[2], [-2], [1]]))
        assert (dg.rank, dg.invariant_factors) == (2, ())
        dg_t, _ = gale_dual(GroupHom.from_columns(3, n, [[2], [-2], [0]]))
        assert (dg_t.rank, dg_t.invariant_factors) == (2, (2,))

    _verdict(1, "rank-one dual pair: Z^2 and Z^2 + Z/2", check)


def test_criterion_02_exactness_property_suite():
    def check():
        for name in fixtures.FAN_FIXTURES:
            sfan = fixtures.load_fan(name)
            dg, bv = gale_dual(sfan.beta())
            assert dg.rank == sfan.m - sfan.group.rank
        rng = random.Random(20240824)
        for _ in range(200):
            beta = random_finite_cokernel_map(rng)
            dg, bv = gale_dual(beta)
            assert dg.rank == beta.source.rank - beta.target.rank
            mu, _ = cokernel(bv)
            assert mu.is_finite

    _verdict(2, "dual sequences exact on fixtures + 200 random maps", check)


def test_criterion_03_box_local_group_bijection():
    def check():
        for name in fixtures.FAN_FIXTURES:
            sfan = fixtures.load_fan(name)
            for cone in sfan.fan.max_cones:
                box = sfan.box_of_cone(cone)
                values = [b.value for b in box]
                want = oracles.box_values(
                    sfan.group.rank, sfan.group.torsion,
                    [sfan.ray_lifts[i] for i in cone])
                assert set(values) == want, (name, cone)
                local, _ = sfan.local_group(cone)
                assert len(box) == local.order(), (name, cone)
                gens = [sfan.ray_lifts[i] for i in cone]
                for v, w in itertools.combinations(values, 2):
                    diff = sfan.group.sub(v, w)
                    assert not oracles.member_of_subgroup(sfan.group,
                                                          gens, diff)
        for name, order in (("gerbe_r2", 2), ("gerbe_r3", 3),
                            ("gerbe_z4z9", 36)):
            sfan = fixtures.load_fan(name)
            assert len(sfan.box()) == order == sfan.group.order()

    _verdict(3, "box counts, local groups, and projections agree", check)


def _gerbe_reference_check(ring, r, orders):
    idx = {}
    for g in itertools.product(*(range(q) for q in orders)):
        for label in ("1", "H"):
            idx[(g, label)] = ring.basis_index(g, (), label)
    assert len(idx) == ring.dimension
    for (g1, l1), (g2, l2) in itertools.product(idx, repeat=2):
        got = ring.product(idx[(g1, l1)], idx[(g2, l2)])
        if l1 == l2 == "H":
            want = {}
        else:
            lab = "H" if "H" in (l1, l2) else "1"
            s = tuple((a + b) % q for a, b, q in zip(g1, g2, orders))
            want = {idx[(s, lab)]: Fraction(1)}
        assert got == want, ((g1, l1), (g2, l2))


def test_criterion_04_gerbe_ring_over_projective_line():
    def check():
        for r in (2, 3):
            ring = ring_for(f"gerbe_r{r}", "base_p1")
            assert ring.dimension == 2 * r
            _gerbe_reference_check(ring, r, (r,))

    _verdict(4, "r-gerbe over the line matches H*(P1)[t]/(t^r - 1)", check)


def test_criterion_05_product_gerbe_tensor_table():
    def check():
        ring = ring_for("gerbe_z4z9", "base_p1")
        assert ring.dimension == 72
        base = fixtures.load_base("base_p1")
        for b in ring.basis:
            shift = b.degree - base.degrees[base.label_index(b.label)]
            assert shift == 0
        _gerbe_reference_check(ring, None, (4, 9))

    _verdict(5, "Z/4 x Z/9 gerbe: dim 72 tensor table, zero shifts", check)


def test_criterion_06_canonical_vs_trivial_gerbe():
    def check():
        for d in (1, 2):
            for r in (2, 3):
                rc = ring_for(f"gerbe_p{d}_r{r}_canonical", "base_point")
                rt = ring_for(f"gerbe_p{d}_r{r}_trivial", "base_point")
                assert rc.dimension == (d + 1) * r
                key = lambda b: (b.sector, b.exponents, b.label)
                pos = {key(b): i for i, b in enumerate(rt.basis)}
                bij = [pos[key(b)] for b in rc.basis]
                assert isomorphic_presentation_check(rc, rt, bij)

    _verdict(6, "canonical and trivial gerbes share one table", check)


def test_criterion_07_structural_suite():
    def check():
        for fan_name, base_name in fixtures.RING_CASES:
            ring = ring_for(fan_name, base_name)
            u = ring.unit_index
            n = ring.dimension
            degs = [b.degree for b in ring.basis]
            for i in range(n):
                assert ring.product(u, i) == {i: Fraction(1)}, fan_name
                for j in range(i, n):
                    terms = ring.product(i, j)
                    assert ring.product(j, i) == terms
                    for k, q in terms.items():
                        assert degs[k] == degs[i] + degs[j], fan_name
            for i in range(n):
                for j in range(i, n):
                    for k in range(j, n):
                        left = ring.mul(ring.product(i, j), {k: Fraction(1)})
                        right = ring.mul({i: Fraction(1)},
                                         ring.product(j, k))
                        assert left == right, (fan_name, i, j, k)

    _verdict(7, "tables unital, commutative, associative, graded", check)


def test_criterion_08_module_decomposition_accounting():
    def check():
        for fan_name, base_name in fixtures.RING_CASES:
            ring = ring_for(fan_name, base_name)
            reports = module_decomposition_report(ring)
            assert sum(r.dim for r in reports) == ring.dimension, fan_name
            values = [r.value for r in reports]
            assert values == [b.value for b in ring.sectors]

    _verdict(8, "sector dimensions and histograms add up", check)


def test_criterion_09_three_sector_consistency():
    def check():
        for name in fixtures.FAN_FIXTURES:
            sfan = fixtures.load_fan(name)
            for sector in three_sectors(sfan):
                rays = obstruction_exponents(sfan, *sector.elements)
                assert rays <= set(sector.joint_cone), name
            box = {b.value: b for b in sfan.box()}
            zero = box[sfan.group.zero()]
            for b in box.values():
                inverse = sfan.box_complement(b, zero)
                got = obstruction_exponents(sfan, b, zero, inverse)
                assert got == frozenset(), (name, b.value)

    _verdict(9, "3-sectors validate; inverse pairs are unobstructed", check)


def test_criterion_10_refinement_support_and_fibers():
    def check():
        sub = Subdivision(fixtures.load_fan("p112"),
                          fixtures.load_fan("p112_hirzebruch").fan)
        verdict = check_support_function(sub, [0, 0, 0, 1])
        assert verdict.h_values == (0, 0, 0, 1)
        over_point = fiber_dimension_check(sub, BaseRing.point())
        assert (over_point.dim_orbifold, over_point.dim_resolved) == (4, 4)
        over_line = fiber_dimension_check(sub, fixtures.load_base("base_p1"))
        assert (over_line.dim_orbifold, over_line.dim_resolved) == (8, 8)

    _verdict(10, "weighted plane vs refinement: h=1 valid, dims equal", check)


def test_criterion_11_weighted_plane_vs_oracle():
    def check():
        ring = ring_for("p112", "base_point")
        assert ring.dimension == 4
        got = {deg: count for deg, count in ring.degree_histogram().items()}
        want = oracles.p112_quotient_histogram()
        assert got == {Fraction(0): 1, Fraction(1): 2, Fraction(2): 1}
        assert got == want

    _verdict(11, "weighted plane ring equals brute-force oracle", check)
