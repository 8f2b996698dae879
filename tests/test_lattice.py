import random
import re
from fractions import Fraction

import pytest

from stackyring import lattice
from stackyring.errors import (GaleExactnessError, InfiniteCokernel,
                               NonFreeSource)
from stackyring.lattice import (FgAbGroup, GroupHom, _with_relations,
                                cokernel, dual, dual_hom, gale_dual,
                                gerbe_group, kernel, member_of_subgroup,
                                same_subgroup, smith_normal_form,
                                solve_integer_linear)
from stackyring.stacky import ExtendedStackyFan


def test_group_arithmetic_reduces_torsion():
    g = FgAbGroup(1, (2, 3))
    assert g.coords == 3
    assert g.reduce((5, 7, -1)) == (5, 1, 2)
    assert g.add((1, 1, 2), (2, 1, 2)) == (3, 0, 1)
    assert g.neg((1, 1, 1)) == (-1, 1, 2)
    assert g.scale(4, (1, 1, 1)) == (4, 0, 1)


@pytest.mark.parametrize("entry, message", [
    (Fraction(3, 2), "3/2 is not an integer"),
    (2.7, "2.7 is not an exact rational"),
    (2.0, "2.0 is not an exact rational"),
    (True, "True is not an exact rational")])
def test_integer_entries_are_not_truncated(entry, message):
    # int() would read these as 1, 2, 2 and 1 without a word
    with pytest.raises(ValueError, match=re.escape(f"coordinate {message}")):
        FgAbGroup(1).reduce((entry,))
    with pytest.raises(ValueError, match=re.escape(f"coordinate {message}")):
        GroupHom.identity(FgAbGroup(1)).apply((entry,))
    with pytest.raises(ValueError, match=re.escape(f"entry {message}")):
        GroupHom(FgAbGroup(1), FgAbGroup(1), [[entry]])
    with pytest.raises(ValueError, match=re.escape(f"entry {message}")):
        smith_normal_form([[1, 0], [0, entry]])
    with pytest.raises(ValueError, match=re.escape(f"modulus {message}")):
        FgAbGroup(0, (entry,))


def test_integral_fractions_are_taken_as_ints():
    g = FgAbGroup(1, (Fraction(4, 2),))
    assert g.torsion == (2,) and type(g.torsion[0]) is int
    assert g.reduce((Fraction(6, 3), Fraction(3))) == (2, 1)
    hom = GroupHom(FgAbGroup(1), FgAbGroup(1), [[Fraction(2)]])
    assert hom.matrix == ((2,),) and type(hom.matrix[0][0]) is int
    assert smith_normal_form([[Fraction(4, 2)]]).D == ((2,),)


def test_build_refuses_a_non_integral_lift():
    # the fourth lift used to be truncated to (1, 1), a ray of the fan
    with pytest.raises(ValueError, match=re.escape(
            "coordinate 3/2 is not an integer")):
        ExtendedStackyFan.build(
            FgAbGroup(2), [(1, 0), (0, 1), (-1, -1),
                           (Fraction(3, 2), Fraction(3, 2))],
            [(0, 1), (1, 2), (0, 2)])


def test_group_elements_and_order():
    g = FgAbGroup(0, (2, 3))
    assert g.order() == 6
    assert len(list(g.elements())) == 6
    assert FgAbGroup(1, ()).order() is None
    assert FgAbGroup(0, ()).is_trivial


def test_invariant_factors_normal_form():
    assert FgAbGroup(0, (4, 6)).invariant_factors == (2, 12)
    assert FgAbGroup(0, (2, 3)).invariant_factors == (6,)
    assert FgAbGroup(2, (5,)).invariant_factors == (5,)
    assert FgAbGroup(0, (4, 9)).invariant_factors == (36,)


def test_normalize_returns_isomorphism():
    g = FgAbGroup(0, (4, 6))
    normal, iso = g.normalize()
    assert normal.torsion == (2, 12)
    assert iso.source == g and iso.target == normal
    # the map must be injective on elements
    images = {iso.apply(v) for v in g.elements()}
    assert len(images) == 24


def test_smith_normal_form_frozen():
    w = smith_normal_form([[2], [-2], [1]])
    assert w.diagonal == (1,)
    assert w.verify()
    w = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert w.diagonal == (2, 2, 156)
    assert w.verify()
    w = smith_normal_form([[1, 2], [3, 4], [5, 6]])
    assert w.diagonal == (1, 2)


def test_smith_normal_form_empty_and_zero():
    assert smith_normal_form([]).diagonal == ()
    assert smith_normal_form([[0, 0], [0, 0]]).diagonal == (0, 0)


def test_smith_witness_property_seeded():
    rng = random.Random(90125)
    for _ in range(150):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(cols)]
               for _ in range(rows)]
        w = smith_normal_form(mat)
        assert w.verify()
        diag = [d for d in w.diagonal if d]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


def test_smith_witness_refuses_a_transform_of_det_2():
    """Doubling the last row of U and of D keeps U A V = D and D a Smith
    form, as its last row is zero or holds its largest entry, while
    det U becomes +-2: verify refuses the witness for U alone."""
    rng = random.Random(90126)

    def doubled(m):
        return m[:-1] + (tuple(2 * x for x in m[-1]),)

    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(cols)]
               for _ in range(rows)]
        w = smith_normal_form(mat)
        assert w.verify()
        assert not lattice.SnfWitness(w.matrix, doubled(w.U), w.V,
                                      doubled(w.D)).verify(), mat


def test_solve_integer_linear():
    # 3x = 6 has x = 2; 3x = 7 has no integer solution
    assert solve_integer_linear([[3]], [6]) == (2,)
    assert solve_integer_linear([[3]], [7]) is None
    sol = solve_integer_linear([[2, 0], [0, 2]], [4, -6])
    assert sol == (2, -3)
    assert solve_integer_linear([[2, 3]], [1]) is not None


def _solvable(group, generators, vec):
    cols = [group.reduce(g) for g in generators]
    mat = [[c[i] for c in cols] for i in range(group.coords)]
    return solve_integer_linear(_with_relations(group, mat),
                                list(group.reduce(vec))) is not None


def test_member_of_subgroup():
    g = FgAbGroup(2, ())
    gens = [(2, 0), (0, 3)]
    assert member_of_subgroup(g, gens, (4, -3))
    assert not member_of_subgroup(g, gens, (1, 0))
    gt = FgAbGroup(0, (4,))
    assert member_of_subgroup(gt, [(2,)], (0,))
    assert not member_of_subgroup(gt, [(2,)], (1,))
    assert member_of_subgroup(gt, [(2,)], (2,), (6,), (-2,))
    assert not member_of_subgroup(gt, [(2,)], (2,), (1,))
    # no generators: only zero, also when the group is trivial
    assert member_of_subgroup(FgAbGroup(1, (3,)), [], (0, 3))
    assert not member_of_subgroup(FgAbGroup(1, (3,)), [], (0, 1))
    assert member_of_subgroup(FgAbGroup(0), [], ())
    assert member_of_subgroup(FgAbGroup(0), [(), ()], ())
    # the projection path gives the solve path's verdict
    rng = random.Random(31337)
    seen = set()
    for _ in range(600):
        group = FgAbGroup(rng.randint(0, 3),
                          rng.choice(((), (), (2,), (4,), (2, 6), (3, 9))))
        gens = [[rng.randint(-4, 4) for _ in range(group.coords)]
                for _ in range(rng.randint(0, 4))]
        vecs = [[0] * group.coords,
                [rng.randint(-6, 6) for _ in range(group.coords)],
                [sum(rng.randint(-2, 2) * g[i] for g in gens)
                 + rng.choice((0, 0, 1)) for i in range(group.coords)]]
        for vec in vecs:
            want = _solvable(group, gens, vec)
            assert member_of_subgroup(group, gens, vec) == want, \
                (group, gens, vec)
            seen.add((group.is_trivial, bool(gens), bool(group.torsion),
                      want))
    # trivial groups, empty generator lists and torsion, either verdict
    assert {(True, False, False, True), (False, False, True, False),
            (False, True, True, False), (False, True, False, True)} <= seen


def test_membership_takes_one_smith_form_per_generator_set(monkeypatch):
    calls = []
    snf = lattice.smith_normal_form

    def counted(matrix):
        calls.append(matrix)
        return snf(matrix)

    monkeypatch.setattr(lattice, "smith_normal_form", counted)
    g = FgAbGroup(2, (6,))
    gens = [(2, 0, 1), (0, 3, 0), (4, 6, 2)]
    vecs = [(2 * k, 3 * k, k) for k in range(7)]
    assert member_of_subgroup(g, gens, *vecs)
    assert len(calls) == 1
    calls.clear()
    more = gens + [(6, 3, 3), (2, 3, 1)]
    assert same_subgroup(g, gens, more)
    assert len(calls) == 2
    assert not same_subgroup(g, gens, more + [(1, 0, 0)])
    assert not same_subgroup(g, more + [(1, 0, 0)], gens)


def test_cokernel_frozen():
    g = FgAbGroup(2, ())
    f = GroupHom.from_columns(2, g, [[2, 0], [0, 3]])
    c, proj = cokernel(f)
    assert (c.rank, c.invariant_factors) == (0, (6,))
    assert proj.apply((1, 0)) != proj.apply((0, 0)) or c.is_trivial

    f = GroupHom.from_columns(1, g, [[2, -2]])
    c, _ = cokernel(f)
    assert (c.rank, c.invariant_factors) == (1, (2,))


def test_kernel_frozen():
    g = FgAbGroup(1, ())
    f = GroupHom.from_columns(3, g, [[2], [-2], [1]])
    ker, inc = kernel(f)
    assert ker.rank == 2
    for j in range(2):
        col = [inc.matrix[i][j] for i in range(3)]
        assert sum(c * b for c, b in zip(col, [2, -2, 1])) == 0


def test_kernel_requires_free_source():
    g = FgAbGroup(0, (2,))
    f = GroupHom(g, g, [[1]])
    with pytest.raises(NonFreeSource):
        kernel(f)


def test_dual_and_dual_hom():
    g = FgAbGroup(2, (2,))
    assert dual(g).rank == 2
    f = GroupHom.from_columns(2, FgAbGroup(2, ()), [[1, 2], [3, 4]])
    fd = dual_hom(f)
    assert fd.matrix == ((1, 2), (3, 4))


def test_gale_dual_rank_one_pair():
    # two lifts of the same fan differing in the extra vector
    n = FgAbGroup(1, ())
    beta = GroupHom.from_columns(3, n, [[2], [-2], [1]])
    dg, bv = gale_dual(beta)
    assert (dg.rank, dg.invariant_factors) == (2, ())
    assert bv.source.rank == 3

    beta_t = GroupHom.from_columns(3, n, [[2], [-2], [0]])
    dg_t, _ = gale_dual(beta_t)
    assert (dg_t.rank, dg_t.invariant_factors) == (2, (2,))


def test_gale_dual_projective_space_with_torsion():
    # P^d fan lifted to Z^d + Z/r: DG = Z and the dual matrix has a
    # single invariant factor r
    for d in (1, 2):
        for r in (2, 3):
            n = FgAbGroup(d, (r,))
            cols = []
            for i in range(d):
                col = [0] * (d + 1)
                col[i] = 1
                cols.append(col)
            cols.append([-1] * d + [1])
            beta = GroupHom.from_columns(d + 1, n, cols)
            dg, bv = gale_dual(beta)
            assert (dg.rank, dg.invariant_factors) == (1, ())
            w = smith_normal_form([list(row) for row in bv.matrix])
            assert tuple(x for x in w.diagonal if x not in (0, 1)) == (r,) \
                or w.diagonal == (r,)
            mu = gerbe_group(beta)
            assert (mu.rank, mu.invariant_factors) == (0, (r,))


def test_gerbe_group_of_finite_lattice():
    n = FgAbGroup(0, (4, 9))
    beta = GroupHom.from_columns(1, n, [[1, 1]])
    mu = gerbe_group(beta)
    assert mu.invariant_factors == (36,)
    assert mu.order() == 36

    n2 = FgAbGroup(0, (2, 2))
    beta2 = GroupHom.from_columns(2, n2, [[1, 0], [0, 1]])
    mu2 = gerbe_group(beta2)
    assert mu2.invariant_factors == (2, 2)


def test_gale_dual_rejects_infinite_cokernel():
    n = FgAbGroup(2, ())
    beta = GroupHom.from_columns(2, n, [[1, 0], [-1, 0]])
    with pytest.raises(InfiniteCokernel):
        gale_dual(beta)


def test_gale_exactness_property_seeded():
    from generators import random_finite_cokernel_map

    rng = random.Random(5150)
    for _ in range(40):
        beta = random_finite_cokernel_map(rng)
        # gale_dual verifies both four-term sequences internally
        dg, bv = gale_dual(beta)
        assert dg.rank == beta.source.rank - beta.target.rank
        mu, _ = cokernel(bv)
        assert mu.is_finite


# the four subgroup equalities im(into) = ker(out) of the two four-term
# sequences, in the order gale_dual checks them
GALE_EQUALITIES = ("image of DG* differs from ker(beta)",
                   "ker(projection) differs from im(beta)",
                   "image of N* differs from ker(beta_vee)",
                   "ker(DG projection) differs from im(beta_vee)")


@pytest.mark.parametrize("doctor", ("drop", "stray"))
@pytest.mark.parametrize("equality", range(len(GALE_EQUALITIES)))
def test_gale_exactness_refuses_a_doctored_kernel(monkeypatch, equality,
                                                  doctor):
    # a P^1 gerbe: N = Z + Z/2 and lifts (1, 1), (-1, 1), so neither
    # cokernel is trivial, no map into a kernel is onto, and the four
    # maps out of the kernels differ
    beta = GroupHom.from_columns(2, FgAbGroup(1, (2,)), [[1, 1], [-1, 1]])
    _, beta_vee = gale_dual(beta)
    outs = (beta, cokernel(beta)[1], beta_vee, cokernel(beta_vee)[1])
    honest = lattice.hom_kernel_generators

    def doctored(f):
        gens = honest(f)
        if f != outs[equality]:
            return gens
        if doctor == "drop":
            return gens[1:]
        # the last unit vector lies in none of the four images
        c = f.source.coords
        return gens + [f.source.reduce([int(i == c - 1) for i in range(c)])]

    monkeypatch.setattr(lattice, "hom_kernel_generators", doctored)
    with pytest.raises(GaleExactnessError) as refusal:
        gale_dual(beta)
    assert str(refusal.value) == GALE_EQUALITIES[equality]
