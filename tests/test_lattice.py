import random
import re
from fractions import Fraction

import pytest

import oracles
from generators import benchmark_workloads, random_finite_cokernel_map
from oracles import member_of_subgroup, same_subgroup
from stackyring import fixtures, lattice, linalg
from stackyring.errors import (GaleExactnessError, InfiniteCokernel,
                               NonFreeSource)
from stackyring.lattice import (FgAbGroup, GroupHom, _with_relations,
                                cokernel, dual, dual_hom, gale_dual,
                                gerbe_group, kernel, smith_normal_form,
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


def test_unimodular_matches_the_determinant():
    """The fraction-free test agrees with a permutation-expansion
    determinant, on random matrices (mostly not unimodular) and on
    products of random elementary matrices (all unimodular)."""
    rng = random.Random(90127)
    seen = set()
    for _ in range(300):
        n = rng.randint(0, 4)
        if rng.random() < 0.5:
            u = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        else:
            u = linalg.identity(n)
            for _ in range(rng.randint(0, 6) if n > 1 else 0):
                i, j = rng.sample(range(n), 2)
                u[i] = [x + rng.randint(-3, 3) * y for x, y in zip(u[i], u[j])]
            if n and rng.random() < 0.5:
                u[0] = [-x for x in u[0]]
        want = abs(oracles.det(u)) == 1
        assert lattice._unimodular(u) == want, u
        seen.add(want)
    assert seen == {True, False}
    assert not lattice._unimodular([[1, 0]])


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

    # no columns, on a target with no coordinates, with no relations and
    # with some: the cokernel is the target, and proj the Smith form's U
    # (the swap on Z^2 x Z/2 comes from its row pivoting)
    for target, matrix in ((FgAbGroup(0, ()), ()),
                           (FgAbGroup(2, ()), ((1, 0), (0, 1))),
                           (FgAbGroup(0, (3,)), ((1,),)),
                           (FgAbGroup(2, (2,)),
                            ((0, 1, 0), (1, 0, 0), (0, 0, 1)))):
        c, proj = cokernel(GroupHom.from_columns(0, target, []))
        assert (c, proj.source, proj.target, proj.matrix) == \
            (target, target, target, matrix)


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
    from generators import benchmark_workloads, random_finite_cokernel_map

    rng = random.Random(5150)
    for _ in range(40):
        beta = random_finite_cokernel_map(rng)
        # gale_dual verifies both four-term sequences internally
        dg, bv = gale_dual(beta)
        assert dg.rank == beta.source.rank - beta.target.rank
        mu, _ = cokernel(bv)
        assert mu.is_finite


# the Smith forms gale_dual takes, in order, by the name its refusal
# gives each: one, whose transpose also gives coker(beta)
GALE_WITNESSES = ("[B | Q]^T",)

# a P^1 gerbe, N = Z + Z/2 with lifts (1, 1), (-1, 1): DG = Z + Z/2, and
# the last row of the witness's D is zero
P1_GERBE = GroupHom.from_columns(2, FgAbGroup(1, (2,)), [[1, 1], [-1, 1]])
# N = Z^2 with rays (1, 0), (-1, 0): coker(beta) = Z
INFINITE = GroupHom.from_columns(2, FgAbGroup(2), [[1, 0], [-1, 0]])
# maps whose witness has two rows or more and d_0 = 1: P1_GERBE; P^1 with
# N = Z, where DG = Z is free; a P^2 gerbe whose N = Z^2 + Z/4 + Z/9 is
# not in invariant-factor form
DOCTORED_MAPS = (
    P1_GERBE,
    GroupHom.from_columns(2, FgAbGroup(1), [[1], [-1]]),
    GroupHom.from_columns(3, FgAbGroup(2, (4, 9)),
                          [[1, 0, 1, 0], [0, 1, 0, 1], [-1, -1, 3, 5]]))


def _double_u_row(w):
    # the last rows of U and D: D stays a Smith form, its last row being
    # zero or holding the largest diagonal entry, and det U becomes +-2
    return w.U[:-1] + (tuple(2 * x for x in w.U[-1]),), w.V, \
        w.D[:-1] + (tuple(2 * x for x in w.D[-1]),)


def _double_v_column(w):
    # the last columns of V and D, as the last rows above
    def doubled(m):
        return tuple(row[:-1] + (2 * row[-1],) for row in m)
    return w.U, doubled(w.V), doubled(w.D)


def _off_diagonal(w):
    # row 1 += row 0 in U and D: U stays unimodular, D gets d_0 below
    # its diagonal
    def added(m):
        return (m[0], tuple(x + y for x, y in zip(m[1], m[0]))) + m[2:]
    return added(w.U), w.V, added(w.D)


def _negative(w):
    # row 0 negated in U and D: U stays unimodular, D gets -d_0
    def negated(m):
        return (tuple(-x for x in m[0]),) + m[1:]
    return negated(w.U), w.V, negated(w.D)


WITNESS_MUTANTS = {"u_row": _double_u_row, "v_column": _double_v_column,
                   "off_diagonal": _off_diagonal, "negative": _negative}


@pytest.mark.parametrize("mutant", [*WITNESS_MUTANTS, "foreign"])
@pytest.mark.parametrize("case", range(len(DOCTORED_MAPS)))
def test_gale_dual_refuses_a_doctored_witness(monkeypatch, case, mutant):
    """Each doctored witness still has U A V = D; only one of verify's
    tests (|det U| = 1, |det V| = 1, D diagonal, d_t >= 0) fails. The
    foreign witness verifies, but for another matrix. The one witness
    gale_dual takes is refused by name on each of DOCTORED_MAPS."""
    beta = DOCTORED_MAPS[case]
    honest = lattice.smith_normal_form
    calls = []

    def doctored(matrix):
        w = honest(matrix)
        calls.append(w)
        assert len(w.D) >= 2 and w.D[0][0] == 1
        if mutant == "foreign":
            other = [list(row) for row in w.matrix]
            other[0][0] += 1
            return honest(other)
        u, v, d = WITNESS_MUTANTS[mutant](w)
        assert [list(r) for r in d] == linalg.mat_mul(
            linalg.mat_mul(u, w.matrix), v)
        return lattice.SnfWitness(w.matrix, u, v, d)

    monkeypatch.setattr(lattice, "smith_normal_form", doctored)
    with pytest.raises(GaleExactnessError) as refusal:
        gale_dual(beta)
    assert str(refusal.value) == \
        f"Smith witness of {GALE_WITNESSES[0]} does not verify"
    assert len(calls) == 1


def _zero_last_pivot(w):
    # the last nonzero d_t becomes 0: D keeps its zeros last, one more
    # coordinate of the cokernel reads free, and U A V no longer equals D
    t = max(i for i, d in enumerate(w.diagonal) if d)
    return w.U, w.V, tuple(tuple(0 if (i, j) == (t, t) else x
                                 for j, x in enumerate(row))
                           for i, row in enumerate(w.D))


def _fill_first_zero(w):
    # the first d_t = 0 becomes 1: no coordinate of the cokernel reads
    # free, and U A V no longer equals D
    t = w.diagonal.index(0)
    return w.U, w.V, tuple(tuple(1 if (i, j) == (t, t) else x
                                 for j, x in enumerate(row))
                           for i, row in enumerate(w.D))


def _zero_free_u_row(w):
    # the last row of U, whose row of D is zero, becomes zero: it is in
    # ker(A^T), so U A V = D still holds, but det U = 0
    assert not any(w.D[-1])
    return w.U[:-1] + ((0,) * len(w.U[-1]),), w.V, w.D


# gale_dual once checked each of these facts, which follow from its
# verified witness (see its docstring), and refused with the key: the
# beta, how its witness is doctored and the fact as it fails on what
# gale_dual makes of that witness taken unverified; the old checks before
# it pass there. "N* does not inject" reads beta alone: rank(B_free) <
# rank N says coker(beta) is infinite, which the same diagonal decides
# once its zero is filled. "rank of DG" no longer fails on a returned DG:
# coker(beta) and DG are read off one diagonal, so the pivot that gives
# DG a rank too many makes gale_dual refuse a map whose cokernel is
# finite: the refusal is what fails.
DEDUCED_CHECKS = {
    "rank of DG is not m - rank(N)": (
        P1_GERBE, _zero_last_pivot,
        lambda beta, gale: isinstance(gale, InfiniteCokernel)),
    "DG* does not inject into Z^m": (
        P1_GERBE, _zero_free_u_row,
        lambda beta, gale: linalg.rank(dual_hom(gale[1]).matrix)
        != gale[0].rank),
    "N* does not inject into Z^m": (
        INFINITE, _fill_first_zero,
        lambda beta, gale: isinstance(gale, lattice.GaleDual)
        and linalg.rank(dual_hom(beta).matrix) != beta.target.rank),
}


@pytest.mark.parametrize("check", DEDUCED_CHECKS)
def test_deleted_gale_checks_need_a_witness_that_does_not_verify(
        monkeypatch, check):
    """Doctored witnesses on which a deleted check would fire, were they
    taken unverified, are refused by _verified_snf."""
    beta, mutant, fails = DEDUCED_CHECKS[check]
    honest = lattice.smith_normal_form
    calls = []

    def doctored(matrix):
        w = honest(matrix)
        calls.append(w)
        return lattice.SnfWitness(w.matrix, *mutant(w))

    monkeypatch.setattr(lattice, "smith_normal_form", doctored)
    with monkeypatch.context() as unverified:
        unverified.setattr(lattice, "_verified_snf",
                           lambda matrix, name: doctored(matrix))
        try:
            gale = gale_dual(beta)
        except InfiniteCokernel as refusal:
            gale = refusal
        assert fails(beta, gale)
    calls.clear()
    with pytest.raises(GaleExactnessError) as refusal:
        gale_dual(beta)
    assert str(refusal.value) == \
        f"Smith witness of {GALE_WITNESSES[0]} does not verify"
    assert len(calls) == 1


def test_gale_dual_takes_no_rank(monkeypatch):
    betas = [fixtures.load_fan(name).beta() for name in fixtures.FAN_FIXTURES]
    betas += _seeded_gale_maps()[:40]

    def refused(matrix):
        raise AssertionError("gale_dual called linalg.rank")

    monkeypatch.setattr(linalg, "rank", refused)
    for beta in betas:
        gale_dual(beta)


def _benchmark_gale_maps():
    """The 24 seeded GALE_SHAPES maps of the cli_sweep benchmark, for
    each of the seeds 1-3."""
    workloads = benchmark_workloads()
    maps = [workloads.parse_item(item) for seed in (1, 2, 3)
            for item in workloads.make_items("cli_sweep", seed)
            if item.kind == "gale"]
    assert len(maps) == 3 * len(workloads.GALE_SHAPES) == 72
    return maps


def _seeded_gale_maps():
    rng = random.Random(8128)
    return [random_finite_cokernel_map(rng) for _ in range(200)]


GALE_MAPS = {
    "fixtures": lambda: [fixtures.load_fan(name).beta()
                         for name in fixtures.FAN_FIXTURES],
    "gale_shapes": _benchmark_gale_maps,
    "seeded": _seeded_gale_maps,
}


@pytest.mark.parametrize("source", GALE_MAPS)
def test_gale_dual_agrees_with_the_subgroup_oracle(source):
    """Every part of both sequences, with kernels, cokernels and subgroup
    equalities from fresh Smith forms, holds for what gale_dual returns,
    and its two cokernels are the ones cokernel() computes."""
    for beta in GALE_MAPS[source]():
        gale = gale_dual(beta)
        dg, beta_vee = gale
        assert oracles.gale_sequences_exact(beta, dg, beta_vee) == [], beta
        assert gale.cokernel == cokernel(beta)[0]
        assert gale.gerbe_group == cokernel(beta_vee)[0]


def test_subgroup_oracle_refuses_inexact_sequences():
    """The oracle is not vacuous: beta_vee replaced by twice itself no
    longer reaches ker(beta) through its dual, and DG given a rank too
    many has a dual that cannot inject."""
    beta = GroupHom.from_columns(2, FgAbGroup(1, (2,)), [[1, 1], [-1, 1]])
    dg, beta_vee = gale_dual(beta)
    twice = GroupHom(beta_vee.source, dg,
                     [[2 * x for x in row] for row in beta_vee.matrix])
    assert oracles.gale_sequences_exact(beta, dg, twice) == [
        "im(DG*) = ker(beta)"]
    assert "DG* injects" in oracles.gale_sequences_exact(
        beta, FgAbGroup(dg.rank + 1), beta_vee)
