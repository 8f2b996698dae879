import random

import pytest

from stackyring.errors import InfiniteCokernel, NonFreeSource
from stackyring.lattice import (FgAbGroup, GroupHom, cokernel, dual, dual_hom,
                                gale_dual, gerbe_group, kernel,
                                member_of_subgroup, smith_normal_form,
                                solve_integer_linear)


def test_group_arithmetic_reduces_torsion():
    g = FgAbGroup(1, (2, 3))
    assert g.coords == 3
    assert g.reduce((5, 7, -1)) == (5, 1, 2)
    assert g.add((1, 1, 2), (2, 1, 2)) == (3, 0, 1)
    assert g.neg((1, 1, 1)) == (-1, 1, 2)
    assert g.scale(4, (1, 1, 1)) == (4, 0, 1)


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


def test_solve_integer_linear():
    # 3x = 6 has x = 2; 3x = 7 has no integer solution
    assert solve_integer_linear([[3]], [6]) == (2,)
    assert solve_integer_linear([[3]], [7]) is None
    sol = solve_integer_linear([[2, 0], [0, 2]], [4, -6])
    assert sol == (2, -3)
    assert solve_integer_linear([[2, 3]], [1]) is not None


def test_member_of_subgroup():
    g = FgAbGroup(2, ())
    gens = [(2, 0), (0, 3)]
    assert member_of_subgroup(g, gens, (4, -3))
    assert not member_of_subgroup(g, gens, (1, 0))
    gt = FgAbGroup(0, (4,))
    assert member_of_subgroup(gt, [(2,)], (0,))
    assert not member_of_subgroup(gt, [(2,)], (1,))


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
