"""The one exact elimination: rref, rank and nullspace against a dense
Gauss-Jordan oracle."""

import random
from fractions import Fraction

import pytest

import oracles
from stackyring import linalg

FIXED = [
    [],                                    # empty
    [[], []],                              # no columns
    [[0, 0, 0]], [[0, 0], [0, 0]],         # zero rows only
    [[1, 2, 3, 4, 5], [2, 4, 6, 8, 10]],   # wide, rank 1
    [[1, 0], [0, 0], [2, 1], [3, 1], [0, 0]],  # tall, zero rows among
    [[0, 3, 1], [0, 6, 2], [0, 0, 5]],     # a zero column first
]


def seeded_matrices(seed, entry):
    rng = random.Random(seed)
    out = list(FIXED)
    for _ in range(120):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[entry(rng) if rng.random() < 0.6 else 0 for _ in range(cols)]
               for _ in range(rows)]
        if rng.random() < 0.3:  # a row that depends on the others
            mat.append([sum(r[c] for r in mat) for c in range(cols)])
        if rng.random() < 0.3:
            mat.insert(rng.randrange(len(mat) + 1), [0] * cols)
        out.append(mat)
    return out


def int_entry(rng):
    return rng.randint(-4, 4)


def fraction_entry(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def wide_int_entry(rng):
    return rng.randint(-60, 60)


def wide_fraction_entry(rng):
    return Fraction(rng.randint(-60, 60), rng.randint(1, 9))


@pytest.mark.parametrize("seed, entry", [(1901, int_entry),
                                         (1902, fraction_entry)])
def test_elimination_matches_the_dense_oracle(seed, entry):
    for mat in seeded_matrices(seed, entry):
        want_rows, want_pivots = oracles.rref(mat)
        assert linalg.rref(mat) == (want_rows, want_pivots), mat
        assert linalg.rank(mat) == len(want_pivots), mat
        ncols = len(mat[0]) if mat else 0
        basis = linalg.nullspace(mat)
        assert len(basis) == ncols - len(want_pivots), mat
        for v in basis:
            assert all(sum(a * x for a, x in zip(row, v)) == 0
                       for row in mat), (mat, v)
        if basis:
            assert oracles.rref_rank(basis) == len(basis), mat


@pytest.mark.parametrize("seed, entry", [(1903, int_entry),
                                         (1904, fraction_entry)])
def test_results_are_ints_where_integral(seed, entry):
    for mat in seeded_matrices(seed, entry):
        rows, _ = linalg.rref(mat)
        values = [x for row in rows + linalg.nullspace(mat) for x in row]
        for q in values:
            assert type(q) in (int, Fraction), (mat, q)
            assert (type(q) is int) == (q.denominator == 1), (mat, q)


def test_coefficient_growth_matches_the_dense_oracle():
    """Dense 8 x 8 matrices with entries up to 60 in size, and with
    Fraction entries, where the fraction-free rows grow most: the same
    reduced rows and pivots as the dense oracle."""
    rng = random.Random(1905)
    for trial in range(40):
        entry = wide_fraction_entry if trial % 2 else wide_int_entry
        mat = [[entry(rng) for _ in range(8)] for _ in range(8)]
        if trial % 4 == 3:  # rank 6: two rows from the others
            mat[6] = [a - 3 * b for a, b in zip(mat[0], mat[1])]
            mat[7] = [sum(col[:6]) for col in zip(*mat)]
        assert linalg.rref(mat) == oracles.rref(mat), mat


def test_mat_mul_matches_the_definition():
    rng = random.Random(1906)
    for _ in range(60):
        n, k, m = (rng.randint(1, 8) for _ in range(3))
        a = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(n)]
        b = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(k)]
        got = linalg.mat_mul(a, b)
        assert got == [[sum(a[i][t] * b[t][j] for t in range(k))
                        for j in range(m)] for i in range(n)]
        assert all(type(x) is int for row in got for x in row)
    assert linalg.mat_mul([], []) == []
    assert linalg.mat_mul([[]], []) == [[]]
    assert linalg.mat_mul([[1, 2]], [[], []]) == [[]]


def test_inexact_entries_are_refused():
    for bad in (0.5, True):
        with pytest.raises(ValueError, match="is not an exact rational"):
            linalg.rref([[1, bad]])


def test_text_written_as_n_or_n_over_d_is_read():
    got = [linalg._exact_input(t, "entry") for t in ("-1", "+2", "3/4", "6/8")]
    assert got == [-1, 2, Fraction(3, 4), Fraction(3, 4)]
    assert [type(q) for q in got] == [int, int, Fraction, Fraction]
