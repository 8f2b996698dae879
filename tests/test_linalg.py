"""The one exact elimination: echelon rows and their back-substitution
against the fully reduced insertion of oracles, and rref, rank and
nullspace against a dense Gauss-Jordan oracle."""

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


def sparse_rows(rng, width):
    """Seeded sparse rows over width columns, a fifth of their entries
    Fractions, some rows sums of earlier ones."""
    rows = []
    for _ in range(rng.randint(1, width + 2)):
        if rows and rng.random() < 0.2:
            a, b = rng.choice(rows), rng.choice(rows)
            row = {k: a.get(k, 0) + 2 * b.get(k, 0) for k in a.keys() | b}
            row = {k: q for k, q in row.items() if q}
            if not row:
                continue
        else:
            cols = rng.sample(range(width), rng.randint(1, min(4, width)))
            row = {k: Fraction(rng.randint(-5, 5) or 1, rng.randint(2, 4))
                   if rng.random() < 0.2 else rng.choice((-3, -2, -1, 1, 2, 5))
                   for k in cols}
        rows.append(row)
    return rows


def seeded_eliminations(seed, count=200):
    """(rows, echelon pivots, reference pivots) for seeded sparse rows:
    the rows inserted by _insert_row, then back-substituted, and by the
    fully reduced insertion of oracles."""
    rng = random.Random(seed)
    for _ in range(count):
        rows = sparse_rows(rng, rng.randint(3, 12))
        echelon, reference = {}, {}
        for row in rows:
            assert linalg._insert_row(echelon, row) \
                == oracles.insert_reduced_row(reference, row), rows
            for c, prow in echelon.items():
                assert min(prow) == c and prow[c] > 0, (rows, c)
        yield rows, echelon, reference


def test_back_substituted_echelon_rows_are_the_reduced_rows():
    """Echelon inserts then one back-substitution give exactly the rows
    the fully reduced insertion keeps: the same pivot columns and the
    same primitive int rows. Back-substituting again changes nothing."""
    brought_in = 0
    for rows, echelon, reference in seeded_eliminations(1907):
        brought_in += echelon != reference
        linalg._back_substitute(echelon)
        assert echelon == reference, rows
        assert all(type(q) is int for prow in echelon.values()
                   for q in prow.values()), rows
        again = dict(echelon)
        linalg._back_substitute(again)
        assert again == echelon, rows
    assert brought_in  # some echelon rows differ before back-substitution


def test_reduce_reads_the_same_against_echelon_and_reduced_rows():
    """_reduce against echelon pivots equals _reduce against the same rows
    back-substituted, on seeded rows over every column, Fractions among
    their entries; and neither changes the row it is given."""
    rng = random.Random(1908)
    for rows, echelon, reference in seeded_eliminations(1909):
        width = 1 + max(k for row in rows for k in row)
        linalg._back_substitute(reference)
        for row in sparse_rows(rng, width):
            given = dict(row)
            got = linalg._reduce(echelon, row)
            assert got == linalg._reduce(reference, row), (rows, row)
            assert row == given
            assert not any(c in got for c in echelon), (rows, row)


def test_sparse_rref_matches_the_dense_oracle():
    """rref of seeded sparse rows, wider than seeded_matrices' and with
    Fraction entries, against the dense Fraction Gauss-Jordan."""
    rng = random.Random(1910)
    for _ in range(200):
        width = rng.randint(3, 12)
        mat = [[row.get(k, 0) for k in range(width)]
               for row in sparse_rows(rng, width)]
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
