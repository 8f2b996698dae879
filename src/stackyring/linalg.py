"""Exact linear algebra over the rationals.

Matrices are lists of row lists whose entries are ints or Fractions.
Everything here is small and dense; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction


def frac_rows(matrix):
    """Copy a matrix, coercing every entry to Fraction."""
    return [[Fraction(x) for x in row] for row in matrix]


def rref(matrix):
    """Reduced row echelon form.

    Returns (rows, pivot_columns). Pivot entries are 1 and are the only
    nonzero entries in their columns. Row order follows pivot column order.
    """
    rows = frac_rows(matrix)
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(matrix):
    if not matrix or not matrix[0]:
        return 0
    return len(rref(matrix)[1])


def solve_exact(matrix, rhs):
    """Solve matrix @ x = rhs over the rationals.

    Returns one solution as a list of Fractions, or None if inconsistent.
    The solution is unique whenever the columns are independent.
    The library answers cone queries through the fan's geometry index
    instead; benchmark/spans.py still wraps this function by name.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    aug = [[Fraction(matrix[i][j]) for j in range(ncols)] + [Fraction(rhs[i])]
           for i in range(nrows)]
    rows, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][ncols]
    return x


def nullspace(matrix):
    """Basis of the rational kernel, as a list of column vectors."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if ncols == 0:
        return []
    if nrows == 0:
        return [[Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)]
    rows, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(v)
    return basis


def mat_mul(a, b):
    """Matrix product with int entries preserved when both inputs are int."""
    nrows, inner = len(a), (len(b) if b else 0)
    ncols = len(b[0]) if inner else 0
    out = []
    for i in range(nrows):
        row = []
        for j in range(ncols):
            row.append(sum(a[i][k] * b[k][j] for k in range(inner)))
        out.append(row)
    return out


def mat_vec(a, v):
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


def transpose(matrix):
    if not matrix:
        return []
    return [list(col) for col in zip(*matrix)]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def det(matrix):
    """Exact determinant of a square matrix (fraction-free not needed here)."""
    n = len(matrix)
    rows = frac_rows(matrix)
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        result *= rows[c][c]
        inv = Fraction(1) / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return result * sign
