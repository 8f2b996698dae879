"""Exact linear algebra over the rationals.

Matrices are lists of row lists whose entries are ints or Fractions.
Everything here is small and dense; no floating point anywhere. Systems
of linear inequalities go through one solver, fourier_motzkin.
"""

from __future__ import annotations

import math
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


def fourier_motzkin(rows, nvars):
    """Project {y in Q^nvars : a.y >= b for every row (a, b)} exactly.

    rows are pairs (a, b) of nvars ints and a rational. Returns the stage
    systems [P_0, P_1, ..., P_nvars]: P_k is a list of rows (a, b), a a
    k-tuple of ints with gcd 1 (or all 0) and b a Fraction, whose
    solution set is exactly the projection onto y_1..y_k, got by
    eliminating y_nvars, ..., y_{k+1} in that order. Rows with the same a
    are merged into the one with the largest b. A row 0 >= b with b <= 0
    holds everywhere and is dropped, and one with b > 0 is kept as
    0 >= 1, so the system is feasible exactly when P_0 is empty.

    y1 + y2 >= 2, y1 - y2 >= 0 and y1 <= 3 project to 1 <= y1 <= 3:

    >>> fourier_motzkin([((1, 1), 2), ((1, -1), 0), ((-1, 0), -3)], 2)[:2]
    [[], [((-1,), Fraction(-3, 1)), ((1,), Fraction(1, 1))]]

    y1 + y2 >= 2, y1 <= 0 and y2 <= 1 have no solution:

    >>> fourier_motzkin([((1, 1), 2), ((-1, 0), 0), ((0, -1), -1)], 2)[0]
    [((), Fraction(1, 1))]

    Why the stages are exact. Eliminating y_k pairs every row with a
    positive y_k coefficient with every row with a negative one and adds
    the positive combination that cancels y_k; rows without y_k are kept.
    If y' satisfies the result, each lower bound on y_k at y' lies below
    each upper bound, since their combination holds at y', so some y_k
    completes y' (Fourier; Motzkin). Every derived row is a positive
    multiple of sum_i lam_i r_i over the distinct input rows r_i, for
    some lam in C_k = {lam >= 0 : the coefficients of the k eliminated
    variables in sum_i lam_i r_i vanish}, and it carries the set of input
    rows it was built from.

    Why Chernikov's rule drops only redundant rows. After k eliminations
    a row built from more than k + 1 input rows is dropped (Chernikov
    1960; Imbert 1990). C_k lies in the orthant, so every lam in it is a
    sum of extreme rays, whose rows then imply the row of lam: the rows of
    the extreme rays already describe the projection. An extreme ray has
    a one-dimensional space of multipliers on its support S, so
    |S| <= 1 + rank <= k + 1. By induction every extreme ray whose row is
    not 0 >= b with b <= 0 has a stage row with the same a up to a
    positive factor, a b at least as large, and a row set inside S, so
    never dropped: C_{k+1} is C_k cut by the hyperplane where the next
    coefficient vanishes, and an extreme ray of the cut is either an
    extreme ray of C_k inside the hyperplane, whose row is carried over,
    or a positive combination of two extreme rays of C_k on opposite
    sides, whose stage rows the elimination pairs into such a row, with
    the union of their row sets inside S. Merging rows with the same a
    keeps the largest b and the intersection of the row sets, so the
    invariant holds; rows 0 >= b with b <= 0 are never paired, so
    dropping them loses nothing.
    """
    stage = {}
    for a, b in rows:
        _keep_row(stage, tuple(a), b, 0)
    stage = {a: (b, 1 << i) for i, (a, (b, _)) in enumerate(stage.items())}
    stages = [stage]
    for eliminated in range(1, nvars + 1):
        lower = [(a, b, used) for a, (b, used) in stage.items() if a[-1] > 0]
        upper = [(a, b, used) for a, (b, used) in stage.items() if a[-1] < 0]
        reduced = {}
        for a, (b, used) in stage.items():
            if not a[-1]:
                _keep_row(reduced, a[:-1], b, used)
        for ap, bp, used_p in lower:
            for aq, bq, used_q in upper:
                used = used_p | used_q
                if used.bit_count() <= eliminated + 1:
                    cp, cq = ap[-1], -aq[-1]
                    _keep_row(reduced, tuple(cq * x + cp * y for x, y in
                                             zip(ap[:-1], aq)),
                              cq * bp + cp * bq, used)
        stage = reduced
        stages.append(stage)
    return [[(a, b) for a, (b, _) in s.items()] for s in reversed(stages)]


def _keep_row(stage, a, b, used):
    """Merge a.y >= b into {a / gcd: (b / gcd, set of input rows)}."""
    g = math.gcd(*a) or max(b, 0)
    if g:  # else the row reads 0 >= b with b <= 0
        a, b = tuple(x // g for x in a), Fraction(b) / g
        old_b, old_used = stage.get(a, (b, used))
        stage[a] = (max(b, old_b), used & old_used)


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
