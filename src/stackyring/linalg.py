"""Exact linear algebra over the rationals.

Matrices are lists of row lists. Everything here is small and dense; no
floating point anywhere. Systems of linear inequalities go through one
solver, fourier_motzkin, and systems of linear equations through one
Gaussian elimination, _insert_row: rref, rank, nullspace and solve_exact
run on it, and so do the fan's cone solvers (on its int pivot rows) and
the relation rows and associativity walk of chowring.

The elimination works in two halves. _insert_row keeps the pivot rows in
echelon form, each positive at its own pivot column and zero left of it,
and never rewrites an older row; _reduce clears a row's pivot columns in
ascending order, in one pass, the columns a clear brings in included. A
reader that needs the reduced rows, zero at every other pivot column,
calls _back_substitute once, when the rows are all in. The primitive int
rows with a positive pivot entry that are reduced are unique for their
span, so the reduced rows do not depend on the order of insertion, and a
reader that needs only the pivot columns or membership in the span
(chowring's budget layer and associativity walk) never back-substitutes.

The package keeps numbers in one convention. Integral data is an int from
input onwards: _exact_input takes an input number to an int where it is
integral and to a Fraction otherwise, and refuses, naming it, a float, a
bool or anything Fraction cannot read; _integer_input also refuses a
number that is not an integer. Sums
start from the int 0, so a Fraction appears only where a division makes
one, and _exact turns an integral result back into an int. The
elimination divides by nothing: _insert_row keeps each pivot row as a
primitive int row with a positive pivot entry p, fraction-free (the sparse
form of Bareiss 1968), and a row with Fraction entries is scaled to ints
before it is reduced. A Fraction is made only where a row is read off
divided by its p, as rref and chowring's normal forms read it, and only
where that quotient is not an integer. So ints meet ints wherever the
data is integral, and int arithmetic is what runs there.
"""

from __future__ import annotations

import heapq
import math
import re
from fractions import Fraction

# the one written form of a rational: an optional sign, then ASCII digits,
# optionally over ASCII digits. Fraction reads more (decimals, exponents,
# underscores, spaces, other scripts' digits), and "1e30000000" makes it
# build 10^30000000; in this form Python's limit on the digits of an int
# conversion bounds the work instead.
_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _exact(q):
    """q as an int when it is integral, else q itself (a Fraction)."""
    return q.numerator if q.denominator == 1 else q


def _rational_text(text):
    """The Fraction that text writes as n or n/d (see _RATIONAL_TEXT);
    ValueError on any other text, ZeroDivisionError on a zero d."""
    if not _RATIONAL_TEXT.fullmatch(text):
        raise ValueError(f"{text!r} is not written as n or n/d")
    return Fraction(text)


def _exact_input(q, kind):
    """An input number as _exact stores it; floats, bools, text not
    written as n or n/d (see _rational_text) and anything else Fraction
    cannot read (None, "1/0") are refused, naming it."""
    if type(q) is int:
        return q
    if not isinstance(q, (bool, float)):
        try:
            return _exact(_rational_text(q) if isinstance(q, str)
                          else Fraction(q))
        except (OverflowError, TypeError, ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{kind} {q!r} is not an exact rational")


def _integer_input(q, kind):
    """An input integer as an int; anything else _exact_input takes is
    refused, naming it."""
    q = _exact_input(q, kind)
    if type(q) is not int:
        raise ValueError(f"{kind} {q} is not an integer")
    return q


def _scaled(values):
    """(m, [m q for q in values]) for m the lcm of the denominators.

    Every m q is an int, also when q is already one (m = 1 then).
    """
    m = math.lcm(*(q.denominator for q in values))
    return m, [q.numerator * (m // q.denominator) for q in values]


def _quotient(x, p):
    """The int x over the positive int p, as _exact stores it."""
    return x // p if x % p == 0 else Fraction(x, p)


def _primitive(row):
    """A nonempty sparse int row divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    return row if g == 1 else {k: q // g for k, q in row.items()}


def _reduce(pivots, row):
    """A positive multiple of the normal form of a sparse row (nonzero
    entries only) against pivots, as a sparse primitive int row (content
    1); the row itself is not changed.

    pivots maps a pivot column c to its row, in echelon form (see
    _insert_row): a primitive int row, positive at c and zero at every
    column left of c. A row with a Fraction entry is first scaled to ints
    by the lcm of its denominators. Then the pivot columns of the row are
    cleared in ascending order, in one pass over a heap of them. Clearing
    c is one fraction-free step: the row becomes a row - b prow, prow the
    pivot row of c and a/b = prow[c]/row[c] in lowest terms, so a > 0.
    As prow is zero left of c, the step changes the row at c and right of
    c only, and the pivot columns it brings in, all right of c, join the
    heap. A column once cleared is never brought in again, since every
    later step is at a column right of it, so the pass ends with no pivot
    column left in the row.

    The result, after the division by its content, is a positive multiple
    of the normal form NF that the elimination with every pivot row scaled
    to its rref row reaches. It reads lam row + v and NF reads row + w, for
    some lam > 0 and v, w in the span of the pivot rows, and both are zero
    at every pivot column. So result - lam NF lies in the span and is zero
    at every pivot column, and such a vector is zero: a nonzero
    combination of the echelon rows is nonzero at the smallest pivot
    column among the rows it uses, where every other row it uses is zero.
    So the result does not depend on whether the pivot rows are
    back-substituted (_back_substitute) or not.
    """
    if Fraction in map(type, row.values()):
        row = dict(zip(row, _scaled(list(row.values()))[1]))
    else:
        row = dict(row)
    todo = [c for c in row if c in pivots]
    heapq.heapify(todo)
    while todo:
        c = heapq.heappop(todo)
        x = row.get(c)
        if x is None:  # it cancelled, or is a repeat
            continue
        prow = pivots[c]
        g = math.gcd(prow[c], x)
        a, b = prow[c] // g, x // g
        if a != 1:
            for k in row:
                row[k] *= a
        for k, q in prow.items():
            v = row.get(k)
            if v is None:
                row[k] = -b * q
                if k in pivots:
                    heapq.heappush(todo, k)
            else:
                v -= b * q
                if v:
                    row[k] = v
                else:
                    del row[k]
    return _primitive(row) if row else row


def _insert_row(pivots, row) -> bool:
    """Add row to the span of pivots; False when it was already in it.

    The reduced row (_reduce), negated if need be, becomes the pivot row
    of its first nonzero column l, with a positive pivot entry; no older
    row is touched. So the rows stay in echelon form: each is a primitive
    int row, positive at its own pivot column and zero left of it. The
    pivot columns are the first nonzero columns of the vectors of the
    span, which depend on the span alone, so they are those of any
    elimination that inserts the same rows, in any order.
    """
    row = _reduce(pivots, row)
    if not row:
        return False
    lead = min(row)
    if row[lead] < 0:
        row = {k: -q for k, q in row.items()}
    pivots[lead] = row
    return True


def _back_substitute(pivots):
    """Turn echelon pivot rows (see _insert_row), in place, into the
    reduced ones: each pivot row becomes zero at every other pivot column.

    Each row is reduced (_reduce) against the rows of the pivot columns
    right of its own, which are already reduced when the rows are taken
    from the last pivot column down; a row already zero at all of them is
    kept as it is. Its own pivot entry is only scaled, by some a > 0, so
    it stays positive, and the span is unchanged, as a row is replaced by
    a positive multiple of itself minus a combination of rows right of
    it.

    The rows that result are unique: for each pivot column c there is
    one vector of the span that is 1 at c and 0 at every other pivot
    column (its rref row; the difference of two such vectors is zero at
    every pivot column, so zero), and a primitive int row, positive at c,
    that is a multiple of it is its one positive multiple with coprime
    int entries. So they do not depend on the order in which the rows
    were inserted, nor on whether any were reduced before, and each one
    read divided by its pivot entry is its rref row.
    """
    done = {}
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        if any(k in done for k in row):
            row = pivots[c] = _reduce(done, row)
        done[c] = row


def rref(matrix):
    """Reduced row echelon form, ints where integral.

    Returns (rows, pivot_columns): the pivot rows in pivot column order,
    then one zero row for each input row that added no pivot. Pivot
    entries are 1 and are the only nonzero entries in their columns.

    The rows are inserted one by one with _insert_row, which keeps them
    in echelon form, and then back-substituted once (_back_substitute).
    Each stored row is then the one primitive int row with a positive
    pivot entry p that is zero at the other pivots, so the rows divided by
    their p are 1 at their own pivot, zero at the others and zero left of
    it: a reduced row echelon form of the row space, and that form is
    unique: it is the one Gauss-Jordan elimination reaches. The division
    by p is the only one, so a Fraction is returned only where that form
    has one.

    >>> rref([[2, 4, 1], [1, 2, 0]])
    ([[1, 2, 0], [0, 0, 1]], [0, 2])
    >>> rref([[2, 3, 1], [4, 1, 0]])
    ([[1, 0, Fraction(-1, 10)], [0, 1, Fraction(2, 5)]], [0, 1])
    """
    width = len(matrix[0]) if matrix else 0
    pivots = {}
    for row in matrix:
        row = [_exact_input(x, "entry") for x in row]
        _insert_row(pivots, {c: x for c, x in enumerate(row) if x})
    _back_substitute(pivots)
    columns = sorted(pivots)
    rows = [[_quotient(pivots[c].get(k, 0), pivots[c][c])
             for k in range(width)] for c in columns]
    rows += [[0] * width for _ in range(len(matrix) - len(columns))]
    return rows, columns


def rank(matrix):
    return len(rref(matrix)[1])


def solve_exact(matrix, rhs):
    """Solve matrix @ x = rhs over the rationals.

    Returns one solution, ints where integral, or None if inconsistent.
    The solution is unique whenever the columns are independent.
    The library answers cone queries through the fan's cone solvers
    instead; benchmark/spans.py still wraps this function by name.
    """
    ncols = len(matrix[0]) if matrix else 0
    rows, pivots = rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][ncols]
    return x


def nullspace(matrix):
    """Basis of the rational kernel, as a list of column vectors.

    The library takes annihilators from the fan's cone solvers (their
    check rows) instead; benchmark/spans.py still wraps this function by
    name.
    """
    rows, pivots = rref(matrix)
    ncols = len(matrix[0]) if matrix else 0
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [0] * ncols
            v[f] = 1
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
    """Matrix product with int entries preserved when both inputs are int.

    Each row of the product accumulates x times row k of b over the
    nonzero entries x = a[i][k].
    """
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * ncols
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    acc[j] += x * y
        out.append(acc)
    return out


def mat_vec(a, v):
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]
