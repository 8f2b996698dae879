"""Brute-force reference implementations used to cross-check the library.

Nothing here imports from stackyring. Linear solves go through Cramer's
rule with a permutation-expansion determinant, row reduction is written
out inline, and the ring oracle applies the defining product formula
directly to an exhaustive monomial enumeration.
"""

import itertools
import math
from fractions import Fraction


def det(matrix):
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += sign * term
    return total


def cramer(columns, target):
    """Solve sum a_i * columns[i] = target for square independent columns."""
    n = len(columns)
    base = [[Fraction(columns[j][i]) for j in range(n)] for i in range(n)]
    d = det(base)
    if d == 0:
        return None
    out = []
    for k in range(n):
        mod = [row[:] for row in base]
        for i in range(n):
            mod[i][k] = Fraction(target[i])
        out.append(det(mod) / d)
    return out


def parallelepiped_points(columns):
    """Integer points x = sum a_i c_i with every a_i in [0, 1)."""
    if not columns:
        return [()]
    dim = len(columns[0])
    lo = [sum(min(0, c[j]) for c in columns) for j in range(dim)]
    hi = [sum(max(0, c[j]) for c in columns) for j in range(dim)]
    points = []
    for x in itertools.product(*(range(lo[j], hi[j] + 1)
                                 for j in range(dim))):
        coeffs = cramer(columns, x)
        if coeffs is None:
            continue
        if all(0 <= a < 1 for a in coeffs):
            points.append(tuple(x))
    return points


def box_values(rank, torsion, cone_lifts):
    """All box elements of a top cone, by exhaustive enumeration.

    cone_lifts are the lifted ray vectors of the cone (free coordinates
    first, then torsion coordinates). Torsion coordinates of a box
    element are unconstrained, so each parallelepiped point lifts once
    per torsion element.
    """
    bars = [c[:rank] for c in cone_lifts]
    out = set()
    for x in parallelepiped_points(bars):
        for t in itertools.product(*(range(q) for q in torsion)):
            out.add(tuple(x) + t)
    return out


def rref_rank(rows):
    rows = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    col = 0
    width = len(rows[0]) if rows else 0
    while rank < len(rows) and col < width:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def solve_over(columns, target):
    """Unique a with sum a_i * columns[i] = target, or None.

    The columns must be independent; k of them in Q^d with k <= d. The
    first k-subset of rows with a nonzero minor gives the candidate by
    Cramer's rule, and every row is then checked.
    """
    k = len(columns)
    d = len(target)
    if k == 0:
        return [] if all(x == 0 for x in target) else None
    for rows in itertools.combinations(range(d), k):
        square = [[columns[j][i] for i in rows] for j in range(k)]
        coeffs = cramer(square, [target[i] for i in rows])
        if coeffs is None:
            continue
        for i in range(d):
            if sum(a * col[i] for a, col in zip(coeffs, columns)) \
                    != target[i]:
                return None
        return coeffs
    return None


def cone_coefficients(rays, cone, point):
    """Nonnegative coefficients of point over the cone's rays, or None."""
    coeffs = solve_over([rays[i] for i in cone], point)
    if coeffs is None or any(a < 0 for a in coeffs):
        return None
    return coeffs


def minimal_cone(rays, max_cones, points):
    """Union of supports in the first maximal cone holding every point."""
    for cone in max_cones:
        cone = tuple(sorted(cone))
        all_coeffs = [cone_coefficients(rays, cone, p) for p in points]
        if any(a is None for a in all_coeffs):
            continue
        return tuple(sorted({i for a in all_coeffs
                             for i, x in zip(cone, a) if x}))
    return None


def _reduce(rank, torsion, vec):
    return tuple(vec[:rank]) + tuple(
        x % q for x, q in zip(vec[rank:], torsion))


def box_decompose(rank, torsion, lifts, max_cones, c):
    """(value, support, fractional coefficients, multipliers) of c.

    c = value + sum m_i b_i over the minimal cone of its image, with the
    value's coefficients in [0, 1).
    """
    rays = [b[:rank] for b in lifts]
    point = list(c[:rank])
    sigma = minimal_cone(rays, max_cones, [point])
    if sigma is None:
        return None
    coeffs = cone_coefficients(rays, sigma, point)
    value = list(c)
    mult = {}
    support, fracs = [], []
    for i, a in zip(sigma, coeffs):
        mult[i] = math.floor(a)
        value = [x - mult[i] * y for x, y in zip(value, lifts[i])]
        if a != mult[i]:
            support.append(i)
            fracs.append(a - mult[i])
    return (_reduce(rank, torsion, value), tuple(support), tuple(fracs),
            mult)


def box_elements(rank, torsion, lifts, cone):
    """{value: (support, coefficients)} of Box(cone), for any face.

    Integer points of the closed parallelepiped's bounding box are kept
    when their coefficients lie in [0, 1); each lifts once per torsion
    element.
    """
    bars = [lifts[i][:rank] for i in cone]
    lo = [sum(min(0, b[j]) for b in bars) for j in range(rank)]
    hi = [sum(max(0, b[j]) for b in bars) for j in range(rank)]
    out = {}
    for x in itertools.product(*(range(lo[j], hi[j] + 1)
                                 for j in range(rank))):
        coeffs = solve_over(bars, x)
        if coeffs is None or not all(0 <= a < 1 for a in coeffs):
            continue
        support = tuple(i for i, a in zip(cone, coeffs) if a)
        nonzero = tuple(a for a in coeffs if a)
        for t in itertools.product(*(range(q) for q in torsion)):
            out[tuple(x) + t] = (support, nonzero)
    return out


def in_cone_sublattice(rank, torsion, lifts, cone, vec):
    """Is vec in the subgroup generated by the cone's lifts?

    The cone's rays are independent, so the only candidate combination
    is the unique rational one on the free coordinates; vec is in the
    subgroup iff those coefficients are integers and the torsion
    coordinates then agree too.
    """
    coeffs = solve_over([lifts[i][:rank] for i in cone], list(vec[:rank]))
    if coeffs is None or any(a.denominator != 1 for a in coeffs):
        return False
    rest = list(vec)
    for i, a in zip(cone, coeffs):
        rest = [x - int(a) * y for x, y in zip(rest, lifts[i])]
    return not any(_reduce(rank, torsion, rest))


def box_complements(rank, torsion, lifts, sigma, candidates, v1, v2):
    """The w among Box(sigma)'s values with v1 + v2 + w in N_sigma.

    This is the scan that box_complement replaced: one membership test
    per candidate, in candidate order. A well defined complement is the
    single element of the result.
    """
    s = [x + y for x, y in zip(v1, v2)]
    return [w for w in candidates
            if in_cone_sublattice(rank, torsion, lifts, sigma,
                                  [x + y for x, y in zip(s, w)])]


P112_RAYS = ((1, 0), (0, 1), (-1, -2))
P112_CONES = ((0, 1), (1, 2), (0, 2))


def _p112_cone_data(point):
    """(cone, coefficients) for the first max cone containing the point."""
    for cone in P112_CONES:
        cols = [P112_RAYS[i] for i in cone]
        coeffs = cramer(cols, point)
        if coeffs is not None and all(a >= 0 for a in coeffs):
            return cone, coeffs
    return None


def _p112_degree(point):
    data = _p112_cone_data(point)
    if data is None:
        return None
    return sum(data[1], Fraction(0))


def _p112_joint_cone(c1, c2):
    d1 = _p112_cone_data(c1)
    d2 = _p112_cone_data(c2)
    if d1 is None or d2 is None:
        return False
    support = {i for i, a in zip(d1[0], d1[1]) if a}
    support |= {i for i, a in zip(d2[0], d2[1]) if a}
    return any(support <= set(cone) for cone in P112_CONES)


def p112_quotient_histogram(max_degree=4):
    """Degreewise dimensions of the weighted projective ring, from scratch.

    Monomials y^c of each degree are enumerated exhaustively; the ideal
    is spanned by monomial multiples of the two linear relations
    y^{b1} - y^{b3} and y^{b2} - 2 y^{b3}; quotient dimensions come from
    an inline row reduction. Degrees run over half-integers up to
    max_degree.
    """
    span = 8
    mons = {}
    for c in itertools.product(range(-span, span + 1), repeat=2):
        deg = _p112_degree(c)
        if deg is not None and deg <= max_degree:
            mons.setdefault(deg, []).append(c)
    relations = (((1, 0), Fraction(1), (-1, -2), Fraction(-1)),
                 ((0, 1), Fraction(1), (-1, -2), Fraction(-2)))
    hist = {}
    for deg in sorted(mons):
        cols = {c: i for i, c in enumerate(sorted(mons[deg]))}
        rows = []
        lower = deg - 1
        for c in mons.get(lower, []):
            for b_pos, q_pos, b_neg, q_neg in relations:
                row = [Fraction(0)] * len(cols)
                hit = False
                for b, q in ((b_pos, q_pos), (b_neg, q_neg)):
                    if _p112_joint_cone(c, b):
                        target = (c[0] + b[0], c[1] + b[1])
                        row[cols[target]] += q
                        hit = True
                if hit and any(row):
                    rows.append(row)
        dim = len(cols) - (rref_rank(rows) if rows else 0)
        if dim:
            hist[deg] = dim
    return hist
