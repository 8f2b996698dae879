"""Brute-force reference implementations used to cross-check the library.

Nothing here imports from stackyring. Linear solves go through Cramer's
rule with a permutation-expansion determinant, row reduction is written
out inline, the ring oracle applies the defining product formula
directly to an exhaustive monomial enumeration, and the table oracle
compares every triple of basis elements, and the Stanley-Reisner
oracle tries every subset of the rays. The fan check enumerates
extreme rays by minimal support and the support-function oracle searches
a box, as the library did before it solved inequalities exactly.
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


def independent_columns(columns):
    """Indices of the columns that are independent of the earlier ones."""
    keep = []
    for j in range(len(columns)):
        if rref_rank([columns[i] for i in keep + [j]]) > len(keep):
            keep.append(j)
    return keep


def solve_over(columns, target):
    """The a with sum a_i * columns[i] = target, or None off their span.

    Columns that depend on earlier ones get coefficient zero, which makes
    a unique.
    """
    keep = independent_columns(columns)
    coeffs = _solve_independent([columns[j] for j in keep], target)
    if coeffs is None:
        return None
    out = [Fraction(0)] * len(columns)
    for j, a in zip(keep, coeffs):
        out[j] = a
    return out


def _solve_independent(columns, target):
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


def minimal_non_faces(num_rays, max_cones):
    """Every subset of the rays that is no face but has all facets faces."""
    faces = {sub for cone in max_cones for k in range(len(cone) + 1)
             for sub in itertools.combinations(sorted(cone), k)}
    return tuple(
        s for size in range(1, num_rays + 1)
        for s in itertools.combinations(range(num_rays), size)
        if s not in faces
        and all(s[:k] + s[k + 1:] in faces for k in range(size)))


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
    keep = [cone[j] for j in independent_columns(bars)]
    lo = [sum(min(0, b[j]) for b in bars) for j in range(rank)]
    hi = [sum(max(0, b[j]) for b in bars) for j in range(rank)]
    out = {}
    for x in itertools.product(*(range(lo[j], hi[j] + 1)
                                 for j in range(rank))):
        coeffs = _solve_independent([lifts[i][:rank] for i in keep], x)
        if coeffs is None or not all(0 <= a < 1 for a in coeffs):
            continue
        support = tuple(i for i, a in zip(keep, coeffs) if a)
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


def is_unital_associative(degrees, unit, table):
    """Is the commutative table graded, unital and associative?

    table maps sorted index pairs (i, j) to sparse {k: coefficient} dicts;
    omitted pairs multiply to zero. Every stored term is checked for
    degree additivity and every unit product against the identity. As the
    product is commutative, associativity holds when (ij)k, (jk)i and
    (ik)j agree for every triple i <= j <= k; all triples are compared.
    """
    n = len(degrees)

    def prod(i, j):
        return table.get((min(i, j), max(i, j)), {})

    def times(vec, k):
        out = {}
        for t, q in vec.items():
            for s, r in prod(t, k).items():
                out[s] = out.get(s, 0) + q * r
        return {s: q for s, q in out.items() if q}

    for (i, j), terms in table.items():
        if any(q and degrees[k] != degrees[i] + degrees[j]
               for k, q in terms.items()):
            return False
    if any(times({unit: 1}, j) != {j: 1} for j in range(n)):
        return False
    for i, j, k in itertools.combinations_with_replacement(range(n), 3):
        left = times(prod(i, j), k)
        if left != times(prod(j, k), i) or left != times(prod(i, k), j):
            return False
    return True


def _null_vector(columns):
    """The kernel of the matrix with these columns, if it is a line.

    Returns a spanning vector when the kernel is one-dimensional, else
    None; the row reduction is written out inline.
    """
    k = len(columns)
    rows = [[Fraction(col[r]) for col in columns]
            for r in range(len(columns[0]))]
    pivots = []
    for c in range(k):
        pivot = next((r for r in range(len(pivots), len(rows))
                      if rows[r][c]), None)
        if pivot is None:
            continue
        top = len(pivots)
        rows[top], rows[pivot] = rows[pivot], rows[top]
        rows[top] = [x / rows[top][c] for x in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[top])]
        pivots.append(c)
    free = [c for c in range(k) if c not in pivots]
    if len(free) != 1:
        return None
    v = [Fraction(0)] * k
    v[free[0]] = Fraction(1)
    for r, c in enumerate(pivots):
        v[c] = -rows[r][free[0]]
    return v


def _extreme_rays_nonneg_kernel(columns):
    """Extreme rays of {x >= 0 : sum x_j columns[j] = 0}.

    They are the kernel vectors of minimal support: every column subset,
    by size, whose kernel is a line spanned by a vector of one sign,
    unless it contains the support of a ray already found.
    """
    rays, supports = [], []
    for size in range(1, len(columns) + 1):
        for sub in itertools.combinations(range(len(columns)), size):
            if any(s <= set(sub) for s in supports):
                continue
            v = _null_vector([columns[j] for j in sub])
            if v is None:
                continue
            if all(x < 0 for x in v):
                v = [-x for x in v]
            elif not all(x > 0 for x in v):
                continue
            full = [Fraction(0)] * len(columns)
            for j, x in zip(sub, v):
                full[j] = x
            rays.append(full)
            supports.append(set(sub))
    return rays


def fan_diagnostics(rays, max_cones):
    """The (code, detail) findings of the minimal-support fan check.

    Zero rays and cones with dependent rays, then rays in no cone; when
    the first two kinds are absent, every pair of cones that is nested or
    whose intersection is not the cone on their common rays. The
    intersection of ca and cb is the image of the extreme rays of
    {(a, b) >= 0 : A a = B b}, each checked against the common cone.
    """
    rays = [[Fraction(x) for x in r] for r in rays]
    out = [("NotSimplicial", f"ray {i} is zero")
           for i, r in enumerate(rays) if not any(r)]
    out += [("NotSimplicial", f"cone {c} has linearly dependent rays")
            for c in max_cones
            if len(independent_columns([rays[i] for i in c])) != len(c)]
    used = {i for c in max_cones for i in c}
    unused = [("UnusedRay", f"ray {i} lies in no maximal cone")
              for i in range(len(rays)) if i not in used]
    if out:
        return out + unused
    for ca, cb in itertools.combinations(max_cones, 2):
        if set(ca) <= set(cb) or set(cb) <= set(ca):
            out.append(("BadIntersection", f"cones {ca} and {cb} are nested"))
            continue
        common = tuple(sorted(set(ca) & set(cb)))
        columns = [rays[i] for i in ca] + [[-x for x in rays[j]] for j in cb]
        for vec in _extreme_rays_nonneg_kernel(columns):
            point = [sum(a * rays[i][r] for a, i in zip(vec, ca))
                     for r in range(len(rays[0]))]
            if cone_coefficients(rays, common, point) is None:
                out.append(("BadIntersection",
                            f"cones {ca} and {cb} do not meet along a face"))
                break
    return out + unused


def support_search(coarse_rays, coarse_cones, rays, cones, h_max):
    """The first support function in [1, h_max]^new, lexicographically.

    The bounded search that resolution.check_support_function ran before
    it solved the inequalities: h is 0 on the coarse rays, which come
    first in rays, and every candidate tuple of new-ray values is tried
    in itertools.product order against each interior wall, that is a
    (d - 1)-face of exactly two refined cones whose rays lie in one
    coarse cone, and each ray u of one of them off the wall: the linear
    extension of h from the other cone must exceed h at u. Returns None
    when no candidate passes.
    """
    n, d = len(coarse_rays), len(rays[0])
    holders = [{k for k, c in enumerate(coarse_cones)
                if cone_coefficients(coarse_rays, c, r) is not None}
               for r in rays]
    owners = {}
    for c in cones:
        for w in itertools.combinations(c, d - 1):
            owners.setdefault(w, []).append(c)
    conditions = []
    for w, (c1, c2) in ((w, cs) for w, cs in owners.items() if len(cs) == 2):
        if not set.intersection(*(holders[i] for i in set(c1) | set(c2))):
            continue
        for near, far in ((c1, c2), (c2, c1)):
            for u in far:
                if u not in w:
                    conditions.append(
                        (near, u, solve_over([rays[i] for i in near],
                                             rays[u])))
    for tail in itertools.product(range(1, h_max + 1),
                                  repeat=len(rays) - n):
        h = (0,) * n + tail
        if all(sol is not None
               and sum(a * h[i] for a, i in zip(sol, near)) > h[u]
               for near, u, sol in conditions):
            return h
    return None
