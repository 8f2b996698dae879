"""Seeded random inputs for the tests: Gale maps, weighted projective
spaces, complete 2-D stacky fans and doctored ring tables.

These are plain helpers, imported by name, so that both test trees of
the repository can be collected in one pytest run.
"""

import itertools
import math
from fractions import Fraction

from stackyring.lattice import FgAbGroup, GroupHom, cokernel
from stackyring.stacky import ExtendedStackyFan

# torsion shapes with order at most 36
TORSION_CHOICES = (
    (), (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (12,), (36,),
    (2, 2), (2, 4), (3, 3), (2, 12), (3, 12), (2, 2, 2), (2, 2, 3, 3),
)


def random_finite_cokernel_map(rng):
    """A random Z^m -> N with m <= 6 whose cokernel is finite."""
    while True:
        rank = rng.randint(0, 3)
        torsion = rng.choice(TORSION_CHOICES)
        group = FgAbGroup(rank, torsion)
        m = rng.randint(max(rank, 1), 6)
        cols = [[rng.randint(-4, 4) for _ in range(group.coords)]
                for _ in range(m)]
        if _free_rank(cols, rank) != rank:
            continue
        return GroupHom.from_columns(m, group, cols)


def _free_rank(cols, rank):
    # fraction-free elimination on the free rows of the column matrix
    rows = [[col[i] for col in cols] for i in range(rank)]
    r = 0
    for col in range(len(cols)):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                a, b = rows[r][col], rows[i][col]
                rows[i] = [a * x - b * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def coprime_weights(rng, n, top=5):
    """n seeded weights in 1..top with gcd 1."""
    while True:
        weights = [rng.randint(1, top) for _ in range(n)]
        if math.gcd(*weights) == 1:
            return weights


def weighted_projective_fan(weights):
    """P(w) as the cokernel of Z -> Z^n, 1 -> w.

    The rays are the images of the standard basis vectors in the free
    cokernel, and every (n-1)-subset of them spans a maximal cone.
    """
    n = len(weights)
    group, proj = cokernel(GroupHom.from_columns(1, FgAbGroup(n), [weights]))
    lifts = [proj.apply([int(i == j) for j in range(n)]) for i in range(n)]
    cones = list(itertools.combinations(range(n), n - 1))
    return ExtendedStackyFan.build(group, lifts, cones)


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def complete_2d_fan(rng, torsion=None):
    """A seeded complete 2-D stacky fan, possibly with torsion in N.

    Ray directions are distinct integer vectors taken in counterclockwise
    order; consecutive ones turn by less than pi, so their cones cover
    the plane. Each lift carries seeded torsion coordinates, and one
    seeded extra vector rides along.
    """
    if torsion is None:
        torsion = rng.choice(((), (2,), (3,), (2, 2), (4,)))
    while True:
        dirs = {}
        for _ in range(rng.randint(3, 6)):
            v = (rng.randint(-3, 3), rng.randint(-3, 3))
            if v == (0, 0):
                continue
            g = math.gcd(*v)
            dirs.setdefault((v[0] // g, v[1] // g), v)
        # distinct small directions differ in angle by far more than float
        # rounding; the cross products below check the order exactly
        rays = sorted(dirs.values(), key=lambda v: math.atan2(v[1], v[0]))
        n = len(rays)
        if n >= 3 and all(_cross(rays[i], rays[(i + 1) % n]) > 0
                          for i in range(n)):
            break
    group = FgAbGroup(2, torsion)
    lifts = [list(v) + [rng.randrange(q) for q in torsion] for v in rays]
    cones = [sorted((i, (i + 1) % n)) for i in range(n)]
    extra = [[rng.randint(-3, 3) for _ in range(2)]
             + [rng.randrange(q) for q in torsion]]
    return ExtendedStackyFan.build(group, lifts, cones, extra)


def doctor_table(table, degrees, rng):
    """Change one product of a commutative ring table in place.

    table maps sorted index pairs (i, j) to sparse {k: coefficient} dicts,
    as ring tables and base rings store them. A seeded pair whose degree
    sum is the degree of some basis element either gets one of its
    coefficients moved, to zero perhaps, or gains a term of that degree;
    so the table stays degree additive.
    """
    n = len(degrees)
    right = {(i, j): [k for k in range(n)
                      if degrees[k] == degrees[i] + degrees[j]]
             for i in range(n) for j in range(i, n)}
    i, j = rng.choice(sorted(key for key, ks in right.items() if ks))
    terms = dict(table.get((i, j), {}))
    new = [k for k in right[i, j] if k not in terms]
    if new and (not terms or rng.random() < 0.5):
        terms[rng.choice(new)] = Fraction(rng.choice((-2, -1, 1, 2)))
    else:
        k = rng.choice(sorted(terms))
        terms[k] += rng.choice((-1, 1, 2))
    table[i, j] = {k: q for k, q in terms.items() if q}
