"""Seeded random inputs for the tests: Gale maps, weighted projective
spaces, complete 2-D stacky fans, smooth subdivisions and doctored ring
tables.

These are plain helpers, imported by name, so that both test trees of
the repository can be collected in one pytest run.
"""

import importlib.util
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

from stackyring.fan import SimplicialFan
from stackyring.lattice import FgAbGroup, GroupHom, cokernel
from stackyring.resolution import Subdivision
from stackyring.stacky import ExtendedStackyFan

# torsion shapes with order at most 36
TORSION_CHOICES = (
    (), (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (12,), (36,),
    (2, 2), (2, 4), (3, 3), (2, 12), (3, 12), (2, 2, 2), (2, 2, 3, 3),
)


def benchmark_workloads():
    """benchmark/workloads.py, loaded once by its path, for the tests that
    run on the benchmark's seeded inputs."""
    workloads = sys.modules.get("bench_workloads")
    if workloads is None:
        path = Path(__file__).resolve().parent.parent / "benchmark" \
            / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up by name
        sys.modules[spec.name] = workloads
        spec.loader.exec_module(workloads)
    return workloads


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


def _adjacent_point(u, v):
    """The lattice point p of cone(u, v) with det(u, p) = 1 nearest u.

    u and v are primitive with D = det(u, v) > 1; p = p0 + t u for any p0
    with det(u, p0) = 1, and t is fixed by 0 < det(p, v) < D, which puts
    p inside the cone: it is the ray after u in the minimal resolution.
    """
    g, x, y = _extended_gcd(u[0], u[1])
    p0 = (-y, x)
    det_v = _cross(p0, v)
    t = (det_v % _cross(u, v) - det_v) // _cross(u, v)
    return (p0[0] + t * u[0], p0[1] + t * u[1])


def _extended_gcd(a, b):
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = _extended_gcd(b, a % b)
    return g, y, x - (a // b) * y


def resolved_2d_subdivision(rng, blowups=2):
    """A seeded complete 2-D fan with free N, its minimal resolution and
    then `blowups` seeded blow-ups of smooth cones (u, v) at u + v."""
    while True:
        sfan = complete_2d_fan(rng, torsion=())
        rays = [tuple(int(x) // math.gcd(*map(int, r)) for x in r)
                for r in sfan.fan.rays]
        n = len(rays)
        coarse = ExtendedStackyFan.build(
            FgAbGroup(2), rays, [sorted((i, (i + 1) % n)) for i in range(n)])
        cones = []
        for i in range(n):
            u, v = i, (i + 1) % n
            while _cross(rays[u], rays[v]) > 1:
                rays.append(_adjacent_point(rays[u], rays[v]))
                cones.append((u, len(rays) - 1))
                u = len(rays) - 1
            cones.append((u, v))
        for _ in range(blowups):
            u, v = cones.pop(rng.randrange(len(cones)))
            rays.append(tuple(a + b for a, b in zip(rays[u], rays[v])))
            cones += [(u, len(rays) - 1), (len(rays) - 1, v)]
        if len(rays) > n:
            refined = SimplicialFan(2, tuple(rays),
                                    tuple(tuple(sorted(c)) for c in cones))
            return Subdivision(coarse, refined)


P3_RAYS = ((-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 1))


def star_subdivision_of_p3(rng, steps):
    """P^3 with `steps` seeded star subdivisions: each adds the sum of the
    rays of a seeded refined cone, or of a seeded edge, and splits every
    cone that contains them."""
    coarse = ExtendedStackyFan.build(
        FgAbGroup(3), P3_RAYS, list(itertools.combinations(range(4), 3)))
    rays = list(P3_RAYS)
    cones = [set(c) for c in itertools.combinations(range(4), 3)]
    for _ in range(steps):
        face = sorted(rng.choice(cones))
        if rng.random() < 0.5:
            face = rng.sample(face, 2)
        rays.append(tuple(sum(rays[i][r] for i in face) for r in range(3)))
        new = len(rays) - 1
        split = [c for c in cones if set(face) <= c]
        cones = [c for c in cones if not set(face) <= c]
        cones += [c - {i} | {new} for c in split for i in face]
    refined = SimplicialFan(3, tuple(rays),
                            tuple(tuple(sorted(c)) for c in cones))
    return Subdivision(coarse, refined)


def twisted_p3(diagonals):
    """P^3 with v1', v2', v3' on the edges v1 v4, v2 v4, v3 v4.

    The rays v1..v4 are P3_RAYS, 0..3, and v1'..v3' = v1..v3 + v4 are
    4..6. Each coarse cone (vi, vj, v4), for (i, j) = (1, 2), (2, 3),
    (3, 1), is cut along the diagonal vi-vj' when its entry of diagonals
    is true, else along vj-vi'. The same diagonal in all three cones
    gives a subdivision with no support function.
    """
    cones = [(0, 1, 2)]
    for (i, j), along_i in zip(((0, 1), (1, 2), (2, 0)), diagonals):
        ip, jp = 4 + i, 4 + j
        if along_i:
            cones += [(i, j, jp), (i, jp, ip), (ip, jp, 3)]
        else:
            cones += [(i, j, ip), (j, ip, jp), (ip, jp, 3)]
    coarse = ExtendedStackyFan.build(
        FgAbGroup(3), P3_RAYS, list(itertools.combinations(range(4), 3)))
    rays = P3_RAYS + ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    refined = SimplicialFan(3, rays, tuple(tuple(sorted(c)) for c in cones))
    return Subdivision(coarse, refined)


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
