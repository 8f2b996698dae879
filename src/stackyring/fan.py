"""Rational simplicial fans given by ray directions and maximal cones.

Cones are sorted tuples of ray indices; the zero cone is the empty tuple.
All geometry is exact over the rationals. Completeness is decided by the
wall count, connectivity of the wall graph, and deterministic point probes.

Every cone query goes through one geometry index per fan, built lazily:

* A solver per queried cone. Row reducing [A | I] for the cone's ray
  matrix A (d x k) yields the pivot columns J of A and a transform E
  with E A = rref(A). A point p lies in the span of the columns J exactly
  when the rows of E p below |J| vanish (the verification rows), and then
  the first |J| entries of E p are its coefficients on J, every other
  coefficient being zero. Reduced row echelon form is unique, so this is
  the very solution that row reducing [A | p] gives, on independent and
  dependent rays alike. E is kept scaled to integers by its common
  denominator, so a query on a lattice point is an integer
  matrix-vector product and a sign check.
* A memo per point: the maximal cones that contain it, in max_cones
  order, with its support and coefficients in each.
* The frozen set of faces, so is_face and link are set lookups.

Why the memo gives the same minimal cone as a scan: minimal_cone(points)
is the union of the points' supports in the first maximal cone, in
max_cones order, that contains every point. Whether a cone contains a
point, and the point's support there, depend on that cone and that point
alone. The smallest cone index present in every point's memo is
therefore the first cone containing them all, and the memoised supports
at that index are the supports the scan would compute. Nothing here
assumes a validated fan: on overlapping or degenerate cones the answer
is still the first-match answer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import DegenerateImage, Diagnostic


def _as_vector(v):
    return tuple(Fraction(x) for x in v)


def _exact(point):
    """Coordinates as ints where integral, so the products stay integer."""
    return [x.numerator if x.denominator == 1 else x
            for x in _as_vector(point)]


class _ConeSolver:
    """Exact coefficients of points over one cone's rays (see module doc)."""

    __slots__ = ("width", "columns", "solve_rows", "check_rows", "denom")

    def __init__(self, matrix):
        # as for any row reduction, a matrix without rows has no columns
        d = len(matrix)
        width = len(matrix[0]) if d else 0
        rows, pivots = linalg.rref(
            [list(row) + [int(i == j) for j in range(d)]
             for i, row in enumerate(matrix)])
        rank = sum(1 for c in pivots if c < width)
        transform = [row[width:] for row in rows]
        denom = math.lcm(*(x.denominator for row in transform for x in row))
        scaled = [[x.numerator * (denom // x.denominator) for x in row]
                  for row in transform]
        self.width = width
        self.columns = tuple(pivots[:rank])
        self.solve_rows = scaled[:rank]
        self.check_rows = scaled[rank:]
        self.denom = denom

    def solve(self, point):
        """Coefficients of point over the columns, or None off their span."""
        for row in self.check_rows:
            if sum(a * x for a, x in zip(row, point)):
                return None
        out = [Fraction(0)] * self.width
        for c, row in zip(self.columns, self.solve_rows):
            out[c] = Fraction(sum(a * x for a, x in zip(row, point)),
                              self.denom)
        return out


class _ConeIndex:
    """Per-cone solvers, per-point memo and face set of one fan."""

    def __init__(self, dim, rays, max_cones):
        self._dim = dim
        self._rays = rays
        self._max_cones = max_cones
        self._solvers = {}
        self._located = {}
        self._faces = None

    def solver(self, cone) -> _ConeSolver:
        solver = self._solvers.get(cone)
        if solver is None:
            matrix = [[self._rays[i][r] for i in cone]
                      for r in range(self._dim)]
            solver = self._solvers[cone] = _ConeSolver(matrix)
        return solver

    def containing(self, point) -> dict:
        """{max cone index: (support, coefficients)} over cones holding it.

        Indices ascend; the coefficients are those of the support's rays.
        """
        key = tuple(point)
        found = self._located.get(key)
        if found is None:
            exact = _exact(key)
            found = {}
            for idx, cone in enumerate(self._max_cones):
                coeffs = self.solver(cone).solve(exact)
                if coeffs is None or any(a < 0 for a in coeffs):
                    continue
                found[idx] = (tuple(i for i, a in zip(cone, coeffs) if a),
                              tuple(a for a in coeffs if a))
            self._located[key] = found
        return found

    def faces(self):
        """(sorted faces with the zero cone, set of faces of max cones)."""
        if self._faces is None:
            face_set = frozenset(
                sub for c in self._max_cones
                for k in range(len(c) + 1)
                for sub in itertools.combinations(c, k))
            ordered = tuple(sorted(face_set | {()},
                                   key=lambda f: (len(f), f)))
            self._faces = (ordered, face_set)
        return self._faces


@dataclass(frozen=True)
class SimplicialFan:
    ambient_dim: int
    rays: tuple
    max_cones: tuple
    _index: _ConeIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rays = tuple(_as_vector(r) for r in self.rays)
        for r in rays:
            if len(r) != self.ambient_dim:
                raise ValueError("ray has wrong length")
        cones = tuple(tuple(sorted(set(int(i) for i in c)))
                      for c in self.max_cones)
        for c in cones:
            for i in c:
                if not 0 <= i < len(rays):
                    raise ValueError(f"cone references unknown ray {i}")
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", cones)
        object.__setattr__(self, "_index",
                           _ConeIndex(self.ambient_dim, rays, cones))

    @property
    def num_rays(self) -> int:
        return len(self.rays)

    def faces(self):
        """All cones of the fan as a sorted list of ray-index tuples."""
        return list(self._index.faces()[0])

    def is_face(self, cone) -> bool:
        return tuple(sorted(set(cone))) in self._index.faces()[1]

    def ray_matrix(self, cone):
        """Columns are the ray directions of the cone."""
        return [[self.rays[i][r] for i in cone] for r in range(self.ambient_dim)]

    def span_coefficients(self, cone, point):
        """Coefficients of point over the span of the cone's rays, or None.

        Any signs are allowed. On dependent rays the coefficients of the
        rays that depend on earlier ones are zero.
        """
        return self._index.solver(tuple(sorted(cone))).solve(_exact(point))

    def cone_coefficients(self, cone, point):
        """Coefficients of point over the cone's rays, or None.

        Returns the unique list a with point = sum a_i * ray_i and all
        a_i >= 0, or None when the point is outside the cone.
        """
        coeffs = self.span_coefficients(cone, point)
        if coeffs is None or any(a < 0 for a in coeffs):
            return None
        return coeffs

    def locate(self, point):
        """(minimal cone, coefficients over its rays) of a point, or None.

        Equals (minimal_cone([point]), cone_coefficients(that cone,
        point)): the support lies among the pivot columns of the first
        containing maximal cone, whose rays are independent, so the
        coefficients over the support are the nonzero ones found there.
        """
        found = self._index.containing(point)
        if not found:
            return None
        support, coeffs = next(iter(found.values()))
        return support, list(coeffs)

    def minimal_cone(self, points):
        """Smallest cone containing every point, or None.

        The result is the union of the points' supports in the first
        maximal cone, in max_cones order, that contains every point. It
        is read from the per-point memo: the first index that every
        point's memo holds is that cone (see the module docstring).
        """
        found = [self._index.containing(p) for p in points]
        if not found:
            return () if self.max_cones else None
        first, rest = found[0], found[1:]
        for idx, (support, _) in first.items():
            if all(idx in f for f in rest):
                union = set(support)
                for f in rest:
                    union.update(f[idx][0])
                return tuple(sorted(union))
        return None

    def link(self, cone):
        """Cones disjoint from the given one whose join with it is a face."""
        cone = tuple(sorted(cone))
        out = []
        for f in self.faces():
            if set(f) & set(cone):
                continue
            if self.is_face(tuple(sorted(set(f) | set(cone)))):
                out.append(f)
        return out

    def link_rays(self, cone):
        return tuple(sorted(i for (i,) in
                            (f for f in self.link(cone) if len(f) == 1)))

    def quotient(self, sigma, projection):
        """Image fan under a rational projection killing span(sigma).

        Returns (fan, link_rays): the quotient fan and the original indices
        of its rays in order. The identity is returned for the zero cone.
        """
        sigma = tuple(sorted(sigma))
        if not sigma:
            return self, tuple(range(self.num_rays))
        new_dim = len(projection)
        lrays = self.link_rays(sigma)
        new_rays = []
        for i in lrays:
            img = _as_vector(linalg.mat_vec(projection, list(self.rays[i])))
            if all(x == 0 for x in img):
                raise DegenerateImage(f"link ray {i} projects to zero")
            new_rays.append(img)
        pos = {i: j for j, i in enumerate(lrays)}
        new_cones = []
        for c in self.max_cones:
            if set(sigma) <= set(c):
                new_cones.append(tuple(pos[i] for i in c if i not in sigma))
        fan = SimplicialFan(new_dim, tuple(new_rays), tuple(new_cones))
        return fan, lrays

    def validate(self):
        """Structural checks; returns a list of Diagnostic findings."""
        out = []
        for i, r in enumerate(self.rays):
            if all(x == 0 for x in r):
                out.append(Diagnostic("NotSimplicial", f"ray {i} is zero"))
        for c in self.max_cones:
            if len(self._index.solver(c).columns) != len(c):
                out.append(Diagnostic(
                    "NotSimplicial",
                    f"cone {c} has linearly dependent rays"))
        if out:
            return out
        for a in range(len(self.max_cones)):
            for b in range(a + 1, len(self.max_cones)):
                ca, cb = self.max_cones[a], self.max_cones[b]
                if set(ca) <= set(cb) or set(cb) <= set(ca):
                    out.append(Diagnostic(
                        "BadIntersection",
                        f"cones {ca} and {cb} are nested"))
                    continue
                if not self._meets_along_common_face(ca, cb):
                    out.append(Diagnostic(
                        "BadIntersection",
                        f"cones {ca} and {cb} do not meet along a face"))
        return out

    def _meets_along_common_face(self, ca, cb) -> bool:
        # intersection of the two cones must equal the cone on shared rays;
        # check every extreme ray of {(a,b) >= 0 : A a = B b} maps inside it
        common = tuple(sorted(set(ca) & set(cb)))
        amat = self.ray_matrix(ca)
        bmat = self.ray_matrix(cb)
        k1, k2 = len(ca), len(cb)
        rows = [[amat[r][i] for i in range(k1)] +
                [-bmat[r][j] for j in range(k2)]
                for r in range(self.ambient_dim)]
        for vec in _extreme_rays_nonneg_kernel(rows, k1 + k2):
            point = [sum(amat[r][i] * vec[i] for i in range(k1))
                     for r in range(self.ambient_dim)]
            if self.cone_coefficients(common, point) is None:
                return False
        return True

    def is_complete(self) -> bool:
        """Exact completeness test for a validated fan."""
        d = self.ambient_dim
        if d == 0:
            return () in self.max_cones
        if not self.max_cones:
            return False
        if any(len(c) != d for c in self.max_cones):
            return False
        walls = {}
        for idx, c in enumerate(self.max_cones):
            for w in itertools.combinations(c, d - 1):
                walls.setdefault(w, []).append(idx)
        if any(len(owners) != 2 for owners in walls.values()):
            return False
        adj = {i: set() for i in range(len(self.max_cones))}
        for owners in walls.values():
            a, b = owners
            adj[a].add(b)
            adj[b].add(a)
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                for j in adj[i]:
                    if j not in seen:
                        seen.add(j)
                        nxt.append(j)
            frontier = nxt
        if len(seen) != len(self.max_cones):
            return False
        probes = [tuple(s) for s in itertools.product((-1, 1), repeat=d)]
        for i in range(d):
            e = [0] * d
            e[i] = 1
            probes.append(tuple(e))
            probes.append(tuple(-x for x in e))
        return all(self.minimal_cone([p]) is not None for p in probes)


def _extreme_rays_nonneg_kernel(rows, ncols):
    """Extreme rays of {x >= 0 : rows @ x = 0}, by minimal-support search."""
    rays = []
    supports = []
    for size in range(1, ncols + 1):
        for sub in itertools.combinations(range(ncols), size):
            if any(s <= set(sub) for s in supports):
                continue
            cols = [[row[j] for j in sub] for row in rows]
            null = linalg.nullspace(cols)
            if len(null) != 1:
                continue
            v = null[0]
            if all(x > 0 for x in v):
                pass
            elif all(x < 0 for x in v):
                v = [-x for x in v]
            else:
                continue
            full = [Fraction(0)] * ncols
            for j, x in zip(sub, v):
                full[j] = x
            rays.append(full)
            supports.append(set(sub))
    return rays
