"""Simplicial lattice fans given by integer rays and maximal cones.

Rays are integer vectors, stored as ints (see linalg for the number
convention); a ray that is not integral is refused. Cones are sorted
tuples of ray indices; the zero cone is the empty tuple. All geometry is
exact over the rationals. validate decides whether two cones meet along a
face by looking for a separating functional with linalg.fourier_motzkin
(see _meets_along_common_face), and completeness of a validated fan is
decided by the wall count alone (see is_complete).

Every cone query goes through state the fan builds lazily, in its fields:

* A solver per queried cone (_solver). Row reducing [A | I] for the
  cone's ray matrix A (d x k) yields the pivot columns J of A and a
  transform E with E A = rref(A). A point p lies in the span of the
  columns J exactly when the rows of E p below |J| vanish (the check
  rows), and then the first |J| entries of E p are its coefficients on
  J, every other coefficient being zero. Reduced row echelon form is
  unique, so this is the very solution that row reducing [A | p] gives,
  on independent and dependent rays alike. E is read off the
  elimination's int pivot rows (linalg._insert_row), each its rref row
  times its pivot entry, and kept scaled to integers by the lcm of the
  pivot entries, so a query on a lattice point is an integer
  matrix-vector product and a sign check. validate and stacky's box
  records take J, coefficients and annihilators from it too.
* A memo per point (_containing): the maximal cones that contain it, in
  max_cones order, with its support and coefficients in each.
* The faces, also as a frozen set of ray bit masks (cone_mask), so
  is_face, link_rays and the deformed product's cone gate are lookups.

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

import collections
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import Diagnostic


def cone_mask(cone) -> int:
    """The cone as a bit mask over ray indices: bit i is set for ray i."""
    mask = 0
    for i in cone:
        mask |= 1 << i
    return mask


class _ConeSolver:
    """Exact coefficients of points over one cone's rays (see module doc)."""

    __slots__ = ("width", "columns", "solve_rows", "check_rows", "denom")

    def __init__(self, matrix):
        # as for any row reduction, a matrix without rows has no columns
        d = len(matrix)
        width = len(matrix[0]) if d else 0
        rows = {}  # the elimination's pivot rows of [A | I], ints
        for i, row in enumerate(matrix):
            entries = {c: x for c, x in enumerate(row) if x}
            entries[width + i] = 1
            linalg._insert_row(rows, entries)
        pivots = sorted(rows)  # one per row, as I makes the rows independent
        rank = sum(1 for c in pivots if c < width)
        denom = math.lcm(*(rows[c][c] for c in pivots))
        scaled = [[rows[c].get(width + k, 0) * (denom // rows[c][c])
                   for k in range(d)] for c in pivots]
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


@dataclass(frozen=True)
class SimplicialFan:
    ambient_dim: int
    rays: tuple
    max_cones: tuple
    # sorted cone -> its _ConeSolver, and point -> _containing(point)
    _solvers: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    _located: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        dim = linalg._integer_input(self.ambient_dim, "ambient_dim")
        if dim < 0:
            raise ValueError("ambient_dim must be nonnegative")
        object.__setattr__(self, "ambient_dim", dim)
        rays = []
        for i, r in enumerate(self.rays):
            ray = tuple(linalg._integer_input(x, f"ray {i} coordinate")
                        for x in r)
            if len(ray) != self.ambient_dim:
                raise ValueError("ray has wrong length")
            rays.append(ray)
        rays = tuple(rays)
        cones = tuple(tuple(sorted({linalg._integer_input(i, "cone ray index")
                                    for i in c})) for c in self.max_cones)
        for c in cones:
            for i in c:
                if not 0 <= i < len(rays):
                    raise ValueError(f"cone references unknown ray {i}")
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", cones)

    @property
    def num_rays(self) -> int:
        return len(self.rays)

    def _solver(self, cone) -> _ConeSolver:
        """The solver of a sorted cone, built on its first query."""
        solver = self._solvers.get(cone)
        if solver is None:
            matrix = [[self.rays[i][r] for i in cone]
                      for r in range(self.ambient_dim)]
            solver = self._solvers[cone] = _ConeSolver(matrix)
        return solver

    def _containing(self, point) -> dict:
        """{max cone index: (support, coefficients)} over cones holding it.

        Indices ascend; the coefficients are those of the support's rays.
        """
        key = tuple(point)
        found = self._located.get(key)
        if found is None:
            exact = [linalg._exact_input(x, "coordinate") for x in key]
            found = {}
            for idx, cone in enumerate(self.max_cones):
                coeffs = self._solver(cone).solve(exact)
                if coeffs is None or any(a < 0 for a in coeffs):
                    continue
                found[idx] = (tuple(i for i, a in zip(cone, coeffs) if a),
                              tuple(a for a in coeffs if a))
            self._located[key] = found
        return found

    @functools.cached_property
    def _face_data(self):
        """(sorted faces with the zero cone, masks of faces of max cones)."""
        face_set = {sub for c in self.max_cones
                    for k in range(len(c) + 1)
                    for sub in itertools.combinations(c, k)}
        ordered = tuple(sorted(face_set | {()}, key=lambda f: (len(f), f)))
        return ordered, frozenset(cone_mask(f) for f in face_set)

    def faces(self):
        """All cones of the fan as a sorted list of ray-index tuples."""
        return list(self._face_data[0])

    def face_masks(self):
        """The faces of the maximal cones as a frozen set of cone_masks."""
        return self._face_data[1]

    def is_face(self, cone) -> bool:
        cone = tuple(cone)
        return all(0 <= i < self.num_rays for i in cone) \
            and cone_mask(cone) in self.face_masks()

    def span_coefficients(self, cone, point):
        """Coefficients of point over the span of the cone's rays, or None.

        Any signs are allowed. On dependent rays the coefficients of the
        rays that depend on earlier ones are zero.
        """
        return self._solver(tuple(sorted(cone))).solve(
            [linalg._exact_input(x, "coordinate") for x in point])

    def cone_coefficients(self, cone, point):
        """Coefficients of point over the cone's rays, or None.

        Returns the unique list a with point = sum a_i * ray_i and all
        a_i >= 0, or None when the point is outside the cone.
        """
        coeffs = self.span_coefficients(cone, point)
        if coeffs is None or any(a < 0 for a in coeffs):
            return None
        return coeffs

    def joint_coefficients(self, points):
        """[(support, coefficients)] of each point, or None.

        Each point's support and nonzero coefficients in the first maximal
        cone, in max_cones order, that contains every point: the first
        index in every point's memo (see the module docstring). The
        supports lie among that cone's pivot rays, independent on any fan.
        """
        found = [self._containing(p) for p in points]
        if not found:
            return [] if self.max_cones else None
        for idx in found[0]:
            for f in found:
                if idx not in f:
                    break
            else:
                return [f[idx] for f in found]
        return None

    def minimal_cone(self, points):
        """Smallest cone containing every point, or None.

        The result is the union of the points' supports in the first
        maximal cone, in max_cones order, that contains every point
        (joint_coefficients).
        """
        located = self.joint_coefficients(points)
        if located is None:
            return None
        return tuple(sorted({i for support, _ in located for i in support}))

    def link_rays(self, cone):
        """The rays i outside the cone whose join with it, cone + i, is a
        face: the rays of the quotient fan by the cone, in index order."""
        faces = self.face_masks()
        mask = cone_mask(cone)
        return tuple(i for i in range(self.num_rays)
                     if not mask >> i & 1 and mask | 1 << i in faces)

    def validate(self):
        """Structural checks; returns a list of Diagnostic findings.

        Every ray must lie in a maximal cone; a vector outside the fan
        belongs among the extra vectors of a stacky fan.
        """
        out = []
        for i, r in enumerate(self.rays):
            if all(x == 0 for x in r):
                out.append(Diagnostic("NotSimplicial", f"ray {i} is zero"))
        for c in self.max_cones:
            if len(self._solver(c).columns) != len(c):
                out.append(Diagnostic(
                    "NotSimplicial",
                    f"cone {c} has linearly dependent rays"))
        used = {i for c in self.max_cones for i in c}
        unused = [Diagnostic("UnusedRay", f"ray {i} lies in no maximal cone")
                  for i in range(self.num_rays) if i not in used]
        if out:
            return out + unused
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
        return out + unused

    def _meets_along_common_face(self, ca, cb) -> bool:
        """Whether ca and cb, each with independent rays, meet in a face.

        Separation lemma: ca and cb meet along the face on their common
        rays exactly when some functional f is zero on the common rays,
        positive on the other rays of ca and negative on those of cb.

        * If f exists and x = sum a_i r_i (over ca) = sum b_j r_j (over
          cb) with a, b >= 0, then f(x) is both >= 0 and <= 0, so it is
          0, and every a_i on a non-common ray of ca vanishes: x lies in
          the cone on the common rays, which lies in both cones.
        * Conversely let pi kill the span L of the common rays. The rays
          of ca outside L map to independent vectors, as do those of cb,
          so pi(ca) and pi(cb) are pointed. They meet only in 0: if
          pi(x) = pi(y) for x, y in the cones on the non-common rays of
          ca and of cb, then x - y = c+ - c- with c+, c- in the cone on
          the common rays, and x + c- = y + c+ lies in ca and cb, hence
          in the cone on the common rays; the coefficients of a point of
          ca are unique, so x = 0, and likewise y = 0. Then the cone
          spanned by pi(ca) and -pi(cb) is pointed too (u and -u in it
          give a point of pi(ca) equal to a point of pi(cb), both sums
          of pairs that must vanish), so some functional g is positive
          on it away from 0, and f = g o pi works: pi of a non-common
          ray is never 0.

        The functionals zero on the common rays are the combinations of
        rows read off ca's own solver, so no solver is built for the
        common face. validate has refused dependent rays before any pair
        is compared, so the columns of ca's solver are all of ca's rays,
        and E A = rref(A) is the identity on top of zero rows: the solve
        row of a ray of ca is the solver's denominator on that ray and 0
        on ca's other rays, and every check row is 0 on all of them. So
        the solve rows of ca's rays outside the common face and the check
        rows vanish on the common rays. As rows of the invertible, scaled
        E they are independent, and there are (|ca| - |common|) +
        (d - |ca|) = d - |common| of them, the dimension of the
        annihilator of the common rays, which are independent: a basis of
        it, in ints. The strict system is homogeneous, so over Q it is
        solvable exactly when the same rows with right-hand side 1 are.
        """
        common = tuple(i for i in ca if i in cb)
        solver = self._solver(ca)
        basis = [row for c, row in zip(solver.columns, solver.solve_rows)
                 if ca[c] not in common] + solver.check_rows
        rows = [[sign * sum(w * x for w, x in zip(v, self.rays[i]))
                 for v in basis]
                for sign, cone in ((1, ca), (-1, cb))
                for i in cone if i not in common]
        return not linalg.fourier_motzkin([(row, 1) for row in rows],
                                          len(basis))[0]

    def is_complete(self) -> bool:
        """Exact completeness test for a validated fan: the wall count.

        The fan is complete when every maximal cone is full-dimensional
        and every wall (a (d-1)-face of a maximal cone) lies in exactly
        two maximal cones. On a fan that validate() accepts this is
        enough:

        * The two cones at a wall lie on opposite sides of it, or their
          interiors would overlap and they would not meet along a face.
          So every point of the support off the codimension-2 skeleton S
          has a neighbourhood inside the support: the support is closed,
          and open in R^d minus S.
        * For d >= 2, R^d minus S is connected, since S lies in finitely
          many subspaces of codimension 2, so the support is all of R^d.
          For d = 1 the wall is the origin and the fan is two opposite
          rays.
        * The wall graph is connected too: the two cones at a wall share a
          component, so the argument covers R^d with the cones of each
          component, and a second component would overlap cone interiors,
          which validate() refuses (a cone listed twice is nested in
          itself).

        On a fan that validate() refuses the answer has no meaning.
        """
        d = self.ambient_dim
        if d == 0:
            return () in self.max_cones
        if not self.max_cones:
            return False
        if any(len(c) != d for c in self.max_cones):
            return False
        walls = collections.Counter(
            w for c in self.max_cones for w in itertools.combinations(c, d - 1))
        return all(n == 2 for n in walls.values())
