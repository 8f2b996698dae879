"""Crepant-resolution bookkeeping for simplicial subdivisions.

A subdivision refines the fan of a stacky fan (free N, no extra data on
the coarse side) by new rays b_{n+1}..b_m. The resolution criterion is a
piecewise-linear support function h: zero on old rays, positive on new
ones, superadditive within each coarse cone with strict inequality across
distinct refined cones. These conditions are linear inequalities in the
values of h on the new rays, so linalg.fourier_motzkin decides whether a
support function exists and finds one without a search bound. Fiber
dimensions of the coarse orbifold ring and the refined ordinary ring must
then agree.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass

from . import linalg
from .chowring import BaseRing, ordinary_chow_ring, orbifold_ring
from .errors import (Diagnostic, Inconsistent, InternalInconsistency,
                     InvalidSubdivision, Unsatisfiable)
from .fan import SimplicialFan
from .lattice import smith_normal_form
from .stacky import ExtendedStackyFan


@dataclass(frozen=True)
class Subdivision:
    coarse: ExtendedStackyFan
    refined: SimplicialFan

    @property
    def num_new_rays(self) -> int:
        return self.refined.num_rays - self.coarse.n


def validate_subdivision(sub: Subdivision):
    """Structural checks; returns a list of Diagnostic findings.

    Both fans must pass their own validate(). The refined fan is then a
    subdivision of the coarse one when every refined maximal cone lies in
    a coarse cone and every coarse maximal cone C, of dimension k, is the
    union of the refined maximal cones inside it: those whose rays have a
    coarse minimal_cone among C's rays. That holds when C holds at least
    one of them, each has dimension k, and each (k-1)-face (wall) of
    theirs that crosses C's interior, the coarse minimal_cone of its rays
    being C itself, lies in exactly two refined maximal cones. As in
    SimplicialFan.is_complete, on valid fans:

    * A refined maximal cone R at such a wall lies in C: R lies in some
      coarse cone C', and C' meets the interior of C at the wall, so C
      is a face of C', and C' = C, as no maximal cone of a valid fan is
      nested in another.
    * The two cones at a wall lie on opposite sides of it, or their
      interiors would overlap. So the union U of the refined cones in C
      is closed, and open in the interior of C (in the span of C) off
      the (k-2)-faces of the refined cones, finitely many subspaces of
      codimension 2 there.
    * For k >= 2 the interior of C minus those subspaces is connected,
      and U meets it in the interior of a k-dimensional refined cone, so
      U holds it, and its closure C. For k = 1 the refined cone is C
      itself, and for k = 0 it is the zero cone.

    A coarse cone that fails is refused as NotSmooth, by name.
    """
    out = []
    coarse = sub.coarse
    refined = sub.refined
    if coarse.group.torsion:
        out.append(Diagnostic("NotSmooth", "N must be free for a resolution"))
        return out
    if coarse.extra:
        out.append(Diagnostic(
            "NotSmooth", "coarse fan must not carry extra vectors"))
    out.extend(coarse.validate())
    out.extend(refined.validate())
    if out:
        return out
    n = coarse.n
    if refined.num_rays < n or \
            tuple(refined.rays[:n]) != tuple(coarse.fan.rays):
        out.append(Diagnostic(
            "NotSmooth", "refined rays must start with the coarse rays"))
        return out
    # minimal_cone(points) is None exactly when no single maximal cone
    # holds every point: on any fan, valid or not, and for an empty list
    # of points, which is None only when there are no maximal cones
    inside = {c: [] for c in coarse.fan.max_cones}
    for c in refined.max_cones:
        found = coarse.fan.minimal_cone([refined.rays[i] for i in c])
        if found is None:
            out.append(Diagnostic(
                "NotSmooth",
                f"refined cone {c} is not contained in a coarse cone"))
            continue
        for cone, cones in inside.items():
            if set(found) <= set(cone):
                cones.append(c)
    walls = collections.Counter(
        w for c in refined.max_cones if c
        for w in itertools.combinations(c, len(c) - 1))
    for cone, cones in inside.items():
        k = len(cone)
        crossing = [w for c in cones if k and len(c) == k
                    for w in itertools.combinations(c, k - 1)
                    if coarse.fan.minimal_cone(
                        [refined.rays[i] for i in w]) == cone]
        if not cones or any(len(c) != k for c in cones) or any(
                walls[w] != 2 for w in crossing):
            out.append(Diagnostic(
                "NotSmooth", f"coarse cone {cone} is not the union of "
                             f"the refined cones inside it"))
    d = coarse.group.rank
    for c in refined.max_cones:
        mat = [[refined.rays[i][r] for i in c] for r in range(d)]
        w = smith_normal_form(mat)
        diag = w.diagonal
        if len(diag) != len(c) or any(x != 1 for x in diag):
            out.append(Diagnostic(
                "NotSmooth",
                f"rays of refined cone {c} do not extend to a basis"))
    all_rays = [[refined.rays[i][r] for i in range(refined.num_rays)]
                for r in range(d)]
    w = smith_normal_form(all_rays)
    diag = w.diagonal
    if sum(1 for x in diag if x != 0) != d or any(x not in (0, 1) for x in diag):
        out.append(Diagnostic(
            "NotSmooth", "refined rays do not generate the lattice N"))
    return out


def _require_valid(sub: Subdivision):
    diagnostics = validate_subdivision(sub)
    if diagnostics:
        raise InvalidSubdivision(
            "; ".join(d.detail for d in diagnostics))


def _interior_walls(sub: Subdivision):
    """Walls between refined cones lying inside a single coarse cone."""
    refined = sub.refined
    coarse = sub.coarse.fan
    d = refined.ambient_dim
    owners = {}
    for idx, c in enumerate(refined.max_cones):
        for w in itertools.combinations(c, d - 1):
            owners.setdefault(w, []).append(idx)
    walls = []
    for w, cones in owners.items():
        if len(cones) != 2:
            continue
        c1 = refined.max_cones[cones[0]]
        c2 = refined.max_cones[cones[1]]
        together = sorted(set(c1) | set(c2))
        # inside one coarse cone: see validate_subdivision
        if coarse.minimal_cone([refined.rays[i] for i in together]) \
                is not None:
            walls.append((w, c1, c2))
    return walls


@dataclass(frozen=True)
class SupportFunctionVerdict:
    h_values: tuple
    interior_walls: int


def _extensions(sub: Subdivision, walls):
    """(wall, near, u, coefficients of ray u over near), one per condition.

    Each interior wall gives one strict condition per side and per ray u
    of the far cone off the wall: the linear extension of h from the near
    cone exceeds h at u. The coefficients are None off the near span.
    """
    refined = sub.refined
    for wall, c1, c2 in walls:
        for near, far in ((c1, c2), (c2, c1)):
            for u in far:
                if u not in wall:
                    yield wall, near, u, refined.span_coefficients(
                        near, refined.rays[u])


def _candidate_failures(sub: Subdivision, h, walls):
    """Every condition the candidate h violates, in order; empty if none."""
    refined = sub.refined
    n = sub.coarse.n
    failures = []
    for i in range(n):
        if h[i] != 0:
            failures.append(f"h must vanish on old ray {i}, got {h[i]}")
    for i in range(n, refined.num_rays):
        if h[i] <= 0:
            failures.append(f"h must be positive on new ray {i}, got {h[i]}")
    if not failures:
        for wall, near, u, sol in _extensions(sub, walls):
            if sol is None:
                failures.append(f"ray {u} not in the span of cone {near}")
                continue
            extended = sum(sol[k] * h[i] for k, i in enumerate(near))
            if not extended > h[u]:
                failures.append(
                    f"wall {wall}: linear extension from {near} "
                    f"gives {extended} at ray {u}, need > {h[u]}")
    return failures


def _least_support_function(sub: Subdivision, walls):
    """The least support function, or Unsatisfiable if none exists.

    The unknowns are s and the values h_j on the new rays; old rays are
    0. The rows are s >= 1, h_j >= 1 and s - h_j >= 0 for every j, and
    sum_k sol_k h_k - h_u >= 1 for every condition of _extensions. The
    refined cones are unimodular (validate_subdivision), so every sol is
    integral, and for integer h the strict inequalities are exactly these
    rows: their integer points are the support functions h with a bound
    s on their values. A rational point scales to an integer one by its
    denominator, so the rows have no rational solution only when no
    support function exists.

    Otherwise the result is the lexicographically least integer point
    (s, h). So s is the least bound B* at which some support function has
    every new-ray value in [1, B*], and h is the first support function
    that a lexicographic search of [1, B*]^new meets. _least_integer_point
    finds it in the exact projections from fourier_motzkin, s outermost
    and eliminated last: s starts at the least integer of its projection,
    each h_j lies in [1, s], and s never passes the largest value of an
    existing support function, so the search ends.
    """
    n = sub.coarse.n
    # one unknown per new ray, s under -1; old rays add nothing, as h = 0
    unknowns = [-1] + list(range(n, sub.refined.num_rays))

    def row(coefficients, rhs):
        return tuple(coefficients.get(i, 0) for i in unknowns), rhs

    rows = [row({-1: 1}, 1)] + [row({j: 1}, 1) for j in unknowns[1:]]
    rows += [row({-1: 1, j: -1}, 0) for j in unknowns[1:]]
    for _, near, u, sol in _extensions(sub, walls):
        if sol is None or any(x.denominator != 1 for x in sol):
            raise InternalInconsistency(
                f"ray {u} has non-integer coefficients over cone {near}")
        rows.append(row({**dict(zip(near, map(int, sol))), u: -1}, 1))
    stages = linalg.fourier_motzkin(rows, len(unknowns))
    if stages[0]:
        raise Unsatisfiable(
            "no support function exists: the strict convexity conditions "
            "have no rational solution")
    return [0] * n + _least_integer_point(stages, [])[1:]


def _least_integer_point(stages, prefix):
    """Lexicographically least integer point of stages[-1] from prefix.

    stages are exact projections [P_0, ..., P_m] and prefix an integer
    point of P_len(prefix). Returns the point as a list, or else a set of
    prefix positions, the conflict, such that no prefix agreeing with
    this one there extends to an integer point. Each coordinate ranges
    upwards over the integers of its interval at the fixed prefix, which
    must be bounded below; when it is not bounded above, the loop ends
    only if some integer point exists.

    Skipping by conflicts (backjumping) returns the same point as the
    plain search, which may try every combination of values of
    coordinates that do not constrain each other. The interval lies
    inside the bounds of its two binding rows, whose coefficients are
    nonzero only on the positions in conflict, so any prefix agreeing
    there leaves no more values to try; a value fails on the positions of
    its child's conflict; and a child whose conflict omits this
    coordinate fails whatever value it takes, so its conflict is passed
    up at once.
    """
    here = len(prefix)
    if here + 1 == len(stages):
        return prefix
    rests = [(a, b - sum(x * y for x, y in zip(a, prefix)))
             for a, b in stages[here + 1]]
    low = max((-(-rest // a[-1]), a) for a, rest in rests if a[-1] > 0)
    high = min(((rest // a[-1], a) for a, rest in rests if a[-1] < 0),
               default=None)
    conflict = {i for _, a in filter(None, (low, high))
                for i in range(here) if a[i]}
    values = (range(low[0], high[0] + 1) if high
              else itertools.count(low[0]))
    for y in values:
        found = _least_integer_point(stages, prefix + [y])
        if isinstance(found, list) or here not in found:
            return found
        conflict |= found - {here}
    return conflict


def check_support_function(sub: Subdivision, h_values=None):
    """Verify or find a strictly superadditive support function.

    With h_values (per refined ray) the candidate is checked and a verdict
    returned; Inconsistent lists every violated condition. Without it, the
    least support function is returned: the least bound B* at which one
    has every new-ray value in [1, B*], then the lexicographically least
    such values (see _least_support_function). Unsatisfiable means that
    no support function exists.
    """
    _require_valid(sub)
    walls = _interior_walls(sub)
    h = (_least_support_function(sub, walls) if h_values is None
         else [linalg._integer_input(x, "h value") for x in h_values])
    if len(h) != sub.refined.num_rays:
        raise Inconsistent(
            f"need {sub.refined.num_rays} values, got {len(h)}")
    failures = _candidate_failures(sub, h, walls)
    if failures and h_values is None:
        raise InternalInconsistency(
            f"the computed support function {h} fails: {failures[0]}")
    if failures:
        raise Inconsistent("; ".join(failures))
    return SupportFunctionVerdict(tuple(h), len(walls))


@dataclass(frozen=True)
class FiberDimensionReport:
    dim_orbifold: int
    dim_resolved: int
    equal: bool


def fiber_dimension_check(sub: Subdivision, base: BaseRing) -> FiberDimensionReport:
    """Compare the coarse orbifold ring with the refined ordinary ring.

    The refined fan itself becomes a stacky fan over the coarse N, free,
    its rays their own lifts, with trivial box; base twist classes are
    extended by zero on the new rays.
    """
    _require_valid(sub)
    coarse_ring = orbifold_ring(sub.coarse, base)
    refined_sfan = ExtendedStackyFan(sub.coarse.group, sub.refined,
                                     sub.refined.rays)
    if base.twists is None:
        refined_base = base
    else:
        twists = [dict(t) for t in base.twists]
        twists += [{} for _ in range(sub.num_new_rays)]
        refined_base = base.with_twists(twists)
    refined_ring = ordinary_chow_ring(refined_sfan, refined_base)
    return FiberDimensionReport(
        coarse_ring.dimension, refined_ring.dimension,
        coarse_ring.dimension == refined_ring.dimension)
