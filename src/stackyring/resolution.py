"""Crepant-resolution bookkeeping for simplicial subdivisions.

A subdivision refines the fan of a stacky fan (free N, no extra data on
the coarse side) by new rays b_{n+1}..b_m. The resolution criterion is a
piecewise-linear support function h: zero on old rays, positive on new
ones, superadditive within each coarse cone with strict inequality across
distinct refined cones. Fiber dimensions of the coarse orbifold ring and
the refined ordinary ring must then agree.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction

from .chowring import BaseRing, OrbifoldRing, ordinary_chow_ring, orbifold_ring
from .errors import (Diagnostic, Inconsistent, InvalidSubdivision,
                     SearchTooLarge, Unsatisfiable)
from .fan import SimplicialFan
from .lattice import FgAbGroup, smith_normal_form
from .stacky import ExtendedStackyFan

DEFAULT_H_MAX = 16
# most candidates a support-function search may try: the default values on
# each of four new rays
SEARCH_BUDGET = DEFAULT_H_MAX ** 4


def search_bound(default: int = DEFAULT_H_MAX) -> int:
    """Search ceiling for support function values; STACKYRING_HMAX overrides."""
    value = os.environ.get("STACKYRING_HMAX")
    if value is None:
        return default
    bound = int(value)
    if bound < 1:
        raise ValueError("STACKYRING_HMAX must be positive")
    return bound


@dataclass(frozen=True)
class Subdivision:
    coarse: ExtendedStackyFan
    refined: SimplicialFan

    @property
    def num_new_rays(self) -> int:
        return self.refined.num_rays - self.coarse.n


def validate_subdivision(sub: Subdivision):
    """Structural checks; returns a list of Diagnostic findings."""
    out = []
    coarse = sub.coarse
    refined = sub.refined
    if coarse.group.torsion:
        out.append(Diagnostic("NotSmooth", "N must be free for a resolution"))
        return out
    if coarse.extra:
        out.append(Diagnostic(
            "NotSmooth", "coarse fan must not carry extra vectors"))
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
    for c in refined.max_cones:
        if coarse.fan.minimal_cone([refined.rays[i] for i in c]) is None:
            out.append(Diagnostic(
                "NotSmooth",
                f"refined cone {c} is not contained in a coarse cone"))
    d = coarse.group.rank
    for c in refined.max_cones:
        mat = [[int(refined.rays[i][r]) for i in c] for r in range(d)]
        w = smith_normal_form(mat)
        diag = w.diagonal
        if len(diag) != len(c) or any(x != 1 for x in diag):
            out.append(Diagnostic(
                "NotSmooth",
                f"rays of refined cone {c} do not extend to a basis"))
    all_rays = [[int(refined.rays[i][r]) for i in range(refined.num_rays)]
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
        for wall, c1, c2 in walls:
            for near, far in ((c1, c2), (c2, c1)):
                opposite = [i for i in far if i not in wall]
                for u in opposite:
                    sol = refined.span_coefficients(near, refined.rays[u])
                    if sol is None:
                        failures.append(
                            f"ray {u} not in the span of cone {near}")
                        continue
                    extended = sum(sol[k] * h[i] for k, i in enumerate(near))
                    if not extended > h[u]:
                        failures.append(
                            f"wall {wall}: linear extension from {near} "
                            f"gives {extended} at ray {u}, need > {h[u]}")
    return failures


def check_support_function(sub: Subdivision, h_values=None, h_max=None):
    """Verify or find a strictly superadditive support function.

    With h_values (per refined ray) the candidate is checked and a verdict
    returned; Inconsistent lists every violated condition. Without it, new
    ray values are searched in lexicographic order over [1, h_max]; a
    search over more than SEARCH_BUDGET candidates raises SearchTooLarge
    before it starts.
    """
    _require_valid(sub)
    walls = _interior_walls(sub)
    n = sub.coarse.n
    num_new = sub.refined.num_rays - n
    if h_values is not None:
        h = [int(x) for x in h_values]
        if len(h) != sub.refined.num_rays:
            raise Inconsistent(
                f"need {sub.refined.num_rays} values, got {len(h)}")
        failures = _candidate_failures(sub, h, walls)
        if failures:
            raise Inconsistent("; ".join(failures))
        return SupportFunctionVerdict(tuple(h), len(walls))
    bound = search_bound() if h_max is None else h_max
    size = bound ** num_new
    if size > SEARCH_BUDGET:
        raise SearchTooLarge(
            f"support function search over {bound}^{num_new} = {size} "
            f"candidates exceeds the budget of {SEARCH_BUDGET}")
    for tail in itertools.product(range(1, bound + 1), repeat=num_new):
        h = [0] * n + list(tail)
        if not _candidate_failures(sub, h, walls):
            return SupportFunctionVerdict(tuple(h), len(walls))
    raise Unsatisfiable(
        f"no support function with new-ray values in [1, {bound}]")


@dataclass(frozen=True)
class FiberDimensionReport:
    dim_orbifold: int
    dim_resolved: int
    equal: bool


def fiber_dimension_check(sub: Subdivision, base: BaseRing) -> FiberDimensionReport:
    """Compare the coarse orbifold ring with the refined ordinary ring.

    The refined fan becomes a stacky fan with trivial box; base twist
    classes are extended by zero on the new rays.
    """
    _require_valid(sub)
    coarse_ring = orbifold_ring(sub.coarse, base)
    refined_sfan = ExtendedStackyFan.build(
        sub.coarse.group,
        [tuple(int(x) for x in r) for r in sub.refined.rays],
        sub.refined.max_cones)
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
