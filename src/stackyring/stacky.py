"""Extended stacky fans: a fan in N_Q together with lattice data in N.

The group N may have torsion; ray directions of the underlying fan are the
images b_bar of the chosen ray lifts in the free quotient. Extra vectors
beyond the rays are allowed and only enter through the map beta and the
twist classes. Box elements, the local groups N(sigma), and quotients by
cones all live here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (InfiniteCokernel, NoCommonCone, OutsideSupport)
from .fan import SimplicialFan
from .lattice import FgAbGroup, GroupHom, cokernel, solve_integer_linear


@dataclass(frozen=True)
class BoxElement:
    """An element v of N whose image lies in the half-open box of a cone.

    min_cone is the support sigma(v_bar); coeffs are the coefficients of
    v_bar over the rays of min_cone, each strictly between 0 and 1; age is
    their sum, the degree shift of the corresponding sector.
    """

    value: tuple
    min_cone: tuple
    coeffs: tuple
    age: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", tuple(int(x) for x in self.value))
        object.__setattr__(self, "min_cone", tuple(self.min_cone))
        object.__setattr__(self, "coeffs",
                          tuple(Fraction(a) for a in self.coeffs))
        object.__setattr__(self, "age", Fraction(self.age))


@dataclass(frozen=True)
class ExtendedStackyFan:
    group: FgAbGroup
    fan: SimplicialFan
    ray_lifts: tuple
    extra: tuple = ()
    # sigma -> (projection onto N(sigma), {projected value: box elements})
    _complements: dict = field(default_factory=dict, init=False,
                               repr=False, compare=False)

    def __post_init__(self):
        lifts = tuple(self.group.reduce(b) for b in self.ray_lifts)
        extra = tuple(self.group.reduce(b) for b in self.extra)
        object.__setattr__(self, "ray_lifts", lifts)
        object.__setattr__(self, "extra", extra)
        if self.fan.ambient_dim != self.group.rank:
            raise ValueError("fan ambient dimension must equal rank of N")
        if len(lifts) != self.fan.num_rays:
            raise ValueError("one ray lift per fan ray required")
        for i, b in enumerate(lifts):
            if self.bar(b) != self.fan.rays[i]:
                raise ValueError(
                    f"lift {i} does not project to the fan ray direction")
            if all(x == 0 for x in self.bar(b)):
                raise ValueError(f"ray lift {i} has zero image in N_Q")
        c, _ = cokernel(self.beta())
        if not c.is_finite:
            raise InfiniteCokernel(
                "ray and extra vectors must span N over Q")

    @classmethod
    def build(cls, group: FgAbGroup, ray_lifts, max_cones, extra=()):
        """Assemble the fan from the lifts' images and the cone list."""
        lifts = [group.reduce(b) for b in ray_lifts]
        rays = [tuple(Fraction(x) for x in b[: group.rank]) for b in lifts]
        fan = SimplicialFan(group.rank, tuple(rays), tuple(max_cones))
        return cls(group, fan, tuple(lifts), tuple(extra))

    @property
    def n(self) -> int:
        return len(self.ray_lifts)

    @property
    def m(self) -> int:
        return self.n + len(self.extra)

    @property
    def vectors(self) -> tuple:
        return self.ray_lifts + self.extra

    def bar(self, c) -> tuple:
        """Image of an element of N in N_Q = Q^rank."""
        c = self.group.reduce(c)
        return tuple(Fraction(x) for x in c[: self.group.rank])

    def beta(self) -> GroupHom:
        return GroupHom.from_columns(self.m, self.group, self.vectors)

    def validate(self):
        return self.fan.validate()

    def box_of_cone(self, sigma):
        """Box(sigma): elements whose image has all cone coefficients in [0,1).

        Torsion coordinates are unconstrained, so every lattice point of the
        half-open parallelepiped lifts |torsion| times.

        Enumeration is exact: integer points in the bounding box of the
        closed parallelepiped are filtered by their unique coefficient
        vectors.
        """
        sigma = tuple(sorted(sigma))
        d = self.group.rank
        rays = [self.fan.rays[i] for i in sigma]
        points = []
        if not rays:
            points.append(((0,) * d, []))
        else:
            lo = [sum(min(Fraction(0), r[c]) for r in rays) for c in range(d)]
            hi = [sum(max(Fraction(0), r[c]) for r in rays) for c in range(d)]
            ranges = [range(math.ceil(lo[c]), math.floor(hi[c]) + 1)
                      for c in range(d)]
            for w in itertools.product(*ranges):
                coeffs = self.fan.cone_coefficients(sigma, w)
                if coeffs is not None and all(a < 1 for a in coeffs):
                    points.append((tuple(w), coeffs))
        out = []
        for w, coeffs in points:
            support = tuple(sigma[i] for i, a in enumerate(coeffs) if a != 0)
            pos = tuple(a for a in coeffs if a != 0)
            age = sum(pos, Fraction(0))
            for tors in itertools.product(*(range(q)
                                            for q in self.group.torsion)):
                out.append(BoxElement(w + tors, support, pos, age))
        out.sort(key=lambda b: (b.value != self.group.zero(), b.value))
        return out

    def box(self):
        """Box of the whole fan: union over the maximal cones."""
        seen = {}
        for c in self.fan.max_cones:
            for b in self.box_of_cone(c):
                seen.setdefault(b.value, b)
        out = list(seen.values())
        out.sort(key=lambda b: (b.value != self.group.zero(), b.value))
        return out

    def box_decompose(self, c):
        """Unique splitting c = v + sum m_i b_i with v in Box.

        Returns (BoxElement, multipliers) where multipliers maps each ray of
        the minimal cone of c_bar to its nonnegative integer part.
        """
        c = self.group.reduce(c)
        located = self.fan.locate(self.bar(c))
        if located is None:
            raise OutsideSupport(f"{c} has image outside the fan support")
        sigma, coeffs = located
        mult = {}
        v = list(c)
        frac_support = []
        frac_coeffs = []
        for i, a in zip(sigma, coeffs):
            mi = math.floor(a)
            mult[i] = mi
            if mi:
                for r in range(self.group.coords):
                    v[r] -= mi * self.ray_lifts[i][r]
            f = a - mi
            if f:
                frac_support.append(i)
                frac_coeffs.append(f)
        value = self.group.reduce(v)
        box = BoxElement(value, tuple(frac_support), tuple(frac_coeffs),
                         sum(frac_coeffs, Fraction(0)))
        return box, mult

    def local_group(self, sigma):
        """N(sigma) = N / <b_i : i in sigma>, with the projection from N."""
        sigma = tuple(sorted(sigma))
        incl = GroupHom.from_columns(len(sigma), self.group,
                                     [self.ray_lifts[i] for i in sigma])
        return cokernel(incl)

    def in_cone_sublattice(self, sigma, vec) -> bool:
        """Is vec in the subgroup N_sigma generated by the cone's lifts?

        box_complement decides this by a lookup in N(sigma) instead;
        benchmark/spans.py still wraps this method by name.
        """
        sigma = tuple(sorted(sigma))
        vec = self.group.reduce(vec)
        cols = [self.ray_lifts[i] for i in sigma]
        mat = [[col[r] for col in cols] for r in range(self.group.coords)]
        rel = self.group.relation_matrix()
        full = [mat[r] + rel[r] for r in range(self.group.coords)]
        return solve_integer_linear(full, list(vec)) is not None

    def _box_by_projection(self, sigma):
        """(proj: N -> N(sigma), {proj(w): [w in Box(sigma)]}) per sigma."""
        entry = self._complements.get(sigma)
        if entry is None:
            _, proj = self.local_group(sigma)
            table = {}
            for w in self.box_of_cone(sigma):
                table.setdefault(proj.apply(w.value), []).append(w)
            entry = self._complements[sigma] = (proj, table)
        return entry

    def box_complement(self, v1: BoxElement, v2: BoxElement) -> BoxElement:
        """The unique v3 in Box with v1 + v2 + v3 in N_sigma(v1,v2).

        The triple (v1, v2, v3) is then a 3-twisted sector: the minimal cone
        of the three images equals the minimal cone of the first two.

        The search is a lookup in N(sigma) = N / N_sigma. The projection
        proj from local_group(sigma) has kernel exactly N_sigma, so for
        s = v1 + v2 and w in Box(sigma)

            s + w in N_sigma  <=>  proj(s + w) = 0  <=>  proj(w) = -proj(s).

        The box elements of sigma grouped by proj(w) therefore hold under
        -proj(s) exactly the w that a scan testing s + w in N_sigma would
        accept, in the same order. Two box elements with one projected
        value are the scan's "found 2"; a value no element has is its
        "found 0".
        """
        sigma = self.fan.minimal_cone([self.bar(v1.value), self.bar(v2.value)])
        if sigma is None:
            raise NoCommonCone("v1 and v2 do not share a cone")
        proj, table = self._box_by_projection(sigma)
        s = self.group.add(v1.value, v2.value)
        matches = table.get(proj.target.neg(proj.apply(s)), ())
        if len(matches) != 1:
            raise NoCommonCone(
                f"expected exactly one complement, found {len(matches)}")
        v3 = matches[0]
        joint = self.fan.minimal_cone([self.bar(v1.value), self.bar(v2.value),
                                       self.bar(v3.value)])
        if joint != sigma:
            raise NoCommonCone("complement changes the minimal cone")
        return v3

    def normalize_extra_data(self):
        """Reduce each extra vector into its box parallelepiped.

        Extras whose image lies in the fan support are replaced by the box
        part of their decomposition; the rest are kept and reported.
        Returns (fan, warnings) where warnings lists unreduced indices.
        """
        new_extra = []
        warnings = []
        for j, b in enumerate(self.extra):
            if self.fan.minimal_cone([self.bar(b)]) is None:
                new_extra.append(b)
                warnings.append(self.n + j)
                continue
            box, _ = self.box_decompose(b)
            new_extra.append(box.value)
        fan = ExtendedStackyFan(self.group, self.fan, self.ray_lifts,
                                tuple(new_extra))
        return fan, tuple(warnings)

    def quotient_stacky_fan(self, sigma) -> "ExtendedStackyFan":
        """The induced extended stacky fan on N(sigma).

        Rays are the images of the link rays of sigma; every original extra
        vector descends to an extra vector of the quotient. The zero cone
        returns the fan unchanged.
        """
        sigma = tuple(sorted(sigma))
        if not sigma:
            return self
        nq, proj = self.local_group(sigma)
        pfree = [[Fraction(proj.matrix[r][c]) for c in range(self.group.rank)]
                 for r in range(nq.rank)]
        qfan, lrays = self.fan.quotient(sigma, pfree)
        lifts = [proj.apply(self.ray_lifts[i]) for i in lrays]
        extra = [proj.apply(b) for b in self.extra]
        out = ExtendedStackyFan(nq, qfan, tuple(lifts), tuple(extra))
        return out

    def link_ray_indices(self, sigma) -> tuple:
        """Original ray indices that survive into the quotient by sigma."""
        sigma = tuple(sorted(sigma))
        if not sigma:
            return tuple(range(self.n))
        return self.fan.link_rays(sigma)
