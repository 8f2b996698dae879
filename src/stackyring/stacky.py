"""Extended stacky fans: a fan in N_Q together with lattice data in N.

The group N may have torsion; ray directions of the underlying fan are the
images b_bar of the chosen ray lifts in the free quotient. Extra vectors
beyond the rays are allowed and only enter through the map beta and the
twist classes. Box elements, the local groups N(sigma), and quotients by
cones all live here. Box(sigma) is enumerated from the torsion of N(sigma),
one element per class; box_decompose and box_of_cone split a lattice point
into its box element and ray multipliers along one path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import (InfiniteCokernel, NoCommonCone, OutsideSupport)
from .fan import SimplicialFan
from .lattice import (FgAbGroup, GroupHom, _cokernel_of_snf, _with_relations,
                      cokernel, smith_normal_form, solve_integer_linear)


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
        """Image of an element of N in N_Q = Q^rank.

        The image reads the free coordinates alone, so the torsion ones
        are not reduced.
        """
        c = tuple(c)
        if len(c) != self.group.coords:
            raise ValueError(
                f"element length {len(c)} != {self.group.coords}")
        return tuple(Fraction(int(x)) for x in c[: self.group.rank])

    def beta(self) -> GroupHom:
        return GroupHom.from_columns(self.m, self.group, self.vectors)

    def validate(self):
        return self.fan.validate()

    def box_of_cone(self, sigma):
        """Box(sigma): elements whose image has all cone coefficients in [0,1).

        Box(sigma) is read off the torsion of N(sigma). Let J be the pivot
        rays of sigma: all of sigma on a valid fan, and on dependent rays
        those independent of the earlier ones, which span the same space.
        With Q the relation matrix of N, take the Smith normal form
        U M V = D of M = [B_J | Q]. Since M V = U^-1 D, column t of M V
        is d_t times column t of U^-1, so g_t = (M V)_t / d_t is exact,
        and the sums sum k_t g_t with 0 <= k_t < d_t for d_t >= 2 meet
        each torsion class of N_J = N / <b_j : j in J> once. Each sum is
        sent to its fractional representative by flooring its coefficients
        over J. The classes of Box(sigma) in N_J are exactly the torsion
        classes, one element each, torsion of N included:

        * Box elements are torsion: v_bar = sum a_j b_bar_j with rational
          a_j, so for a common denominator k, k v - sum k a_j b_j has zero
          image in N_Q; it is torsion in N, and a multiple of v lies in
          <b_J>.
        * Onto: a torsion class [c] has k c in <b_J>, so c_bar lies in the
          span of the b_bar_J, and c - sum floor(a_j) b_j is a box element
          in the class of c.
        * One to one: two box elements of one class differ by sum k_j b_j
          with integer k_j. On the independent b_bar_J each k_j is then a
          difference of two numbers in [0, 1), so k = 0 and they are equal.

        >>> p112 = ExtendedStackyFan.build(
        ...     FgAbGroup(2), [(1, 0), (0, 1), (-1, -2)],
        ...     [(0, 1), (1, 2), (0, 2)])
        >>> box = p112.box_of_cone((0, 2))
        >>> [b.value for b in box], box[1].age
        ([(0, 0), (0, -1)], Fraction(1, 1))
        """
        return self._box_and_snf(sigma)[0]

    def _box_and_snf(self, sigma):
        """(Box(sigma), the Smith normal form of [B_J | Q] it is read off)."""
        sigma = tuple(sorted(sigma))
        pivots = [sigma[j] for j in self.fan._index.solver(sigma).columns]
        snf = smith_normal_form(self._lifts_with_relations(pivots))
        gens = [(d, [x // d for x in linalg.mat_vec(
                    snf.matrix, [row[t] for row in snf.V])])
                for t, d in enumerate(snf.diagonal) if d >= 2]
        out = []
        for ks in itertools.product(*(range(d) for d, _ in gens)):
            c = [sum(k * g[r] for k, (_, g) in zip(ks, gens))
                 for r in range(self.group.coords)]
            coeffs = self.fan.span_coefficients(sigma, c[: self.group.rank])
            out.append(self._split(c, sigma, coeffs)[0])
        out.sort(key=lambda b: (b.value != self.group.zero(), b.value))
        return out, snf

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
        return self._split(c, *located)

    def _split(self, c, sigma, coeffs):
        """(v, {i: m_i}) with c = v + sum m_i b_i and m_i = floor(coeffs_i).

        coeffs are those of c_bar over the rays sigma; v keeps the nonzero
        fractional parts as its support and coefficients.
        """
        mult = {}
        v = list(c)
        support, fracs = [], []
        for i, a in zip(sigma, coeffs):
            mult[i] = m = math.floor(a)
            if m:
                v = [x - m * y for x, y in zip(v, self.ray_lifts[i])]
            if a != m:
                support.append(i)
                fracs.append(a - m)
        box = BoxElement(self.group.reduce(v), tuple(support), tuple(fracs),
                         sum(fracs, Fraction(0)))
        return box, mult

    def local_group(self, sigma):
        """N(sigma) = N / <b_i : i in sigma>, with the projection from N."""
        sigma = tuple(sorted(sigma))
        incl = GroupHom.from_columns(len(sigma), self.group,
                                     [self.ray_lifts[i] for i in sigma])
        return cokernel(incl)

    def in_cone_sublattice(self, sigma, vec) -> bool:
        """Is vec in the subgroup N_sigma generated by the cone's lifts?

        The last per-vector solve path in the library, kept for the
        benchmark: benchmark/spans.py wraps this method by name. The
        library answers the question by a lookup in N(sigma), as
        box_complement does, and lattice.member_of_subgroup answers it
        through the cokernel projection.
        """
        full = self._lifts_with_relations(sigma)
        vec = list(self.group.reduce(vec))
        return solve_integer_linear(full, vec) is not None

    def _lifts_with_relations(self, rays):
        """Rows of [B | Q]: the lifts of the rays, then N's relations."""
        lifts = [[self.ray_lifts[i][r] for i in rays]
                 for r in range(self.group.coords)]
        return _with_relations(self.group, lifts)

    def _box_by_projection(self, sigma):
        """(proj: N -> N(sigma), {proj(w): [w in Box(sigma)]}) per sigma.

        Both come from the one Smith normal form U M V = D that
        box_of_cone takes of M = [B_J | Q]: proj is the cokernel
        projection read off U, so its kernel is N_J = <b_j : j in J>.
        When sigma's rays are independent, as on a valid fan and for
        every minimal cone, J = sigma, M is the matrix local_group(sigma)
        reduces, and proj is the projection it returns.
        """
        entry = self._complements.get(sigma)
        if entry is None:
            box, snf = self._box_and_snf(sigma)
            _, proj = _cokernel_of_snf(self.group, snf)
            table = {}
            for w in box:
                table.setdefault(proj.apply(w.value), []).append(w)
            entry = self._complements[sigma] = (proj, table)
        return entry

    def box_complement(self, v1: BoxElement, v2: BoxElement) -> BoxElement:
        """The unique v3 in Box with v1 + v2 + v3 in N_sigma(v1,v2).

        The triple (v1, v2, v3) is then a 3-twisted sector: the minimal cone
        of the three images equals the minimal cone of the first two. The
        minimal cone sigma is found first, the complement is looked up in
        N(sigma) (see _complement_in), and the minimal cone of the triple
        is checked against sigma.
        """
        sigma = self.fan.minimal_cone([self.bar(v1.value), self.bar(v2.value)])
        if sigma is None:
            raise NoCommonCone("v1 and v2 do not share a cone")
        v3 = self._complement_in(sigma, v1, v2)
        joint = self.fan.minimal_cone([self.bar(v1.value), self.bar(v2.value),
                                       self.bar(v3.value)])
        if joint != sigma:
            raise NoCommonCone("complement changes the minimal cone")
        return v3

    def _complement_in(self, sigma, v1: BoxElement,
                       v2: BoxElement) -> BoxElement:
        """The unique v3 in Box(sigma) with v1 + v2 + v3 in N_sigma.

        sigma is the minimal cone of the images of v1 and v2; its rays are
        independent on any fan (see SimplicialFan.minimal_cone). The
        search is a lookup in N(sigma) = N / N_sigma. The projection proj
        of _box_by_projection has kernel exactly N_sigma, so for
        s = v1 + v2 and w in Box(sigma)

            s + w in N_sigma  <=>  proj(s + w) = 0  <=>  proj(w) = -proj(s).

        The box elements of sigma grouped by proj(w) therefore hold under
        -proj(s) exactly the w that a scan testing s + w in N_sigma would
        accept, in the same order. Two box elements with one projected
        value are the scan's "found 2"; a value no element has is its
        "found 0".
        """
        proj, table = self._box_by_projection(sigma)
        s = self.group.add(v1.value, v2.value)
        matches = table.get(proj.target.neg(proj.apply(s)), ())
        if len(matches) != 1:
            raise NoCommonCone(
                f"expected exactly one complement, found {len(matches)}")
        return matches[0]

    def normalize_extra_data(self):
        """Reduce each extra vector into its box parallelepiped.

        Extras whose image lies in the fan support are replaced by the box
        part of their decomposition; the rest are kept and reported.
        Returns (fan, warnings) where warnings lists unreduced indices.
        Each extra is located once, and split as box_decompose splits it.
        """
        new_extra = []
        warnings = []
        for j, b in enumerate(self.extra):
            located = self.fan.locate(self.bar(b))
            if located is None:
                new_extra.append(b)
                warnings.append(self.n + j)
                continue
            new_extra.append(self._split(b, *located)[0].value)
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
