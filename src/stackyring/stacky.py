"""Extended stacky fans: a fan in N_Q together with lattice data in N.

The group N may have torsion; ray directions of the underlying fan are the
images b_bar of the chosen ray lifts in the free quotient. Extra vectors
beyond the rays are allowed and only enter through the map beta and the
twist classes. Box elements, the local groups N(sigma), and quotients by
cones all live here. Box(sigma) is enumerated from the torsion of N(sigma),
one element per class; box_decompose and box_of_cone split a lattice point
into its box element and ray multipliers along one path.

Each fan keeps one record per queried cone sigma (_ConeRecord, see
_record): the Smith witness of [B_sigma | Q], Q the relations of N, which
answers every N(sigma) question, and Box(sigma) keyed by value. A
complement is one formula (Borisov-Chen-Smith): with alpha and beta the
coefficients of the pair over their joint cone sigma,
w = -(v1 + v2) + sum ceil(alpha_i + beta_i) b_i, and the rays with
alpha_i + beta_i > 1 are the obstruction rays (see _complement_in).
Images in N_Q (bar) are tuples of ints.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import (ENUMERATION_BOUND, DegenerateImage, InfiniteCokernel,
                     NoCommonCone, OutsideSupport, TooManyTuples)
from .fan import SimplicialFan
from .lattice import (FgAbGroup, GroupHom, _cokernel_of_snf, _integers,
                      _with_relations, smith_normal_form)
# no caller here: benchmark/spans.py's tracer wraps these aliases by name
from .lattice import cokernel, solve_integer_linear  # noqa: F401


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
        object.__setattr__(self, "value",
                           _integers(self.value, "coordinate"))
        object.__setattr__(self, "min_cone", tuple(self.min_cone))
        object.__setattr__(self, "coeffs",
                          tuple(Fraction(a) for a in self.coeffs))
        object.__setattr__(self, "age", Fraction(self.age))


class _ConeRecord:
    """One cone sigma, built by ExtendedStackyFan._record: snf, the Smith
    form of [B_sigma | Q], and Box(sigma) as an ordered value: element dict."""

    __slots__ = ("snf", "box")

    def __init__(self, snf, box):
        self.snf, self.box = snf, box


@dataclass(frozen=True)
class ExtendedStackyFan:
    group: FgAbGroup
    fan: SimplicialFan
    ray_lifts: tuple
    extra: tuple = ()
    # sorted cone sigma -> its _ConeRecord
    _cones: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

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
        # coker beta is finite exactly when the images span N_Q
        if linalg.rank([self.bar(v) for v in self.vectors]) < self.group.rank:
            raise InfiniteCokernel(
                "ray and extra vectors must span N over Q")

    @classmethod
    def build(cls, group: FgAbGroup, ray_lifts, max_cones, extra=()):
        """Assemble the fan from the lifts' images and the cone list."""
        lifts = [group.reduce(b) for b in ray_lifts]
        rays = tuple(b[: group.rank] for b in lifts)
        fan = SimplicialFan(group.rank, rays, tuple(max_cones))
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
        are not reduced. The coordinates are ints, as the fan's rays are;
        a coordinate that is not an integer is refused (lattice._integers).
        """
        c = _integers(c, "coordinate")
        if len(c) != self.group.coords:
            raise ValueError(
                f"element length {len(c)} != {self.group.coords}")
        return c[: self.group.rank]

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
        return list(self._record(tuple(sorted(sigma))).box.values())

    def _record(self, sigma) -> _ConeRecord:
        """The record of a sorted cone sigma, built whole on the first query.

        The Smith form answers the lattice questions only. The record
        keeps U M V = D of M = [B_sigma | Q] as snf, and Box(sigma) from
        the sums sum k_t g_t (see box_of_cone). The fan's solver of sigma
        (SimplicialFan._solver) answers the linear ones: its pivot
        columns J say whether the rays are independent, and it gives
        each sum's coefficients over sigma. Dependent rays, which
        validate() refuses, take Box(sigma) from the Smith form of
        [B_J | Q] (coefficient 0 on the other rays). Box(sigma) has
        prod d_t elements; past ENUMERATION_BOUND it is refused with
        TooManyTuples before any is listed.
        """
        record = self._cones.get(sigma)
        if record is not None:
            return record
        snf = box_snf = smith_normal_form(self._lifts_with_relations(sigma))
        solver = self.fan._solver(sigma)
        if len(solver.columns) != len(sigma):
            box_snf = smith_normal_form(self._lifts_with_relations(
                [sigma[j] for j in solver.columns]))
        tors = [(t, d) for t, d in enumerate(box_snf.diagonal) if d >= 2]
        size = math.prod(d for _, d in tors)
        if size > ENUMERATION_BOUND:
            raise TooManyTuples(
                f"Box{sigma} would list {size} elements, more than the "
                f"bound {ENUMERATION_BOUND}")
        gens = [[x // d for x in linalg.mat_vec(box_snf.matrix, [
            row[t] for row in box_snf.V])] for t, d in tors]
        rank = self.group.rank
        box = []
        for ks in itertools.product(*(range(d) for _, d in tors)):
            c = [sum(k * g[r] for k, g in zip(ks, gens))
                 for r in range(self.group.coords)]
            box.append(self._split(c, sigma, solver.solve(c[:rank]))[0])
        box.sort(key=lambda b: (b.value != self.group.zero(), b.value))
        record = self._cones[sigma] = _ConeRecord(
            snf, {w.value: w for w in box})
        return record

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
        located = self.fan.joint_coefficients([self.bar(c)])
        if located is None:
            raise OutsideSupport(f"{c} has image outside the fan support")
        return self._split(c, *located[0])

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
        """N(sigma) = N / <b_i : i in sigma>, with the projection from N.

        Both are read off snf, the Smith form U M V = D of sigma's record
        (see _record), M = [B_sigma | Q] with the lifts in sigma's order,
        reduced as GroupHom.from_columns reduces them, so M is the matrix
        cokernel would take and proj is cokernel's projection, with kernel
        N_sigma. The first call on a cone builds its whole record.
        """
        return _cokernel_of_snf(self.group,
                                self._record(tuple(sorted(sigma))).snf)

    def in_cone_sublattice(self, sigma, vec) -> bool:
        """Is vec in the subgroup N_sigma generated by the cone's lifts?

        Kept because benchmark/spans.py wraps it by name. The answer is
        proj(vec) = 0 for local_group's projection, whose kernel is
        N_sigma, read off sigma's record: no Smith form once it exists.
        """
        return not any(self.local_group(sigma)[1].apply(self.group.reduce(vec)))

    def _lifts_with_relations(self, rays):
        """Rows of [B | Q]: the lifts of the rays, then N's relations."""
        lifts = [[self.ray_lifts[i][r] for i in rays]
                 for r in range(self.group.coords)]
        return _with_relations(self.group, lifts)

    def box_complement(self, v1: BoxElement, v2: BoxElement) -> BoxElement:
        """The unique v3 in Box with v1 + v2 + v3 in N_sigma(v1,v2).

        The triple (v1, v2, v3) is then a 3-twisted sector: the minimal cone
        of the three images equals sigma, the minimal cone of the first
        two, on any fan (see _complement_in, which gives sigma and v3).

        >>> p112 = ExtendedStackyFan.build(
        ...     FgAbGroup(2), [(1, 0), (0, 1), (-1, -2)],
        ...     [(0, 1), (1, 2), (0, 2)])
        >>> zero, half = p112.box()
        >>> [p112.box_complement(v, half).value for v in (zero, half)]
        [(0, -1), (0, 0)]
        """
        found = self._complement_in(v1, v2)
        if found is None:
            raise NoCommonCone("v1 and v2 do not share a cone")
        return found[2]

    def _complement_in(self, v1: BoxElement, v2: BoxElement):
        """(sigma, ceilings, v3) for v1 and v2, or None without a joint cone.

        Both values must have N's coords entries; either length is checked
        first, before any lookup, and a wrong one raises ValueError.

        sigma is the minimal cone of the images and alpha, beta their
        coefficients over it, read off the first maximal cone holding both
        (SimplicialFan.joint_coefficients, which minimal_cone wraps), so
        sigma's rays are independent on any fan. ceilings lists
        c_i = ceil(alpha_i + beta_i) over sigma, in int arithmetic, and v3
        is the element of Box(sigma) with value w = -(v1 + v2) +
        sum c_i b_i, reduced in N. It is the complement (Borisov-Chen-
        Smith): v1 + v2 + w = sum c_i b_i lies in N_sigma, and w_bar has
        coefficients c_i - alpha_i - beta_i in [0, 1) over sigma, so w is
        in Box(sigma), unique by the one-to-one part of box_of_cone's
        proof. Box(sigma) holds every such element, so finding w among its
        values is also the certificate that w is in the box; a value it
        lacks raises NoCommonCone.

        Two zero images (both free parts zero, every pair on a gerbe) cost
        one sum over the torsion coordinates when the fan has a maximal
        cone. The zero vector passes every cone solver's check rows, each
        a linear form, with all coefficients zero, so every maximal cone
        holds it with empty support, and joint_coefficients would answer
        [((), ()), ((), ())] from the first one. So sigma is the zero
        cone, there are no ceilings, and w = -(v1 + v2) has the zero free
        part and torsion part (-(a_t + b_t)) mod q_t. Box(()) is the
        torsion subgroup of N, one element per reduced value: this is
        box_of_cone's proof with J empty, where N_J = N, the torsion
        classes are the torsion elements, and an element over no rays is
        in the box exactly when its image is zero. So w always lies in
        Box(()); it is still read from Box(())'s record, as every v3 is,
        and a record that lacks it raises NoCommonCone. The check that
        each c_i is 1 or 2 (inertia._obstruction_rays) is vacuous with no
        rays. Without a maximal cone joint_coefficients answers None, so
        that case keeps the lookup. Every other pair with a joint cone
        has a nonzero image, so its support, and sigma, is not empty.

        The minimal cone tau of the three images is sigma on any fan, so
        nothing rechecks it. On a valid fan, v3 in Box(sigma) puts all
        three images in sigma, so tau is a face of sigma holding the
        images of v1 and v2, and tau = sigma. On an unvalidated fan,
        minimal_cone reads the supports in the first maximal cone C
        holding the points. No earlier cone holds the images of v1 and
        v2; C holds v3's through sigma, with support in sigma, as sigma is
        a set of pivot rays of C, over which coefficients are unique.

        w is reduced with the torsion moduli in place, not by
        FgAbGroup.reduce; the inputs' length check stands in for its own.
        Its type check could never fire here: a BoxElement's value is a
        tuple of ints (its __post_init__ takes it through
        lattice._integers), so are the ray lifts (reduced in
        __post_init__) and the ceilings, and w is built from them by int
        sums and products.
        """
        rank, torsion = self.group.rank, self.group.torsion
        x1, x2 = v1.value, v2.value
        for x in (x1, x2):
            if len(x) != rank + len(torsion):
                raise ValueError(
                    f"element length {len(x)} != {rank + len(torsion)}")
        # a box element's value is reduced: its image is its free part
        p1, p2 = x1[:rank], x2[:rank]
        if not any(p1) and not any(p2) and self.fan.max_cones:
            sigma = ceilings = ()
            w = p1 + tuple(map(operator.mod, map(operator.neg, map(
                operator.add, x1[rank:], x2[rank:])), torsion))
        else:
            located = self.fan.joint_coefficients([p1, p2])
            if located is None:
                return None
            (s1, a1), (s2, a2) = located
            lifts = self.ray_lifts
            w = [-x - y for x, y in zip(x1, x2)]
            ceilings = []
            alpha, beta = dict(zip(s1, a1)), dict(zip(s2, a2))
            sigma = tuple(sorted(alpha.keys() | beta.keys()))
            for i in sigma:
                # ceil(a + b) = -floor(-(a + b)) over a common denominator;
                # the int 0 stands in off a support (its denominator is 1)
                a, b = alpha.get(i, 0), beta.get(i, 0)
                c = -((-a.numerator * b.denominator
                       - b.numerator * a.denominator)
                      // (a.denominator * b.denominator))
                ceilings.append(c)
                w = [x + c * y for x, y in zip(w, lifts[i])]
            w = tuple(w[:rank]) + tuple(map(operator.mod, w[rank:], torsion))
        v3 = self._record(sigma).box.get(w)
        if v3 is None:
            raise NoCommonCone(f"complement {w} is not in Box{sigma}")
        return sigma, ceilings, v3

    def quotient_stacky_fan(self, sigma) -> "ExtendedStackyFan":
        """The induced extended stacky fan on N(sigma).

        Its rays are the images proj(b_i) of the link rays in index order,
        its maximal cones those containing sigma, less sigma's rays, and
        its extra vectors the images of the original ones. The zero cone
        returns the fan unchanged.
        """
        sigma = tuple(sorted(sigma))
        if not sigma:
            return self
        group, proj = self.local_group(sigma)
        link = self.fan.link_rays(sigma)
        lifts = []
        for i in link:
            lift = proj.apply(self.ray_lifts[i])
            if not any(lift[: group.rank]):
                raise DegenerateImage(f"link ray {i} projects to zero")
            lifts.append(lift)
        position = {i: k for k, i in enumerate(link)}
        cones = [[position[i] for i in c if i not in sigma]
                 for c in self.fan.max_cones if set(sigma) <= set(c)]
        return ExtendedStackyFan.build(group, lifts, cones,
                                       [proj.apply(b) for b in self.extra])
