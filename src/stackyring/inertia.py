"""Inertia data: r-fold twisted sectors and obstruction exponents.

A component of the r-th inertia stack corresponds to an r-tuple of box
elements whose images share a cone; its stack is the quotient by the
minimal joint cone. For 3-tuples with g1 g2 g3 = 1 in the local group,
the obstruction bundle is the product of the line bundles L_i over the
rays where the coefficient sum equals 2.

Each piece of geometry is found at most once per call, and the quotient
by a joint cone is built once per distinct cone and shared by every
component on it. inertia_components walks the r-tuples, taking each box
element's image once. three_sectors asks one question per ordered pair,
ExtendedStackyFan._complement_in, which box_complement and
obstruction_exponents take too: its sigma is the pair's joint cone, and
it gives g3 and c_i = ceil(alpha_i + beta_i) over sigma, alpha and beta
the coefficients of g1 and g2. Then g1 + g2 + g3 = sum c_i b_i, so the
total age is sum c_i and the obstruction rays are the i with c_i = 2
(Borisov-Chen-Smith); each 3-sector keeps the c_i from that one call.
A pair of zero images (every pair on a gerbe) costs one torsion sum:
its joint cone is the zero cone, with no ceilings and no obstruction
rays, and g3 = -(g1 + g2) lies in Box(()), the torsion of N (see
_complement_in).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (NoCommonCone, NotASector, TooManyTuples,
                     UnexpectedCoefficient)
from .linalg import _integer_input
from .stacky import BoxElement, ExtendedStackyFan
# the most box elements, r |Box|^r, that the r-tuples of
# inertia_components, and three_sectors' pairs (r = 2), hold
from .stacky import ENUMERATION_BOUND as INERTIA_ENTRY_BOUND


@dataclass(frozen=True)
class Sector:
    """One inertia component: a tuple of box elements with a common cone.

    ceilings holds the c_i over the joint cone on the 3-sectors of
    three_sectors (see the module docstring), and None on
    inertia_components'.
    """

    elements: tuple
    joint_cone: tuple
    quotient: ExtendedStackyFan
    total_age: Fraction
    ceilings: tuple | None = None

    @property
    def obstruction_rays(self) -> frozenset | None:
        """The rays with c_i = 2, as obstruction_exponents gives them and
        with its check that each c_i is 1 or 2; None without ceilings.

        Read on demand: a caller that asks obstruction_exponents instead
        pays for the rays once, not twice.
        """
        if self.ceilings is None:
            return None
        return _obstruction_rays(self.joint_cone, self.ceilings)


def _refuse_past_the_bound(walk, r, box):
    """Raise TooManyTuples when the r-tuples of box would hold more than
    INERTIA_ENTRY_BOUND box elements, r |Box|^r; walk names the walk."""
    entries = r
    if len(box) > 1:
        for _ in range(r):  # at most 20 steps, as 2^20 > 10^6
            entries *= len(box)
            if entries > INERTIA_ENTRY_BOUND:
                break
    if entries > INERTIA_ENTRY_BOUND:
        raise TooManyTuples(
            f"{walk} over |Box| = {len(box)}: the r-tuples would hold "
            f"r |Box|^r > {INERTIA_ENTRY_BOUND} box elements, the bound")


def inertia_components(sfan: ExtendedStackyFan, r: int):
    """Components of the r-th inertia stack, in box enumeration order.

    The r-tuples of box elements whose images share a cone; r = 1
    recovers the box itself. Each box element's image is taken once, and
    each component carries the quotient stacky fan by the minimal cone of
    the tuple's images, built once per distinct cone and shared by the
    components on it.

    The walk visits all |Box|^r tuples, r box elements each, so it is
    refused with TooManyTuples, before any tuple is made, when
    r |Box|^r exceeds INERTIA_ENTRY_BOUND = 10^6. Below the bound the walk
    ends: r = 3 on BG(Z/4 x Z/9), 139,968 entries, takes about 0.5 s of
    library time. Counting entries rather than tuples also bounds a long
    r over a box of one element.
    """
    r = _integer_input(r, "order")
    if r < 1:
        raise ValueError("r must be positive")
    box = sfan.box()
    _refuse_past_the_bound(f"inertia order r = {r}", r, box)
    points = [(b, sfan.bar(b.value)) for b in box]
    minimal_cone = sfan.fan.minimal_cone
    quotients = {}
    out = []
    for tup in itertools.product(points, repeat=r):
        joint = minimal_cone([bar for _, bar in tup])
        if joint is None:
            continue
        quotient = quotients.get(joint)
        if quotient is None:
            quotient = quotients[joint] = sfan.quotient_stacky_fan(joint)
        # start from the first age (r >= 1): one Fraction addition fewer
        age = sum((b.age for b, _ in tup[1:]), tup[0][0].age)
        out.append(Sector(tuple(b for b, _ in tup), joint, quotient, age))
    return out


def three_sectors(sfan: ExtendedStackyFan):
    """All 3-twisted sectors (g1, g2, g3 = complement of the pair).

    One _complement_in call per ordered pair of the box, in
    itertools.product order; a pair with no joint cone is skipped. Its
    sigma is the union of the pair's supports in the first maximal cone
    holding both images, which is what minimal_cone returns for them, so
    on any fan sigma is the pair's joint cone as inertia_components
    finds it, and the triple's minimal cone too (see _complement_in's
    docstring). g3 and the integer total age sum c_i come from the same
    call. Each sector keeps the ceilings, and its obstruction_rays reads
    the rays off them.

    The pairs are the r-tuples of inertia_components with r = 2, under
    the same bound: when 2 |Box|^2 exceeds INERTIA_ENTRY_BOUND the walk is
    refused with TooManyTuples before any pair is taken.
    """
    box = sfan.box()
    _refuse_past_the_bound("3-sector pairs, r = 2,", 2, box)
    complement_in = sfan._complement_in
    quotients = {}
    out = []
    for g1, g2 in itertools.product(box, repeat=2):
        found = complement_in(g1, g2)
        if found is None:
            continue
        joint, ceilings, g3 = found
        quotient = quotients.get(joint)
        if quotient is None:
            quotient = quotients[joint] = sfan.quotient_stacky_fan(joint)
        out.append(Sector((g1, g2, g3), joint, quotient,
                          Fraction(sum(ceilings)), tuple(ceilings)))
    return out


def _obstruction_rays(joint, ceilings) -> frozenset:
    """The rays of joint whose c_i is 2, each c_i checked to be 1 or 2.

    No ceilings (the zero cone) means no rays and nothing to check.
    """
    if not ceilings:
        return frozenset()
    if any(c not in (1, 2) for c in ceilings):
        raise UnexpectedCoefficient(
            f"coefficients {list(ceilings)} of g1 + g2 + g3 over {joint} "
            f"are not all in {{1, 2}}")
    return frozenset(i for i, c in zip(joint, ceilings) if c > 1)


def obstruction_exponents(sfan: ExtendedStackyFan, g1: BoxElement,
                          g2: BoxElement, g3: BoxElement):
    """Rays contributing a factor to the obstruction bundle's Euler class.

    Writes g1 + g2 + g3 = sum a_i b_i over the joint cone sigma of g1 and
    g2; each a_i must be 1 or 2, and the result is the set of rays with
    a_i = 2. The empty set means the obstruction bundle has rank zero.

    g3 must be the complement of (g1, g2) that _complement_in gives, as
    three_sectors and box_complement take it: the same element, or one
    equal to it in value, cone, coefficients and age. Any other g3 raises
    NotASector. The same call gives a_i = c_i = ceil(alpha_i + beta_i)
    (see the module docstring). alpha_i + beta_i is positive on sigma,
    the union of the supports, and below 2 for box elements, so each c_i
    is 1 or 2, and c_i > 1 exactly when alpha_i + beta_i > 1.
    """
    try:
        found = sfan._complement_in(g1, g2)
    except NoCommonCone as exc:
        raise NotASector(str(exc)) from exc
    if found is None:
        raise NotASector("g1 and g2 share no cone")
    joint, ceilings, expected = found
    if g3 is not expected and g3 != expected:
        got, want = tuple(g3.value), expected.value
        if got == want:  # the cone, coefficients or age differ
            got, want = g3, expected
        raise NotASector(
            f"g3 = {got} is not the complement {want} of (g1, g2)")
    return _obstruction_rays(joint, ceilings)
