"""Inertia data: r-fold twisted sectors and obstruction exponents.

A component of the r-th inertia stack corresponds to an r-tuple of box
elements whose images share a cone; its stack is the quotient by the
minimal joint cone. For 3-tuples with g1 g2 g3 = 1 in the local group,
the obstruction bundle is the product of the line bundles L_i over the
rays where the coefficient sum equals 2.

Each piece of geometry is found once per call. One walk over the tuples
(_walk) serves inertia_components and three_sectors: it takes the image
of each box element once and builds the quotient once per distinct joint
cone; every component on that cone shares it. three_sectors builds one
Sector per triple and none per pair.
Which g3 completes a pair has one answer path: three_sectors and
obstruction_exponents look it up in N(sigma) of the pair's joint cone
sigma (ExtendedStackyFan._complement_in), as box_complement does, so
neither runs box_complement itself. The lookup reads the fan's record of
sigma, built from one Smith form once per fan, and a complement costs one
addition of stored images in N(sigma) and one dict lookup, because the
projection to N(sigma) is additive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import NoCommonCone, NotASector, UnexpectedCoefficient
from .stacky import BoxElement, ExtendedStackyFan


@dataclass(frozen=True)
class Sector:
    """One inertia component: a tuple of box elements with a common cone."""

    elements: tuple
    joint_cone: tuple
    quotient: ExtendedStackyFan
    total_age: Fraction


def _walk(sfan: ExtendedStackyFan, r: int):
    """(elements, joint cone, quotient, total age) per r-tuple, r >= 1.

    The tuples of box elements whose images share a cone, in box
    enumeration order; the quotient stacky fan by the minimal cone of the
    tuple's images is built once per distinct cone and shared.
    """
    points = [(b, sfan.bar(b.value)) for b in sfan.box()]
    minimal_cone = sfan.fan.minimal_cone
    quotients = {}
    for tup in itertools.product(points, repeat=r):
        joint = minimal_cone([bar for _, bar in tup])
        if joint is None:
            continue
        quotient = quotients.get(joint)
        if quotient is None:
            quotient = quotients[joint] = sfan.quotient_stacky_fan(joint)
        elements = tuple(b for b, _ in tup)
        # start from the first age (r >= 1): one Fraction addition fewer
        total = sum((b.age for b in elements[1:]), elements[0].age)
        yield elements, joint, quotient, total


def inertia_components(sfan: ExtendedStackyFan, r: int):
    """Components of the r-th inertia stack, in box enumeration order.

    r = 1 recovers the box itself; each component carries the quotient
    stacky fan by the minimal cone of the tuple's images, built once per
    distinct cone and shared by the components on it.
    """
    if r < 1:
        raise ValueError("r must be positive")
    return [Sector(*component) for component in _walk(sfan, r)]


def three_sectors(sfan: ExtendedStackyFan):
    """All 3-twisted sectors (g1, g2, g3 = complement of the pair).

    g3 is looked up in Box(sigma) for the pair's joint cone sigma, as
    box_complement does, without its recheck of the triple's minimal
    cone. On a valid fan that recheck cannot fail: g3 in Box(sigma) puts
    its image in sigma, so sigma holds all three images and the minimal
    cone tau of the triple is a face of sigma; tau also holds the images
    of g1 and g2, whose minimal cone is sigma, so tau = sigma. Nor can it
    fail on an unvalidated fan: minimal_cone reads the supports in the
    first maximal cone C that holds the points. No earlier cone holds
    the images of g1 and g2; C holds that of g3 through sigma, and its
    support there lies in sigma, because sigma is a set of pivot rays of
    C and coefficients over pivot rays are unique.
    """
    out = []
    for (g1, g2), joint, quotient, age in _walk(sfan, 2):
        g3 = sfan._complement_in(joint, g1, g2)
        out.append(Sector((g1, g2, g3), joint, quotient, age + g3.age))
    return out


def obstruction_exponents(sfan: ExtendedStackyFan, g1: BoxElement,
                          g2: BoxElement, g3: BoxElement):
    """Rays contributing a factor to the obstruction bundle's Euler class.

    Writes g1 + g2 + g3 = sum a_i b_i over the joint cone sigma of g1 and
    g2; each a_i must be 1 or 2, and the result is the set of rays with
    a_i = 2. The empty set means the obstruction bundle has rank zero.

    g3 must be the complement w of (g1, g2), the one element of
    Box(sigma) with g1 + g2 + w in N_sigma. It is looked up in N(sigma)
    by _complement_in, as three_sectors and box_complement do, and any
    other g3 raises NotASector. The lookup carries the guarantee: its
    projection proj has kernel exactly N_sigma, so proj(s) = 0 exactly
    when s is in N_sigma, and it returns the w with proj(g1 + g2 + w) = 0.
    Hence s = g1 + g2 + g3 = sum k_i b_i with integer k_i, and as the
    rays of sigma are independent (minimal_cone returns supports over the
    pivot rays of one maximal cone) the coefficients a_i of s over sigma
    are these k_i. Each is the sum of the
    coefficients of g1, g2 and g3 over sigma, which lie in [0, 1), so
    0 <= a_i < 3. Each ray of sigma, the union of the supports of g1 and
    g2, carries a positive coefficient of one of them, so a_i is 1 or 2
    and the guard below cannot fail.
    """
    images = [sfan.bar(g1.value), sfan.bar(g2.value)]
    joint = sfan.fan.minimal_cone(images)
    if joint is None:
        raise NotASector("g1 and g2 share no cone")
    try:
        expected = sfan._complement_in(joint, g1, g2)
    except NoCommonCone as exc:
        raise NotASector(str(exc)) from exc
    if expected.value != tuple(g3.value):
        raise NotASector(
            f"g3 = {tuple(g3.value)} is not the complement "
            f"{expected.value} of (g1, g2)")
    # the image of g1 + g2 + g3 in N_Q is the sum of the three images
    images.append(sfan.bar(g3.value))
    coeffs = sfan.fan.cone_coefficients(joint, [sum(x) for x in zip(*images)])
    if coeffs is None or any(a not in (1, 2) for a in coeffs):
        raise UnexpectedCoefficient(
            f"coefficients {coeffs} of g1 + g2 + g3 over {joint} "
            f"are not all in {{1, 2}}")
    return frozenset(i for i, a in zip(joint, coeffs) if a == 2)
