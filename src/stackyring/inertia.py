"""Inertia data: r-fold twisted sectors and obstruction exponents.

A component of the r-th inertia stack corresponds to an r-tuple of box
elements whose images share a cone; its stack is the quotient by the
minimal joint cone. For 3-tuples with g1 g2 g3 = 1 in the local group,
the obstruction bundle is the product of the line bundles L_i over the
rays where the coefficient sum equals 2.

Each piece of geometry is found once per call. inertia_components takes
the image of each box element once and builds the quotient once per
distinct joint cone; every component on that cone shares it.
three_sectors looks g3 up in N(sigma) of the joint cone the pair already
has, and obstruction_exponents certifies g3 from its coefficients and
those of g1 + g2 + g3 over that cone, so neither runs box_complement on
a 3-sector. box_complement runs only to word a refusal.
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


def inertia_components(sfan: ExtendedStackyFan, r: int):
    """Components of the r-th inertia stack, in box enumeration order.

    r = 1 recovers the box itself; each component carries the quotient
    stacky fan by the minimal cone of the tuple's images, built once per
    distinct cone and shared by the components on it.
    """
    if r < 1:
        raise ValueError("r must be positive")
    points = [(b, sfan.bar(b.value)) for b in sfan.box()]
    quotients = {}
    out = []
    for tup in itertools.product(points, repeat=r):
        joint = sfan.fan.minimal_cone([bar for _, bar in tup])
        if joint is None:
            continue
        quotient = quotients.get(joint)
        if quotient is None:
            quotient = quotients[joint] = sfan.quotient_stacky_fan(joint)
        elements = tuple(b for b, _ in tup)
        # start from the first age (r >= 1): one Fraction addition fewer
        total = sum((b.age for b in elements[1:]), elements[0].age)
        out.append(Sector(elements, joint, quotient, total))
    return out


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
    for pair in inertia_components(sfan, 2):
        g1, g2 = pair.elements
        g3 = sfan._complement_in(pair.joint_cone, g1, g2)
        out.append(Sector((g1, g2, g3), pair.joint_cone, pair.quotient,
                          pair.total_age + g3.age))
    return out


def obstruction_exponents(sfan: ExtendedStackyFan, g1: BoxElement,
                          g2: BoxElement, g3: BoxElement):
    """Rays contributing a factor to the obstruction bundle's Euler class.

    Writes g1 + g2 + g3 = sum a_i b_i over the joint cone sigma of g1 and
    g2; each a_i must be 1 or 2, and the result is the set of rays with
    a_i = 2. The empty set means the obstruction bundle has rank zero.

    g3 must be the complement w = box_complement(g1, g2), and two checks
    certify that without computing w:

    (a) the coefficients of g3 over sigma lie in [0, 1), so g3 is in
        Box(sigma);
    (b) s = g1 + g2 + g3 has integer coefficients a_i over sigma and
        s - sum a_i b_i is zero in N, so s is in N_sigma.

    They hold exactly when g3 = w. The rays of sigma are independent on
    any fan, since minimal_cone returns supports over the pivot rays of
    one maximal cone, so s is in N_sigma exactly when (b) holds. w is in
    Box(sigma) with g1 + g2 + w in N_sigma, so it passes both. If g3
    passes both, g3 - w = (g1 + g2 + g3) - (g1 + g2 + w) is in N_sigma:
    g3 and w are box elements of sigma in one class of N(sigma), and by
    the one-to-one argument of box_of_cone they are equal. On a valid
    fan each ray of sigma carries a positive coefficient of g1 or g2, so
    0 < a_i < 3 and the {1, 2} check cannot fail.

    A triple that fails a check is refused as box_complement words it:
    NotASector when g3 is not the complement or there is none, and
    UnexpectedCoefficient for the failed check when g3 is the complement.
    """
    joint = sfan.fan.minimal_cone([sfan.bar(g1.value), sfan.bar(g2.value)])
    if joint is None:
        raise NotASector("g1 and g2 share no cone")
    box_coeffs = sfan.fan.cone_coefficients(joint, sfan.bar(g3.value))
    if box_coeffs is None or any(a >= 1 for a in box_coeffs):
        _refuse(sfan, g1, g2, g3, UnexpectedCoefficient(
            "g3 is not in the box of the joint cone"))
    s = sfan.group.add(sfan.group.add(g1.value, g2.value), g3.value)
    coeffs = sfan.fan.cone_coefficients(joint, sfan.bar(s))
    if coeffs is None:
        _refuse(sfan, g1, g2, g3,
                UnexpectedCoefficient("sum leaves the joint cone"))
    check = list(s)
    exponents = set()
    for i, a in zip(joint, coeffs):
        if a.denominator != 1:
            _refuse(sfan, g1, g2, g3, UnexpectedCoefficient(
                f"coefficient {a} on ray {i} is not an integer"))
        a = int(a)
        if a not in (1, 2):
            _refuse(sfan, g1, g2, g3, UnexpectedCoefficient(
                f"coefficient {a} on ray {i} is outside {{1, 2}}"))
        if a == 2:
            exponents.add(i)
        for r in range(sfan.group.coords):
            check[r] -= a * sfan.ray_lifts[i][r]
    if any(sfan.group.reduce(check)):
        _refuse(sfan, g1, g2, g3, UnexpectedCoefficient(
            "sum is not the integer combination of the joint cone's lifts"))
    return frozenset(exponents)


def _refuse(sfan, g1, g2, g3, fault):
    """Raise for a triple that failed a check of obstruction_exponents.

    NotASector, with box_complement's text, when (g1, g2) has no
    complement or g3 is not it; otherwise fault.
    """
    try:
        expected = sfan.box_complement(g1, g2)
    except NoCommonCone as exc:
        raise NotASector(str(exc)) from exc
    if expected.value != tuple(g3.value):
        raise NotASector(
            f"g3 = {tuple(g3.value)} is not the complement "
            f"{expected.value} of (g1, g2)")
    raise fault
