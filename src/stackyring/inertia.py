"""Inertia data: r-fold twisted sectors and obstruction exponents.

A component of the r-th inertia stack corresponds to an r-tuple of box
elements whose images share a cone; its stack is the quotient by the
minimal joint cone. For 3-tuples with g1 g2 g3 = 1 in the local group,
the obstruction bundle is the product of the line bundles L_i over the
rays where the coefficient sum equals 2.
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
    stacky fan by the minimal cone of the tuple's images.
    """
    if r < 1:
        raise ValueError("r must be positive")
    box = sfan.box()
    out = []
    for tup in itertools.product(box, repeat=r):
        bars = [sfan.bar(b.value) for b in tup]
        joint = sfan.fan.minimal_cone(bars)
        if joint is None:
            continue
        # start from the first age (r >= 1): one Fraction addition fewer
        total = sum((b.age for b in tup[1:]), tup[0].age)
        out.append(Sector(tuple(tup), joint,
                          sfan.quotient_stacky_fan(joint), total))
    return out


def three_sectors(sfan: ExtendedStackyFan):
    """All 3-twisted sectors (g1, g2, g3 = complement of the pair)."""
    out = []
    for pair in inertia_components(sfan, 2):
        g1, g2 = pair.elements
        g3 = sfan.box_complement(g1, g2)
        out.append(Sector((g1, g2, g3), pair.joint_cone, pair.quotient,
                          pair.total_age + g3.age))
    return out


def obstruction_exponents(sfan: ExtendedStackyFan, g1: BoxElement,
                          g2: BoxElement, g3: BoxElement):
    """Rays contributing a factor to the obstruction bundle's Euler class.

    Writes g1 + g2 + g3 = sum a_i b_i over the joint cone; each a_i must
    be 1 or 2, and the result is the set of rays with a_i = 2. The empty
    set means the obstruction bundle has rank zero.
    """
    try:
        joint = sfan.fan.minimal_cone(
            [sfan.bar(g1.value), sfan.bar(g2.value)])
        if joint is None:
            raise NotASector("g1 and g2 share no cone")
        expected = sfan.box_complement(g1, g2)
    except NoCommonCone as exc:
        raise NotASector(str(exc)) from exc
    if expected.value != tuple(g3.value):
        raise NotASector(
            f"g3 = {tuple(g3.value)} is not the complement "
            f"{expected.value} of (g1, g2)")
    s = sfan.group.add(sfan.group.add(g1.value, g2.value), g3.value)
    coeffs = sfan.fan.cone_coefficients(joint, sfan.bar(s))
    if coeffs is None:
        raise UnexpectedCoefficient("sum leaves the joint cone")
    check = list(s)
    exponents = set()
    for i, a in zip(joint, coeffs):
        if a.denominator != 1:
            raise UnexpectedCoefficient(
                f"coefficient {a} on ray {i} is not an integer")
        a = int(a)
        if a not in (1, 2):
            raise UnexpectedCoefficient(
                f"coefficient {a} on ray {i} is outside {{1, 2}}")
        if a == 2:
            exponents.add(i)
        for r in range(sfan.group.coords):
            check[r] -= a * sfan.ray_lifts[i][r]
    if any(sfan.group.reduce(check)):
        raise UnexpectedCoefficient(
            "sum is not the integer combination of the joint cone's lifts")
    return frozenset(exponents)
