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
Which g3 completes a pair has one answer path,
ExtendedStackyFan._complement_in, which box_complement takes too. It
also gives c_i = ceil(alpha_i + beta_i) over the pair's joint cone
sigma, alpha and beta the coefficients of g1 and g2: g1 + g2 + g3 =
sum c_i b_i, so the total age is sum c_i and the obstruction rays are
the i with c_i = 2 (Borisov-Chen-Smith).
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
    """(elements, joint cone, quotient) per r-tuple, r >= 1.

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
        yield tuple(b for b, _ in tup), joint, quotient


def inertia_components(sfan: ExtendedStackyFan, r: int):
    """Components of the r-th inertia stack, in box enumeration order.

    r = 1 recovers the box itself; each component carries the quotient
    stacky fan by the minimal cone of the tuple's images, built once per
    distinct cone and shared by the components on it.
    """
    if r < 1:
        raise ValueError("r must be positive")
    # start from the first age (r >= 1): one Fraction addition fewer
    return [Sector(elements, joint, quotient,
                   sum((b.age for b in elements[1:]), elements[0].age))
            for elements, joint, quotient in _walk(sfan, r)]


def three_sectors(sfan: ExtendedStackyFan):
    """All 3-twisted sectors (g1, g2, g3 = complement of the pair).

    g3 and the integer total age sum c_i come from _complement_in, whose
    sigma is the walk's joint cone, without box_complement's recheck of
    the triple's minimal cone tau. On a valid fan it cannot fail: g3 in
    Box(sigma) puts all three images in sigma, so tau is a face of sigma
    holding the images of g1 and g2, and tau = sigma. Nor on an
    unvalidated fan: minimal_cone reads the supports in the first maximal
    cone C holding the points. No earlier cone holds the images of g1
    and g2; C holds g3's through sigma, with support in sigma, as sigma
    is a set of pivot rays of C, over which coefficients are unique.
    """
    out = []
    for (g1, g2), joint, quotient in _walk(sfan, 2):
        _, ceilings, g3 = sfan._complement_in(g1, g2)
        out.append(Sector((g1, g2, g3), joint, quotient,
                          Fraction(sum(ceilings))))
    return out


def obstruction_exponents(sfan: ExtendedStackyFan, g1: BoxElement,
                          g2: BoxElement, g3: BoxElement):
    """Rays contributing a factor to the obstruction bundle's Euler class.

    Writes g1 + g2 + g3 = sum a_i b_i over the joint cone sigma of g1 and
    g2; each a_i must be 1 or 2, and the result is the set of rays with
    a_i = 2. The empty set means the obstruction bundle has rank zero.

    g3 must be the complement of (g1, g2) that _complement_in gives, as
    three_sectors and box_complement take it; any other g3 raises
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
    if expected.value != tuple(g3.value):
        raise NotASector(
            f"g3 = {tuple(g3.value)} is not the complement "
            f"{expected.value} of (g1, g2)")
    if any(c not in (1, 2) for c in ceilings):
        raise UnexpectedCoefficient(
            f"coefficients {ceilings} of g1 + g2 + g3 over {joint} "
            f"are not all in {{1, 2}}")
    return frozenset(i for i, c in zip(joint, ceilings) if c > 1)
