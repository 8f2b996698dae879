"""The fan's geometry index and the N(sigma) complement lookup, checked
against the brute-force references in oracles.py.

The oracles scan every maximal cone with Cramer's rule, first match
wins; box_complement is compared with the old scan over Box(sigma).
"""

import itertools
import random
from fractions import Fraction

import pytest

import oracles
from generators import (complete_2d_fan, coprime_weights,
                        weighted_projective_fan)
from stackyring import fixtures
from stackyring.errors import NoCommonCone, OutsideSupport
from stackyring.fan import SimplicialFan
from stackyring.lattice import FgAbGroup
from stackyring.stacky import ExtendedStackyFan


def seeded_fans():
    rng = random.Random(20261018)
    fans = [weighted_projective_fan(coprime_weights(rng, 3))
            for _ in range(3)]
    fans += [weighted_projective_fan(coprime_weights(rng, 4, top=3))
             for _ in range(2)]
    fans += [complete_2d_fan(rng) for _ in range(6)]
    return fans


def random_points(rng, dim, count, span=5):
    pts = [tuple(rng.randint(-span, span) for _ in range(dim))
           for _ in range(count)]
    pts += [tuple(Fraction(rng.randint(-span, span), rng.randint(1, 3))
                  for _ in range(dim)) for _ in range(count // 4)]
    return pts


def lifts_of(sfan):
    return [list(b) for b in sfan.ray_lifts]


@pytest.mark.parametrize("case", range(11))
def test_fan_queries_match_oracle(case):
    sfan = seeded_fans()[case]
    fan = sfan.fan
    rays = [list(r) for r in fan.rays]
    rng = random.Random(case)
    points = random_points(rng, fan.ambient_dim, 40)
    for p in points:
        assert fan.minimal_cone([p]) == \
            oracles.minimal_cone(rays, fan.max_cones, [p]), p
        for face in fan.faces():
            assert fan.cone_coefficients(face, p) == \
                oracles.cone_coefficients(rays, face, p), (face, p)
    for pair in itertools.combinations(points[:16], 2):
        assert fan.minimal_cone(pair) == \
            oracles.minimal_cone(rays, fan.max_cones, pair), pair


@pytest.mark.parametrize("case", range(11))
def test_box_queries_match_oracle(case):
    sfan = seeded_fans()[case]
    rank, torsion = sfan.group.rank, sfan.group.torsion
    lifts = lifts_of(sfan)
    for face in sfan.fan.faces():
        got = {b.value: (b.min_cone, b.coeffs)
               for b in sfan.box_of_cone(face)}
        assert got == oracles.box_elements(rank, torsion, lifts, face), face
    rng = random.Random(100 + case)
    for _ in range(40):
        c = tuple(rng.randint(-6, 6) for _ in range(rank)) + \
            tuple(rng.randrange(q) for q in torsion)
        box, mult = sfan.box_decompose(c)
        want = oracles.box_decompose(rank, torsion, lifts,
                                     sfan.fan.max_cones, c)
        assert (box.value, box.min_cone, box.coeffs, mult) == want, c


# rays 0, 1, 2 = e1, e2, e1 + e2: cone (0, 2) lies inside cone (0, 1)
OVERLAP_RAYS = ((1, 0), (0, 1), (1, 1), (-1, -1))


@pytest.mark.parametrize("cones", [((0, 1), (0, 2), (1, 3)),
                                   ((0, 2), (0, 1), (1, 3))])
def test_unvalidated_overlapping_fan_takes_first_cone(cones):
    fan = SimplicialFan(2, OVERLAP_RAYS, cones)
    rays = [list(r) for r in OVERLAP_RAYS]
    # (2, 1) lies in both overlapping cones, with different supports
    want = (0, 1) if cones[0] == (0, 1) else (0, 2)
    assert fan.minimal_cone([(2, 1)]) == want
    # (1, 2) lies in cone (0, 1) only, so the pair must skip cone (0, 2)
    assert fan.minimal_cone([(2, 1), (1, 2)]) == (0, 1)
    points = [(2, 1), (1, 2), (1, 1), (3, 1), (0, 1), (-1, -1), (0, -1)]
    for pts in itertools.chain(((p,) for p in points),
                               itertools.combinations(points, 2)):
        assert fan.minimal_cone(pts) == \
            oracles.minimal_cone(rays, cones, pts), pts
    # box_decompose splits over the same first cone
    sfan = ExtendedStackyFan.build(FgAbGroup(2), OVERLAP_RAYS, cones)
    for c in itertools.product(range(-2, 4), repeat=2):
        want = oracles.box_decompose(2, (), rays, cones, c)
        if want is None:
            with pytest.raises(OutsideSupport):
                sfan.box_decompose(c)
            continue
        box, mult = sfan.box_decompose(c)
        assert (box.value, box.min_cone, box.coeffs, mult) == want, c
    assert "BadIntersection" in [d.code for d in fan.validate()]


def complement_cases():
    rng = random.Random(7)
    cases = [fixtures.load_fan(name)
             for name in ("gerbe_z4z9", "p112", "p112_hirzebruch")]
    cases += [weighted_projective_fan(coprime_weights(rng, 4, top=3))
              for _ in range(2)]
    return cases


@pytest.mark.parametrize("case", range(5))
def test_box_complement_matches_old_scan(case):
    sfan = complement_cases()[case]
    rank, torsion = sfan.group.rank, sfan.group.torsion
    lifts = lifts_of(sfan)
    rays = [b[:rank] for b in lifts]
    candidates = {}
    box = sfan.box()
    pairs = 0
    for g1, g2 in itertools.product(box, repeat=2):
        sigma = oracles.minimal_cone(rays, sfan.fan.max_cones,
                                     [g1.value[:rank], g2.value[:rank]])
        if sigma is None:
            with pytest.raises(NoCommonCone):
                sfan.box_complement(g1, g2)
            continue
        if sigma not in candidates:
            candidates[sigma] = list(oracles.box_elements(
                rank, torsion, lifts, sigma))
        want = oracles.box_complements(rank, torsion, lifts, sigma,
                                       candidates[sigma], g1.value,
                                       g2.value)
        assert [sfan.box_complement(g1, g2).value] == want, (g1, g2)
        pairs += 1
    assert pairs >= len(box)


@pytest.mark.parametrize("found", [0, 2])
def test_box_complement_counts_doctored_matches(found):
    sfan = fixtures.load_fan("p112")
    zero, v = sfan.box()
    sigma = (0, 2)
    proj, table = sfan._box_by_projection(sigma)
    key = proj.target.neg(proj.apply(v.value))
    doctored = {k: list(ws) for k, ws in table.items()}
    doctored[key] = [zero, v][:found]
    sfan._complements[sigma] = (proj, doctored)
    with pytest.raises(NoCommonCone,
                       match=f"expected exactly one complement, "
                             f"found {found}"):
        sfan.box_complement(zero, v)
