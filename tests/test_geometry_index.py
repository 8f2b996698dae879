"""The fan's cone queries, its validation, the complement formula and
the quotient stacky fans, checked against the brute-force references in
oracles.py.

The oracles scan every maximal cone with Cramer's rule, first match
wins; validate is compared with the old minimal-support extreme-ray
check, box_complement and obstruction_exponents with the old scan over
Box(sigma), and local_group and quotient_stacky_fan with the cokernel of
the cone's lifts and a scan of the faces.
"""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest

import oracles
from generators import (complete_2d_fan, coprime_weights,
                        weighted_projective_fan)
from stackyring import fixtures, linalg
from stackyring.documents import fan_to_document
from stackyring.errors import (InfiniteCokernel, NoCommonCone, NotASector,
                               OutsideSupport, StackyError)
from stackyring.fan import SimplicialFan
from stackyring.inertia import obstruction_exponents, three_sectors
from stackyring.lattice import FgAbGroup
from stackyring.stacky import ExtendedStackyFan


def seeded_fans():
    rng = random.Random(20261018)
    fans = [weighted_projective_fan(coprime_weights(rng, 3))
            for _ in range(3)]
    fans += [weighted_projective_fan(coprime_weights(rng, 4, top=3))
             for _ in range(2)]
    fans += [complete_2d_fan(rng) for _ in range(6)]
    fans.append(weighted_projective_fan([1, 1, 1, 2, 3]))
    # unvalidated, with torsion: ray 2 is parallel to ray 0, and ray 4 is
    # in the span of rays 1 and 3 but not in the subgroup their lifts
    # generate, so Box of cones (0, 1, 2) and (1, 3, 4) has more elements
    # than the torsion of N modulo all of the cone's lifts
    fans.append(ExtendedStackyFan.build(
        FgAbGroup(2, (2,)),
        [(2, 0, 0), (0, 1, 0), (1, 0, 1), (-1, -1, 1), (-1, 2, 0)],
        [(0, 1, 2), (1, 3, 4), (0, 3)]))
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


@pytest.mark.parametrize("case", range(13))
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


@pytest.mark.parametrize("case", range(13))
def test_bar_gives_ints_that_fan_queries_take_as_fractions(case):
    sfan = seeded_fans()[case]
    rank, torsion = sfan.group.rank, sfan.group.torsion
    rng = random.Random(200 + case)
    elements = [b.value for b in sfan.box()] + [
        tuple(rng.randint(-6, 6) for _ in range(rank))
        + tuple(rng.randint(-6, 6) for _ in torsion) for _ in range(30)]
    int_points = []
    for c in elements:
        image = sfan.bar(c)
        assert all(type(x) is int for x in image), c
        assert image == tuple(Fraction(int(x)) for x in c[:rank]), c
        int_points.append(image)
    frac_points = [tuple(Fraction(x) for x in p) for p in int_points]
    # one fresh fan per kind of point, so neither reads the other's memo
    fan = sfan.fan
    by_int, by_frac = (SimplicialFan(fan.ambient_dim, fan.rays,
                                     fan.max_cones) for _ in range(2))
    for p, q in zip(int_points, frac_points):
        assert by_int.joint_coefficients([p]) == \
            by_frac.joint_coefficients([q]), p
        assert by_int.minimal_cone([p]) == by_frac.minimal_cone([q]), p
    pairs = list(zip(int_points, frac_points))
    for (p1, q1), (p2, q2) in itertools.combinations(pairs[:16], 2):
        assert by_int.minimal_cone([p1, p2]) == \
            by_frac.minimal_cone([q1, q2]), (p1, p2)


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
    # boxes of 27-34 elements: the scan below is quadratic in the box
    rng_2d = random.Random(1)
    cases += [complete_2d_fan(rng_2d, torsion=torsion)
              for torsion in ((2,), (3,), (2, 2))]
    # a gerbe over P^1 with three cyclic factors, its lifts twisted in each
    cases.append(ExtendedStackyFan.build(
        FgAbGroup(1, (2, 2, 3)), [(1, 1, 0, 2), (-1, 1, 1, 1)],
        [(0,), (1,)]))
    cases.append(seeded_fans()[-1])  # unvalidated, with torsion
    return cases


@pytest.mark.parametrize("case", range(10))
def test_box_complement_matches_old_scan(case):
    sfan = complement_cases()[case]
    rank, torsion = sfan.group.rank, sfan.group.torsion
    lifts = lifts_of(sfan)
    rays = [b[:rank] for b in lifts]
    candidates = {}
    box = sfan.box()
    by_value = {b.value: b for b in box}
    pairs = 0
    for g1, g2 in itertools.product(box, repeat=2):
        sigma = oracles.minimal_cone(rays, sfan.fan.max_cones,
                                     [g1.value[:rank], g2.value[:rank]])
        if sigma is None:
            with pytest.raises(NoCommonCone):
                sfan.box_complement(g1, g2)
            with pytest.raises(NotASector):
                obstruction_exponents(sfan, g1, g2, g1)
            continue
        if sigma not in candidates:
            candidates[sigma] = list(oracles.box_elements(
                rank, torsion, lifts, sigma))
        want = oracles.box_complements(rank, torsion, lifts, sigma,
                                       candidates[sigma], g1.value,
                                       g2.value)
        assert [sfan.box_complement(g1, g2).value] == want, (g1, g2)
        # obstruction_exponents accepts the scan's complement and no
        # other element of Box(sigma)
        for w in candidates[sigma]:
            if [w] == want:
                assert obstruction_exponents(sfan, g1, g2, by_value[w]) \
                    <= set(sigma), (g1, g2)
                continue
            with pytest.raises(NotASector):
                obstruction_exponents(sfan, g1, g2, by_value[w])
        pairs += 1
    assert pairs >= len(box)


def complement_families():
    rng = random.Random(20261027)
    # lifts (2, 0), (0, 2), (1, 1), (-1, -1): cone (0, 2) lies inside
    # cone (0, 1), and the boxes have 4, 2 and 2 elements
    lifts = ((2, 0), (0, 2), (1, 1), (-1, -1))
    return {
        "fixtures": [fixtures.load_fan(name)
                     for name in fixtures.FAN_FIXTURES],
        "dependent": [dependent_stacky_fan(rng) for _ in range(12)]
        + [seeded_fans()[-1]],
        "overlapping": [ExtendedStackyFan.build(FgAbGroup(2), lifts, cones)
                        for cones in (((0, 1), (0, 2), (1, 3)),
                                      ((0, 2), (0, 1), (1, 3)))],
    }


@pytest.mark.parametrize("family", ["fixtures", "dependent", "overlapping"])
def test_complement_keeps_the_pair_minimal_cone(family):
    """The images of v1, v2 and box_complement(v1, v2) have the pair's
    joint cone as their minimal cone, on fans that validate() refuses
    too (see _complement_in)."""
    for sfan in complement_families()[family]:
        if family != "fixtures":
            assert sfan.validate() != []
        box = sfan.box()
        joint_pairs = 0
        for v1, v2 in itertools.product(box, repeat=2):
            pair = [sfan.bar(v1.value), sfan.bar(v2.value)]
            sigma = sfan.fan.minimal_cone(pair)
            if sigma is None:
                continue
            v3 = sfan.box_complement(v1, v2)
            assert sfan.fan.minimal_cone(pair + [sfan.bar(v3.value)]) \
                == sigma, (v1, v2)
            joint_pairs += 1
        # each v pairs with the zero element
        assert joint_pairs >= 2 * len(box) - 1


@pytest.mark.parametrize("caller", ["box_complement",
                                    "obstruction_exponents"])
def test_complement_outside_the_box_is_refused(caller):
    # the formula's value for (zero, v) over sigma = (0, 2) is v itself;
    # a Box(sigma) doctored to lack it must refuse, not answer
    sfan = fixtures.load_fan("p112")
    zero, v = sfan.box()
    record = sfan._record((0, 2))
    record.box = {w: b for w, b in record.box.items() if w != v.value}
    message = re.escape(f"complement {v.value} is not in Box(0, 2)")
    if caller == "box_complement":
        with pytest.raises(NoCommonCone, match=message):
            sfan.box_complement(zero, v)
    else:
        with pytest.raises(NotASector, match=message):
            obstruction_exponents(sfan, zero, v, v)


def seeded_gerbe(rng):
    """A seeded gerbe over P^1 or P^2: torsion in N, twisted lifts, and
    two to four extra vectors, some with a free part."""
    torsion = rng.choice(((2, 2), (2, 3), (4,), (2, 2, 2)))
    dim = rng.choice((1, 2))
    dirs = [(1,), (-1,)] if dim == 1 else [(1, 0), (0, 1), (-1, -1)]
    lifts = [list(d) + [rng.randrange(q) for q in torsion] for d in dirs]
    extra = [[rng.randint(-1, 1) for _ in range(dim)]
             + [rng.randrange(q) for q in torsion]
             for _ in range(rng.randint(2, 4))]
    return ExtendedStackyFan.build(
        FgAbGroup(dim, torsion), lifts,
        itertools.combinations(range(len(dirs)), dim), extra)


@pytest.mark.parametrize("family", ["fixtures", "dependent", "overlapping",
                                    "gerbes"])
def test_zero_images_sit_in_the_first_maximal_cone(family):
    """The premise of _complement_in's path without a lookup: for two
    zero images, on a fan with a maximal cone, joint_coefficients
    answers empty supports, on fans validate() refuses too."""
    fans = dict(complement_families(), gerbes=[
        seeded_gerbe(random.Random(seed)) for seed in range(6)])[family]
    pairs = 0
    for sfan in fans:
        assert sfan.fan.max_cones
        zeros = [p for p in map(sfan.bar, (b.value for b in sfan.box()))
                 if not any(p)]
        for p1, p2 in itertools.product(zeros, repeat=2):
            assert sfan.fan.joint_coefficients([p1, p2]) == \
                [((), ()), ((), ())]
            pairs += 1
    assert pairs >= len(fans)


@pytest.mark.parametrize("family", ["fixtures", "gerbes"])
def test_zero_cone_box_is_the_torsion_of_n(family):
    """The premise of _complement_in's zero-image path: Box(()) is the
    torsion subgroup of N, one element per reduced value, with the zero
    free part (box_of_cone's proof with J empty). So -(v1 + v2) of two
    zero images always lies in it, and the pair's sector has the zero
    cone, no ceilings and no obstruction rays."""
    fans = {"fixtures": [fixtures.load_fan(name)
                         for name in fixtures.FAN_FIXTURES],
            "gerbes": [seeded_gerbe(random.Random(seed))
                       for seed in range(6)]}[family]
    pairs = 0
    for sfan in fans:
        group = sfan.group
        free = (0,) * group.rank
        box = sfan.box_of_cone(())
        values = {b.value for b in box}
        assert len(box) == math.prod(group.torsion), sfan
        assert values == {free + t for t in itertools.product(
            *(range(q) for q in group.torsion))}, sfan
        assert {(b.min_cone, b.coeffs, b.age) for b in box} == {
            ((), (), 0)}, sfan
        zeros = [b for b in sfan.box() if not any(sfan.bar(b.value))]
        assert [b.value for b in zeros] == [b.value for b in box], sfan
        for g1, g2 in itertools.product(zeros, repeat=2):
            g3 = sfan.box_complement(g1, g2)
            assert g3.value == group.reduce(
                [-x - y for x, y in zip(g1.value, g2.value)])
            assert obstruction_exponents(sfan, g1, g2, g3) == frozenset()
            pairs += 1
        zero_sectors = [s for s in three_sectors(sfan)
                        if {g.value for g in s.elements[:2]} <= values]
        assert len(zero_sectors) == len(zeros) ** 2, sfan
        assert {(s.joint_cone, s.ceilings, s.obstruction_rays)
                for s in zero_sectors} == {((), (), frozenset())}, sfan
    assert pairs >= len(fans)


def formula_cases():
    # boxes of 34 and 18 elements: the oracle scan is cubic in the box
    rng = random.Random(20261026)
    cases = [complete_2d_fan(rng, torsion=torsion)
             for torsion in ((2,), (3,))]
    cases += [weighted_projective_fan(coprime_weights(rng, 4, top=4))
              for _ in range(3)]
    cases += [seeded_gerbe(rng) for _ in range(3)]
    return cases


@pytest.mark.parametrize("case", range(8))
def test_complements_and_obstruction_rays_match_oracles(case):
    # each 3-sector's g3 is the old scan's one complement, and its
    # obstruction rays are the rays where the coefficient of g1 + g2 + g3
    # over the joint cone is 2, solved by Cramer's rule
    sfan = formula_cases()[case]
    assert sfan.validate() == []
    rank, torsion = sfan.group.rank, sfan.group.torsion
    lifts = lifts_of(sfan)
    rays = [b[:rank] for b in lifts]
    candidates = {}
    reached = set()
    for sector in three_sectors(sfan):
        g1, g2, g3 = sector.elements
        sigma = sector.joint_cone
        if sigma not in candidates:
            candidates[sigma] = list(oracles.box_elements(
                rank, torsion, lifts, sigma))
        assert oracles.box_complements(
            rank, torsion, lifts, sigma, candidates[sigma], g1.value,
            g2.value) == [g3.value], sector
        assert sfan.box_complement(g1, g2) == g3, sector
        total = [x + y + z for x, y, z in zip(g1.value, g2.value, g3.value)]
        coeffs = oracles.cone_coefficients(rays, sigma, total[:rank])
        assert set(coeffs) <= {1, 2}, sector
        rays_two = frozenset(i for i, a in zip(sigma, coeffs) if a == 2)
        assert obstruction_exponents(sfan, g1, g2, g3) == rays_two, sector
        assert sector.obstruction_rays == rays_two, sector
        assert sector.total_age == sum(coeffs), sector
        # the elements' own ages share no ceiling with total_age
        assert sector.total_age == g1.age + g2.age + g3.age, sector
        alpha = dict(zip(g1.min_cone, g1.coeffs))
        beta = dict(zip(g2.min_cone, g2.coeffs))
        for i in sigma:
            total_i = alpha.get(i, 0) + beta.get(i, 0)
            reached.add("sum 1" if total_i == 1 else
                        "above 1" if total_i > 1 else "below 1")
    if case >= 5:
        # a gerbe's box elements are torsion: every joint cone is zero
        assert list(candidates) == [()]
    else:
        # coefficient sums of exactly 1 are where ceil and floor + 1 differ
        assert {"sum 1", "above 1", "below 1"} <= reached


def random_fan(rng, dim):
    """Seeded rays in [-2, 2]^dim and a few seeded cones: mostly invalid."""
    rays = tuple(tuple(rng.randint(-2, 2) for _ in range(dim))
                 for _ in range(rng.randint(dim, dim + 3)))
    cones = tuple(tuple(rng.sample(range(len(rays)), rng.randint(1, dim)))
                  for _ in range(rng.randint(2, 4)))
    return SimplicialFan(dim, rays, cones)


def validation_families():
    rng = random.Random(11)
    disjoint = []
    for dim in (4, 5):
        for _ in range(5):
            rays = tuple(tuple(rng.randint(-2, 2) for _ in range(dim))
                         for _ in range(2 * dim - 2))
            disjoint.append(SimplicialFan(
                dim, rays, (tuple(range(dim - 1)),
                            tuple(range(dim - 1, 2 * dim - 2)))))
    return {
        "fixtures": [fixtures.load_fan(name).fan
                     for name in fixtures.FAN_FIXTURES]
        + [sfan.fan for sfan in seeded_fans()],
        "wps": [weighted_projective_fan(
            coprime_weights(rng, rng.randint(2, 5), top=4)).fan
            for _ in range(30)],
        "complete_2d": [complete_2d_fan(rng).fan for _ in range(40)],
        "random": [random_fan(rng, rng.randint(1, 4)) for _ in range(200)],
        "disjoint_pairs": disjoint,
    }


@pytest.mark.parametrize("family", ["fixtures", "wps", "complete_2d",
                                    "random", "disjoint_pairs"])
def test_validate_matches_extreme_ray_check(family):
    fans = validation_families()[family]
    codes = set()
    for fan in fans:
        got = [(d.code, d.detail) for d in fan.validate()]
        assert got == oracles.fan_diagnostics(fan.rays, fan.max_cones), fan
        codes.update(code for code, detail in got
                     if not detail.endswith("are nested"))
    if family in ("random", "disjoint_pairs"):
        # both verdicts of the separation are reached
        assert "BadIntersection" in codes


def test_validate_takes_no_nullspace(monkeypatch):
    """validate takes each pair's annihilator of the common rays from the
    check rows of the common face's solver, not from an elimination of
    its own."""
    def refused(matrix):
        raise AssertionError("validate called linalg.nullspace")

    monkeypatch.setattr(linalg, "nullspace", refused)
    codes = set()
    for fans in validation_families().values():
        for fan in fans:
            codes.update(d.code for d in fan.validate())
    assert "BadIntersection" in codes


def test_validate_builds_solvers_for_maximal_cones_only():
    """validate reads each wall's annihilator off the solver of one of its
    two maximal cones, which it builds anyway to see that their rays are
    independent, so on a fresh complete fan it builds no other solver."""
    rng = random.Random(28)
    fans = [complete_2d_fan(rng).fan for _ in range(5)]
    fans += [weighted_projective_fan(w).fan
             for w in ([1, 2, 3], [1, 1, 2, 3], [1, 2, 3, 5, 7])]
    for fan in fans:
        fresh = SimplicialFan(fan.ambient_dim, fan.rays, fan.max_cones)
        assert fresh.validate() == [] and fresh.is_complete()
        assert set(fresh._solvers) == set(fresh.max_cones), fan


def dependent_stacky_fan(rng):
    """A seeded stacky fan, with torsion, where some cone has dependent
    rays, so validate() refuses it."""
    while True:
        rank = rng.randint(1, 3)
        torsion = rng.choice(((), (2,), (3,), (2, 2)))
        group = FgAbGroup(rank, torsion)
        lifts = []
        while len(lifts) < rank + 2:
            free = [rng.randint(-2, 2) for _ in range(rank)]
            if any(free):
                lifts.append(free + [rng.randrange(q) for q in torsion])
        cones = [rng.sample(range(len(lifts)), rng.randint(1, rank + 1))
                 for _ in range(rng.randint(2, 4))]
        try:
            sfan = ExtendedStackyFan.build(group, lifts, cones)
        except InfiniteCokernel:
            continue
        if "NotSimplicial" in [d.code for d in sfan.validate()]:
            return sfan


def quotient_families():
    rng = random.Random(20261019)
    return {
        "fixtures": [fixtures.load_fan(name)
                     for name in fixtures.FAN_FIXTURES],
        "complete_2d": [complete_2d_fan(rng, torsion=torsion)
                        for torsion in ((2,), (3,), (2, 2), (4,))],
        "wps": [weighted_projective_fan(coprime_weights(rng, 4))
                for _ in range(3)]
        + [weighted_projective_fan(coprime_weights(rng, 5, top=3))
           for _ in range(2)],
        "dependent": [dependent_stacky_fan(rng) for _ in range(12)]
        + [seeded_fans()[-1]],
    }


def independent(sfan, cone):
    rank = sfan.group.rank
    return len(oracles.independent_columns(
        [sfan.ray_lifts[i][:rank] for i in cone])) == len(cone)


@pytest.mark.parametrize("family", ["fixtures", "complete_2d", "wps",
                                    "dependent"])
def test_local_group_and_quotient_match_cokernel_reference(family):
    outcomes = set()
    for sfan in quotient_families()[family]:
        rank, torsion = sfan.group.rank, sfan.group.torsion
        lifts = lifts_of(sfan)
        extra = [list(b) for b in sfan.extra]
        for sigma in sfan.fan.faces():
            if len(sigma) > 4:
                continue
            local, proj, want = oracles.quotient_stacky_fan(
                rank, torsion, lifts, sfan.fan.max_cones, extra, sigma)
            got, got_proj = sfan.local_group(sigma)
            assert (got, got_proj.matrix) == (local, proj.matrix), sigma
            outcomes.add(independent(sfan, sigma))
            if not sigma:
                assert sfan.quotient_stacky_fan(sigma) is sfan
                continue
            if isinstance(want, str):
                with pytest.raises(StackyError, match=re.escape(want)):
                    sfan.quotient_stacky_fan(sigma)
                outcomes.add(want.split()[0])
                continue
            assert fan_to_document(sfan.quotient_stacky_fan(sigma)) == \
                want, sigma
    if family == "dependent":
        # cones with dependent rays, and both refusals, are reached
        assert {False, "link", "ray"} <= outcomes


@pytest.mark.parametrize("family", ["fixtures", "dependent"])
def test_local_group_leaves_box_to_box_of_cone(family):
    # Box(sigma), read off the record that local_group built, is the one
    # a fresh fan reads
    fans, fresh = quotient_families()[family], quotient_families()[family]
    for sfan, other in zip(fans, fresh):
        for sigma in sfan.fan.faces():
            if len(sigma) > 4:
                continue
            sfan.local_group(sigma)
            assert sfan.box_of_cone(sigma) == other.box_of_cone(sigma), sigma


@pytest.mark.parametrize("family", ["fixtures", "seeded", "complement"])
def test_record_coefficients_match_a_solve(family):
    # a record's coefficients of w over sigma, on independent and
    # dependent rays alike, must be those span_coefficients gives
    fans = {"fixtures": [fixtures.load_fan(name)
                         for name in fixtures.FAN_FIXTURES],
            "seeded": seeded_fans(),
            "complement": complement_cases()}[family]
    reached = set()
    for sfan in fans:
        for sigma in sfan.fan.faces():
            if len(sigma) > 4:
                continue
            record = sfan._record(sigma)
            for value, w in record.box.items():
                assert value == w.value
                span = sfan.fan.span_coefficients(sigma, sfan.bar(w.value))
                assert [(i, a) for i, a in zip(sigma, span) if a] == \
                    list(zip(w.min_cone, w.coeffs)), (sigma, w)
            if not independent(sfan, sigma):
                reached.add("dependent")
                continue
            group = record.proj.target
            if group.rank and len(record.box) > 1:
                reached.add("free and torsion")
            if len(group.torsion) > 1:
                reached.add("two torsion factors")
    want = {"fixtures": {"free and torsion"},
            "seeded": {"free and torsion", "dependent"},
            "complement": {"free and torsion", "two torsion factors",
                           "dependent"}}[family]
    assert want <= reached


@pytest.mark.parametrize("family", ["fixtures", "seeded"])
def test_in_cone_sublattice_matches_oracle(family):
    fans = ([fixtures.load_fan(name) for name in fixtures.FAN_FIXTURES]
            if family == "fixtures" else seeded_fans())
    rng = random.Random(17)
    verdicts = set()
    for sfan in fans:
        rank, torsion = sfan.group.rank, sfan.group.torsion
        lifts = lifts_of(sfan)
        for sigma in sfan.fan.faces():
            if not independent(sfan, sigma):
                continue
            for _ in range(6):
                # a combination of the cone's lifts, moved off the
                # subgroup about half of the time
                vec = [0] * sfan.group.coords
                for i in sigma:
                    k = rng.randint(-2, 2)
                    vec = [x + k * y for x, y in zip(vec, lifts[i])]
                if rng.random() < 0.5:
                    vec = [x + rng.randint(-1, 1) for x in vec]
                want = oracles.in_cone_sublattice(rank, torsion, lifts,
                                                  sigma, vec)
                assert sfan.in_cone_sublattice(sigma, vec) == want, \
                    (sigma, vec)
                verdicts.add(want)
    assert verdicts == {True, False}
