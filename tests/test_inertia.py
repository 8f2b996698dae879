import collections
import dataclasses
import random
import re
from fractions import Fraction

import pytest

from generators import (complete_2d_fan, coprime_weights,
                        weighted_projective_fan)
from stackyring import fixtures, inertia, lattice, stacky
from stackyring.errors import NotASector, TooManyTuples, UnexpectedCoefficient
from stackyring.fan import SimplicialFan
from stackyring.inertia import (inertia_components, obstruction_exponents,
                                three_sectors)
from stackyring.lattice import FgAbGroup
from stackyring.stacky import ExtendedStackyFan


def p113():
    return ExtendedStackyFan.build(FgAbGroup(2, ()),
                                   [[1, 0], [0, 1], [-1, -3]],
                                   [[0, 1], [1, 2], [0, 2]])


def test_first_inertia_is_the_box(p112):
    comps = inertia_components(p112, 1)
    assert [c.elements[0].value for c in comps] == [(0, 0), (0, -1)]
    assert [c.total_age for c in comps] == [0, 1]
    # the twisted component is supported on the singular cone
    assert comps[1].joint_cone == (0, 2)
    assert comps[1].quotient.group.order() == 2


def test_second_inertia_counts():
    assert len(inertia_components(fixtures.load_fan("p112"), 2)) == 4
    assert len(inertia_components(fixtures.load_fan("p2"), 2)) == 1
    assert len(inertia_components(fixtures.load_fan("gerbe_r2"), 2)) == 4


def test_inertia_rejects_nonpositive_order(p112):
    with pytest.raises(ValueError):
        inertia_components(p112, 0)


def test_inertia_order_is_an_integer(p112):
    """r is read as every integer input of the package: "2" and
    Fraction(2) as 2, and 2.0 and True refused, naming them; both used to
    end in a TypeError or be taken as 1."""
    def shape(r):
        return [(c.elements, c.joint_cone, c.total_age)
                for c in inertia_components(p112, r)]
    assert shape("2") == shape(Fraction(2)) == shape(2)
    assert len(shape(2)) == 4
    for r in (2.0, True):
        with pytest.raises(ValueError, match=rf"^order {re.escape(repr(r))}"
                                             r" is not an exact rational$"):
            inertia_components(p112, r)
    with pytest.raises(ValueError, match=r"^order 3/2 is not an integer$"):
        inertia_components(p112, Fraction(3, 2))
    with pytest.raises(ValueError, match=r"^r must be positive$"):
        inertia_components(p112, 0)


def test_inertia_refuses_past_the_entry_bound(p112, monkeypatch):
    """r |Box|^r box elements are allowed up to the bound and refused
    beyond it, before any tuple is made, naming r, |Box| and the bound."""
    monkeypatch.setattr(inertia, "INERTIA_ENTRY_BOUND", 4 * 2 ** 4)
    assert len(inertia_components(p112, 4)) == 2 ** 4
    with pytest.raises(TooManyTuples, match=r"^inertia order r = 5 over "
                       r"\|Box\| = 2: .* > 64 box elements, the bound$"):
        inertia_components(p112, 5)
    # a box of one element bounds r itself
    p2 = fixtures.load_fan("p2")
    assert len(inertia_components(p2, 64)) == 1
    with pytest.raises(TooManyTuples, match=r"r = 65 over \|Box\| = 1"):
        inertia_components(p2, 65)


def test_inertia_refuses_high_orders_at_once():
    """On BG(Z/4 x Z/9), |Box| = 36, r = 3 holds 139,968 entries and is
    walked; r = 4, 6 and 10^9 are refused without a walk."""
    sfan = fixtures.load_fan("gerbe_z4z9")
    for r in (4, 6, 10 ** 9):
        with pytest.raises(TooManyTuples,
                           match=rf"^inertia order r = {r} over \|Box\| = 36: "
                                 r".* > 1000000 box elements, the bound$"):
            inertia_components(sfan, r)


def test_three_sectors_refuse_past_the_entry_bound(p112, monkeypatch):
    """The pairs, 2 |Box|^2 box elements, are walked up to the bound and
    refused beyond it before any complement is taken."""
    calls = []
    complement_in = ExtendedStackyFan._complement_in

    def counted(self, v1, v2):
        calls.append((v1, v2))
        return complement_in(self, v1, v2)

    monkeypatch.setattr(ExtendedStackyFan, "_complement_in", counted)
    monkeypatch.setattr(inertia, "INERTIA_ENTRY_BOUND", 2 * 2 ** 2)
    assert len(three_sectors(p112)) == 4
    assert len(calls) == 2 ** 2
    calls.clear()
    monkeypatch.setattr(inertia, "INERTIA_ENTRY_BOUND", 2 * 2 ** 2 - 1)
    with pytest.raises(TooManyTuples, match=r"^3-sector pairs, r = 2, over "
                       r"\|Box\| = 2: .* > 7 box elements, the bound$"):
        three_sectors(p112)
    assert calls == []


def test_three_sector_counts():
    expected = {"p1": 1, "p2": 1, "p112": 4, "p112_hirzebruch": 1,
                "example_rank1": 7, "gerbe_r2": 4, "gerbe_r3": 9}
    for name, count in expected.items():
        assert len(three_sectors(fixtures.load_fan(name))) == count, name


def test_three_sector_complement_closes_the_triple(p112):
    for sector in three_sectors(p112):
        g1, g2, g3 = sector.elements
        total = p112.group.add(p112.group.add(g1.value, g2.value), g3.value)
        cone = sector.joint_cone
        coeffs = p112.fan.cone_coefficients(cone, p112.bar(total))
        assert coeffs is not None
        assert all(a == int(a) for a in coeffs)


def test_obstruction_trivial_for_inverse_pairs():
    for name in ("p112", "gerbe_r3", "example_rank1"):
        sfan = fixtures.load_fan(name)
        box = {b.value: b for b in sfan.box()}
        zero = box[sfan.group.zero()]
        for b in box.values():
            comp = sfan.box_complement(b, zero)
            assert obstruction_exponents(sfan, b, zero, comp) == frozenset()


def test_obstruction_exponents_nontrivial():
    sfan = p113()
    box = {b.value: b for b in sfan.box()}
    v2 = box[(0, -2)]
    assert v2.age == Fraction(4, 3)
    comp = sfan.box_complement(v2, v2)
    assert comp.value == (0, -2)
    rays = obstruction_exponents(sfan, v2, v2, v2)
    assert rays == frozenset({0, 2})

    v1 = box[(0, -1)]
    assert sfan.box_complement(v1, v1).value == (0, -1)
    # ages 2/3 + 2/3 + 2/3 = 2: both cone coefficients equal 1
    assert obstruction_exponents(sfan, v1, v1, v1) == frozenset()


def test_obstruction_rejects_wrong_complement():
    sfan = p113()
    box = {b.value: b for b in sfan.box()}
    v1, v2 = box[(0, -1)], box[(0, -2)]
    with pytest.raises(NotASector):
        obstruction_exponents(sfan, v1, v1, v2)


def test_obstruction_refuses_a_coefficient_sum_of_three(p112):
    # g1 = v + 2 b_2 is no box element: its coefficients over (0, 2) are
    # 1/2 and 5/2, so the ceilings are 1 and 3, and v completes the triple
    zero, v = p112.box()
    g1 = stacky.BoxElement((-2, -5), (0, 2), (Fraction(1, 2),
                                              Fraction(5, 2)), 3)
    assert p112.box_complement(g1, zero) == v
    with pytest.raises(UnexpectedCoefficient, match=re.escape(
            "coefficients [1, 3] of g1 + g2 + g3 over (0, 2) are not all "
            "in {1, 2}")):
        obstruction_exponents(p112, g1, zero, v)


def test_obstruction_rays_check_every_ceiling():
    # no ceilings (the zero cone) give no rays; a ceiling of 3 on one ray
    # is still refused
    assert inertia._obstruction_rays((), ()) == frozenset()
    with pytest.raises(UnexpectedCoefficient, match=re.escape(
            "coefficients [3] of g1 + g2 + g3 over (0,) are not all in "
            "{1, 2}")):
        inertia._obstruction_rays((0,), [3])


def test_obstruction_refuses_a_doctored_complement(p112):
    # the complement's value with another cone, coefficients or age is
    # not the complement; an equal copy of it is
    zero, v = p112.box()
    comp = p112.box_complement(v, zero)
    assert obstruction_exponents(p112, v, zero,
                                 dataclasses.replace(comp)) == frozenset()
    for change in ({"min_cone": (1,)}, {"coeffs": (Fraction(1, 3),)},
                   {"age": 7}, {"min_cone": (1,), "age": 7,
                                "coeffs": (Fraction(1, 3),)}):
        doctored = dataclasses.replace(comp, **change)
        assert doctored.value == comp.value
        with pytest.raises(NotASector, match=re.escape(
                f"g3 = {doctored} is not the complement {comp} of "
                f"(g1, g2)")):
            obstruction_exponents(p112, v, zero, doctored)


def test_three_sectors_refuse_a_coefficient_of_three(p112, monkeypatch):
    # the pair (g1, 0) of the test above, met by three_sectors in a box
    # doctored to hold g1, gets the same refusal from its sector's rays
    zero, _ = p112.box()
    g1 = stacky.BoxElement((-2, -5), (0, 2), (Fraction(1, 2),
                                              Fraction(5, 2)), 3)
    monkeypatch.setattr(stacky.ExtendedStackyFan, "box",
                        lambda self: (zero, g1))
    sectors = three_sectors(p112)
    bad = [s for s in sectors if s.elements[:2] == (g1, zero)]
    assert [s.ceilings for s in bad] == [(1, 3)]
    with pytest.raises(UnexpectedCoefficient, match=re.escape(
            "coefficients [1, 3] of g1 + g2 + g3 over (0, 2) are not all "
            "in {1, 2}")):
        bad[0].obstruction_rays


def test_all_fixture_sectors_validate():
    for name in fixtures.FAN_FIXTURES:
        sfan = fixtures.load_fan(name)
        for sector in three_sectors(sfan):
            rays = obstruction_exponents(sfan, *sector.elements)
            assert rays <= set(sector.joint_cone)
            # three_sectors' own rays, which the sectors command prints
            assert sector.obstruction_rays == rays
        # r-sectors carry none
        assert {c.obstruction_rays
                for c in inertia_components(sfan, 2)} == {None}


@pytest.mark.parametrize("name", fixtures.FAN_FIXTURES)
def test_obstruction_accepts_exactly_the_complement(name):
    sfan = fixtures.load_fan(name)
    box = sfan.box()
    for pair in inertia_components(sfan, 2):
        g1, g2 = pair.elements
        complement = sfan.box_complement(g1, g2)
        for g3 in box:
            if g3.value == complement.value:
                obstruction_exponents(sfan, g1, g2, g3)
                continue
            with pytest.raises(NotASector):
                obstruction_exponents(sfan, g1, g2, g3)
        # the class of the complement in N(sigma), outside Box(sigma)
        for i in pair.joint_cone:
            shifted = dataclasses.replace(complement, value=sfan.group.add(
                complement.value, sfan.ray_lifts[i]))
            with pytest.raises(NotASector, match="is not the complement"):
                obstruction_exponents(sfan, g1, g2, shifted)


def _identity_cases():
    rng = random.Random(20261018)
    fans = [fixtures.load_fan(name) for name in fixtures.FAN_FIXTURES]
    fans += [weighted_projective_fan(w)
             for w in ((1, 1, 2, 4), (1, 2, 2, 3), (1, 2, 3, 5), (1, 1, 1, 3))]
    fans += [weighted_projective_fan(coprime_weights(rng, 4))
             for _ in range(2)]
    fans += [complete_2d_fan(rng) for _ in range(6)]
    return fans


def test_sector_pair_is_the_inverse_times_rays():
    """g1 + g2 = v3' + sum_{i in R} b_i and age(g1) + age(g2) = age(v3') + |R|.

    v3' is the box element of the inverse of g3, and R is the union of
    the obstruction rays and (sigma(g1) u sigma(g2)) minus sigma(g3).
    """
    checked = 0
    for sfan in _identity_cases():
        zero = sfan.box()[0]
        for sector in three_sectors(sfan):
            g1, g2, g3 = sector.elements
            inverse = sfan.box_complement(g3, zero)
            rays = obstruction_exponents(sfan, g1, g2, g3) | (
                set(g1.min_cone) | set(g2.min_cone)) - set(g3.min_cone)
            rhs = inverse.value
            for i in rays:
                rhs = sfan.group.add(rhs, sfan.ray_lifts[i])
            assert sfan.group.add(g1.value, g2.value) == rhs, sector
            assert g1.age + g2.age == inverse.age + len(rays), sector
            checked += 1
    assert checked > 1000


def test_three_sectors_find_each_geometry_once(monkeypatch):
    sfan = weighted_projective_fan((1, 2, 3, 5, 7))
    calls = collections.Counter()
    quotient_cones = []

    def counted(owner, name, record=None):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            if record is not None:
                record.append(args[1])
            return original(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(lattice, "smith_normal_form")
    counted(stacky, "smith_normal_form")
    counted(ExtendedStackyFan, "box_complement")
    counted(ExtendedStackyFan, "quotient_stacky_fan", quotient_cones)
    counted(SimplicialFan, "joint_coefficients")
    counted(SimplicialFan, "minimal_cone")
    sectors = three_sectors(sfan)
    # one joint-cone lookup per ordered pair, inside _complement_in, but
    # for the pairs of zero images, which take none
    box = sfan.box()
    zeros = sum(1 for b in box if not any(sfan.bar(b.value)))
    assert zeros == 1
    assert calls["joint_coefficients"] == len(box) ** 2 - zeros ** 2
    assert calls["minimal_cone"] == 0
    for sector in sectors:
        obstruction_exponents(sfan, *sector.elements)
    assert len(sectors) == 84
    assert calls["box_complement"] == 0
    assert sorted(quotient_cones) == sorted({s.joint_cone for s in sectors})
    # six cone records (the five maximal cones and the zero cone), and
    # none for the quotients: local_group reads N(sigma) off sigma's
    # record, and a quotient fan's finiteness check is a rank
    assert calls["smith_normal_form"] == 6
    zero = sectors[0].elements[0]
    sfan.box_complement(zero, zero)
    assert calls["box_complement"] == 1  # the counter is live


def test_gerbe_sectors_take_no_joint_cone_lookup(monkeypatch):
    """On BG(Z/4 x Z/9) every box element has image zero, so no pair of
    three_sectors or obstruction_exponents asks for its joint cone."""
    sfan = fixtures.load_fan("gerbe_z4z9")
    calls = []
    original = SimplicialFan.joint_coefficients

    def counted(self, points):
        calls.append(points)
        return original(self, points)
    monkeypatch.setattr(SimplicialFan, "joint_coefficients", counted)
    sectors = three_sectors(sfan)
    for sector in sectors:
        assert obstruction_exponents(sfan, *sector.elements) == frozenset()
    assert len(sectors) == 36 ** 2
    assert {s.joint_cone for s in sectors} == {()}
    assert calls == []


def test_sectors_take_each_cone_smith_form_once(monkeypatch):
    """box() takes the four maximal cones' Smith forms; the joint cones
    (), (0, 1) and (0, 1, 2) add two, as (0, 1, 2) reuses its record."""
    sfan = weighted_projective_fan((1, 1, 2, 4))
    matrices = []
    original = stacky.smith_normal_form

    def counted(matrix):
        matrices.append(tuple(map(tuple, matrix)))
        return original(matrix)
    monkeypatch.setattr(stacky, "smith_normal_form", counted)
    sectors = three_sectors(sfan)
    for sector in sectors:
        obstruction_exponents(sfan, *sector.elements)
    assert len(sectors) == 16
    assert sorted(sfan.fan.max_cones) == [(0, 1, 2), (0, 1, 3), (0, 2, 3),
                                          (1, 2, 3)]
    assert {s.joint_cone for s in sectors} == {(), (0, 1), (0, 1, 2)}
    assert len(matrices) == 6
    assert len(set(matrices)) == 6
