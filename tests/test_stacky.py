"""Box elements, decomposition, and quotient stacky fans."""

import dataclasses
from fractions import Fraction

import pytest

import oracles
from stackyring import fixtures, stacky
from stackyring.errors import (InfiniteCokernel, NoCommonCone, NotASector,
                               OutsideSupport, TooManyTuples)
from stackyring.inertia import obstruction_exponents
from stackyring.lattice import FgAbGroup
from stackyring.stacky import BoxElement, ExtendedStackyFan


def half_line():
    # incomplete fan: single ray on the line
    return ExtendedStackyFan.build(FgAbGroup(1, ()), [[1]], [[0]], [[-1]])


def test_build_rejects_bad_input():
    with pytest.raises(InfiniteCokernel):
        ExtendedStackyFan.build(FgAbGroup(2, ()), [[1, 0], [-1, 0]],
                                [[0], [1]])
    with pytest.raises(ValueError):
        # zero ray lift has no direction
        ExtendedStackyFan.build(FgAbGroup(1, ()), [[0]], [[0]])


@pytest.mark.parametrize("bad, message", [
    (1.5, "coordinate 1.5 is not an exact rational"),
    (True, "coordinate True is not an exact rational"),
    (Fraction(3, 2), "coordinate 3/2 is not an integer")])
def test_inexact_coordinates_are_refused(p112, bad, message):
    # bar and BoxElement take coordinates as lattice._integers does, so
    # neither truncates 3/2 to 1
    with pytest.raises(ValueError, match=message):
        p112.bar((bad, 0))
    with pytest.raises(ValueError, match=message):
        BoxElement((bad, 0), (), (), 0)
    assert p112.bar((Fraction(2), 0)) == (2, 0)
    value = BoxElement((Fraction(2), 0), (), (), 0).value
    assert value == (2, 0) and type(value[0]) is int


def test_box_p112(p112):
    box = p112.box()
    assert [b.value for b in box] == [(0, 0), (0, -1)]
    zero, v = box
    assert zero.age == 0 and zero.min_cone == ()
    assert v.min_cone == (0, 2)
    assert v.coeffs == (Fraction(1, 2), Fraction(1, 2))
    assert v.age == 1


def test_box_matches_oracle_on_top_cones():
    for name in fixtures.FAN_FIXTURES:
        sfan = fixtures.load_fan(name)
        for cone in sfan.fan.max_cones:
            got = {b.value for b in sfan.box_of_cone(cone)}
            want = oracles.box_values(sfan.group.rank, sfan.group.torsion,
                                      [sfan.ray_lifts[i] for i in cone])
            assert got == want, (name, cone)


def test_box_of_face_is_subset():
    sfan = fixtures.load_fan("p112")
    top = {b.value for b in sfan.box_of_cone((0, 2))}
    for face in ((0,), (2,), ()):
        sub = {b.value for b in sfan.box_of_cone(face)}
        assert sub <= top


def test_box_decompose(p112):
    v, mult = p112.box_decompose((1, -1))
    assert v.value == (0, -1)
    assert {i: k for i, k in mult.items() if k} == {0: 1}

    v, mult = p112.box_decompose((-2, -5))
    assert v.value == (0, -1)
    assert {i: k for i, k in mult.items() if k} == {2: 2}

    v, mult = p112.box_decompose((0, 0))
    assert v.value == (0, 0)
    assert not any(mult.values())


def test_box_decompose_round_trip(p112):
    for c in ((3, 1), (-4, -9), (5, -2), (0, -3)):
        v, mult = p112.box_decompose(c)
        total = v.value
        for i, k in mult.items():
            total = p112.group.add(total,
                                   p112.group.scale(k, p112.ray_lifts[i]))
        assert total == c


def test_box_decompose_outside_support():
    sfan = half_line()
    with pytest.raises(OutsideSupport):
        sfan.box_decompose((-1,))


def test_box_complement(p112):
    zero, v = p112.box()
    assert p112.box_complement(v, v).value == (0, 0)
    assert p112.box_complement(zero, v).value == (0, -1)
    assert p112.box_complement(zero, zero).value == (0, 0)


@pytest.mark.parametrize("caller", ["box_complement",
                                    "obstruction_exponents"])
@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("value", [(0, -1, 5), (0,)],
                         ids=["long", "short"])
def test_complement_refuses_a_wrong_length_on_either_side(p112, caller,
                                                         side, value):
    """A value with more or fewer coordinates than N is refused as the
    first or the second element of the pair."""
    zero, half = p112.box()
    bad = dataclasses.replace(half, value=value)
    pair = [zero, zero]
    pair[side] = bad
    message = rf"^element length {len(value)} != 2$"
    with pytest.raises(ValueError, match=message):
        if caller == "box_complement":
            p112.box_complement(*pair)
        else:
            obstruction_exponents(p112, *pair, half)


def test_complement_without_a_maximal_cone_is_refused():
    """Two zero images take no lookup only where a maximal cone exists:
    BG(Z/2) with no cone at all still has no joint cone."""
    sfan = ExtendedStackyFan.build(FgAbGroup(0, (2,)), [], [], [(1,)])
    one = BoxElement((1,), (), (), 0)
    zero = BoxElement((0,), (), (), 0)
    assert sfan.fan.joint_coefficients([(), ()]) is None
    with pytest.raises(NoCommonCone, match="^v1 and v2 do not share a cone$"):
        sfan.box_complement(one, zero)
    with pytest.raises(NotASector, match="^g1 and g2 share no cone$"):
        obstruction_exponents(sfan, one, zero, one)


def test_smooth_refinement_box_is_trivial():
    sfan = ExtendedStackyFan.build(
        FgAbGroup(2, ()), [[1, 0], [0, 1], [-1, -2], [0, -1]],
        [[0, 1], [1, 2], [2, 3], [0, 3]])
    assert [b.value for b in sfan.box()] == [(0, 0)]


def test_box_complement_requires_common_cone():
    sfan = fixtures.load_fan("example_rank1")
    by_value = {b.value: b for b in sfan.box()}
    plus, minus = by_value[(1,)], by_value[(-1,)]
    assert plus.min_cone == (0,) and minus.min_cone == (1,)
    with pytest.raises(NoCommonCone):
        sfan.box_complement(plus, minus)


def test_gerbe_box_is_whole_group():
    sfan = fixtures.load_fan("gerbe_z4z9")
    values = {b.value for b in sfan.box()}
    assert values == set(sfan.group.elements())
    assert all(b.age == 0 for b in sfan.box())


def test_box_past_the_bound_is_refused_before_any_element(monkeypatch):
    """Box(sigma) of prod d_t elements is listed up to the bound and
    refused past it, before any element is split off."""
    split = ExtendedStackyFan._split
    calls = []

    def counted(self, *args):
        calls.append(args)
        return split(self, *args)

    monkeypatch.setattr(ExtendedStackyFan, "_split", counted)
    huge = ExtendedStackyFan.build(FgAbGroup(0, (99999999999, 2)), (),
                                   ((),), ((1, 1),))
    with pytest.raises(TooManyTuples, match=r"^Box\(\) would list "
                       r"199999999998 elements, more than the bound 1000000$"):
        huge.box()
    assert calls == []
    monkeypatch.setattr(stacky, "ENUMERATION_BOUND", 36)
    assert len(fixtures.load_fan("gerbe_z4z9").box()) == 36
    monkeypatch.setattr(stacky, "ENUMERATION_BOUND", 35)
    calls.clear()
    with pytest.raises(TooManyTuples, match=r"would list 36 elements, more "
                       r"than the bound 35$"):
        fixtures.load_fan("gerbe_z4z9").box()
    assert calls == []


def test_local_group_orders(p112):
    lg, _ = p112.local_group((0, 2))
    assert lg.order() == 2
    lg, _ = p112.local_group((0, 1))
    assert lg.order() == 1
    lg, _ = p112.local_group((1, 2))
    assert lg.order() == 1


def test_normalize_extra_data_reduces_into_box():
    big = ExtendedStackyFan.build(FgAbGroup(1, ()), [[2], [-2]],
                                  [[0], [1]], [[1], [3], [2]])
    norm, warnings = big.normalize_extra_data()
    assert norm.extra == ((1,), (1,), (0,))
    assert warnings == ()


def test_normalize_extra_data_warns_outside_support():
    sfan = half_line()
    norm, warnings = sfan.normalize_extra_data()
    assert norm.extra == ((-1,),)
    assert warnings == (1,)


def test_quotient_stacky_fan(p112):
    q = p112.quotient_stacky_fan((0, 2))
    assert q.group.order() == 2
    assert q.fan.ambient_dim == 0
    assert q.fan.max_cones == ((),)
    # quotient by the zero cone is the fan itself
    assert p112.quotient_stacky_fan(()) == p112


def test_quotient_keeps_extra_data():
    sfan = fixtures.load_fan("example_rank1")
    q = sfan.quotient_stacky_fan((0,))
    assert q.fan.ambient_dim == 0
    assert len(q.extra) >= 1
