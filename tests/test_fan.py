from fractions import Fraction

import pytest

from stackyring import fixtures
from stackyring.documents import fan_to_document
from stackyring.errors import DegenerateImage, Diagnostic
from stackyring.fan import SimplicialFan
from stackyring.lattice import FgAbGroup
from stackyring.stacky import ExtendedStackyFan

P112 = SimplicialFan(2, ((1, 0), (0, 1), (-1, -2)),
                     ((0, 1), (1, 2), (0, 2)))
P2 = SimplicialFan(2, ((1, 0), (0, 1), (-1, -1)),
                   ((0, 1), (1, 2), (0, 2)))
HALF_PLANE = SimplicialFan(2, ((1, 0), (0, 1), (-1, 0)),
                           ((0, 1), (1, 2)))


def test_faces_and_is_face():
    faces = P2.faces()
    assert () in faces
    assert (0,) in faces and (0, 1) in faces
    assert (0, 1, 2) not in faces
    assert P2.is_face((0, 2))
    assert not P2.is_face((0, 1, 2))


def test_cone_coefficients():
    assert P112.cone_coefficients((0, 2), (0, -1)) == \
        [Fraction(1, 2), Fraction(1, 2)]
    assert P112.cone_coefficients((0, 1), (2, 3)) == [2, 3]
    assert P112.cone_coefficients((0, 1), (-1, 0)) is None
    assert P112.cone_coefficients((), (0, 0)) == []
    assert P112.cone_coefficients((), (1, 0)) is None


def test_minimal_cone():
    assert P112.minimal_cone([(1, 0)]) == (0,)
    assert P112.minimal_cone([(0, -1)]) == (0, 2)
    assert P112.minimal_cone([(0, 0)]) == ()
    assert P112.minimal_cone([(1, 0), (0, 1)]) == (0, 1)
    assert HALF_PLANE.minimal_cone([(0, -1)]) is None


def test_minimal_cone_joint_pairs():
    # (1,1) lives in cone (0,1), (-1,-1) in cone (1,2): no common cone
    assert P112.minimal_cone([(1, 1), (-1, -1)]) is None
    assert P112.minimal_cone([(1, 0), (0, -1)]) == (0, 2)


def test_completeness():
    assert P2.is_complete()
    assert P112.is_complete()
    assert not HALF_PLANE.is_complete()
    assert SimplicialFan(0, (), ((),)).is_complete()
    assert SimplicialFan(1, ((1,), (-1,)), ((0,), (1,))).is_complete()
    assert not SimplicialFan(1, ((1,),), ((0,),)).is_complete()


def test_validate_clean_fans():
    assert P2.validate() == []
    assert P112.validate() == []
    assert HALF_PLANE.validate() == []


def test_validate_dependent_rays():
    fan = SimplicialFan(2, ((1, 0), (2, 0), (0, 1)), ((0, 1), (1, 2)))
    codes = [d.code for d in fan.validate()]
    assert "NotSimplicial" in codes


def test_validate_zero_ray():
    fan = SimplicialFan(2, ((0, 0), (0, 1)), ((0, 1),))
    codes = [d.code for d in fan.validate()]
    assert "NotSimplicial" in codes


def test_validate_overlapping_cones():
    # cone (0,2) sits inside cone (0,1): interiors overlap
    fan = SimplicialFan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1), (0, 2)))
    codes = [d.code for d in fan.validate()]
    assert "BadIntersection" in codes


def test_validate_nested_cones():
    fan = SimplicialFan(2, ((1, 0), (0, 1)), ((0, 1), (0,)))
    codes = [d.code for d in fan.validate()]
    assert "BadIntersection" in codes


def test_validate_duplicate_cones():
    # is_complete counts cones per wall, which needs every cone once
    fan = SimplicialFan(2, P2.rays, P2.max_cones + ((1, 0),))
    assert fan.validate() == [
        Diagnostic("BadIntersection", "cones (0, 1) and (0, 1) are nested")]


def test_validate_unused_rays():
    # rays 0 and 1 point along ray 2 but lie in no maximal cone
    fan = SimplicialFan(1, ((-1,), (-1,), (-1,), (2,)), ((2,), (3,)))
    assert fan.validate() == [
        Diagnostic("UnusedRay", "ray 0 lies in no maximal cone"),
        Diagnostic("UnusedRay", "ray 1 lies in no maximal cone")]
    # reported beside the findings of either stage of the checks
    dependent = SimplicialFan(2, ((1, 0), (2, 0), (0, 1)), ((0, 1),))
    assert [d.code for d in dependent.validate()] == ["NotSimplicial",
                                                      "UnusedRay"]
    nested = SimplicialFan(2, ((1, 0), (0, 1), (-1, 0)), ((0, 1), (0,)))
    assert [d.code for d in nested.validate()] == ["BadIntersection",
                                                   "UnusedRay"]


def test_link():
    assert P112.link_rays((0,)) == (1, 2)
    assert P112.link_rays(()) == (0, 1, 2)
    assert P112.link_rays((0, 1)) == ()
    assert HALF_PLANE.link_rays((0,)) == (1,)
    # a ray in no maximal cone is in no link, not even the zero cone's
    assert SimplicialFan(1, ((1,), (-1,), (2,)), ((0,), (1,))).link_rays(
        ()) == (0, 1)


def test_quotient_by_ray():
    sfan = fixtures.load_fan("p2")
    quotient = sfan.quotient_stacky_fan((2,))
    # collapsing ray 2 leaves a complete fan on the images of rays 0, 1
    assert quotient.group == FgAbGroup(1)
    assert fan_to_document(quotient)["rays"] == [[-1], [1]]
    assert quotient.fan.is_complete()


def test_quotient_zero_cone_is_identity():
    sfan = fixtures.load_fan("p2")
    assert sfan.quotient_stacky_fan(()) is sfan


def test_quotient_degenerate_image():
    # ray 2 lies in the span of rays 0 and 1, so it projects to zero
    sfan = ExtendedStackyFan.build(FgAbGroup(2), [(1, 0), (0, 1), (1, 1)],
                                   [(0, 1, 2)])
    with pytest.raises(DegenerateImage, match="link ray 2 projects to zero"):
        sfan.quotient_stacky_fan((0, 1))


@pytest.mark.parametrize("ray, text", [
    ((Fraction(3, 2), Fraction(3, 2)), "coordinate 3/2 is not an integer"),
    ((1.5, 1.5), "coordinate 1.5 is not an exact rational"),
    ((True, 1), "coordinate True is not an exact rational")])
def test_ray_that_is_not_integral_is_refused(ray, text):
    # P2 refined by (3/2, 3/2) was accepted once: the subdivision checks
    # passed it, the support function met a non-integral coefficient and
    # the fiber check computed the ring of the truncated ray (1, 1)
    cones = ((0, 3), (1, 3), (1, 2), (0, 2))
    with pytest.raises(ValueError, match=rf"^ray 3 {text}$"):
        SimplicialFan(2, P2.rays + (ray,), cones)


@pytest.mark.parametrize("index, text", [
    (0.9, "0.9 is not an exact rational"),
    (True, "True is not an exact rational"),
    (Fraction(1, 2), "1/2 is not an integer")],
    ids=["float", "bool", "fraction"])
def test_cone_index_that_is_not_an_integer_is_refused(index, text):
    # int() used to read the cone (0.9,) as (0,) and True as ray 1
    with pytest.raises(ValueError, match=rf"^cone ray index {text}$"):
        SimplicialFan(1, ((1,), (-1,)), ((index,), (1,)))


def test_integral_fraction_cone_index_is_taken_as_int():
    fan = SimplicialFan(1, ((1,), (-1,)), ((Fraction(0),), (Fraction(2, 2),)))
    assert fan.max_cones == ((0,), (1,))
    assert [type(c[0]) for c in fan.max_cones] == [int, int]


def test_integral_fraction_ray_is_stored_as_int():
    fan = SimplicialFan(1, ((Fraction(2),), (-1,)), ((0,), (1,)))
    assert fan.rays == ((2,), (-1,))
    assert type(fan.rays[0][0]) is int
