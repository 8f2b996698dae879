from fractions import Fraction

import pytest

from stackyring import fixtures
from stackyring.chowring import stanley_reisner_generators
from stackyring.documents import fan_to_document
from stackyring.errors import DegenerateImage, Diagnostic, TooManyTuples
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


def test_validate_refuses_past_the_pair_bound(monkeypatch):
    """P^2 has 3 maximal cones, so 3 pairs to compare: validated at a
    bound of 3 and refused at 2 before any pair is compared."""
    monkeypatch.setattr("stackyring.fan.ENUMERATION_BOUND", 3)
    assert P2.validate() == []
    compared = []
    monkeypatch.setattr(SimplicialFan, "_meets_along_common_face",
                        lambda self, ca, cb: compared.append((ca, cb)))
    monkeypatch.setattr("stackyring.fan.ENUMERATION_BOUND", 2)
    with pytest.raises(TooManyTuples, match=r"^3 maximal cones would "
                       r"compare 3 pairs, more than the bound 2$"):
        P2.validate()
    assert compared == []


def test_validate_refuses_1415_cones_at_once(monkeypatch):
    """1415 cones make 1,000,405 pairs, past the bound of 10^6."""
    fan = SimplicialFan(2, [(1, k) for k in range(1416)],
                        [(k, k + 1) for k in range(1415)])
    compared = []
    monkeypatch.setattr(SimplicialFan, "_meets_along_common_face",
                        lambda self, ca, cb: compared.append((ca, cb)))
    with pytest.raises(TooManyTuples, match=r"^1415 maximal cones would "
                       r"compare 1000405 pairs, more than the bound "
                       r"1000000$"):
        fan.validate()
    assert compared == []


# every reader of the faces, each on a stacky fan of P(1,1,2)
FACE_READERS = {
    "faces": lambda sfan: sfan.fan.faces(),
    "face_masks": lambda sfan: sfan.fan.face_masks(),
    "is_face": lambda sfan: sfan.fan.is_face((0,)),
    "link_rays": lambda sfan: sfan.fan.link_rays((0,)),
    "quotient_stacky_fan": lambda sfan: sfan.quotient_stacky_fan((0,)),
    "stanley_reisner_generators": stanley_reisner_generators,
}


@pytest.mark.parametrize("reader", FACE_READERS)
def test_face_readers_refuse_past_the_bound(reader, monkeypatch):
    """P(1,1,2) lists sum_C 2^|C| = 12 faces: every reader is answered
    at a bound of 12 and refused at 11 before any face is listed."""
    read = FACE_READERS[reader]
    monkeypatch.setattr("stackyring.fan.ENUMERATION_BOUND", 12)
    read(fixtures.load_fan("p112"))
    monkeypatch.setattr("stackyring.fan.ENUMERATION_BOUND", 11)
    sfan = fixtures.load_fan("p112")
    with pytest.raises(TooManyTuples, match=r"^the maximal cones would "
                       r"list 12 faces, more than the bound 11$"):
        read(sfan)
    assert "_face_data" not in vars(sfan.fan)


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


@pytest.mark.parametrize("build, text", [
    (lambda: FgAbGroup(2.0), "rank 2.0 is not an exact rational"),
    (lambda: FgAbGroup(True), "rank True is not an exact rational"),
    (lambda: SimplicialFan(2.0, (), ((),)),
     "ambient_dim 2.0 is not an exact rational"),
    (lambda: SimplicialFan(-1, (), ((),)), "ambient_dim must be nonnegative")],
    ids=["float_rank", "bool_rank", "float_dim", "negative_dim"])
def test_rank_and_dimension_that_are_no_integers_are_refused(build, text):
    # FgAbGroup(2.0) was built and failed later on a slice, True was taken
    # as rank 1, and a fan of dimension -1 validated with no diagnostic
    with pytest.raises(ValueError, match=rf"^{text}$"):
        build()
