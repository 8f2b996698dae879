"""Smooth subdivisions, support functions, and fiber dimension checks."""

import random
from fractions import Fraction

import pytest

import oracles
from generators import (resolved_2d_subdivision, star_subdivision_of_p3,
                        twisted_p3)
from stackyring import fixtures
from stackyring.chowring import BaseRing
from stackyring.errors import (Diagnostic, Inconsistent, InvalidSubdivision,
                               Unsatisfiable)
from stackyring.fan import SimplicialFan
from stackyring.lattice import FgAbGroup
from stackyring.resolution import (Subdivision, check_support_function,
                                   fiber_dimension_check,
                                   validate_subdivision)
from stackyring.stacky import ExtendedStackyFan


def p112_subdivision():
    coarse = fixtures.load_fan("p112")
    refined = fixtures.load_fan("p112_hirzebruch").fan
    return Subdivision(coarse, refined)


def identity_subdivision():
    coarse = fixtures.load_fan("p2")
    return Subdivision(coarse, coarse.fan)


def test_validate_subdivision_clean():
    assert validate_subdivision(p112_subdivision()) == []
    assert validate_subdivision(identity_subdivision()) == []


def test_validate_subdivision_rejects_non_smooth():
    coarse = fixtures.load_fan("p112")
    sub = Subdivision(coarse, coarse.fan)  # cone (0,2) has index 2
    diagnostics = validate_subdivision(sub)
    assert diagnostics
    with pytest.raises(InvalidSubdivision):
        check_support_function(sub, [0, 0, 0])


def test_validate_subdivision_requires_ray_prefix():
    coarse = fixtures.load_fan("p112")
    # reordered rays: the coarse rays no longer form a prefix
    refined = SimplicialFan(2, ((0, -1), (1, 0), (0, 1), (-1, -2)),
                            ((1, 2), (2, 3), (3, 0), (0, 1)))
    assert validate_subdivision(Subdivision(coarse, refined))


def test_support_function_explicit_values():
    verdict = check_support_function(p112_subdivision(), [0, 0, 0, 1])
    assert verdict.h_values == (0, 0, 0, 1)
    assert verdict.interior_walls == 1


@pytest.mark.parametrize("value, text", [
    (1.5, "1.5 is not an exact rational"),
    (True, "True is not an exact rational"),
    (Fraction(3, 2), "3/2 is not an integer")],
    ids=["float", "bool", "fraction"])
def test_support_function_values_are_integers(value, text):
    # int() used to check (0, 0, 0, 1.5) as (0, 0, 0, 1) and accept it
    with pytest.raises(ValueError, match=rf"^h value {text}$"):
        check_support_function(p112_subdivision(), [0, 0, 0, value])
    verdict = check_support_function(p112_subdivision(),
                                     [0, 0, 0, Fraction(2, 2)])
    assert verdict.h_values == (0, 0, 0, 1)
    assert type(verdict.h_values[3]) is int


def test_support_function_search_finds_minimum():
    verdict = check_support_function(p112_subdivision())
    assert verdict.h_values == (0, 0, 0, 1)


def test_support_function_rejects_zero_on_new_ray():
    with pytest.raises(Inconsistent):
        check_support_function(p112_subdivision(), [0, 0, 0, 0])


def test_support_function_rejects_nonzero_on_old_ray():
    with pytest.raises(Inconsistent):
        check_support_function(p112_subdivision(), [1, 0, 0, 1])


def test_support_function_lists_every_violation():
    with pytest.raises(Inconsistent,
                       match=r"^h must vanish on old ray 0, got 1; "
                             r"h must be positive on new ray 3, got 0$"):
        check_support_function(p112_subdivision(), [1, 0, 0, 0])


def test_support_function_identity_subdivision():
    verdict = check_support_function(identity_subdivision(), [0, 0, 0])
    assert verdict.interior_walls == 0


def test_validate_subdivision_refined_cone_outside_coarse_cones():
    # the coarse fan lacks p2's cone (0, 2): each of its rays lies in a
    # coarse cone but no coarse cone holds both, so a check of one ray per
    # refined cone would pass it
    coarse = ExtendedStackyFan.build(
        FgAbGroup(2), [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
    refined = fixtures.load_fan("p2").fan
    assert validate_subdivision(Subdivision(coarse, refined)) == [
        Diagnostic("NotSmooth",
                   "refined cone (0, 2) is not contained in a coarse cone")]


@pytest.mark.parametrize("dropped", range(4))
def test_validate_subdivision_refuses_an_uncovered_coarse_cone(dropped):
    # without one refined cone, a coarse cone is no longer covered: with
    # no refined cone in it, or with a wall inside it on one cone alone
    sub = p112_subdivision()
    cones = sub.refined.max_cones
    refined = SimplicialFan(2, sub.refined.rays,
                            cones[:dropped] + cones[dropped + 1:])
    uncovered = [(0, 1), (1, 2), (0, 2), (0, 2)][dropped]
    assert validate_subdivision(Subdivision(sub.coarse, refined)) == [
        Diagnostic("NotSmooth", f"coarse cone {uncovered} is not the union "
                                f"of the refined cones inside it")]


def test_validate_subdivision_refuses_lower_dimensional_refined_cones():
    # p2's rays as the maximal cones: each lies in two coarse cones, and
    # no coarse cone is covered by them
    coarse = fixtures.load_fan("p2")
    refined = SimplicialFan(2, coarse.fan.rays, ((0,), (1,), (2,)))
    assert validate_subdivision(Subdivision(coarse, refined)) == [
        Diagnostic("NotSmooth", f"coarse cone {cone} is not the union of "
                                f"the refined cones inside it")
        for cone in coarse.fan.max_cones]


def test_validate_subdivision_reports_the_coarse_fans_diagnostics():
    # p112 with its first cone listed twice used to get a support function
    p112 = fixtures.load_fan("p112")
    coarse = ExtendedStackyFan.build(
        p112.group, p112.ray_lifts, p112.fan.max_cones + ((1, 0),))
    sub = Subdivision(coarse, p112_subdivision().refined)
    assert validate_subdivision(sub) == [
        Diagnostic("BadIntersection", "cones (0, 1) and (0, 1) are nested")]
    with pytest.raises(InvalidSubdivision, match="are nested"):
        check_support_function(sub)


@pytest.mark.parametrize("along_i", [True, False])
def test_twisted_p3_has_no_support_function(along_i):
    sub = twisted_p3((along_i,) * 3)
    assert validate_subdivision(sub) == []
    with pytest.raises(Unsatisfiable, match=r"^no support function exists"
                                            r"[^\d]*$"):
        check_support_function(sub)


def test_mixed_twist_over_p3_is_projective():
    verdict = check_support_function(twisted_p3((True, True, False)))
    assert verdict.h_values == (0, 0, 0, 0, 1, 2, 3)
    assert verdict.interior_walls == 6


def seeded_subdivisions():
    rng = random.Random(20261018)
    subs = [resolved_2d_subdivision(rng, rng.randint(0, 3))
            for _ in range(30)]
    subs += [star_subdivision_of_p3(rng, rng.randint(1, 5))
             for _ in range(30)]
    return subs


def bounded_search(sub, h_max):
    return oracles.support_search(
        sub.coarse.fan.rays, sub.coarse.fan.max_cones, sub.refined.rays,
        sub.refined.max_cones, h_max)


def test_support_function_matches_bounded_search():
    # the least bound first, then the first candidate of the old search
    compared = 0
    for sub in seeded_subdivisions():
        h = check_support_function(sub).h_values
        bound = max(h)
        if bound ** sub.num_new_rays > 1000:
            continue
        assert bounded_search(sub, bound) == h
        assert bounded_search(sub, bound - 1) is None
        compared += 1
    assert compared >= 30


def test_support_function_beyond_the_old_search_budget():
    # seven new rays and B* = 14: 14^7 candidates for a bounded search
    sub = star_subdivision_of_p3(random.Random(3), 7)
    assert check_support_function(sub).h_values == (
        0, 0, 0, 0, 8, 2, 11, 13, 14, 3, 1)


def test_fiber_dimensions_over_point():
    report = fiber_dimension_check(p112_subdivision(), BaseRing.point())
    assert (report.dim_orbifold, report.dim_resolved) == (4, 4)
    assert report.equal


def test_fiber_dimensions_over_projective_line():
    base = fixtures.load_base("base_p1")
    report = fiber_dimension_check(p112_subdivision(), base)
    assert (report.dim_orbifold, report.dim_resolved) == (8, 8)
    assert report.equal


def test_fiber_dimensions_identity():
    report = fiber_dimension_check(identity_subdivision(), BaseRing.point())
    assert (report.dim_orbifold, report.dim_resolved) == (3, 3)
