"""Smooth subdivisions, support functions, and fiber dimension checks."""

import pytest

from stackyring import fixtures
from stackyring.chowring import BaseRing
from stackyring.errors import (Inconsistent, InvalidSubdivision,
                               SearchTooLarge, Unsatisfiable)
from stackyring.fan import SimplicialFan
from stackyring.resolution import (SEARCH_BUDGET, Subdivision,
                                   check_support_function,
                                   fiber_dimension_check, search_bound,
                                   validate_subdivision)


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


def test_support_function_search_bound_exhausted():
    with pytest.raises(Unsatisfiable):
        check_support_function(p112_subdivision(), None, h_max=0)


def test_search_bound_env(monkeypatch):
    monkeypatch.delenv("STACKYRING_HMAX", raising=False)
    assert search_bound() == 16
    monkeypatch.setenv("STACKYRING_HMAX", "3")
    assert search_bound() == 3


def test_support_function_search_budget(monkeypatch):
    # the size is refused before the search: h = 1 would succeed at once
    monkeypatch.setenv("STACKYRING_HMAX", str(10 ** 12))
    with pytest.raises(SearchTooLarge,
                       match=r"^support function search over "
                             r"1000000000000\^1 = 1000000000000 candidates "
                             r"exceeds the budget of 65536$"):
        check_support_function(p112_subdivision())
    assert check_support_function(p112_subdivision(), [0, 0, 0, 1])
    assert check_support_function(
        p112_subdivision(), h_max=SEARCH_BUDGET).h_values == (0, 0, 0, 1)
    with pytest.raises(SearchTooLarge):
        check_support_function(p112_subdivision(), h_max=SEARCH_BUDGET + 1)


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
