"""Exception types shared across the package.

Validation routines that report many findings at once return Diagnostic
records instead of raising. Their codes name the condition found: the
fan checks report NotSimplicial, BadIntersection and UnusedRay (a ray in
no maximal cone), the subdivision checks NotSmooth; no exception is
raised under those names.
"""

from __future__ import annotations

from dataclasses import dataclass


class StackyError(Exception):
    """Base class for all library errors."""


class InfiniteCokernel(StackyError):
    """The map does not have finite cokernel."""


class NonFreeSource(StackyError):
    """An operation requiring a free source group got a torsion one."""


class GaleExactnessError(StackyError):
    """A Smith witness that gale_dual computes does not verify as one of
    its matrix; every other part of the Gale dual sequences follows from
    the verified witnesses (see lattice.gale_dual)."""


class DegenerateImage(StackyError):
    """A link ray projects to zero in the quotient."""


class OutsideSupport(StackyError):
    """A point does not lie in any cone of the fan."""


class NoCommonCone(StackyError):
    """No single cone contains all the given points."""


class TwistArityMismatch(StackyError):
    """Number of twist classes differs from the number of coordinates."""


class IncompleteFan(StackyError):
    """The operation requires a complete fan."""


class InfiniteDimensional(StackyError):
    """Ring computation found basis classes above the dimension bound."""


class DimensionMismatch(StackyError):
    """Two rings that should have equal dimension do not."""


class NotASector(StackyError):
    """The given tuple of box elements is not a valid twisted sector."""


class DecompositionMismatch(StackyError):
    """A sector's histogram disagrees with the one its face counts give."""


class InternalInconsistency(StackyError):
    """A self-check of a computed result failed: a fault of the library."""


# the most items one listing makes; each is counted, and refused with
# TooManyTuples past this, by the module that makes it: the faces and
# the cone pairs in fan, Box(sigma) in stacky, the r-tuples in inertia,
# and the monomials and basis pairs in chowring
ENUMERATION_BOUND = 10 ** 6


class TooManyTuples(StackyError):
    """A listing would pass ENUMERATION_BOUND items."""


class UnexpectedCoefficient(StackyError):
    """An obstruction coefficient fell outside the allowed set {1, 2}."""


class Unsatisfiable(StackyError):
    """No support function exists: its inequalities have no solution."""


class Inconsistent(StackyError):
    """A candidate support function violates a required inequality."""


class InvalidSubdivision(StackyError):
    """Subdivision validation reported findings."""


class DocumentError(StackyError):
    """A JSON document failed schema validation.

    Carries a JSON-pointer-like location of the offending field.
    """

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer
        self.message = message


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding: a code naming the condition plus detail."""

    code: str
    detail: str

    def to_json_dict(self):
        return {"code": self.code, "detail": self.detail}
