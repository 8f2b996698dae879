"""Bundled example documents and loaders.

Fan fixtures cover the smooth sanity fans, a weighted projective plane
with its smooth refinement, a rank-one fan with extra data in both
normalized and unnormalized form, finite-group gerbes, and the
canonical/trivial gerbe pairs over projective space. Base fixtures are
a point and the projective line, optionally with twist data.
"""

from __future__ import annotations

from pathlib import Path

from . import documents
from .chowring import BaseRing
from .stacky import ExtendedStackyFan

DATA_DIR = Path(__file__).resolve().parent / "data"

# (fan, base) pairs on which the ring computation is exercised end to end
RING_CASES = (
    ("p1", "base_point"),
    ("p2", "base_point"),
    ("p112", "base_point"),
    ("p112_hirzebruch", "base_point"),
    ("example_rank1", "base_p1_minus_h"),
    ("example_rank1_tilde", "base_point"),
    ("gerbe_r2", "base_p1"),
    ("gerbe_r3", "base_p1"),
    ("gerbe_z4z9", "base_p1"),
    ("gerbe_p1_r2_canonical", "base_point"),
    ("gerbe_p1_r2_trivial", "base_point"),
    ("gerbe_p1_r3_canonical", "base_point"),
    ("gerbe_p1_r3_trivial", "base_point"),
    ("gerbe_p2_r2_canonical", "base_point"),
    ("gerbe_p2_r2_trivial", "base_point"),
    ("gerbe_p2_r3_canonical", "base_point"),
    ("gerbe_p2_r3_trivial", "base_point"),
)

# the bundled documents: each fan once, and each base once in first-use order
FAN_FIXTURES = tuple(fan for fan, _ in RING_CASES)
BASE_FIXTURES = tuple(dict.fromkeys(base for _, base in RING_CASES))


def fixture_path(name: str) -> Path:
    path = DATA_DIR / f"{name}.json"
    if not path.is_file():
        raise KeyError(f"no fixture named {name!r}")
    return path


def load_fan(name: str) -> ExtendedStackyFan:
    return documents.parse_fan_document(
        documents.load_json(fixture_path(name)))


def load_base(name: str) -> BaseRing:
    return documents.parse_base_document(
        documents.load_json(fixture_path(name)))
