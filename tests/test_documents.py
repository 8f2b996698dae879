"""The canonical JSON writer against json.dumps(sort_keys=True, indent=2).

dumps_canonical writes its bytes directly; json.dumps is the reference it
must equal on every value it accepts, and it refuses every other type.
"""

import enum
import json
import random
from fractions import Fraction

import pytest

from stackyring import cli, documents, fixtures

# quotes, backslashes, control characters, DEL, non-ASCII, a line
# separator and a character outside the BMP (written as a surrogate pair)
CHARS = ('a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', '\b', '\f',
         '\x00', '\x1f', '\x7f', 'é', 'ß', '中', '\u2028', '\U0001F600')
SCALARS = (0, 1, -1, True, False, None, 2 ** 70, -(3 ** 50), "", "p/q")


def reference(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def random_string(rng):
    return "".join(rng.choice(CHARS) for _ in range(rng.randint(0, 6)))


def random_value(rng, depth):
    """A nested value of the accepted types; containers may be empty."""
    kind = rng.randrange(7 if depth else 3)
    if kind == 0:
        return rng.choice(SCALARS)
    if kind == 1:
        return random_string(rng)
    if kind == 2:
        return rng.randint(-10 ** 30, 10 ** 30)
    size = rng.randint(0, 4)
    if kind == 3:
        return [random_value(rng, depth - 1) for _ in range(size)]
    if kind == 4:
        return tuple(random_value(rng, depth - 1) for _ in range(size))
    if kind == 5:
        return [rng.choice(SCALARS) for _ in range(size)]
    return {random_string(rng): random_value(rng, depth - 1)
            for _ in range(size)}


class Level(enum.IntEnum):
    # an int subclass whose repr is "<Level.ONE: 1>", not "1"
    ONE = 1


EDGE_VALUES = [
    [], {}, (), [[]], {"a": {}}, {"a": [], "b": ()}, [True, 1, False, 0],
    {"b": 1, "a": [None, "x"], "": 2, "B": 3}, "\u2028\"\\", 10 ** 100,
    [Level.ONE, 2], {"a": Level.ONE}, Level.ONE]


def test_seeded_differential_against_json_dumps():
    rng = random.Random(14)
    values = EDGE_VALUES + [random_value(rng, rng.randint(0, 4))
                            for _ in range(600)]
    for value in values:
        assert documents.dumps_canonical(value) == reference(value), value


@pytest.mark.parametrize("fan,base", fixtures.RING_CASES)
def test_command_payloads_match_json_dumps(fan, base):
    fan_path = str(fixtures.fixture_path(fan))
    base_path = str(fixtures.fixture_path(base))
    for argv in (["box", fan_path], ["sectors", fan_path],
                 ["ring", fan_path, "--base", base_path]):
        args = cli._parser().parse_args(argv)
        code, payload = getattr(cli, "cmd_" + argv[0])(args)
        assert code == 0
        assert documents.dumps_canonical(payload) == reference(payload), argv


@pytest.mark.parametrize("value,name", [
    (1.5, "float"), (Fraction(1, 2), "Fraction"), ([1, 2.0], "float"),
    ({"q": Fraction(3)}, "Fraction"), ({1: "a"}, "int"),
    ({"a": {2: 0}}, "int")])
def test_other_types_raise_type_error(value, name):
    with pytest.raises(TypeError, match=rf"\b{name}\b"):
        documents.dumps_canonical(value)


@pytest.mark.parametrize("q, text", [
    (0, "0"), (-7, "-7"), (Fraction(3, 4), "3/4"), (Fraction(-5, 2), "-5/2"),
    (Fraction(6, 3), "2"), (True, "1")])
def test_fraction_str(q, text):
    assert documents.fraction_str(q) == text
