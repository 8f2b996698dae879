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
    kind = rng.randrange(9 if depth else 3)
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
    if kind == 6:
        return random_row(rng)
    if kind == 7:
        return [random_row(rng) for _ in range(size)]
    return {random_string(rng): random_value(rng, depth - 1)
            for _ in range(size)}


class Level(enum.IntEnum):
    # an int subclass whose repr is "<Level.ONE: 1>", not "1"
    ONE = 1


class Row(list):
    pass


class Pair(tuple):
    pass


# items that end a row of exact str and int items: the row is written
# again by the full dispatch from its first item
ODD_ITEMS = (True, False, None, Level.ONE, (1, "t"), (), {"k": 1}, {},
             [2, "n"], [], Row([3]), Pair(("p",)))
ROW = [7, "q", -2, "3/4"]


def random_row(rng):
    """A row of exact str and int items, sometimes with one odd item."""
    row = [rng.choice((rng.randint(-10 ** 30, 10 ** 30), random_string(rng)))
           for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.3:
        row.insert(rng.randint(0, len(row)), rng.choice(ODD_ITEMS))
    return row


def nested(value, depth):
    """value at depth levels, in lists and dicts taken in turn."""
    for level in range(depth):
        value = [value, 1] if level % 2 else {"k": value, "": "x"}
    return value


EDGE_VALUES = [
    [], {}, (), [[]], {"a": {}}, {"a": [], "b": ()}, [True, 1, False, 0],
    {"b": 1, "a": [None, "x"], "": 2, "B": 3}, "\u2028\"\\", 10 ** 100,
    [Level.ONE, 2], {"a": Level.ONE}, Level.ONE,
    [[], (), 1, [], "a", ()], {"a": [], "b": (), "c": [[]], "d": [()]},
    [Row(), Row([1, "a"]), Pair(), Pair((1, "a")), Row([Row([2])])],
    {"r": Row([1, "a"]), "p": Pair((1, "a")), "e": Row(), "f": Pair()}]
# one odd item at each position of a row, the row a list item and a
# dict value
EDGE_VALUES += [container
                for odd in ODD_ITEMS
                for at in range(len(ROW) + 1)
                for row in [ROW[:at] + [odd] + ROW[at:]]
                for container in ([row], [ROW, row, ROW], {"r": row})]
# rows at depths 0 to 4 below the top, alone and beside other rows
EDGE_VALUES += [nested(value, depth)
                for depth in range(5)
                for value in (ROW, [ROW, [], ROW], {"a": ROW, "b": []})]


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
    # the inertia payloads share one quotient document per joint cone
    for argv in (["box", fan_path], ["sectors", fan_path],
                 ["ring", fan_path, "--base", base_path],
                 ["inertia", fan_path, "--order", "1"],
                 ["inertia", fan_path, "--order", "2"],
                 ["validate", fan_path], ["gale", fan_path]):
        args = cli._parser().parse_args(argv)
        code, payload = getattr(cli, "cmd_" + argv[0])(args)
        assert code == 0
        assert documents.dumps_canonical(payload) == reference(payload), argv


@pytest.mark.parametrize("value,name", [
    (1.5, "float"), (Fraction(1, 2), "Fraction"), ([1, 2.0], "float"),
    ({"q": Fraction(3)}, "Fraction"), ({1: "a"}, "int"),
    ({"a": {2: 0}}, "int"),
    # after valid items of a row, the row a list item or a dict value,
    # at the top and deeper
    ([[1, "a", 2.5]], "float"), ([ROW, ROW + [Fraction(1, 3)]], "Fraction"),
    ({"r": [0, "b", 0.0]}, "float"), ({"r": ROW + [Fraction(2)]}, "Fraction"),
    (nested([ROW, ROW + [1e9]], 3), "float"),
    (nested({"r": ROW + [Fraction(1, 2)]}, 4), "Fraction"),
    ([[1, True, 2.0]], "float"), ([["a", None, [Fraction(1, 5)]]], "Fraction")])
def test_other_types_raise_type_error(value, name):
    with pytest.raises(TypeError, match=rf"\b{name}\b"):
        documents.dumps_canonical(value)


@pytest.mark.parametrize("q, text", [
    (0, "0"), (-7, "-7"), (Fraction(3, 4), "3/4"), (Fraction(-5, 2), "-5/2"),
    (Fraction(6, 3), "2"), (True, "1")])
def test_fraction_str(q, text):
    assert documents.fraction_str(q) == text
