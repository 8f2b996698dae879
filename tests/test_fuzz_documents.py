"""Seeded structural fuzzing of the document parsers through the CLI.

Every fan and base fixture document is mutated at random: a field is
dropped, a value swapped for one of another JSON type, an integer
replaced by a boolean, an integer set to an out-of-range index, or a
list made one element longer or shorter. Each mutant runs through
cli.main; whatever the mutant, the exit code is 0, 1 or 2 and the
output is one JSON document, never a traceback. A boolean where the
schema wants an integer is always a DocumentError.
"""

import copy
import json
import random

import pytest

from stackyring import cli, fixtures

FAN_COMMANDS = ("validate", "gale", "box")
OTHER_TYPES = ("x", 1.5, None, [], {}, 3)
OUT_OF_RANGE = (-1, 7)


def _nodes(node, path=()):
    """(path, value) for every value below the root, depth first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def _replace(doc, path, value):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value


def mutate(doc, rng):
    """One structural mutant of doc and a name for it."""
    doc = copy.deepcopy(doc)
    nodes = list(_nodes(doc))
    ints = [(p, v) for p, v in nodes
            if isinstance(v, int) and not isinstance(v, bool)]
    lists = [(p, v) for p, v in nodes if isinstance(v, list)]
    kind = rng.choice(("drop", "swap", "bool", "index", "length"))
    if kind in ("bool", "index") and not ints:
        kind = "swap"
    if kind == "length" and not lists:
        kind = "swap"
    if kind == "drop":
        fields = [p for p, _ in nodes if isinstance(p[-1], str)]
        path = rng.choice(fields)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
    elif kind == "swap":
        path, value = rng.choice(nodes)
        other = [t for t in OTHER_TYPES if type(t) is not type(value)]
        _replace(doc, path, copy.deepcopy(rng.choice(other)))
    elif kind == "bool":
        path, _ = rng.choice(ints)
        _replace(doc, path, rng.choice((True, False)))
    elif kind == "index":
        path, _ = rng.choice(ints)
        _replace(doc, path, rng.choice(OUT_OF_RANGE))
    else:
        path, value = rng.choice(lists)
        if value and rng.random() < 0.5:
            value.pop()
        else:
            value.append(copy.deepcopy(value[-1]) if value else 0)
    return doc, f"{kind} at /{'/'.join(map(str, path))}"


def _mutants(name, count, seed):
    with open(fixtures.fixture_path(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    rng = random.Random(f"{seed}:{name}")
    return [mutate(doc, rng) for _ in range(count)]


def _run_cli(capsys, argv, label):
    """Run one command on a mutant; a boolean integer must be refused."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2), (argv, label)
    # usage and I/O errors report on stderr, everything else on stdout
    payload = json.loads(captured.err if code == 2 else captured.out)
    if label.startswith("bool"):
        error = (payload["diagnostics"][0]["code"] if argv[0] == "validate"
                 else payload["error"]["type"])
        assert (code, error) == (1, "DocumentError"), (argv, label)


def test_mutate_is_seeded_and_structural():
    first = _mutants("p112", 20, 0)
    assert first == _mutants("p112", 20, 0)
    kinds = {label.split()[0] for _, label in first}
    assert kinds == {"drop", "swap", "bool", "index", "length"}


@pytest.mark.parametrize("name", fixtures.FAN_FIXTURES)
def test_fan_document_mutants(name, tmp_path, capsys):
    path = tmp_path / "fan.json"
    for doc, label in _mutants(name, 12, 1):
        path.write_text(json.dumps(doc))
        for command in FAN_COMMANDS:
            _run_cli(capsys, [command, str(path)], label)


@pytest.mark.parametrize("name", fixtures.BASE_FIXTURES)
def test_base_document_mutants(name, tmp_path, capsys):
    path = tmp_path / "base.json"
    fan = str(fixtures.fixture_path("p1"))
    for doc, label in _mutants(name, 40, 2):
        path.write_text(json.dumps(doc))
        _run_cli(capsys, ["ring", fan, "--base", str(path)], label)
