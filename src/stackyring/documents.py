"""JSON document schemas for fans, base rings, and computed output.

Rational numbers travel as "p/q" strings in lowest terms (plain integers
allowed on input). Serialization uses sorted keys and fixed separators so
equal objects produce byte-identical documents.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .chowring import BaseRing
from .errors import DocumentError
from .lattice import FgAbGroup
from .stacky import ExtendedStackyFan


def parse_fraction(value, pointer: str) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError(pointer, "expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(pointer, f"bad rational {value!r}") from exc
    raise DocumentError(pointer, f"expected a rational, got {type(value).__name__}")


def fraction_str(q) -> str:
    return str(Fraction(q))


def _expect(obj, key, pointer, kind=None, default=None, required=True):
    if key not in obj:
        if required:
            raise DocumentError(pointer, f"missing field {key!r}")
        return default
    value = obj[key]
    # a JSON boolean parses as a Python bool, which is also an int
    if kind is not None and (not isinstance(value, kind)
                             or isinstance(value, bool) and kind is int):
        raise DocumentError(f"{pointer}/{key}",
                            f"expected {kind.__name__}")
    return value


def _int_list(value, pointer):
    if not isinstance(value, list):
        raise DocumentError(pointer, "expected a list")
    out = []
    for i, x in enumerate(value):
        if isinstance(x, bool) or not isinstance(x, int):
            raise DocumentError(f"{pointer}/{i}", "expected an integer")
        out.append(x)
    return out


def parse_fan_document(obj, pointer: str = "") -> ExtendedStackyFan:
    if not isinstance(obj, dict):
        raise DocumentError(pointer or "/", "expected an object")
    group_obj = _expect(obj, "group", pointer, dict)
    rank = _expect(group_obj, "rank", f"{pointer}/group", int)
    torsion = _int_list(_expect(group_obj, "torsion", f"{pointer}/group",
                                list, default=[], required=False),
                        f"{pointer}/group/torsion")
    try:
        group = FgAbGroup(rank, tuple(torsion))
    except ValueError as exc:
        raise DocumentError(f"{pointer}/group", str(exc)) from exc
    rays_obj = _expect(obj, "rays", pointer, list)
    rays = [_int_list(r, f"{pointer}/rays/{i}")
            for i, r in enumerate(rays_obj)]
    cones_obj = _expect(obj, "cones", pointer, list)
    cones = [_int_list(c, f"{pointer}/cones/{i}")
             for i, c in enumerate(cones_obj)]
    extra_obj = _expect(obj, "extra", pointer, list, default=[],
                        required=False)
    extra = [_int_list(b, f"{pointer}/extra/{i}")
             for i, b in enumerate(extra_obj)]
    for i, vec in enumerate(rays + extra):
        if len(vec) != group.coords:
            field = "rays" if i < len(rays) else "extra"
            raise DocumentError(
                f"{pointer}/{field}",
                f"vector length {len(vec)} != group coordinates {group.coords}")
    try:
        return ExtendedStackyFan.build(group, rays, cones, extra)
    except ValueError as exc:
        raise DocumentError(pointer or "/", str(exc)) from exc


def fan_to_document(sfan: ExtendedStackyFan) -> dict:
    return {
        "group": {"rank": sfan.group.rank,
                  "torsion": list(sfan.group.torsion)},
        "rays": [list(b) for b in sfan.ray_lifts],
        "cones": [list(c) for c in sfan.fan.max_cones],
        "extra": [list(b) for b in sfan.extra],
    }


def parse_base_document(obj, pointer: str = "") -> BaseRing:
    if not isinstance(obj, dict):
        raise DocumentError(pointer or "/", "expected an object")
    basis = _expect(obj, "basis", pointer, list)
    labels = []
    degrees = []
    for i, entry in enumerate(basis):
        here = f"{pointer}/basis/{i}"
        if not isinstance(entry, dict):
            raise DocumentError(here, "expected an object")
        labels.append(str(_expect(entry, "label", here, str)))
        degrees.append(_expect(entry, "degree", here, int))
    products = {}
    for i, entry in enumerate(_expect(obj, "products", pointer, list,
                                      default=[], required=False)):
        here = f"{pointer}/products/{i}"
        if not isinstance(entry, dict):
            raise DocumentError(here, "expected an object")
        pi = _expect(entry, "i", here, int)
        pj = _expect(entry, "j", here, int)
        if (pi, pj) in products:
            raise DocumentError(here, f"repeated product ({pi},{pj})")
        terms = {}
        for t, term in enumerate(_expect(entry, "terms", here, list)):
            where = f"{here}/terms/{t}"
            if not isinstance(term, dict):
                raise DocumentError(where, "expected an object")
            k = _expect(term, "k", where, int)
            if k in terms:
                raise DocumentError(where, f"repeated product term {k}")
            terms[k] = parse_fraction(_expect(term, "coeff", where), where)
        products[(pi, pj)] = terms
    twists_obj = _expect(obj, "twists", pointer, list, default=None,
                         required=False)
    twists = None
    if twists_obj is not None:
        twists = []
        for i, entry in enumerate(twists_obj):
            here = f"{pointer}/twists/{i}"
            if not isinstance(entry, list):
                raise DocumentError(here, "expected a list")
            vec = {}
            for t, term in enumerate(entry):
                where = f"{here}/{t}"
                if not isinstance(term, dict):
                    raise DocumentError(where, "expected an object")
                k = _expect(term, "k", where, int)
                if k in vec:
                    raise DocumentError(where, f"repeated twist term {k}")
                vec[k] = parse_fraction(_expect(term, "coeff", where), where)
            twists.append(vec)
    try:
        return BaseRing(labels, degrees, products, twists)
    except ValueError as exc:
        raise DocumentError(pointer or "/", str(exc)) from exc


def base_to_document(base: BaseRing) -> dict:
    products = []
    for i in range(base.dim):
        for j in range(i, base.dim):
            if i == base.unit_index or j == base.unit_index:
                continue
            terms = base.product(i, j)
            products.append({
                "i": i, "j": j,
                "terms": [{"k": k, "coeff": fraction_str(q)}
                          for k, q in sorted(terms.items())]})
    doc = {
        "basis": [{"label": l, "degree": d}
                  for l, d in zip(base.labels, base.degrees)],
        "products": products,
    }
    if base.twists is not None:
        doc["twists"] = [[{"k": k, "coeff": fraction_str(q)}
                          for k, q in t] for t in base.twists]
    return doc


def dumps_canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DocumentError(str(path), f"invalid JSON: {exc}") from exc
