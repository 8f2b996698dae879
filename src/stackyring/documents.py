"""JSON document schemas for fans, base rings, and computed output.

Rational numbers travel as "p/q" strings in lowest terms. On input an
int or any text n or n/d (an optional sign, then ASCII digits) is taken;
decimals and exponents are refused (see linalg._rational_text). Output
goes through dumps_canonical, which writes the bytes of
json.dumps(payload, sort_keys=True, indent=2) plus a newline directly,
so equal objects produce byte-identical documents. It takes
exactly the types payloads are built from (str, int, bool, None, list,
tuple, and dict with str keys) and refuses any other with a TypeError,
a float or a Fraction included.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .chowring import BaseRing
from .errors import DocumentError
from .lattice import FgAbGroup
from .linalg import _rational_text
from .stacky import ExtendedStackyFan


def parse_fraction(value, pointer: str) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError(pointer, "expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return _rational_text(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(pointer, f"bad rational {value!r}") from exc
    raise DocumentError(pointer, f"expected a rational, got {type(value).__name__}")


def fraction_str(q) -> str:
    """q as "p/q" text, "n" when integral; an int or Fraction is its own
    str, anything else (a bool too) is read as a Fraction first."""
    if type(q) is int or type(q) is Fraction:
        return str(q)
    return str(Fraction(q))


def _expect(obj, key, pointer, kind=None, default=None, required=True):
    if key not in obj:
        if required:
            raise DocumentError(pointer or "/", f"missing field {key!r}")
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
        products[(pi, pj)] = _terms(_expect(entry, "terms", here, list),
                                    f"{here}/terms", "product")
    twists_obj = _expect(obj, "twists", pointer, list, default=None,
                         required=False)
    twists = None
    if twists_obj is not None:
        twists = []
        for i, entry in enumerate(twists_obj):
            here = f"{pointer}/twists/{i}"
            if not isinstance(entry, list):
                raise DocumentError(here, "expected a list")
            twists.append(_terms(entry, here, "twist"))
    try:
        return BaseRing(labels, degrees, products, twists)
    except ValueError as exc:
        raise DocumentError(pointer or "/", str(exc)) from exc


def _terms(entries, pointer: str, kind: str) -> dict:
    """{k: coeff} from the [{"k", "coeff"}] list at pointer; a repeated k
    is refused as a repeated kind term."""
    terms = {}
    for t, term in enumerate(entries):
        where = f"{pointer}/{t}"
        if not isinstance(term, dict):
            raise DocumentError(where, "expected an object")
        k = _expect(term, "k", where, int)
        if k in terms:
            raise DocumentError(where, f"repeated {kind} term {k}")
        terms[k] = parse_fraction(_expect(term, "coeff", where), where)
    return terms


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
    """json.dumps(payload, sort_keys=True, indent=2) + "\n", written directly.

    With indent set, json.dumps leaves its C encoder for the pure-Python
    one; this writer produces the same bytes at a fraction of the cost.
    The json module's rules under sort_keys=True, indent=2 and the default
    ensure_ascii=True, and how _encode follows each:

    - a string is encode_basestring_ascii(s), the function json uses under
      ensure_ascii; an int (bool aside) is int.__repr__(n), which is
      repr(n) for an exact int and the digits alone for a subclass such as
      an IntEnum member, whose own repr differs; True, False and None are
      true, false and null;
    - an empty list or tuple is [] and an empty dict is {};
    - a nonempty container opens with [ or {, puts each item on its own
      line one indent (two spaces) deeper than the container's line, joins
      the items with "," + newline + indent, and closes on a new line at
      the container's own indent: _encode carries that line start as
      newline and writes the items at newline + "  ";
    - a dict's items come sorted by key and each reads key + ": " + value.

    Anything else raises TypeError naming its type: a float or a Fraction
    here, a dict key that is not a str in encode_basestring_ascii. There
    json.dumps would write the float and turn an int key into a string.
    """
    return _encode(payload, "\n") + "\n"


def _encode(value, newline: str) -> str:
    """One JSON value whose first line starts after newline (see above).

    A list or dict writes its items in one loop. Three kinds of item are
    written in place, without a call: an exact str or int (an int as
    repr(v), which the type check makes int.__repr__(v)); an empty list,
    as []; and a row, a list whose items are all exact str or int (a
    product [i, j, k, "q"], a sector value, an exponent list), as one
    join with its opener, separator and closer made once per level. The
    row's items sit one indent deeper than the row, as the recursive call
    would put them. A row that meets any other item (a bool, None, an int
    subclass such as an IntEnum member, a container, a float) is written
    again by the recursive call from its start, and so is every other
    item. The fast path thus only takes what the call would write the
    same way, and every refusal still comes from the call.
    """
    inner = newline + "  "
    row = inner + "  "
    row_open, row_sep, row_close = "[" + row, "," + row, inner + "]"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = []
        append = body.append
        for v in value:
            t = type(v)
            if t is str:
                append(encode_basestring_ascii(v))
            elif t is int:
                append(repr(v))
            elif t is list:
                if not v:
                    append("[]")
                    continue
                parts = []
                put = parts.append
                for x in v:
                    u = type(x)
                    if u is int:
                        put(repr(x))
                    elif u is str:
                        put(encode_basestring_ascii(x))
                    else:
                        append(_encode(v, inner))
                        break
                else:
                    append(row_open + row_sep.join(parts) + row_close)
            else:
                append(_encode(v, inner))
        return "[" + inner + ("," + inner).join(body) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = []
        append = body.append
        # keys are distinct, so sorting the items compares keys only
        for k, v in sorted(value.items()):
            k = encode_basestring_ascii(k) + ": "
            t = type(v)
            if t is str:
                append(k + encode_basestring_ascii(v))
            elif t is int:
                append(k + repr(v))
            elif t is list:
                if not v:
                    append(k + "[]")
                    continue
                parts = []
                put = parts.append
                for x in v:
                    u = type(x)
                    if u is int:
                        put(repr(x))
                    elif u is str:
                        put(encode_basestring_ascii(x))
                    else:
                        append(k + _encode(v, inner))
                        break
                else:
                    append(k + row_open + row_sep.join(parts) + row_close)
            else:
                append(k + _encode(v, inner))
        return "{" + inner + ("," + inner).join(body) + newline + "}"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"cannot write {type(value).__name__} as canonical JSON")


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DocumentError(str(path), f"invalid JSON: {exc}") from exc
