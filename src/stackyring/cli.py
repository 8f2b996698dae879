"""Command line front end.

Every subcommand reads JSON documents, performs one library operation, and
prints a canonical JSON payload (sorted keys, two-space indent) so repeated
runs are byte-identical. Exit codes: 0 on success, 1 when a document or the
mathematics it describes fails validation, 2 for usage errors such as bad
flags or unreadable files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import documents
from .chowring import BaseRing, orbifold_ring
from .errors import (ENUMERATION_BOUND, Diagnostic, DocumentError,
                     StackyError)
from .inertia import inertia_components, three_sectors
from .lattice import FgAbGroup, gale_dual
from .linalg import _integer_input
from .resolution import (Subdivision, check_support_function,
                         fiber_dimension_check, validate_subdivision)
from .stacky import ExtendedStackyFan


def _group_payload(group: FgAbGroup) -> dict:
    return {
        "rank": group.rank,
        "invariant_factors": list(group.invariant_factors),
        "order": group.order(),
        "description": group.describe(),
    }


def _load_fan(path) -> ExtendedStackyFan:
    return documents.parse_fan_document(documents.load_json(path))


def _load_base(path) -> BaseRing:
    if path is None:
        return BaseRing.point()
    return documents.parse_base_document(documents.load_json(path))


def _box_payload(elem) -> dict:
    return {
        "value": list(elem.value),
        "min_cone": list(elem.min_cone),
        "coeffs": [documents.fraction_str(q) for q in elem.coeffs],
        "age": documents.fraction_str(elem.age),
    }


def cmd_validate(args):
    try:
        sfan = _load_fan(args.fan)
        diagnostics = sfan.validate()
    except (DocumentError, StackyError, ValueError) as exc:
        payload = {"valid": False,
                   "diagnostics": [{"code": type(exc).__name__,
                                    "detail": str(exc)}]}
        return 1, payload
    # completeness is defined for validated fans only
    payload = {"valid": not diagnostics,
               "complete": not diagnostics and sfan.fan.is_complete(),
               "diagnostics": [d.to_json_dict() for d in diagnostics]}
    return (0 if not diagnostics else 1), payload


def cmd_gale(args):
    sfan = _load_fan(args.fan)
    beta = sfan.beta()
    gale = gale_dual(beta)
    dg, beta_vee = gale
    payload = {
        "source_rank": sfan.m,
        "dual_group": _group_payload(dg),
        "dual_matrix": [list(row) for row in beta_vee.matrix],
        "gerbe_group": _group_payload(gale.gerbe_group),
        "cokernel": _group_payload(gale.cokernel),
    }
    return 0, payload


def cmd_box(args):
    sfan = _load_fan(args.fan)
    box = sfan.box()
    payload = {"count": len(box),
               "elements": [_box_payload(b) for b in box]}
    return 0, payload


def cmd_inertia(args):
    sfan = _load_fan(args.fan)
    comps = inertia_components(sfan, args.order)
    payload = {"order": args.order, "count": len(comps), "components": []}
    quotients = {}
    for comp in comps:
        joint = comp.joint_cone
        quotient = quotients.get(joint)
        if quotient is None:
            quotient = quotients[joint] = documents.fan_to_document(
                sfan.quotient_stacky_fan(joint))
        payload["components"].append({
            "elements": [list(b.value) for b in comp.elements],
            "joint_cone": list(joint),
            "total_age": documents.fraction_str(comp.total_age),
            "quotient": quotient,
        })
    return 0, payload


def cmd_sectors(args):
    sfan = _load_fan(args.fan)
    sectors = []
    for comp in three_sectors(sfan):
        sectors.append({
            "elements": [list(b.value) for b in comp.elements],
            "joint_cone": list(comp.joint_cone),
            "total_age": documents.fraction_str(comp.total_age),
            "obstruction_rays": sorted(comp.obstruction_rays),
        })
    return 0, {"count": len(sectors), "sectors": sectors}


def _emit_ring(ring, out_path):
    payload = ring.to_json_dict()
    if out_path:
        text = documents.dumps_canonical(payload)
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return 0, {"written": out_path, "dimension": ring.dimension}
    return 0, payload


def cmd_ring(args):
    sfan = _load_fan(args.fan)
    base = _load_base(args.base)
    ring = orbifold_ring(sfan, base)
    return _emit_ring(ring, args.out)


def _integer_list(flag, text):
    """The comma-separated items of a flag's text, each read as
    linalg._integer_input reads an integer; DocumentError naming the flag
    when one is not written as an integer n."""
    try:
        return [_integer_input(x, flag) for x in text.split(",")]
    except ValueError as exc:
        raise DocumentError(flag, f"bad integer list {text!r}") from exc


def _integer_flag(text):
    """An integer flag's text read as _integer_list reads an item; a
    usage error otherwise."""
    try:
        return _integer_input(text, "flag")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from exc


def _parse_torsion(text):
    values = _integer_list("--torsion", text)
    if any(q < 1 for q in values):
        raise DocumentError("--torsion", "orders must be positive integers")
    return tuple(q for q in values if q > 1)


def cmd_gerbe(args):
    torsion = _parse_torsion(args.torsion)
    base = _load_base(args.base)
    group = FgAbGroup(0, torsion)
    extra = ((1,) * len(torsion),)
    sfan = ExtendedStackyFan.build(group, (), ((),), extra)
    ring = orbifold_ring(sfan, base)
    return _emit_ring(ring, args.out)


def cmd_resolve_check(args):
    coarse = _load_fan(args.coarse)
    refined = _load_fan(args.refined)
    diagnostics = []
    if refined.group != coarse.group or refined.extra:
        # a Subdivision keeps the refined fan alone, read over the coarse N
        diagnostics.append(Diagnostic(
            "NotSmooth",
            "refined fan must lie in the coarse lattice N, with no extra "
            "vectors"))
    sub = Subdivision(coarse, refined.fan)
    diagnostics += validate_subdivision(sub)
    if diagnostics:
        payload = {"valid": False,
                   "diagnostics": [d.to_json_dict() for d in diagnostics]}
        return 1, payload
    h_values = None
    if args.h is not None:
        h_values = _integer_list("--h", args.h)
    verdict = check_support_function(sub, h_values)
    payload = {"valid": True,
               "support_function": {
                   "h_values": list(verdict.h_values),
                   "interior_walls": verdict.interior_walls}}
    if args.base is not None or args.fiber:
        base = _load_base(args.base)
        report = fiber_dimension_check(sub, base)
        payload["fiber_dimensions"] = {
            "orbifold": report.dim_orbifold,
            "resolved": report.dim_resolved,
            "equal": report.equal,
        }
        if not report.equal:
            return 1, payload
    return 0, payload


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and kept for the process.

    It depends on nothing but this module's code, so one build serves every
    call of main. It names each command and binds no function: main looks
    cmd_<command> up per call.
    """
    parser = argparse.ArgumentParser(
        prog="stackyring",
        description="Exact orbifold Chow rings of toric stack bundles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the fan invariant suite")
    p.add_argument("fan", help="fan document (JSON)")

    p = sub.add_parser("gale", help="Gale dual map and gerbe group")
    p.add_argument("fan")

    p = sub.add_parser("box", help="box elements with ages")
    p.add_argument("fan")

    p = sub.add_parser("inertia", help="components of the r-th inertia stack")
    p.add_argument("fan")
    p.add_argument("--order", type=_integer_flag, default=2, metavar="R",
                   help="tuple length r (default 2); refused when the "
                   f"r-tuples would hold r |Box|^r > {ENUMERATION_BOUND} "
                   "box elements")

    p = sub.add_parser("sectors",
                       help="3-twisted sectors with obstruction exponents")
    p.add_argument("fan")

    p = sub.add_parser("ring", help="orbifold Chow ring table")
    p.add_argument("fan")
    p.add_argument("--base", help="base ring document (default: a point)")
    p.add_argument("--out", help="write the ring document to this path")

    p = sub.add_parser("gerbe", help="ring of a gerbe over the base")
    p.add_argument("--torsion", required=True, metavar="Q1,Q2,...",
                   help="orders of the cyclic factors of N")
    p.add_argument("--base", help="base ring document (default: a point)")
    p.add_argument("--out", help="write the ring document to this path")

    p = sub.add_parser("resolve-check",
                       help="verify a smooth subdivision and support function")
    p.add_argument("coarse", help="stacky fan document")
    p.add_argument("refined", help="refined fan document (same lattice)")
    p.add_argument("--h", metavar="V1,V2,...",
                   help="support function values, one per refined ray")
    p.add_argument("--base", help="base ring document for the fiber check")
    p.add_argument("--fiber", action="store_true",
                   help="run the fiber dimension check over a point")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        code, payload = command(args)
    except OSError as exc:
        print(json.dumps({"error": {"type": "io", "detail": str(exc)}}),
              file=sys.stderr)
        return 2
    except (DocumentError, StackyError, ValueError) as exc:
        payload = {"error": {"type": type(exc).__name__, "detail": str(exc)}}
        sys.stdout.write(documents.dumps_canonical(payload))
        return 1
    sys.stdout.write(documents.dumps_canonical(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
