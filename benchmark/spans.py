"""Call spans around the library's public functions, for the traced run.

The library is not changed: `Tracer.install` replaces each listed function
by a wrapper, on every module of the package that holds a reference to it
(`from .lattice import cokernel` in `stacky` makes a binding that a patch
on `lattice` alone would miss), and methods on their class. `restore`
puts the originals back.

Each call records a span: name, start, end, parent span and op id. Spans
live in flat arrays while the run lasts and are written out once at the
end. A span's self time is its duration minus the time its direct
children cover; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from collections import Counter

# layer (module of the package) -> wrapped functions, `Class.method` for methods
TRACED = {
    "lattice": ("smith_normal_form", "solve_integer_linear", "cokernel",
                "kernel", "gale_dual"),
    "linalg": ("solve_exact", "rref", "nullspace", "rank"),
    "fan": ("SimplicialFan.cone_coefficients", "SimplicialFan.minimal_cone",
            "SimplicialFan.validate", "SimplicialFan.is_complete",
            "SimplicialFan.faces"),
    "stacky": ("ExtendedStackyFan.box", "ExtendedStackyFan.box_of_cone",
               "ExtendedStackyFan.box_decompose",
               "ExtendedStackyFan.box_complement",
               "ExtendedStackyFan.in_cone_sublattice",
               "ExtendedStackyFan.local_group",
               "ExtendedStackyFan.quotient_stacky_fan"),
    "chowring": ("orbifold_ring", "ordinary_chow_ring", "linear_relations",
                 "deformed_mul", "OrbifoldRing.mul",
                 "OrbifoldRing.to_json_dict"),
    "inertia": ("three_sectors", "obstruction_exponents",
                "inertia_components"),
    "resolution": ("validate_subdivision", "check_support_function",
                   "fiber_dimension_check"),
    "documents": ("parse_fan_document", "parse_base_document",
                  "dumps_canonical"),
    "cli": ("main",),
}

# useful outcomes over calls: metric suffix and the test on a result
OUTCOMES = {
    "fan.SimplicialFan.cone_coefficients": ("hit_ratio",
                                            lambda r: r is not None),
    "fan.SimplicialFan.minimal_cone": ("hit_ratio", lambda r: r is not None),
    "stacky.ExtendedStackyFan.in_cone_sublattice": ("hit_ratio", bool),
    "chowring.deformed_mul": ("nonzero_ratio", bool),
}

# name of the span the benchmark opens around each op
OP_SPAN = "op"
PACKAGE = "stackyring"


def traced_names():
    """Every wrapped function as `<layer>.<qualified name>`."""
    return [f"{layer}.{attr}" for layer, attrs in TRACED.items()
            for attr in attrs]


def layer_of(name):
    return name.split(".", 1)[0] if name != OP_SPAN else "benchmark"


def package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


class Tracer:
    """Span recorder; `install` and `restore` bracket a traced region."""

    def __init__(self):
        self.names = [OP_SPAN] + traced_names()
        self.name_ids = {n: i for i, n in enumerate(self.names)}
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.op_col = array("i")
        self.outcomes = Counter()
        self.op = -1
        self._stack = []
        self._patches = []

    # -- patching

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        for layer, attrs in TRACED.items():
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr in attrs:
                name = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    self._patch(owner, meth, name, vars(owner)[meth])
                    continue
                original = getattr(module, attr)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, name, original)

    def _patch(self, owner, key, name, original):
        setattr(owner, key, self._wrap(name, original))
        self._patches.append((owner, key, original))

    def restore(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def _wrap(self, name, fn):
        name_id = self.name_ids[name]
        names, starts, ends = self.name_col, self.start_col, self.end_col
        parents, ops, stack = self.parent_col, self.op_col, self._stack
        clock = time.perf_counter
        outcome = OUTCOMES.get(name)
        test = outcome[1] if outcome else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if test is not None and test(result):
                tracer.outcomes[name] += 1
            return result

        return wrapper

    # -- op spans

    def run_op(self, op_id, func, *args):
        """Call func(*args) inside the root span of op op_id."""
        self.op = op_id
        wrapped = self._wrap(OP_SPAN, func)
        try:
            return wrapped(*args)
        finally:
            self.op = -1

    # -- results

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        durations = array("d", (e - s for s, e in zip(self.start_col,
                                                       self.end_col)))
        child = array("d", bytes(8 * len(durations)))
        for i, p in enumerate(self.parent_col):
            if p >= 0:
                child[p] += durations[i]
        return array("d", (d - c for d, c in zip(durations, child)))

    def summary(self):
        """Totals per function: calls, self seconds, outcome hits."""
        selfs = self.self_times()
        calls = Counter()
        self_s = Counter()
        for nid, s in zip(self.name_col, selfs):
            calls[self.names[nid]] += 1
            self_s[self.names[nid]] += s
        return {name: {"calls": calls[name], "self_s": self_s[name],
                       "hits": self.outcomes[name]}
                for name in self.names}

    def write(self, path, t0, ops):
        """Write the spans of ops 0..ops-1, times relative to t0, as JSON."""
        rows = [[nid, round(s - t0, 7), round(e - t0, 7), p, op]
                for nid, s, e, p, op in zip(self.name_col, self.start_col,
                                            self.end_col, self.parent_col,
                                            self.op_col)
                if op < ops]
        doc = {"names": self.names,
               "columns": ["name", "start_s", "end_s", "parent", "op"],
               "spans": rows}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
