"""Seeded inputs, operations and output checks for the benchmark workloads.

Every workload is a list of items generated from a seed. The library only
ever sees the generated documents: an operation parses its item's
documents, runs the computation and renders the canonical JSON a user
would read. The checks test properties of that JSON that hold however the
ring or the sectors were computed, so they stay valid when the algorithms
change.

The seed draws the weights of the wps_ring planes within fixed weight
sums and the torsion and entries of the cli_sweep Gale maps within fixed
shapes, and it changes every input's presentation (coordinates, ray
order, group decomposition, extra data). Group orders, Gale map shapes
and the inertia_sectors 3-space weights are fixed: their op times differ
by up to 2x within a size class, and a seeded choice would make the
run's mix of work depend on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from stackyring import chowring, cli, documents, fixtures, inertia, lattice

# Each op takes about 0.1-0.5 s on a 2.1 GHz Xeon, so a 20 s run holds
# 40-75 ops: enough for a steady median and a tail with ten samples
# beyond it. The seed never changes how many inputs of each size class a
# workload has, so the mix of work in a run does not depend on it.

# Weighted projective planes with weights in 1..5, gcd 1 and weight sum
# (the ring dimension) 10-14; there are 3, 4, 2, 2 and 1 weight triples of
# these sums. For each sum the seed draws this many triples, no triple
# more often than another of its sum by more than one, and gives every
# draw its own presentation. The op time grows with the sum and differs by
# up to 1.5x between triples of one sum, so fixed, balanced counts keep the
# mix of work the same for every seed.
WPS_RING_DRAWS = {10: 2, 11: 3, 12: 4, 13: 4, 14: 2}

# Inputs per size class of gerbe_table and inertia_sectors. The op time
# of one class moves by up to 1.5x with the seeded presentation (the
# decomposition of G, the extra vector, the ray order), so a run times
# several presentations of each class and its median does not hang on
# one draw.
PER_CLASS = 6

# Rank-0 gerbes whose rings all have dimension 48: |G| = 24 over P^1 and
# |G| = 16 over P^2. The seed picks the cyclic decomposition of G.
GERBE_TABLE_CLASSES = ((24, 1), (16, 2))

# 3-sector inputs: gerbes of order 16 with one and with two cyclic
# factors, and weighted projective 3-spaces.
INERTIA_GERBE_CLASSES = ((16, 1), (16, 2))
INERTIA_WPS_WEIGHTS = ((1, 1, 2, 4), (1, 2, 2, 3))

# torsion of the seeded Gale maps, order at most 36, by number of factors
# (2 stands for two or more)
TORSION_CHOICES = {
    0: ((),),
    1: ((2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (12,), (36,)),
    2: ((2, 2), (2, 4), (3, 3), (2, 12), (3, 12), (2, 2, 2), (2, 2, 3, 3)),
}
# (free rank of N, torsion factors, columns m) of the 24 Gale maps of a
# pass. The seed draws each map's torsion and entries; the shapes are
# fixed because op time grows with them and a seeded mix of shapes would
# move the workload's median op with the seed.
GALE_SHAPES = tuple((rank, factors, m) for rank in range(4)
                    for factors in TORSION_CHOICES for m in (rank + 2, 6))

CLI_SUBCOMMANDS = (("validate",), ("gale",), ("box",),
                   ("inertia", "--order", "2"), ("sectors",), ("ring",))
# its `sectors` call alone takes several seconds and would swamp a pass
CLI_EXCLUDED_FANS = ("gerbe_z4z9",)
# run as separate processes to measure what a shell user waits for
CLI_COLD_COMMANDS = (("ring", "p112"), ("gale", "p2"))


@dataclass
class Item:
    """One input of a workload: documents plus independent expectations."""

    key: str
    kind: str
    docs: dict
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------- generators


def weight_projection(weights):
    """Rows of an integer projection Z^n -> Z^(n-1) whose kernel is Z*w.

    Extended Euclid on the entries of w builds a unimodular U with
    U w = (+-gcd, 0, ..., 0); the rows of U after the first annihilate w
    and map onto Z^(n-1), so they present the cokernel of Z -> Z^n.
    """
    n = len(weights)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = list(weights)
    for k in range(1, n):
        while v[k]:
            q = v[0] // v[k]
            v[0], v[k] = v[k], v[0] - q * v[k]
            u[0], u[k] = u[k], [a - q * b for a, b in zip(u[0], u[k])]
    if abs(v[0]) != 1:
        raise ValueError(f"weights {weights} are not coprime")
    return u[1:]


def coprime_weights(n, total, top=5):
    """Nondecreasing n-tuples in 1..top with gcd 1 and the given sum."""
    return [w for w in itertools.combinations_with_replacement(
                range(1, top + 1), n)
            if sum(w) == total and math.gcd(*w) == 1]


def balanced_draw(pool, count, rng):
    """count seeded draws from pool, each member drawn once per round.

    A round draws every member once, the last round as many as are left,
    so no member is drawn more than once more often than another.
    """
    out = []
    while len(out) < count:
        out += rng.sample(pool, min(len(pool), count - len(out)))
    return out


def wps_document(weights, rng):
    """P(w) as a fan document: rays are the images of e_i in Z^n / Zw.

    The quotient basis comes from the sorted weights, so every seed gets
    lattice vectors of the same size; the seed then permutes the rays and
    applies a signed permutation to the coordinates. Every (n-1)-subset
    of rays spans a maximal cone.
    """
    n = len(weights)
    d = n - 1
    weights = sorted(weights)
    proj = weight_projection(weights)
    order = list(range(n))
    rng.shuffle(order)
    perm = list(range(d))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(d)]
    rays = [[signs[r] * proj[perm[r]][i] for r in range(d)] for i in order]
    cones = [list(c) for c in itertools.combinations(range(n), d)]
    doc = {"group": {"rank": d, "torsion": []}, "rays": rays,
           "cones": cones, "extra": []}
    return doc, [weights[i] for i in order]


def cyclic_decompositions(order, factors=(1, 2, 3)):
    """Nondecreasing tuples of cyclic orders >= 2 with the given product.

    factors lists the allowed tuple lengths.
    """
    out = []

    def grow(prefix, rest):
        if rest == 1:
            if len(prefix) in factors:
                out.append(tuple(prefix))
            return
        if len(prefix) == max(factors):
            return
        lo = prefix[-1] if prefix else 2
        for q in range(lo, rest + 1):
            if rest % q == 0:
                grow(prefix + [q], rest // q)

    grow([], order)
    return out


def gerbe_document(torsion, rng):
    """Rank-0 gerbe BG as a fan document with one seeded extra vector."""
    extra = [rng.randrange(1, q) for q in torsion]
    return {"group": {"rank": 0, "torsion": list(torsion)}, "rays": [],
            "cones": [[]], "extra": [extra]}


def projective_base_document(n, twists=None):
    """A*(P^n) = Q[H]/(H^(n+1)) as a base document."""
    basis = [{"label": "1", "degree": 0}]
    basis += [{"label": "H" if k == 1 else f"H^{k}", "degree": k}
              for k in range(1, n + 1)]
    products = [{"i": i, "j": j,
                 "terms": ([{"k": i + j, "coeff": 1}] if i + j <= n else [])}
                for i in range(1, n + 1) for j in range(i, n + 1)]
    doc = {"basis": basis, "products": products}
    if twists is not None:
        doc["twists"] = twists
    return doc


def random_finite_cokernel_map(rng, rank, factors, m):
    """A random Z^m -> N of the given shape with finite cokernel, as data."""
    torsion = rng.choice(TORSION_CHOICES[factors])
    while True:
        cols = [[rng.randint(-4, 4) for _ in range(rank + len(torsion))]
                for _ in range(m)]
        if _free_rank(cols, rank) == rank:
            return {"rank": rank, "torsion": list(torsion), "columns": cols}


def _free_rank(cols, rank):
    # fraction-free elimination on the free rows of the column matrix
    rows = [[col[i] for col in cols] for i in range(rank)]
    r = 0
    for col in range(len(cols)):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                a, b = rows[r][col], rows[i][col]
                rows[i] = [a * x - b * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def _wps_item(weights, rng, kind):
    doc, w = wps_document(weights, rng)
    name = "P(" + ",".join(map(str, w)) + ")"
    docs = {"fan": doc}
    if kind == "ring":
        docs["base"] = projective_base_document(0)
    return Item(name, kind, docs,
                {"dimension": sum(w), "top_degree": len(w) - 1})


def _gerbe_torsion(order, rng, factors=(1, 2, 3)):
    torsion = list(rng.choice(cyclic_decompositions(order, factors)))
    rng.shuffle(torsion)
    return torsion


def _gerbe_name(torsion):
    return "BG(" + "x".join(f"Z/{q}" for q in torsion) + ")"


def _gerbe_ring_item(order, base_n, rng):
    torsion = _gerbe_torsion(order, rng)
    fan = gerbe_document(torsion, rng)
    twists = [[{"k": 1, "coeff": rng.randint(-2, 2)}]]
    base = projective_base_document(base_n, twists)
    return Item(f"{_gerbe_name(torsion)}/P{base_n}", "ring",
                {"fan": fan, "base": base},
                {"dimension": order * (base_n + 1), "top_degree": base_n})


def _gerbe_sectors_item(order, factors, rng):
    torsion = _gerbe_torsion(order, rng, (factors,))
    return Item(_gerbe_name(torsion), "sectors",
                {"fan": gerbe_document(torsion, rng)}, {"order": order})


def wps_ring_items(rng):
    return [_wps_item(w, rng, "ring")
            for total, count in WPS_RING_DRAWS.items()
            for w in balanced_draw(coprime_weights(3, total), count, rng)]


def gerbe_table_items(rng):
    return [_gerbe_ring_item(order, base_n, rng)
            for order, base_n in GERBE_TABLE_CLASSES
            for _ in range(PER_CLASS)]


def inertia_items(rng):
    items = [_gerbe_sectors_item(order, factors, rng)
             for order, factors in INERTIA_GERBE_CLASSES
             for _ in range(PER_CLASS)]
    items += [_wps_item(w, rng, "sectors") for w in INERTIA_WPS_WEIGHTS
              for _ in range(PER_CLASS)]
    return items


def cli_sweep_items(rng):
    items = []
    for fan, base in fixtures.RING_CASES:
        if fan in CLI_EXCLUDED_FANS:
            continue
        for sub in CLI_SUBCOMMANDS:
            argv = [sub[0], fan] + list(sub[1:])
            if sub[0] == "ring":
                argv += ["--base", base]
            items.append(Item(" ".join(argv), "cli", {"argv": argv}))
    argv = ["resolve-check", "p112", "p112_hirzebruch", "--fiber"]
    items.append(Item(" ".join(argv), "cli", {"argv": argv}))
    for k, shape in enumerate(GALE_SHAPES):
        beta = random_finite_cokernel_map(rng, *shape)
        items.append(Item(f"gale_dual#{k}", "gale", {"beta": beta},
                          {"dual_rank": len(beta["columns"]) - beta["rank"]}))
    rng.shuffle(items)
    return items


GENERATORS = {
    "wps_ring": wps_ring_items,
    "gerbe_table": gerbe_table_items,
    "inertia_sectors": inertia_items,
    "cli_sweep": cli_sweep_items,
}


def make_items(workload, seed):
    """The seeded input list of a workload; the timed loop cycles over it."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------- operations


def cli_argv(argv):
    """Replace fixture names by their document paths."""
    out = []
    for arg in argv:
        if arg in fixtures.FAN_FIXTURES or arg in fixtures.BASE_FIXTURES:
            arg = str(fixtures.fixture_path(arg))
        out.append(arg)
    return out


def parse_item(item):
    """Parse the item's documents into library objects (set-up work)."""
    if item.kind == "ring":
        return (documents.parse_fan_document(item.docs["fan"]),
                documents.parse_base_document(item.docs["base"]))
    if item.kind == "sectors":
        return documents.parse_fan_document(item.docs["fan"])
    if item.kind == "gale":
        beta = item.docs["beta"]
        group = lattice.FgAbGroup(beta["rank"], tuple(beta["torsion"]))
        return lattice.GroupHom.from_columns(len(beta["columns"]), group,
                                             beta["columns"])
    for arg in cli_argv(item.docs["argv"]):
        if arg.endswith(".json"):
            documents.load_json(arg)
    return None


def sectors_payload(sfan):
    """What `stackyring sectors` prints, built from the library calls."""
    sectors = []
    for comp in inertia.three_sectors(sfan):
        g1, g2, g3 = comp.elements
        rays = inertia.obstruction_exponents(sfan, g1, g2, g3)
        sectors.append({
            "elements": [list(b.value) for b in comp.elements],
            "joint_cone": list(comp.joint_cone),
            "total_age": documents.fraction_str(comp.total_age),
            "obstruction_rays": sorted(rays),
        })
    return {"count": len(sectors), "sectors": sectors}


def run_op(item):
    """One operation: returns (exit code, payload, canonical output text)."""
    if item.kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(cli_argv(item.docs["argv"]))
        return code, None, buf.getvalue()
    if item.kind == "gale":
        dg, beta_vee = lattice.gale_dual(parse_item(item))
        payload = {"dual_rank": dg.rank, "dual_torsion": list(dg.torsion),
                   "dual_matrix": [list(r) for r in beta_vee.matrix]}
    elif item.kind == "ring":
        sfan, base = parse_item(item)
        payload = chowring.orbifold_ring(sfan, base).to_json_dict()
    else:
        payload = sectors_payload(parse_item(item))
    return 0, payload, documents.dumps_canonical(payload)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------- checks


def check_ring(expect, payload):
    """Dimension and orbifold Poincare duality of the degree histogram."""
    problems = []
    degrees = [Fraction(b["degree"]) for b in payload["basis"]]
    if payload["dimension"] != len(degrees):
        problems.append("dimension field disagrees with the basis")
    if len(degrees) != expect["dimension"]:
        problems.append(f"dimension {len(degrees)} != {expect['dimension']}")
    hist = Counter(degrees)
    top = expect["top_degree"]
    if any(hist[top - d] != c for d, c in hist.items()):
        problems.append(f"degree histogram not symmetric about {top}")
    return problems


def check_sectors(expect, payload):
    """3-sector invariants that hold for any enumeration strategy.

    For a 3-sector (g1, g2, g3) every coefficient of g1 + g2 + g3 over the
    joint cone is 1 or 2, so the total age is |joint cone| plus the number
    of obstruction rays. The complement relation is symmetric, so the set
    of triples is closed under rotation with the same obstruction rays.
    On a gerbe every pair of group elements gives one sector.
    """
    problems = []
    sectors = payload["sectors"]
    if payload["count"] != len(sectors):
        problems.append("count field disagrees with the sector list")
    if "order" in expect and len(sectors) != expect["order"] ** 2:
        problems.append(f"{len(sectors)} sectors != |G|^2 = "
                        f"{expect['order'] ** 2}")
    table = {}
    for s in sectors:
        triple = tuple(tuple(e) for e in s["elements"])
        rays = tuple(s["obstruction_rays"])
        if Fraction(s["total_age"]) != len(s["joint_cone"]) + len(rays):
            problems.append(f"age of {triple} != cone size + obstruction")
        if triple in table:
            problems.append(f"sector {triple} listed twice")
        table[triple] = rays
    for (g1, g2, g3), rays in table.items():
        if table.get((g2, g3, g1)) != rays:
            problems.append(f"rotation of {(g1, g2, g3)} is missing")
            break
    return problems


def check_output(item, code, payload, text, recorded):
    """Problems with one op's output; an empty list means it passed."""
    if item.kind == "cli":
        problems = [] if code == 0 else [f"exit code {code}"]
        want = recorded.get(item.key)
        if want is None:
            problems.append("no recorded digest")
        elif digest(text) != want:
            problems.append("stdout differs from the recorded digest")
        return problems
    if item.kind == "gale":
        if payload["dual_rank"] != item.expect["dual_rank"]:
            return [f"rank of DG {payload['dual_rank']} != "
                    f"m - rank(N) = {item.expect['dual_rank']}"]
        return []
    if item.kind == "ring":
        return check_ring(item.expect, payload)
    return check_sectors(item.expect, payload)
