"""Orbifold Chow rings of toric stack bundles.

The deformed group ring A*(B)[N] has basis y^c tensor (basis of A*(B));
two y's multiply to y^{c1+c2} when some cone contains both c_bar1 and
c_bar2 and to zero otherwise. Each y^c computed here is keyed with the
minimal cone of c_bar, so that gate is one face lookup on the union of
two cones (see deformed_mul). Dividing by the linear relations attached
to the dual lattice M gives the orbifold Chow ring. The computation is
sector by sector: the ring splits as a direct sum over box elements v of
shifted copies of the untwisted subring, and each summand is reduced
degreewise by exact rational row reduction.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import (DecompositionMismatch, DimensionMismatch, IncompleteFan,
                     InfiniteDimensional, InternalInconsistency,
                     TwistArityMismatch)
from .fan import SimplicialFan, cone_mask
from .stacky import BoxElement, ExtendedStackyFan


def _reduce(pivots, row):
    """Normal form of a sparse row against pivots, zeros dropped.

    pivots maps a pivot column to its row. Invariant: each pivot row is 1
    at its own pivot column and zero at every other pivot column;
    _insert_row keeps it by clearing a new pivot's column from the older
    pivot rows. Clearing pivot column p therefore leaves the other pivot
    columns as they were and adds entries at non-pivot columns only, so
    one pass over the row's own columns suffices: afterwards no pivot
    column is left in the row.
    """
    row = dict(row)
    for p in sorted(row):
        f = row[p]
        if f and p in pivots:
            for p2, q2 in pivots[p].items():
                row[p2] = row.get(p2, Fraction(0)) - f * q2
    return {p: q for p, q in row.items() if q}


def _insert_row(pivots, row) -> bool:
    """Add row to the span of pivots; False when it was already in it."""
    row = _reduce(pivots, row)
    if not row:
        return False
    lead = min(row)
    inv = Fraction(1) / row[lead]
    new = {k: q * inv for k, q in row.items()}
    for p, existing in pivots.items():
        if lead in existing:
            f = existing[lead]
            merged = dict(existing)
            for k, q in new.items():
                merged[k] = merged.get(k, Fraction(0)) - f * q
            pivots[p] = {k: q for k, q in merged.items() if q}
    pivots[lead] = new
    return True


def _mul(product, a, b):
    """Product of two sparse vectors under the symmetric table product."""
    out = {}
    for t, q in a.items():
        for u, r in b.items():
            qr = q * r
            for s, x in product.get((t, u), {}).items():
                out[s] = out[s] + qr * x if s in out else qr * x
    return {s: q for s, q in out.items() if q}


def _generating_walk(degrees, unit, product):
    """Generators, spanning products s_i and their factors (p, h).

    Walking the basis in (degree, index) order, an element outside the
    span of the products recorded so far becomes a generator, and the span
    is closed again under multiplication by the generators. Every element
    is in the span when the walk ends, so the n recorded products s_i are
    a basis. s_0 = 1, and each later s_i was recorded as s_p h with p < i
    and h a generator; factors[i] = (p, h) and factors[0] is None. No
    assumption about degree 0 is made: on a gerbe every twisted sector has
    degree 0 and several of them may be needed.
    """
    generators, span = [], {}
    _insert_row(span, {unit: 1})
    spanning, factors = [{unit: 1}], [None]
    for g in sorted(range(len(degrees)), key=lambda i: (degrees[i], i)):
        if not _reduce(span, {g: 1}):
            continue
        generators.append(g)
        todo = [(p, g) for p in range(len(spanning))]
        while todo:
            p, h = todo.pop()
            prod = _mul(product, spanning[p], {h: 1})
            if _insert_row(span, prod):
                todo.extend((len(spanning), h2) for h2 in generators)
                spanning.append(prod)
                factors.append((p, h))
    return generators, spanning, factors


def _generators_commute(degrees, generators, product):
    """Check (1): g(hz) = h(gz) for generators g < h and basis elements z."""
    top = max(degrees)
    for a, g in enumerate(generators):
        for h in generators[a + 1:]:
            for z in range(len(degrees)):
                if degrees[g] + degrees[h] + degrees[z] > top:
                    continue
                if _mul(product, product.get((h, z), {}), {g: 1}) \
                        != _mul(product, product.get((g, z), {}), {h: 1}):
                    return False
    return True


def _spanning_pairs_factor(degrees, spanning, factors, product):
    """Check (2): s_i s_j = s_p (h s_j) for s_i = s_p h and every j >= i.

    An s_i recorded as 1 h is skipped: both sides are h s_j by the unit
    law, which is checked.
    """
    top = max(degrees)
    sdeg = [0]  # s_i is homogeneous, as the table is degree additive
    for p, h in factors[1:]:
        sdeg.append(sdeg[p] + degrees[h])
    times = {}  # (j, h) -> h s_j, shared by every s_i with the factor h
    for i in range(1, len(spanning)):
        p, h = factors[i]
        if p == 0:
            continue
        room = top - sdeg[i]
        for j in range(i, len(spanning)):
            if sdeg[j] > room:
                continue
            if (j, h) not in times:
                times[j, h] = _mul(product, spanning[j], {h: 1})
            if _mul(product, spanning[i], spanning[j]) \
                    != _mul(product, spanning[p], times[j, h]):
                return False
    return True


def _name_failing_triple(degrees, generators, product, error):
    """Raise error on the first (g, j, k), g a generator and j <= k, with
    g(jk) != (gj)k or g(jk) != (gk)j.

    This is the complete check by generators that _check_structure's
    certificate replaces. Let A = {a : a(xy) = (ax)y for all x, y}. A is
    a subspace, holds 1 by the unit law, and is closed under products: for
    a, b in A, (ab)(xy) = a(b(xy)) = a((bx)y) = (a(bx))y = ((ab)x)y. The
    scan puts each generator in A (by commutativity g(kj) = (gk)j covers
    j > k; one order alone would not), so A holds every left-nested product
    of generators and hence everything. So on a table the certificate
    refuses, which is not associative, the scan finds a triple; it runs on
    refusal only and words the error the same way whichever check failed.
    """
    top = max(degrees)
    n = len(degrees)
    for g in generators:
        for j in range(n):
            for k in range(j, n):
                if degrees[g] + degrees[j] + degrees[k] > top:
                    continue
                left = _mul(product, product.get((j, k), {}), {g: 1})
                if left != _mul(product, product.get((g, j), {}), {k: 1}) \
                        or left != _mul(product, product.get((g, k), {}),
                                        {j: 1}):
                    raise error(f"associativity fails on ({g},{j},{k})")


def _check_structure(degrees, unit, table, error):
    """Raise error unless the table is a graded, unital, associative ring.

    table maps sorted index pairs (i, j) to sparse {k: coefficient} dicts
    of the commutative product of basis elements i and j; omitted pairs
    multiply to zero. The checks run in this order: every stored entry is
    degree additive, the unit row is the identity, and associativity,
    certified from the generators and spanning products s_i = s_p h of
    _generating_walk by two checks:

    (1) g(hz) = h(gz) for all generators g < h and basis elements z;
    (2) s_i s_j = s_p (h s_j) for every s_i = s_p h and every j >= i.

    Both skip a product whose degrees add up to more than the top degree:
    degree additivity is checked, so both of its sides are zero. The cost
    is O(g^2 n + n^2 / 2) products for g generators, where a scan of g(jk)
    over all generators and pairs takes about 3 g n^2 / 2.

    Why they suffice. Write L_x for multiplication by x, M_0 = 1 and
    M_i = M_p L_h for s_i = s_p h. By (1) the L_g commute, so the M_i, as
    products of them, commute with each other. Claim: L_{s_i} = M_i and
    s_i = M_i 1. By induction on i: s_0 = 1 and L_1 = M_0 by the unit law.
    For i > 0, L_{s_p} = M_p, so M_i 1 = M_p h = s_p h = s_i. As the s_j
    are a basis, it remains to see s_i s_j = M_i s_j for every j:
    - for j >= i, check (2), or the unit law when s_p = 1, gives
      s_i s_j = L_{s_p} L_h s_j = M_i s_j;
    - for j < i, the table is symmetric and L_{s_j} = M_j already, so
      s_i s_j = s_j s_i = M_j M_i 1 = M_i M_j 1 = M_i s_j.
    So every L_x lies in the commutative algebra C that the L_g generate.
    An operator P in C is fixed by its value at 1: P z = P L_z 1 =
    L_z P 1 = z (P 1) = L_{P 1} z. L_x L_y is in C and sends 1 to xy, so
    L_x L_y = L_{xy}: x(yz) = (xy)z, which is associativity. Conversely
    an associative commutative table passes both checks. If either check
    fails, _name_failing_triple names the failing triple.
    """
    for (i, j), terms in table.items():
        want = degrees[i] + degrees[j]
        for k in terms:
            if degrees[k] != want:
                raise error(f"product ({i},{j}) not degree additive at {k}")
    # every stored product under both orders of its pair
    product = {(j, i): terms for (i, j), terms in table.items()}
    product.update(table)
    for j in range(len(degrees)):
        if product.get((unit, j)) != {j: 1}:
            raise error("unit law fails")

    generators, spanning, factors = _generating_walk(degrees, unit, product)
    if not (_generators_commute(degrees, generators, product)
            and _spanning_pairs_factor(degrees, spanning, factors, product)):
        _name_failing_triple(degrees, generators, product, error)
        raise InternalInconsistency(
            "associativity certificate refused a table the scan accepts")


class BaseRing:
    """A finite dimensional graded Q-algebra given by structure constants.

    labels name the basis, degrees are nonnegative ints with exactly one
    degree-0 element (the unit), and products map index pairs to sparse
    {index: coefficient} dicts; omitted pairs multiply to zero. Optional
    twist classes are degree-1 elements, one per fan coordinate, supplied
    via with_twists.
    """

    def __init__(self, labels, degrees, products, twists=None):
        self.labels = tuple(str(x) for x in labels)
        self.degrees = tuple(int(d) for d in degrees)
        if len(self.labels) != len(self.degrees):
            raise ValueError("labels and degrees must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")
        if any(d < 0 for d in self.degrees):
            raise ValueError("degrees must be nonnegative")
        units = [i for i, d in enumerate(self.degrees) if d == 0]
        if len(units) != 1:
            raise ValueError("need exactly one degree-0 basis element")
        self.unit_index = units[0]
        table = {}
        for (i, j), terms in products.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise ValueError(f"product key ({i}, {j}) out of range")
            entry = {}
            items = terms.items() if isinstance(terms, dict) else terms
            for k, q in items:
                k = self._term_index(k, "product")
                q = Fraction(q)
                if q:
                    entry[k] = entry.get(k, Fraction(0)) + q
            entry = {k: q for k, q in entry.items() if q}
            key = (min(i, j), max(i, j))
            if key in table and table[key] != entry:
                raise ValueError(f"conflicting products for {key}")
            table[key] = entry
        for j in range(self.dim):
            key = (min(self.unit_index, j), max(self.unit_index, j))
            table.setdefault(key, {j: Fraction(1)})
        self._table = table
        self.twists = self._normalize_twists(twists)
        _check_structure(self.degrees, self.unit_index, table, ValueError)

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def top_degree(self) -> int:
        return max(self.degrees)

    def label_index(self, label: str) -> int:
        return self.labels.index(label)

    def product(self, i, j):
        return dict(self._table.get((min(i, j), max(i, j)), {}))

    def _term_index(self, k, kind):
        k = int(k)
        if not 0 <= k < self.dim:
            raise ValueError(f"{kind} term index {k} out of range")
        return k

    def _normalize_twists(self, twists):
        if twists is None:
            return None
        out = []
        for t in twists:
            entry = {}
            items = t.items() if isinstance(t, dict) else enumerate(t)
            for k, q in items:
                if isinstance(k, str):
                    k = self.label_index(k)
                k = self._term_index(k, "twist")
                q = Fraction(q)
                if q:
                    if self.degrees[k] != 1:
                        raise ValueError(
                            f"twist class touches non-degree-1 label {k}")
                    entry[k] = q
            out.append(tuple(sorted(entry.items())))
        return tuple(out)

    def with_twists(self, twists) -> "BaseRing":
        products = {key: dict(val) for key, val in self._table.items()}
        return BaseRing(self.labels, self.degrees, products, twists)

    @classmethod
    def point(cls) -> "BaseRing":
        return cls(("1",), (0,), {})

    @classmethod
    def projective_space(cls, n: int) -> "BaseRing":
        """Q[H]/(H^{n+1}) with basis 1, H, ..., H^n."""
        labels = ["1"] + [f"H^{k}" if k > 1 else "H" for k in range(1, n + 1)]
        products = {}
        for i in range(n + 1):
            for j in range(i, n + 1):
                if i + j <= n:
                    products[(i, j)] = {i + j: 1}
                else:
                    products[(i, j)] = {}
        return cls(labels, list(range(n + 1)), products)

    @classmethod
    def tensor(cls, a: "BaseRing", b: "BaseRing") -> "BaseRing":
        """Tensor product with basis labels joined by '*'.

        Labels stay composite even across units so equal label names in
        the two factors cannot collide; only unit*unit is renamed "1".
        """
        labels = []
        degrees = []
        for ia, (la, da) in enumerate(zip(a.labels, a.degrees)):
            for ib, (lb, db) in enumerate(zip(b.labels, b.degrees)):
                if ia == a.unit_index and ib == b.unit_index:
                    labels.append("1")
                else:
                    labels.append(f"{la}*{lb}")
                degrees.append(da + db)
        idx = lambda ia, ib: ia * b.dim + ib
        products = {}
        for ia in range(a.dim):
            for ib in range(b.dim):
                for ja in range(a.dim):
                    for jb in range(b.dim):
                        entry = {}
                        for ka, qa in a.product(ia, ja).items():
                            for kb, qb in b.product(ib, jb).items():
                                entry[idx(ka, kb)] = qa * qb
                        products[(idx(ia, ib), idx(ja, jb))] = entry
        return cls(labels, degrees, products)


def stanley_reisner_generators(fan) -> tuple:
    """Minimal non-faces of the fan, each a sorted ray-index tuple.

    Sorted by size, then lexicographically. A minimal non-face s has
    every proper subset a face, so for any i in s it is f | {i} with
    f = s - {i} a face: the candidates f | {i}, f a face and i a ray
    outside f, hold every minimal non-face. A candidate that is no face
    but has every facet a face is minimal, since the faces are closed
    under subsets. So the work is |faces| * num_rays candidates, not
    the 2^num_rays subsets of the rays.
    """
    if isinstance(fan, ExtendedStackyFan):
        fan = fan.fan
    faces = set(fan.faces())
    out = set()
    for f in faces:
        for i in range(fan.num_rays):
            if i in f:
                continue
            s = tuple(sorted(f + (i,)))
            if s not in faces and all(s[:k] + s[k + 1:] in faces
                                      for k in range(len(s))):
                out.add(s)
    return tuple(sorted(out, key=lambda s: (len(s), s)))


def deformed_mul(sfan: ExtendedStackyFan, base: BaseRing, e1, e2):
    """Product in A*(B)[N]^Sigma: y^c1 y^c2 = y^{c1+c2} or 0 by the cone gate.

    Elements map keys (c, tau, label index) to coefficients, where tau is
    the minimal cone of c_bar as a cone_mask. The product of two keys is
    keyed (c1 + c2, tau1 | tau2, l3) when tau1 | tau2 is a face and
    vanishes otherwise. On a fan that validate() accepts this is the cone
    gate, some cone holding both c_bar1 and c_bar2, and the product's key
    carries its minimal cone again:

    - c_bar_k lies in the relative interior of tau_k: for the monomials
      see _sector_monomials, and the relation terms 0 and b_i of
      linear_relations lie in the relative interiors of the zero cone and
      of ray i. A maximal cone that holds c_bar_k holds it in the relative
      interior of one of its faces, and relative interiors of distinct
      cones are disjoint, so that face is tau_k: a maximal cone holds
      c_bar_k exactly when it contains tau_k.
    - So a maximal cone holds both exactly when it contains tau1 | tau2,
      and a common cone exists exactly when tau1 | tau2 is a face.
    - In that cone c_bar1 + c_bar2 has the coefficients of c_bar1 plus
      those of c_bar2, positive on exactly tau1 | tau2, so its minimal
      cone is tau1 | tau2.

    Keys must therefore come from a fan that validate() accepts;
    _assemble refuses any other fan before its first product.
    """
    faces = sfan.fan.face_masks()
    out = {}
    for (c1, t1, l1), q1 in e1.items():
        for (c2, t2, l2), q2 in e2.items():
            tau = t1 | t2
            if tau not in faces:
                continue
            c = sfan.group.add(c1, c2)
            q12 = q1 * q2
            for l3, s in base.product(l1, l2).items():
                key = (c, tau, l3)
                out[key] = out.get(key, Fraction(0)) + q12 * s
    return {k: q for k, q in out.items() if q}


def linear_relations(sfan: ExtendedStackyFan, base: BaseRing):
    """One relation per dual basis vector theta of M = Hom(N, Z).

    Each is c1(xi_theta) + sum over rays of theta(b_i) y^{b_i}, where the
    twist summand is sum over all m coordinates of theta(b_k) p_k. Their
    keys (see deformed_mul) are (0, zero cone, l) and (b_i, ray i, unit).
    """
    if base.twists is not None and len(base.twists) != sfan.m:
        raise TwistArityMismatch(
            f"{len(base.twists)} twist classes for {sfan.m} coordinates")
    zero = sfan.group.zero()
    relations = []
    for j in range(sfan.group.rank):
        rel = {}
        if base.twists is not None:
            for k in range(sfan.m):
                coef = sfan.vectors[k][j]
                if coef:
                    for li, q in base.twists[k]:
                        key = (zero, 0, li)
                        rel[key] = rel.get(key, Fraction(0)) + coef * q
        for i in range(sfan.n):
            coef = sfan.ray_lifts[i][j]
            if coef:
                key = (sfan.ray_lifts[i], 1 << i, base.unit_index)
                rel[key] = rel.get(key, Fraction(0)) + coef
        relations.append({k: q for k, q in rel.items() if q})
    return relations


@dataclass(frozen=True)
class RingBasisElement:
    """Monomial y^v prod y^{b_i}^{e_i} gamma in normal form."""

    sector: tuple
    exponents: tuple
    label: str
    degree: Fraction


def _sector_monomials(sfan, base, box, bound):
    """The monomials of the sector y^v S up to degree bound, sorted.

    Returns (degree, exponents, key) tuples for the monomials
    y^v prod y^{b_i}^{e_i} gamma, with key = (c, tau, label index),
    c = v + sum e_i b_i in N and tau = s | sigma(v) as a cone_mask. The key
    is the one deformed_mul multiplies; c and tau are computed once, here,
    where the monomials are enumerated, and this is the only place
    exponents and lattice elements meet. Products are looked up by key and
    never decomposed, because a key names one monomial:

    The exponents are supported on a face s with s + sigma(v) a face tau,
    so c_bar = v_bar + sum e_i b_bar_i has the positive coefficients
    a_i + e_i on tau (a_i in (0, 1) on sigma(v), zero off it) and lies in
    the relative interior of tau. On a fan that validate() accepts, the
    relative interiors of distinct cones are disjoint, so tau is the
    minimal cone of c_bar, and a cone's coefficients are unique, so these
    are its coefficients there. Their floors are e and their fractional
    parts are v's: box_decompose(c) = (v, e). As that is a function of c,
    (v, e) -> c is injective on the monomials of all sectors together.
    The same argument makes tau the minimal cone of c_bar, which is what
    deformed_mul's cone gate reads.
    """
    sigma = cone_mask(box.min_cone)
    faces = sfan.fan.face_masks()
    budget = int(bound - box.age)  # bound - age is a nonneg integer bound
    # age + step <= bound exactly when the integer step <= budget; one
    # object per degree, so equal degrees compare by identity
    degrees = [box.age + step for step in range(budget + 1)]
    out = []
    for s in sfan.fan.faces():
        tau = sigma | cone_mask(s)
        # the closed star of sigma(v): faces are closed under subsets, so
        # the kept s are exactly the subsets of the faces containing sigma(v)
        if len(s) > budget or tau not in faces:
            continue
        for exps in itertools.product(range(1, budget + 1), repeat=len(s)):
            total = sum(exps)
            if total > budget:
                continue
            full = [0] * sfan.n
            c = list(box.value)
            for i, e in zip(s, exps):
                full[i] = e
                for r, x in enumerate(sfan.ray_lifts[i]):
                    c[r] += e * x
            c = sfan.group.reduce(c)
            for li in range(base.dim):
                step = total + base.degrees[li]
                if step <= budget:
                    out.append((degrees[step], tuple(full), (c, tau, li)))
    out.sort()
    return out


class OrbifoldRing:
    """Explicit basis and full structure-constant table."""

    def __init__(self, sfan, base, sectors, basis, table):
        self.sfan = sfan
        self.base = base
        self.sectors = tuple(sectors)
        self.basis = tuple(basis)
        self._table = table
        self.unit_index = next(
            i for i, b in enumerate(self.basis)
            if b.degree == 0 and not any(b.exponents)
            and b.sector == sfan.group.zero())

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def product(self, i, j):
        return dict(self._table.get((min(i, j), max(i, j)), {}))

    def mul(self, vec_a, vec_b):
        out = {}
        for i, qa in vec_a.items():
            for j, qb in vec_b.items():
                for k, q in self.product(i, j).items():
                    out[k] = out.get(k, Fraction(0)) + qa * qb * q
        return {k: q for k, q in out.items() if q}

    def degree_histogram(self):
        return dict(Counter(b.degree for b in self.basis))

    def sector_indices(self, value):
        value = tuple(value)
        return tuple(i for i, b in enumerate(self.basis) if b.sector == value)

    def basis_index(self, sector, exponents, label) -> int:
        target = (tuple(sector), tuple(exponents), str(label))
        for i, b in enumerate(self.basis):
            if (b.sector, b.exponents, b.label) == target:
                return i
        raise KeyError(target)

    def to_json_dict(self):
        basis = [{"sector": list(b.sector),
                  "exponents": list(b.exponents),
                  "label": b.label,
                  "degree": str(b.degree)} for b in self.basis]
        products = []
        for (i, j) in sorted(self._table):
            for k, q in sorted(self._table[(i, j)].items()):
                products.append([i, j, k, str(q)])
        return {"dimension": self.dimension,
                "sectors": [list(s.value) for s in self.sectors],
                "basis": basis,
                "products": products}


def _assemble(sfan, base, sectors):
    """Basis and table of the sectors' sum, certified finite at cap + 1.

    cap is the top degree of the base plus the fan dimension d. Each
    sector's monomials are enumerated to degree cap + 1 only, and a class
    that survives in (cap, cap + 1] raises InfiniteDimensional. That
    suffices:

    - A monomial y^v prod y^{b_i}^{e_i} gamma has degree age(v) + sum e_i
      + deg gamma, and age(v) < d, so above cap some e_i is positive.
    - On the cone tau of its exponents and sigma(v), which holds both
      c - b_i and b_i, y^c = y^{c - b_i} y^{b_i}, and y^{c - b_i} is a
      monomial of the same sector one degree lower.
    - So by induction on the degree, once every monomial in (cap, cap + 1]
      lies in the relation ideal, every monomial of a higher degree does
      too: it is y^{b_i} times one that does.

    Hence every product of two basis classes whose degrees add up to more
    than cap is zero, and the table sets it so without a lookup; the other
    products reach degree cap at most, where every monomial is enumerated.
    """
    relations = linear_relations(sfan, base)
    diagnostics = sfan.validate()
    if diagnostics:
        raise ValueError(f"invalid fan: {[d.detail for d in diagnostics]}")
    if not sfan.fan.is_complete():
        raise IncompleteFan("ring computation requires a complete fan")
    cap = base.top_degree + sfan.fan.ambient_dim
    bound = cap + 1
    column = {}  # monomial key -> ((sector, degree), position in block)
    pivots = {}  # (sector, degree) -> reduced relation rows over the block
    index = {}   # ((sector, degree), position) of a survivor -> basis index
    basis = []
    reps = []    # the key of each basis element, as a deformed ring element
    by_degree = operator.itemgetter(0)
    for box in sectors:
        monomials = _sector_monomials(sfan, base, box, bound)
        blocks = {}  # degree -> its block key (sector, degree)
        for deg, group in itertools.groupby(monomials, key=by_degree):
            block = blocks[deg] = (box.value, deg)
            pivots[block] = {}
            for pos, (_, _, key) in enumerate(group):
                column[key] = (block, pos)
        for deg, _, key in monomials:
            if not relations or deg + 1 > bound:
                break  # the monomials ascend by degree
            target = blocks.get(deg + 1)
            for rel in relations:
                row = {}
                for k, q in deformed_mul(sfan, base, {key: Fraction(1)},
                                         rel).items():
                    # the row's terms are monomials of its own block
                    where = column.get(k)
                    if where is None or where[0] != target:
                        raise InternalInconsistency(
                            f"relation term escaped sector {box.value} "
                            f"at degree {deg + 1}")
                    row[where[1]] = q
                if row:
                    _insert_row(pivots[target], row)
        for deg, group in itertools.groupby(monomials, key=by_degree):
            block = blocks[deg]
            for pos, (_, exp, key) in enumerate(group):
                if pos in pivots[block]:
                    continue
                if deg > cap:
                    raise InfiniteDimensional(
                        f"sector {box.value} has a class at degree {deg}"
                        f" beyond the bound {cap}")
                index[block, pos] = len(basis)
                basis.append(RingBasisElement(box.value, exp,
                                              base.labels[key[2]], deg))
                reps.append({key: Fraction(1)})

    def reduce_element(elem):
        out = {}
        for key, q in elem.items():
            where = column.get(key)
            if where is None:
                raise InternalInconsistency(
                    "product term left the computed sectors")
            block, pos = where
            for p2, q2 in _reduce(pivots[block], {pos: q}).items():
                idx = index[block, p2]
                out[idx] = out.get(idx, Fraction(0)) + q2
        return {k: q for k, q in out.items() if q}

    table = {}
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            if basis[i].degree + basis[j].degree > cap:
                continue
            prod = reduce_element(deformed_mul(sfan, base, reps[i], reps[j]))
            if prod:
                table[(i, j)] = prod

    ring = OrbifoldRing(sfan, base, sectors, basis, table)
    _check_structure([b.degree for b in basis], ring.unit_index, table,
                     InternalInconsistency)
    return ring


def orbifold_ring(sfan: ExtendedStackyFan, base: BaseRing) -> OrbifoldRing:
    """The full orbifold ring: one shifted summand per box element."""
    return _assemble(sfan, base, sfan.box())


def ordinary_chow_ring(sfan: ExtendedStackyFan, base: BaseRing) -> OrbifoldRing:
    """The untwisted sector alone: the Chow ring of the coarse bundle."""
    zero = BoxElement(sfan.group.zero(), (), (), Fraction(0))
    return _assemble(sfan, base, [zero])


@dataclass(frozen=True)
class SectorReport:
    value: tuple
    age: Fraction
    dim: int
    histogram: tuple  # sorted (degree, count) pairs


def _induced_twists(sfan, base, sigma):
    if base.twists is None:
        return None
    link = sfan.link_ray_indices(sigma)
    keep = list(link) + list(range(sfan.n, sfan.m))
    return [dict(base.twists[k]) for k in keep]


def module_decomposition_report(ring: OrbifoldRing):
    """Per-sector dimensions and degree histograms, cross-checked.

    Each sector's histogram must equal the histogram of the ordinary ring
    of the quotient stacky fan (with the induced twist classes) shifted by
    the sector's age; a mismatch raises DecompositionMismatch.
    """
    reports = []
    for box in ring.sectors:
        idxs = ring.sector_indices(box.value)
        hist = Counter(ring.basis[i].degree for i in idxs)
        qsfan = ring.sfan.quotient_stacky_fan(box.min_cone)
        qbase = ring.base.with_twists(
            _induced_twists(ring.sfan, ring.base, box.min_cone))
        qring = ordinary_chow_ring(qsfan, qbase)
        shifted = Counter()
        for b in qring.basis:
            shifted[b.degree + box.age] += 1
        if shifted != hist:
            raise DecompositionMismatch(
                f"sector {box.value}: quotient histogram "
                f"{dict(shifted)} != sector histogram {dict(hist)}")
        reports.append(SectorReport(box.value, box.age, len(idxs),
                                    tuple(sorted(hist.items()))))
    return reports


def isomorphic_presentation_check(r1: OrbifoldRing, r2: OrbifoldRing,
                                  bijection) -> bool:
    """Do the structure constants agree under the given basis bijection?"""
    if r1.dimension != r2.dimension:
        raise DimensionMismatch(
            f"{r1.dimension} != {r2.dimension}")
    bij = [int(x) for x in bijection]
    if sorted(bij) != list(range(r1.dimension)):
        raise ValueError("bijection must be a permutation of the basis")
    for i in range(r1.dimension):
        if r1.basis[i].degree != r2.basis[bij[i]].degree:
            raise ValueError("bijection does not preserve degrees")
    for i in range(r1.dimension):
        for j in range(i, r1.dimension):
            mapped = {bij[k]: q for k, q in r1.product(i, j).items()}
            if mapped != r2.product(bij[i], bij[j]):
                return False
    return True
