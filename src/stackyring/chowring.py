"""Orbifold Chow rings of toric stack bundles.

The deformed group ring A*(B)[N] has basis y^c tensor (basis of A*(B));
two y's multiply to y^{c1+c2} when some cone contains both images and to
zero otherwise. Dividing by the linear relations attached to the dual
lattice M gives the orbifold Chow ring. The computation is sector by
sector: the ring splits as a direct sum over box elements v of shifted
copies of the untwisted subring, and each summand is reduced degreewise
by exact rational row reduction.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import (DecompositionMismatch, DimensionMismatch, IncompleteFan,
                     InfiniteDimensional, TwistArityMismatch)
from .fan import SimplicialFan
from .stacky import BoxElement, ExtendedStackyFan


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
                q = Fraction(q)
                if q:
                    entry[int(k)] = entry.get(int(k), Fraction(0)) + q
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
        self._check()

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
                q = Fraction(q)
                if q:
                    if self.degrees[k] != 1:
                        raise ValueError(
                            f"twist class touches non-degree-1 label {k}")
                    entry[int(k)] = q
            out.append(tuple(sorted(entry.items())))
        return tuple(out)

    def _check(self):
        for (i, j), terms in self._table.items():
            want = self.degrees[i] + self.degrees[j]
            for k, q in terms.items():
                if self.degrees[k] != want:
                    raise ValueError(
                        f"product ({i},{j}) not degree additive at {k}")
        for j in range(self.dim):
            if self.product(self.unit_index, j) != {j: Fraction(1)}:
                raise ValueError("unit law fails")
        for i in range(self.dim):
            for j in range(i, self.dim):
                for k in range(j, self.dim):
                    left = self._mul_vec(self.product(i, j), k)
                    right = self._mul_vec(self.product(j, k), i)
                    if left != right:
                        raise ValueError(
                            f"associativity fails on ({i},{j},{k})")

    def _mul_vec(self, vec, idx):
        out = {}
        for t, q in vec.items():
            for k, s in self.product(t, idx).items():
                out[k] = out.get(k, Fraction(0)) + q * s
        return {k: q for k, q in out.items() if q}

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
    """Minimal non-faces of the fan, each a sorted ray-index tuple."""
    if isinstance(fan, ExtendedStackyFan):
        fan = fan.fan
    faces = set(fan.faces())
    n = fan.num_rays
    out = []
    for size in range(1, n + 1):
        for s in itertools.combinations(range(n), size):
            if s in faces:
                continue
            if any(set(t) <= set(s) for t in out):
                continue
            if all(tuple(sorted(set(s) - {i})) in faces for i in s):
                out.append(s)
    return tuple(out)


def deformed_mul(sfan: ExtendedStackyFan, base: BaseRing, e1, e2):
    """Product in A*(B)[N]^Sigma: y^c1 y^c2 = y^{c1+c2} or 0 by the cone gate."""
    out = {}
    for (c1, l1), q1 in e1.items():
        for (c2, l2), q2 in e2.items():
            if sfan.fan.minimal_cone([sfan.bar(c1), sfan.bar(c2)]) is None:
                continue
            c = sfan.group.add(c1, c2)
            q12 = q1 * q2
            for l3, s in base.product(l1, l2).items():
                key = (c, l3)
                out[key] = out.get(key, Fraction(0)) + q12 * s
    return {k: q for k, q in out.items() if q}


def _twist_arity_check(sfan, base):
    if base.twists is not None and len(base.twists) != sfan.m:
        raise TwistArityMismatch(
            f"{len(base.twists)} twist classes for {sfan.m} coordinates")


def linear_relations(sfan: ExtendedStackyFan, base: BaseRing):
    """One relation per dual basis vector theta of M = Hom(N, Z).

    Each is c1(xi_theta) + sum over rays of theta(b_i) y^{b_i}, where the
    twist summand is sum over all m coordinates of theta(b_k) p_k.
    """
    _twist_arity_check(sfan, base)
    zero = sfan.group.zero()
    relations = []
    for j in range(sfan.group.rank):
        rel = {}
        if base.twists is not None:
            for k in range(sfan.m):
                coef = sfan.vectors[k][j]
                if coef:
                    for li, q in base.twists[k]:
                        key = (zero, li)
                        rel[key] = rel.get(key, Fraction(0)) + coef * q
        for i in range(sfan.n):
            coef = sfan.ray_lifts[i][j]
            if coef:
                key = (sfan.ray_lifts[i], base.unit_index)
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


class _SectorSpace:
    """Degreewise reduction of one sector y^v S against the relation ideal."""

    def __init__(self, sfan, base, box, relations, bound):
        self.box = box
        self.sfan = sfan
        self.base = base
        sigma_v = set(box.min_cone)
        supports = set()
        for f in sfan.fan.faces():
            if sigma_v <= set(f):
                for k in range(len(f) + 1):
                    for s in itertools.combinations(f, k):
                        supports.add(s)
        budget = int(bound - box.age)  # bound - age is a nonneg integer bound
        keys = []
        for s in sorted(supports):
            if len(s) > budget:
                continue
            for exps in itertools.product(range(1, budget + 1), repeat=len(s)):
                total = sum(exps)
                if total > budget:
                    continue
                full = [0] * sfan.n
                for i, e in zip(s, exps):
                    full[i] = e
                for li in range(base.dim):
                    deg = box.age + total + base.degrees[li]
                    if deg <= bound:
                        keys.append((deg, tuple(full), li))
        keys.sort()
        self.monomials = {}
        self.position = {}
        for deg, exp, li in keys:
            lst = self.monomials.setdefault(deg, [])
            self.position[(exp, li)] = (deg, len(lst))
            lst.append((exp, li))
        self._pivots = {deg: {} for deg in self.monomials}
        self._fill_relations(relations, bound)
        self.survivors = {
            deg: [p for p in range(len(monos)) if p not in self._pivots[deg]]
            for deg, monos in self.monomials.items()}

    def _fill_relations(self, relations, bound):
        if not relations:
            return
        for (exp, li), (deg, _) in sorted(self.position.items(),
                                          key=lambda kv: kv[1]):
            if deg + 1 > bound:
                continue
            elem = {(self._monomial_value(exp), li): Fraction(1)}
            for rel in relations:
                prod = deformed_mul(self.sfan, self.base, elem, rel)
                if prod:
                    self._insert_row(deg + 1, self._to_positions(prod))

    def _monomial_value(self, exp):
        v = list(self.box.value)
        for i, e in enumerate(exp):
            if e:
                for r in range(self.sfan.group.coords):
                    v[r] += e * self.sfan.ray_lifts[i][r]
        return self.sfan.group.reduce(v)

    def _to_positions(self, elem):
        row = {}
        for (c, li), q in elem.items():
            v2, mult = self.sfan.box_decompose(c)
            if v2.value != self.box.value:
                raise AssertionError("relation term escaped its sector")
            exp = tuple(mult.get(i, 0) for i in range(self.sfan.n))
            _, pos = self.position[(exp, li)]
            row[pos] = row.get(pos, Fraction(0)) + q
        return {p: q for p, q in row.items() if q}

    def _insert_row(self, deg, row):
        pivots = self._pivots[deg]
        row = dict(row)
        for p in sorted(row):
            if p in pivots and row.get(p):
                f = row[p]
                for p2, q2 in pivots[p].items():
                    row[p2] = row.get(p2, Fraction(0)) - f * q2
                row = {k: q for k, q in row.items() if q}
        if not row:
            return
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

    def reduce(self, deg, row):
        """Normal form of a vector at the given degree, on survivors only."""
        if deg not in self._pivots:
            if row:
                raise AssertionError("vector at unknown degree")
            return {}
        pivots = self._pivots[deg]
        row = dict(row)
        for p in sorted(row):
            if p in pivots and row.get(p):
                f = row[p]
                for p2, q2 in pivots[p].items():
                    row[p2] = row.get(p2, Fraction(0)) - f * q2
        return {p: q for p, q in row.items() if q and p not in pivots}


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
    _twist_arity_check(sfan, base)
    diagnostics = sfan.validate()
    if diagnostics:
        raise ValueError(f"invalid fan: {[d.detail for d in diagnostics]}")
    if not sfan.fan.is_complete():
        raise IncompleteFan("ring computation requires a complete fan")
    cap = base.top_degree + sfan.fan.ambient_dim
    bound = 2 * cap
    relations = linear_relations(sfan, base)
    spaces = {}
    basis = []
    locator = {}
    for box in sectors:
        space = _SectorSpace(sfan, base, box, relations, bound)
        spaces[box.value] = space
        for deg in sorted(space.monomials):
            for pos in space.survivors[deg]:
                if deg > cap:
                    raise InfiniteDimensional(
                        f"sector {box.value} has a class at degree {deg}"
                        f" beyond the bound {cap}")
                exp, li = space.monomials[deg][pos]
                locator[(box.value, deg, pos)] = len(basis)
                basis.append(RingBasisElement(box.value, exp,
                                              base.labels[li], deg))

    def reduce_element(elem):
        out = {}
        for (c, li), q in elem.items():
            v2, mult = sfan.box_decompose(c)
            exp = tuple(mult.get(i, 0) for i in range(sfan.n))
            space = spaces.get(v2.value)
            if space is None:
                raise AssertionError("product term left the computed sectors")
            deg, pos = space.position[(exp, li)]
            for p2, q2 in space.reduce(deg, {pos: q}).items():
                idx = locator[(v2.value, deg, p2)]
                out[idx] = out.get(idx, Fraction(0)) + q2
        return {k: q for k, q in out.items() if q}

    reps = []
    for b in basis:
        space = spaces[b.sector]
        value = space._monomial_value(b.exponents)
        reps.append({(value, base.label_index(b.label)): Fraction(1)})

    table = {}
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            prod = reduce_element(deformed_mul(sfan, base, reps[i], reps[j]))
            want = basis[i].degree + basis[j].degree
            for k in prod:
                if basis[k].degree != want:
                    raise AssertionError("product not degree additive")
            if prod:
                table[(i, j)] = prod

    ring = OrbifoldRing(sfan, base, sectors, basis, table)
    _verify_table(ring)
    return ring


def _verify_table(ring: OrbifoldRing):
    u = ring.unit_index
    for j in range(ring.dimension):
        if ring.product(u, j) != {j: Fraction(1)}:
            raise AssertionError(f"unit law fails at {j}")
    for i in range(ring.dimension):
        for j in range(i, ring.dimension):
            for k in range(j, ring.dimension):
                left = ring.mul(ring.product(i, j), {k: Fraction(1)})
                right = ring.mul({i: Fraction(1)}, ring.product(j, k))
                if left != right:
                    raise AssertionError(
                        f"associativity fails on ({i},{j},{k})")


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
