"""Orbifold Chow rings of toric stack bundles.

The deformed group ring A*(B)[N] has basis y^c tensor (basis of A*(B));
two y's multiply to y^{c1+c2} when some cone contains both c_bar1 and
c_bar2 and to zero otherwise. Each y^c computed here is keyed with the
minimal cone of c_bar, so that gate is one face lookup on the union of
two cones (see deformed_mul, the one product rule, and _lattice_product,
its lattice half). Dividing by the linear relations attached to the
dual lattice M gives the orbifold Chow ring. The computation is sector by
sector: the relations keep each sector y^v (v in Box) in itself, so the
ring is the direct sum of the sectors, and each one is reduced degreewise
by exact rational row reduction. The table is then read from one normal
form per monomial key, taken off the reduced rows. The product of two keys
depends on them only through (c1 + c2, tau1 | tau2) and the two base
labels, so the table is filled by pairs of lattice parts, with one
normal-form combination per product monomial and label pair; the basis
pairs that reach the same one share its entry dict, which nothing writes
to (see _assemble). The table is certified a graded, unital, commutative,
associative ring before it is returned. When N is finite (a gerbe BG over
the base) the ring is the group ring A*(B)[N], and _group_ring checks the
table against N's group law and the base ring's products, one comparison
per stored entry; every other table, and one that _group_ring refuses,
gets the full check, _check_structure.

Coefficients follow the number convention stated in linalg. The
relation rows are reduced fraction-free, as primitive int rows, so apart
from fractional inputs a Fraction arises only where a normal form is read
off a pivot row divided by its pivot entry (see _assemble), and reaches
the table entries summed from those. Over a base with integral products,
a ring whose relation pivot rows all have pivot entry 1 is assembled and
certified in int arithmetic throughout; so is every ring with N finite
(a gerbe BG over the base), which has no linear relations. A degree is
age(v) plus an integer step, and sector spaces are counted in steps (see
_assemble).
"""

from __future__ import annotations

import copy
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import (ENUMERATION_BOUND, DecompositionMismatch,
                     DimensionMismatch, IncompleteFan, InfiniteDimensional,
                     InternalInconsistency, TooManyTuples,
                     TwistArityMismatch)
from .fan import cone_mask
from .linalg import (_back_substitute, _exact, _exact_input, _insert_row,
                     _integer_input, _quotient, _reduce, _scaled)
from .stacky import BoxElement, ExtendedStackyFan


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

    In integers. Every check runs on L deg and on the table of
    x o' y = D (x y), where L and D are the lcms of the denominators of
    the degrees and of the coefficients, so all of it is int arithmetic.
    L > 0 scales both sides of every degree comparison alike. o' is
    associative exactly when the product is, as (x o' y) o' z = D^2 (xy)z
    and x o' (y o' z) = D^2 x(yz), and its unit row must read D e_j. The
    walk on o' records s'_i = D^{k_i} s_i, k_i the number of factors of
    s_i: a nonzero multiple of s_i spans the same line, so the walk makes
    the same choices, with the same generators and factors. Both sides of
    check (1) scale by D^2, and with c_i = D^{k_i} both sides of check (2)
    carry the same factor D c_i c_j, for k_i = k_p + 1. So each check
    accepts o' exactly when it accepts the product, and
    _name_failing_triple, comparing g o' (j o' k) with (g o' j) o' k and
    (g o' k) o' j, names the same triple. D = L = 1 is the ordinary case.

    The table is only read. When D = 1, o' is the product itself, and its
    entries are read in place: product holds the table's own dicts, and no
    step writes to a dict it reads (the walk and the checks build every
    product they compare afresh). Callers store integral coefficients as
    ints (see _exact), so this is int arithmetic too; an integral Fraction
    in a D = 1 table would be read as it is, exactly but more slowly.

    _assemble certifies a gerbe's ring table as a group ring (_group_ring)
    instead; this check runs on the whole table of every other ring, and
    of a gerbe whose table _group_ring refuses.
    """
    _, degrees = _scaled(degrees)
    d = math.lcm(*(q.denominator for terms in table.values()
                   for q in terms.values()))
    product = {}  # every stored product of o' under both orders of its pair
    for (i, j), terms in table.items():
        want = degrees[i] + degrees[j]
        for k in terms:
            if degrees[k] != want:
                raise error(f"product ({i},{j}) not degree additive at {k}")
        product[i, j] = product[j, i] = terms if d == 1 else {
            k: q.numerator * (d // q.denominator) for k, q in terms.items()}
    for j in range(len(degrees)):
        if product.get((unit, j)) != {j: d}:
            raise error("unit law fails")

    generators, spanning, factors = _generating_walk(degrees, unit, product)
    if not (_generators_commute(degrees, generators, product)
            and _spanning_pairs_factor(degrees, spanning, factors, product)):
        _name_failing_triple(degrees, generators, product, error)
        raise InternalInconsistency(
            "associativity certificate refused a table the scan accepts")


def _group_ring(keys, degrees, unit, table, base, group):
    """Whether the table is certified as the group ring A*(B)[F].

    keys[i] = (c, tau, l) is the monomial key of basis element i, F is the
    set of their c, and table maps index pairs to sparse products as in
    _check_structure. True exactly when:

    (a) (c, tau, l) -> (c, l) is a bijection from the keys onto
        F x (base labels);
    (b) deg(c, l) = deg(c, unit label) + deg l;
    (c) the unit is (N's zero, base unit);
    (d) for each unordered pair of F, c1 + c2 lies in F and the fibre
        degrees add: deg(c1 + c2, unit label) is the sum of theirs;
    (e) every stored entry (i, j) has i <= j and a nonzero base product
        B(l_i, l_j), and equals {index(c_i + c_j, l3): s} over its terms
        (l3, s);
    (f) 2 len(table) = |F|^2 b_o + |F| b_d, where b_o and b_d count the
        ordered and the diagonal pairs with a nonzero product in A*(B).

    Why True certifies the table. By (c) and (d), F is a finite submonoid
    of N and so a subgroup, and Q[F], y^a y^b = y^{a+b}, is a unital,
    commutative, associative ring, as N is an abelian group. A*(B) is
    one too, certified by BaseRing's constructor, and so is the tensor
    product Q[F] (x) A*(B), factorwise. By (a) and (e) the stored pairs
    are distinct unordered pairs, each holding its entry
    y^{c_i+c_j} (x) B(l_i, l_j) in that tensor, which is nonzero. As
    y^a y^b is never zero, the tensor has (|F|^2 b_o + |F| b_d) / 2
    nonzero unordered pairs, so by (f) every one is stored: the table
    is that of Q[F] (x) A*(B). Its entries are degree additive by
    (b) and (d), as A*(B) is graded, and its unit row is the identity by
    (c). Such a table passes _check_structure (see its docstring), so
    True changes no verdict. On any other table this returns False, never
    raises, and _assemble runs the full check, which words its refusal as
    it always has.

    The check is sound on any table. It succeeds on a gerbe BG over B (N
    finite): there are no linear relations, and the ring is the group
    ring A*(B)[N] (Jiang; Borisov-Chen-Smith). It costs one group sum per
    unordered pair of F and one pass over the stored entries. Degrees are
    compared as L deg in ints, as in _check_structure.
    """
    scale, degrees = _scaled(degrees)
    u, dim, n = base.unit_index, base.dim, len(keys)
    fibre = {}  # c -> its basis index under each base label
    for i, (c, _, l) in enumerate(keys):
        row = fibre.setdefault(c, [None] * dim)
        if row[l] is not None:
            return False
        row[l] = i
    if len(fibre) * dim != n or keys[unit][0] != group.zero() \
            or keys[unit][2] != u:
        return False
    elements, rows = list(fibre), list(fibre.values())
    split = [None] * n  # basis index -> (fibre index, label)
    for f, row in enumerate(rows):
        for l, i in enumerate(row):
            if degrees[i] != degrees[row[u]] + scale * base.degrees[l]:
                return False
            split[i] = f, l
    total = [[None] * len(rows) for _ in rows]  # (f1, f2) -> row of c1 + c2
    for f1, c1 in enumerate(elements):
        for f2 in range(f1, len(elements)):
            row = fibre.get(group.add_reduced(c1, elements[f2]))
            if row is None or degrees[row[u]] \
                    != degrees[rows[f1][u]] + degrees[rows[f2][u]]:
                return False
            total[f1][f2] = total[f2][f1] = row
    for (i, j), entry in table.items():
        if not 0 <= i <= j < n:
            return False
        (f1, l1), (f2, l2) = split[i], split[j]
        terms, row = base._products[l1][l2], total[f1][f2]
        if not terms or len(entry) != len(terms):
            return False
        for l3, s in terms.items():
            if entry.get(row[l3]) != s:
                return False
    nonzero = [i == j for (i, j), terms in base._table.items() if terms]
    b_d = sum(nonzero)
    return 2 * len(table) == len(rows) ** 2 * (2 * len(nonzero) - b_d) \
        + len(rows) * b_d


def _product_indices(i, j, dim):
    """The basis indices i, j of a product as ints in 0..dim-1; any other
    number is refused by _integer_input, any other int by IndexError."""
    i = _integer_input(i, "product index")
    j = _integer_input(j, "product index")
    if not (0 <= i < dim and 0 <= j < dim):
        raise IndexError(f"product ({i}, {j}) out of range")
    return i, j


class BaseRing:
    """A finite dimensional graded Q-algebra given by structure constants.

    labels name the basis, degrees are nonnegative integers with exactly
    one degree-0 element (the unit), and products map index pairs to sparse
    {index: coefficient} dicts; omitted pairs multiply to zero. Optional
    twist classes are degree-1 elements, one per fan coordinate, supplied
    via with_twists. Coefficients are exact rationals, stored as ints where
    integral; a float or a bool is refused as a number, and so is a
    degree, a product key or a term or twist index that is no integer.
    The dense table _products[i][j] of the stored, never written entry
    dicts is built once, read by every product, shared by with_twists.
    """

    def __init__(self, labels, degrees, products, twists=None):
        self.labels = tuple(str(x) for x in labels)
        self.degrees = tuple(_exact_input(d, "degree") for d in degrees)
        if any(isinstance(d, Fraction) for d in self.degrees):
            raise ValueError("degrees must be integers")
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
        for key, terms in products.items():
            i, j = (_integer_input(x, "product key") for x in key)
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise ValueError(f"product key ({i}, {j}) out of range")
            entry = {}
            items = terms.items() if isinstance(terms, dict) else terms
            for k, q in items:
                k = self._term_index(k, "product")
                entry[k] = entry.get(k, 0) + _exact_input(q, "coefficient")
            entry = {k: _exact(q) for k, q in entry.items() if q}
            key = (min(i, j), max(i, j))
            if key in table and table[key] != entry:
                raise ValueError(f"conflicting products for {key}")
            table[key] = entry
        for j in range(self.dim):
            table.setdefault(tuple(sorted((self.unit_index, j))), {j: 1})
        self._table = table
        self.twists = self._normalize_twists(twists)
        _check_structure(self.degrees, self.unit_index, table, ValueError)
        self._products = [[table.get((min(i, j), max(i, j)), {})
                           for j in range(self.dim)] for i in range(self.dim)]

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def top_degree(self) -> int:
        return max(self.degrees)

    def label_index(self, label: str) -> int:
        if label not in self.labels:
            raise ValueError(f"unknown label {label!r}")
        return self.labels.index(label)

    def product(self, i, j):
        i, j = _product_indices(i, j, self.dim)
        return dict(self._products[i][j])

    def _term_index(self, k, kind):
        k = _integer_input(k, f"{kind} term index")
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
                q = _exact_input(q, "twist coefficient")
                if q:
                    if self.degrees[k] != 1:
                        raise ValueError(
                            f"twist class touches non-degree-1 label {k}")
                    entry[k] = q
            out.append(tuple(sorted(entry.items())))
        return tuple(out)

    def with_twists(self, twists) -> "BaseRing":
        """A copy with new twists, each checked as the constructor checks
        it. Labels, degrees and table are this ring's, already certified."""
        twisted = copy.copy(self)
        twisted.twists = self._normalize_twists(twists)
        return twisted

    @classmethod
    def point(cls) -> "BaseRing":
        return cls(("1",), (0,), {})

    @classmethod
    def projective_space(cls, n: int) -> "BaseRing":
        """Q[H]/(H^{n+1}) with basis 1, H, ..., H^n; n is read as every
        integer input is, and a negative n is refused."""
        n = _integer_input(n, "dimension")
        if n < 0:
            raise ValueError(f"dimension {n} is negative")
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


def _lattice_product(faces, add, c1, t1, c2, t2):
    """The lattice part (c1 + c2, tau1 | tau2) of the product of two keys
    with lattice parts (c1, tau1) and (c2, tau2), or None when
    tau1 | tau2 is no face and the product vanishes (see deformed_mul for
    why this is the cone gate).

    faces is sfan.fan.face_masks() and add is sfan.group.add_reduced.
    """
    tau = t1 | t2
    if tau in faces:
        return add(c1, c2), tau
    return None


def deformed_mul(sfan: ExtendedStackyFan, base: BaseRing, e1, e2):
    """Product in A*(B)[N]^Sigma: y^c1 y^c2 = y^{c1+c2} or 0 by the cone gate.

    Elements map keys (c, tau, label index) to coefficients, where tau is
    the minimal cone of c_bar as a cone_mask. The product is bilinear, and
    on keys it is the one product rule: (c1, tau1, l1) and (c2, tau2, l2)
    multiply to the terms ((c1 + c2, tau1 | tau2, l3), s), (l3, s) over
    the base product of l1 and l2, when tau1 | tau2 is a face, and vanish
    otherwise; _lattice_product is the face gate and the sum in N. On a
    fan that validate() accepts this is the cone gate,
    some cone holding both c_bar1 and c_bar2, and the product's key
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
    _assemble refuses any other fan before its first product. Their
    elements c are reduced in N, so c1 + c2 is summed by add_reduced.

    _assemble applies this rule key by key, through _lattice_product and
    the base's product table, in its relation fill and its table fill
    alike; this function states it on whole elements, and only the
    tests call it.
    """
    faces = sfan.fan.face_masks()
    add = sfan.group.add_reduced
    out = {}
    for (c1, t1, l1), q1 in e1.items():
        for (c2, t2, l2), q2 in e2.items():
            part = _lattice_product(faces, add, c1, t1, c2, t2)
            if part is None:
                continue
            c, tau = part
            q12 = q1 * q2
            for l3, s in base._products[l1][l2].items():
                key = (c, tau, l3)
                out[key] = out.get(key, 0) + q12 * s
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
                        rel[key] = rel.get(key, 0) + coef * q
        for i in range(sfan.n):
            coef = sfan.ray_lifts[i][j]
            if coef:
                key = (sfan.ray_lifts[i], 1 << i, base.unit_index)
                rel[key] = rel.get(key, 0) + coef
        relations.append({k: q for k, q in rel.items() if q})
    return relations


@dataclass(frozen=True)
class RingBasisElement:
    """Monomial y^v prod y^{b_i}^{e_i} gamma in normal form."""

    sector: tuple
    exponents: tuple
    label: str
    degree: Fraction


def _compositions(parts, budget):
    """The tuples of parts positive ints with sum at most budget, in
    lexicographic order, each with its sum.

    Each entry is extended only by values that leave room for one more
    unit in every later entry, so no tuple over budget is made.
    """
    out = [((), 0)] if budget >= 0 else []
    for later in range(parts - 1, -1, -1):
        out = [(exps + (e,), total + e) for exps, total in out
               for e in range(1, budget - total - later + 1)]
    return out


def _sector_monomials(sfan, base, box, budget):
    """The monomials of the sector y^v S up to step budget, sorted.

    Returns (step, exponents, key) tuples for the monomials
    y^v prod y^{b_i}^{e_i} gamma of degree age(v) + step, where the step
    sum e_i + deg gamma is an integer, with key = (c, tau, label index),
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
    _lattice_product's cone gate reads.
    """
    sigma = cone_mask(box.min_cone)
    faces = sfan.fan.face_masks()
    out = []
    for s in sfan.fan.faces():
        tau = sigma | cone_mask(s)
        # the closed star of sigma(v): faces are closed under subsets, so
        # the kept s are exactly the subsets of the faces containing sigma(v)
        if len(s) > budget or tau not in faces:
            continue
        for exps, total in _compositions(len(s), budget):
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
                    out.append((step, tuple(full), (c, tau, li)))
    out.sort()
    return out


def _refuse_long_listings(sfan, base, sectors, cap):
    """Raise TooManyTuples, before any monomial is listed, when the
    sectors' monomials would pass ENUMERATION_BOUND.

    A sector v with budget b = floor(cap + 1 - age(v)) (see _assemble)
    lists sum_s sum_l C(b - deg l, |s|) monomials, s over the faces of
    the closed star of sigma(v) and l over the base labels: C(n, k)
    tuples of k positive ints have sum at most n. The unit label has
    degree 0, so this count also bounds the sum_s C(b, |s|) exponent
    tuples that _compositions walks.
    """
    faces = sfan.fan.face_masks()
    masks = [(cone_mask(s), len(s)) for s in sfan.fan.faces()]
    degrees = Counter(base.degrees).items()
    counts = {}  # (sigma(v), budget) -> the monomials of such a sector
    monomials = 0
    for box in sectors:
        key = (box.min_cone, math.floor(cap + 1 - box.age))
        count = counts.get(key)
        if count is None:
            sigma, budget = cone_mask(key[0]), key[1]
            sizes = Counter(k for mask, k in masks if sigma | mask in faces)
            count = counts[key] = sum(
                n * m * math.comb(budget - d, k) for k, n in sizes.items()
                for d, m in degrees if d <= budget)
        monomials += count
    if monomials > ENUMERATION_BOUND:
        raise TooManyTuples(
            f"the sectors would list {monomials} monomials up to degree "
            f"{cap + 1}, more than the bound {ENUMERATION_BOUND}")


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
        i, j = _product_indices(i, j, self.dimension)
        return dict(self._table.get((min(i, j), max(i, j)), {}))

    def mul(self, vec_a, vec_b):
        out = {}
        for i, qa in vec_a.items():
            for j, qb in vec_b.items():
                for k, q in self.product(i, j).items():
                    out[k] = out.get(k, 0) + qa * qb * q
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
            terms = self._table[(i, j)].items()
            # one term, as every entry of a gerbe's table, needs no sort
            for k, q in terms if len(terms) == 1 else sorted(terms):
                products.append([i, j, k, str(q)])
        return {"dimension": self.dimension,
                "sectors": [list(s.value) for s in self.sectors],
                "basis": basis,
                "products": products}


def _combination(normal, part, terms):
    """The table entry sum s NF(c, tau, l3) over the terms {l3: s} of a
    base product, for the lattice part (c, tau); InternalInconsistency
    when a term has no normal form."""
    c, tau = part
    out = {}
    for l3, s in terms.items():
        nf = normal.get((c, tau, l3))
        if nf is None:
            raise InternalInconsistency(
                "product term left the computed sectors")
        for k, q in nf.items():
            out[k] = out.get(k, 0) + s * q
    return {k: _exact(q) for k, q in out.items() if q}


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
    products reach degree cap at most, as keys multiply degree additively.

    The relation rows are filled in stages. Let V_s span the sector's
    monomials of step s (block s) and theta_1, ..., theta_r be the
    relations (linear_relations). Block s + 1 is to hold the span of the
    theta_j V_s, the part of the relation ideal in that step, as the
    ideal is generated by the theta_j and V_s holds every monomial one
    step down. Its rows are inserted relation by relation, j = 1..r, and
    theta_j is multiplied only by the monomials of block s outside the
    pivot columns that block had before theta_j's rows went in. That
    keeps the span, with no regularity assumption on the theta_j. Let
    I_{j,s} = sum_{k<j} theta_k V_{s-1}, the span of the rows of the
    relations before theta_j in block s, and C_{j,s} the span of the
    monomials of block s outside the pivot columns of I_{j,s}. Then:

    - V_s = I_{j,s} + C_{j,s}: a vector of V_s reduced against the
      echelon rows of I_{j,s} is zero at their pivot columns, so it lies
      in C_{j,s}.
    - theta_j I_{j,s} = sum_{k<j} theta_k (theta_j V_{s-1}) is in
      sum_{k<j} theta_k V_s, as the deformed product is commutative and
      associative and theta_j V_{s-1} lies in V_s.
    - So theta_j V_s lies in theta_j C_{j,s} + sum_{k<j} theta_k V_s, and
      by induction on j the rows of theta_1..theta_j span
      sum_{k<=j} theta_k V_s, the I_{j+1,s+1} whose pivot columns the next
      block's stage skips. Pivot columns depend on the span alone (see
      linalg._insert_row).

    As each block's span is the one a row per monomial and relation
    spans, so are its pivot columns, its survivors (the basis) and its
    reduced rows, which are unique for the span (linalg._back_substitute):
    the normal forms read below are unchanged by the staging. Each
    (monomial, relation term) product is formed once, for every monomial
    of block s, skipped or not, and checked to lie in block s + 1
    ("relation term escaped sector"); it is then combined into the row of
    every relation that holds the term. Staging skips row insertions,
    never that check.

    So the normal form of every monomial key of degree <= cap is all the
    table reads, and it is read off the pivots, which are back-substituted
    once per block below the layer (cap, cap + 1], when the block is
    complete; that layer needs its pivot columns only. The normal form NF
    is linear: each pivot row is then a positive multiple, by its pivot
    entry p, of the fully reduced row that is 1 at its own pivot and 0 at
    every other pivot, so clearing the pivots of sum q_k e_k with those
    rows clears each e_k on its own and NF(sum q_k e_k) = sum q_k NF(e_k);
    linalg._reduce gives a positive multiple of that normal form. A
    survivor e_k is its own normal form, and a pivot column reduces by its
    row alone, to minus that row's entries at its other columns, which
    are survivors, divided by p. Each table entry is then the sum of
    s NF(key) over the terms (key, s) of the product of the two basis keys
    (the rule stated in deformed_mul).

    The table is filled by lattice part, not by basis pair. The terms of
    the product of (c1, tau1, l1) and (c2, tau2, l2) are ((c, tau, l3), s)
    for (c, tau) = (c1 + c2, tau1 | tau2), the lattice part that
    _lattice_product gives, and (l3, s) over the base product of l1 and
    l2; there are none when tau1 | tau2 is no face. So the entry of a
    pair, sum s NF(c, tau, l3), depends on (c, tau, l1, l2) alone and not
    on the two basis keys. The basis indices are grouped by the lattice
    part of their key; each pair of parts takes one face test and one
    sum, and each (c, tau, l1, l2) that a pair passing the degree gate
    reaches takes one normal-form combination (_combination), read once
    for all its pairs from the base's dense table of products. That
    raises "product term left the computed sectors" exactly when the
    pairwise fill would: when a used term has no normal form.

    Pairs with the same (c, tau, l1, l2) therefore hold one shared dict,
    and nothing writes to a table entry once it is stored: _check_structure
    and _group_ring only read the table (see their docstrings),
    OrbifoldRing.product returns a copy, and to_json_dict reads. The memo
    of entries is a local of the call; no state outlives it.

    The table is certified before the ring is returned. When N is finite
    (rank 0, a gerbe BG over the base, a point included), _group_ring
    certifies it as the group ring A*(B)[N]. When it refuses, and for every
    ring with rank N > 0, _check_structure checks the whole table, so a
    refusal is worded as the full check words it. The selection reads only
    the rank of N. Past ENUMERATION_BOUND basis pairs, n (n + 1) / 2 at
    dimension n >= 1414, it refuses with TooManyTuples before the fill,
    and past that many monomials before it lists any (see
    _refuse_long_listings).
    """
    relations = linear_relations(sfan, base)
    diagnostics = sfan.validate()
    if diagnostics:
        raise ValueError(f"invalid fan: {[d.detail for d in diagnostics]}")
    if not sfan.fan.is_complete():
        raise IncompleteFan("ring computation requires a complete fan")
    cap = base.top_degree + sfan.fan.ambient_dim
    _refuse_long_listings(sfan, base, sectors, cap)
    faces = sfan.fan.face_masks()
    add = sfan.group.add_reduced
    terms = {}  # relation term key -> its index among the distinct ones
    # per relation, its (term index, coefficient) pairs
    weights = [[(terms.setdefault(t, len(terms)), q) for t, q in rel.items()]
               for rel in relations]
    normal = {}  # monomial key of degree <= cap -> {basis index: coefficient}
    basis = []
    keys = []    # the monomial key of each basis element
    by_step = operator.itemgetter(0)
    for box in sectors:
        # age + step <= cap + 1 exactly when the integer step <= budget,
        # and age + step > cap exactly when step == budget: that step is
        # the layer (cap, cap + 1] of the certificate
        budget = math.floor(cap + 1 - box.age)
        monomials = _sector_monomials(sfan, base, box, budget)
        blocks = {step: list(group) for step, group
                  in itertools.groupby(monomials, key=by_step)}
        column = {}  # monomial key -> (step, position among the step's)
        for step, block in blocks.items():
            for pos, (_, _, key) in enumerate(block):
                column[key] = (step, pos)
        pivots = {step: {} for step in range(budget + 1)}  # step -> rows
        before = {}  # step -> its pivot columns before each relation's rows
        # went in (see the staging above)
        for step, block in blocks.items():
            if not relations or step == budget:
                break  # the blocks ascend by step
            # each (monomial, relation term) product once, as positions
            # one step up with their coefficients, checked to stay there
            products = []  # per monomial: per term, [(position, s)]
            for _, _, (c1, t1, l1) in block:
                by_term = []
                for c2, t2, l2 in terms:
                    part = _lattice_product(faces, add, c1, t1, c2, t2)
                    out = []
                    if part is not None:
                        for l3, s in base._products[l1][l2].items():
                            where = column.get((*part, l3))
                            if where is None or where[0] != step + 1:
                                raise InternalInconsistency(
                                    f"relation term escaped sector "
                                    f"{box.value} at degree "
                                    f"{box.age + step + 1}")
                            out.append((where[1], s))
                    by_term.append(out)
                products.append(by_term)
            above, staged = pivots[step + 1], []
            for j, weight in enumerate(weights):
                staged.append(set(above))
                skip = before[step][j] if step in before else ()
                for pos, by_term in enumerate(products):
                    if pos in skip:
                        continue
                    row = {}
                    for t, q in weight:
                        for p2, s in by_term[t]:
                            row[p2] = row.get(p2, 0) + q * s
                    row = {p2: x for p2, x in row.items() if x}
                    if row:
                        _insert_row(above, row)
            before[step + 1] = staged
        for step, block in blocks.items():
            rows = pivots[step]
            index = {}  # position of a survivor -> basis index
            for pos, (_, exp, key) in enumerate(block):
                if pos in rows:
                    continue
                if step == budget:
                    raise InfiniteDimensional(
                        f"sector {box.value} has a class at degree "
                        f"{box.age + step} beyond the bound {cap}")
                index[pos] = len(basis)
                basis.append(RingBasisElement(box.value, exp,
                                              base.labels[key[2]],
                                              box.age + step))
                keys.append(key)
            if step == budget:
                continue
            _back_substitute(rows)
            for pos, (_, _, key) in enumerate(block):
                row = rows.get(pos)
                normal[key] = ({index[pos]: 1} if row is None else
                               {index[p2]: _quotient(-q, row[pos])
                                for p2, q in row.items() if p2 != pos})

    pairs = len(basis) * (len(basis) + 1) // 2
    if pairs > ENUMERATION_BOUND:
        raise TooManyTuples(
            f"a ring of dimension {len(basis)} would fill {pairs} basis "
            f"pairs, more than the bound {ENUMERATION_BOUND}")
    # the degree gate in integers: L deg against L cap, L the lcm of the
    # degrees' denominators
    scale, degrees = _scaled([b.degree for b in basis])
    top = scale * cap
    parts = {}  # lattice part (c, tau) -> (index, label, L deg) of its keys
    for i, (c, tau, l) in enumerate(keys):
        parts.setdefault((c, tau), []).append((i, l, degrees[i]))
    parts = list(parts.items())
    entries = {}  # product part -> {(l1, l2): entry}, shared by its pairs
    table = {}
    for a, ((c1, t1), row) in enumerate(parts):
        for b in range(a, len(parts)):
            (c2, t2), col = parts[b]
            part = _lattice_product(faces, add, c1, t1, c2, t2)
            if part is None:
                continue
            shared = entries.setdefault(part, {})
            for x, (i, l1, d1) in enumerate(row):
                room = top - d1
                for j, l2, d2 in col[x:] if a == b else col:
                    if d2 > room:
                        continue
                    entry = shared.get((l1, l2))
                    if entry is None:
                        entry = shared[l1, l2] = _combination(
                            normal, part, base._products[l1][l2])
                    if entry:
                        table[(i, j) if i < j else (j, i)] = entry

    ring = OrbifoldRing(sfan, base, sectors, basis, table)
    degrees = [b.degree for b in basis]
    if not (sfan.group.rank == 0 and _group_ring(
            keys, degrees, ring.unit_index, table, base, sfan.group)):
        _check_structure(degrees, ring.unit_index, table,
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
    """A sector's box value, age, dimension and histogram, off the ring."""

    value: tuple
    age: Fraction
    dim: int
    histogram: tuple  # sorted (degree, count) pairs


def module_decomposition_report(ring: OrbifoldRing):
    """Per-sector dimensions and degree histograms, checked by face counts.

    As a graded module the ring is the sum over v in Box of the ordinary
    ring of the quotient fan Sigma/sigma(v) shifted by age(v), free over
    A*(B) (Borisov-Chen-Smith). Over Q a complete simplicial fan's ring
    has the h-vector as Hilbert function (Danilov, Stanley), and the cones
    of Sigma/sigma(v) are the tau of Sigma holding sigma(v). So sector v's
    histogram must be t^age(v) h(t) sum_l t^deg(l), l over the base basis,
    h(t) = sum_i f_i t^i (1 - t)^(d' - i), d' = d - |sigma(v)|, f_i the
    number of such tau with |tau| = |sigma(v)| + i; DecompositionMismatch
    otherwise. It shares no elimination, relation, quotient fan or twist
    with the assembly, and sees neither the twists nor the product.
    """
    fan = ring.sfan.fan
    faces = [(cone_mask(tau), len(tau)) for tau in fan.faces()]
    reports = []
    for box in ring.sectors:
        idxs = ring.sector_indices(box.value)
        hist = Counter(ring.basis[i].degree for i in idxs)
        sigma, size = cone_mask(box.min_cone), len(box.min_cone)
        rest = fan.ambient_dim - size
        expected = Counter()
        for mask, n in faces:
            if mask & sigma == sigma:  # t^i (1 - t)^(rest - i) sum_l t^deg l
                i = n - size
                for k, deg in itertools.product(range(rest - i + 1),
                                                ring.base.degrees):
                    expected[box.age + i + k + deg] += \
                        (-1) ** k * math.comb(rest - i, k)
        if expected != hist:
            raise DecompositionMismatch(
                f"sector {box.value}: face-count histogram "
                f"{dict(expected)} != sector histogram {dict(hist)}")
        reports.append(SectorReport(box.value, box.age, len(idxs),
                                    tuple(sorted(hist.items()))))
    return reports


def isomorphic_presentation_check(r1: OrbifoldRing, r2: OrbifoldRing,
                                  bijection) -> bool:
    """Do the structure constants agree under the given basis bijection?"""
    if r1.dimension != r2.dimension:
        raise DimensionMismatch(
            f"{r1.dimension} != {r2.dimension}")
    bij = [_integer_input(x, "bijection entry") for x in bijection]
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
