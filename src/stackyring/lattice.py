"""Finitely generated abelian groups and integer matrix normal forms.

A group is presented as Z^rank plus cyclic factors Z/q_1 x ... x Z/q_s.
Elements are integer vectors of length rank + s whose torsion coordinates
are reduced into [0, q_j). The moduli supplied to a constructor are kept
as given (so Z_4 x Z_9 coordinates stay usable); every group produced by
a computation here comes out in invariant-factor form q_1 | q_2 | ... .

The Smith normal form uses a fixed pivot rule, so the witness matrices
(and everything downstream: cokernel presentations, Gale duals, box data)
are deterministic across runs.

A verified witness U M V = D answers more than the cokernel it was
taken for: the rows of U also give ker(M^T). gale_dual certifies both
of its exact sequences from the three witnesses that compute its answer,
with no Smith form of its own (see its docstring).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

from . import linalg
from .errors import GaleExactnessError, InfiniteCokernel, NonFreeSource


_INT = frozenset({int})


def _integers(entries, kind) -> tuple:
    """The entries as ints, each checked by linalg._integer_input."""
    entries = tuple(entries)
    if set(map(type, entries)) <= _INT:
        return entries
    return tuple(linalg._integer_input(x, kind) for x in entries)


@dataclass(frozen=True)
class FgAbGroup:
    """Z^rank x Z/torsion[0] x ... with elements as coordinate tuples.

    >>> g = FgAbGroup(1, (2,))
    >>> g.coords
    2
    >>> g.reduce((3, 5))
    (3, 1)
    >>> g.invariant_factors
    (2,)
    >>> FgAbGroup(0, (4, 9)).invariant_factors
    (36,)
    """

    rank: int
    torsion: tuple = ()

    def __post_init__(self):
        rank = linalg._integer_input(self.rank, "rank")
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "torsion",
                           _integers(self.torsion, "torsion modulus"))
        for q in self.torsion:
            if q < 2:
                raise ValueError("torsion moduli must be at least 2")

    @property
    def coords(self) -> int:
        return self.rank + len(self.torsion)

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    @property
    def is_trivial(self) -> bool:
        return self.coords == 0

    def order(self):
        """Group order, or None when infinite."""
        if not self.is_finite:
            return None
        n = 1
        for q in self.torsion:
            n *= q
        return n

    def zero(self) -> tuple:
        return (0,) * self.coords

    def reduce(self, vec) -> tuple:
        vec = _integers(vec, "coordinate")
        rank = self.rank
        if len(vec) != rank + len(self.torsion):
            raise ValueError(f"element length {len(vec)} != {self.coords}")
        return vec[:rank] + tuple(map(operator.mod, vec[rank:], self.torsion))

    def add(self, a, b) -> tuple:
        return self.reduce(tuple(x + y for x, y in zip(a, b)))

    def add_reduced(self, a, b) -> tuple:
        """a + b for already reduced a and b, without reduce().

        The inputs' lengths are not checked and their free coordinates
        need nothing, so only the torsion sums are taken mod q.
        """
        total = tuple(map(operator.add, a, b))
        if not self.torsion:
            return total
        rank = self.rank
        return total[:rank] + tuple(map(operator.mod, total[rank:],
                                        self.torsion))

    def neg(self, a) -> tuple:
        return self.reduce(tuple(-x for x in a))

    def sub(self, a, b) -> tuple:
        return self.reduce(tuple(x - y for x, y in zip(a, b)))

    def scale(self, k: int, a) -> tuple:
        return self.reduce(tuple(k * x for x in a))

    def elements(self):
        """All elements of a finite group, in lexicographic coordinate order."""
        if not self.is_finite:
            raise ValueError("group is infinite")
        for tors in itertools.product(*(range(q) for q in self.torsion)):
            yield tors

    def relation_matrix(self):
        """Columns q_j * e_{rank+j} presenting the group as a quotient of Z^coords."""
        rows = self.coords
        cols = len(self.torsion)
        mat = [[0] * cols for _ in range(rows)]
        for j, q in enumerate(self.torsion):
            mat[self.rank + j][j] = q
        return mat

    @property
    def invariant_factors(self) -> tuple:
        """Torsion moduli in normalized divisibility order q_1 | q_2 | ... ."""
        qs = list(self.torsion)
        # classic pairwise gcd/lcm exchange preserves the product
        changed = True
        while changed:
            changed = False
            for i in range(len(qs)):
                for j in range(i + 1, len(qs)):
                    g = math.gcd(qs[i], qs[j])
                    l = qs[i] * qs[j] // g
                    if (g, l) != (qs[i], qs[j]):
                        qs[i], qs[j] = g, l
                        changed = True
        return tuple(q for q in sorted(qs) if q > 1)

    def normalize(self):
        """Return (group in invariant-factor form, isomorphism from self)."""
        if self.torsion == self.invariant_factors:
            return self, GroupHom.identity(self)
        rel = GroupHom(FgAbGroup(len(self.torsion)), FgAbGroup(self.coords),
                       self.relation_matrix())
        normal, proj = cokernel(rel)
        return normal, GroupHom(self, normal, proj.matrix)

    def describe(self) -> str:
        parts = []
        if self.rank:
            parts.append(f"Z^{self.rank}" if self.rank > 1 else "Z")
        parts.extend(f"Z/{q}" for q in self.torsion)
        return " x ".join(parts) if parts else "0"


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism given by an integer matrix on coordinates.

    Rows index target coordinates, columns index source coordinates, so
    apply() is matrix-times-vector followed by torsion reduction.
    """

    source: FgAbGroup
    target: FgAbGroup
    matrix: tuple = field(default=())

    def __post_init__(self):
        mat = tuple(_integers(row, "matrix entry") for row in self.matrix)
        object.__setattr__(self, "matrix", mat)
        if len(mat) != self.target.coords:
            raise ValueError("matrix row count != target coords")
        for row in mat:
            if len(row) != self.source.coords:
                raise ValueError("matrix column count != source coords")
        self._check_well_defined()

    def _check_well_defined(self):
        # q * f(generator) must vanish in the target for each torsion generator
        for j, q in enumerate(self.source.torsion):
            col = self.source.rank + j
            for k in range(self.target.rank):
                if self.matrix[k][col] != 0:
                    raise ValueError(
                        "not well defined: torsion generator maps to free part")
            for k, p in enumerate(self.target.torsion):
                if (q * self.matrix[self.target.rank + k][col]) % p != 0:
                    raise ValueError(
                        "not well defined: order not annihilated in target")

    @staticmethod
    def identity(group: FgAbGroup) -> "GroupHom":
        return GroupHom(group, group, linalg.identity(group.coords))

    @staticmethod
    def from_columns(source_free_rank: int, target: FgAbGroup, columns) -> "GroupHom":
        """Hom from Z^k sending the i-th generator to columns[i] in target."""
        cols = [target.reduce(c) for c in columns]
        if len(cols) != source_free_rank:
            raise ValueError("column count mismatch")
        mat = [[cols[j][i] for j in range(len(cols))]
               for i in range(target.coords)]
        return GroupHom(FgAbGroup(source_free_rank), target, mat)

    def column(self, j: int) -> tuple:
        return self.target.reduce(tuple(self.matrix[i][j]
                                        for i in range(self.target.coords)))

    def apply(self, vec) -> tuple:
        vec = _integers(vec, "coordinate")
        if len(vec) != self.source.coords:
            raise ValueError("element has wrong length")
        return self.target.reduce(linalg.mat_vec(self.matrix, vec))

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self o other."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("composition mismatch")
        return GroupHom(other.source, self.target,
                        linalg.mat_mul(self.matrix, other.matrix))

    def is_zero(self) -> bool:
        for j in range(self.source.coords):
            if any(self.column(j)):
                return False
        return True


@dataclass(frozen=True)
class SnfWitness:
    """U @ A @ V == D with U, V unimodular and D in Smith normal form.

    verify() checks all of it in ints: the shapes, the product, D zero
    off the diagonal with d_i >= 0, d_i | d_{i+1} and the zeros last,
    and |det U| = |det V| = 1 by _unimodular's fraction-free
    elimination. The product and the form of D alone do not make a
    witness: A = (1) with U = (2) gives U A V = D = (2), a Smith form,
    but det U = 2, and the witness is refused.

    >>> SnfWitness(((1,),), ((2,),), ((1,),), ((2,),)).verify()
    False
    >>> SnfWitness(((2,),), ((1,),), ((1,),), ((2,),)).verify()
    True
    """

    matrix: tuple
    U: tuple
    V: tuple
    D: tuple

    @property
    def diagonal(self) -> tuple:
        n = min(len(self.D), len(self.D[0]) if self.D else 0)
        return tuple(self.D[i][i] for i in range(n))

    def verify(self) -> bool:
        """Whether U A V = D holds, U and V are unimodular and D is a
        Smith normal form of A's shape; ints only (see the class)."""
        rows = len(self.matrix)
        cols = len(self.matrix[0]) if rows else 0
        if len(self.U) != rows or len(self.V) != cols \
                or len(self.D) != rows \
                or any(len(r) != cols for m in (self.matrix, self.D)
                       for r in m):
            return False
        lhs = linalg.mat_mul(linalg.mat_mul(self.U, self.matrix), self.V)
        if [list(r) for r in lhs] != [list(r) for r in self.D]:
            return False
        if not (_unimodular(self.U) and _unimodular(self.V)):
            return False
        diag = self.diagonal
        for i, d in enumerate(diag):
            if d < 0:
                return False
            if i + 1 < len(diag) and diag[i + 1] != 0 and d != 0 \
                    and diag[i + 1] % d != 0:
                return False
            if d == 0 and i + 1 < len(diag) and diag[i + 1] != 0:
                return False
        for i in range(rows):
            for j in range(cols):
                if i != j and self.D[i][j] != 0:
                    return False
        return True


def _unimodular(u) -> bool:
    """Whether the square integer matrix u has |det u| = 1.

    Fraction-free (Bareiss) elimination in ints: after step k, each
    entry a_ij with i, j > k is the minor of u (rows in pivot order) on
    rows 0..k, i and columns 0..k, j. Sylvester's identity makes each
    division by the previous pivot exact, and the last pivot is +-det u;
    a column with no pivot left means det u = 0. |det u| = 1 exactly
    when u has an integral inverse: u^-1 = adj(u) / det u is integral
    then, and an integral inverse gives det u det u^-1 = 1 with both
    factors integers.
    """
    n = len(u)
    if any(len(row) != n for row in u):
        return False
    a = [list(row) for row in u]
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return False
        a[k], a[pivot] = a[pivot], a[k]
        top, p = a[k], a[k][k]
        for i in range(k + 1, n):
            row, lead = a[i], a[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - lead * top[j]) // prev
        prev = p
    return abs(prev) == 1


def smith_normal_form(matrix) -> SnfWitness:
    """Smith normal form with transformation witnesses.

    Pivot rule: at each step take the entry of smallest nonzero absolute
    value in the working submatrix, breaking ties by row index then column
    index. This makes the witnesses reproducible.

    >>> w = smith_normal_form([[2], [-2], [1]])
    >>> [row[0] for row in w.D]
    [1, 0, 0]
    >>> w.verify()
    True
    """
    original = tuple(_integers(row, "matrix entry") for row in matrix)
    a = [list(row) for row in original]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    u = linalg.identity(nrows)
    v = linalg.identity(ncols)

    def row_op(i, j, f):
        # row_i -= f * row_j
        a[i] = [x - f * y for x, y in zip(a[i], a[j])]
        u[i] = [x - f * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, f):
        # col_i -= f * col_j
        for r in range(nrows):
            a[r][i] -= f * a[r][j]
        for r in range(ncols):
            v[r][i] -= f * v[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(nrows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(ncols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def find_pivot(t):
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = abs(a[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        return None if best is None else (best[1], best[2])

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        pos = find_pivot(t)
        if pos is None:
            break
        while True:
            i, j = pos
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t] != 0:
                    q, r = divmod(a[i][t], a[t][t])
                    row_op(i, t, q)
                    if r:
                        dirty = True
            for j in range(t + 1, ncols):
                if a[t][j] != 0:
                    q, r = divmod(a[t][j], a[t][t])
                    col_op(j, t, q)
                    if r:
                        dirty = True
            if not dirty:
                # pivot must divide the whole remaining block
                fix = None
                for i in range(t + 1, nrows):
                    for j in range(t + 1, ncols):
                        if a[i][j] % a[t][t] != 0:
                            fix = i
                            break
                    if fix is not None:
                        break
                if fix is None:
                    break
                row_op(t, fix, -1)
            pos = find_pivot(t)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    return SnfWitness(original,
                      tuple(tuple(r) for r in u),
                      tuple(tuple(r) for r in v),
                      tuple(tuple(r) for r in a))


def solve_integer_linear(matrix, rhs):
    """One integer solution of matrix @ x = rhs, or None.

    >>> solve_integer_linear([[2, 4]], [6])
    (3, 0)
    >>> solve_integer_linear([[2]], [3]) is None
    True
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if len(rhs) != nrows:
        raise ValueError("rhs length mismatch")
    if ncols == 0:
        return () if all(x == 0 for x in rhs) else None
    w = smith_normal_form(matrix)
    c = linalg.mat_vec(w.U, list(rhs))
    diag = w.diagonal
    y = [0] * ncols
    for i in range(nrows):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            q, r = divmod(c[i], d)
            if r != 0:
                return None
            y[i] = q
    return tuple(linalg.mat_vec(w.V, y))


def _with_relations(group: FgAbGroup, matrix):
    """Rows of [matrix | group.relation_matrix()], one per coordinate."""
    rel = group.relation_matrix()
    return [list(matrix[i]) + rel[i] for i in range(group.coords)]


def cokernel(f: GroupHom):
    """Cokernel of a homomorphism.

    Returns (C, proj) with C in invariant-factor normal form and proj the
    projection from f.target onto C.
    """
    target = f.target
    return _cokernel_of_snf(
        target, smith_normal_form(_with_relations(target, f.matrix)))


def _cokernel_of_snf(target: FgAbGroup, snf: SnfWitness):
    """(C, proj) read off the Smith normal form U M V = D of M.

    M is [A | Q] as _with_relations builds it: columns A in target, then
    target's relation matrix Q. Row t of U x is the coordinate of x in C,
    free where d_t = 0, modulo d_t where d_t >= 2, dropped where d_t = 1,
    so the kernel of proj is the subgroup generated by A's columns.
    """
    diag = snf.diagonal
    free_rows = []
    tors_rows = []
    tors_factors = []
    for i in range(target.coords):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            free_rows.append(i)
        elif d >= 2:
            tors_rows.append(i)
            tors_factors.append(d)
        # d == 1 contributes nothing
    c = FgAbGroup(len(free_rows), tuple(tors_factors))
    proj_matrix = [list(snf.U[i]) for i in free_rows] + \
                  [list(snf.U[i]) for i in tors_rows]
    proj = GroupHom(target, c, proj_matrix)
    return c, proj


def kernel(f: GroupHom):
    """Kernel of a homomorphism with free source.

    Returns (K, incl) with K free and incl the inclusion into f.source.
    """
    if f.source.torsion:
        raise NonFreeSource("kernel requires a free source")
    m = f.source.coords
    target = f.target
    combined = _with_relations(target, f.matrix)
    ncols = m + len(target.torsion)
    if target.coords == 0:
        basis = [[int(i == j) for i in range(m)] for j in range(m)]
    else:
        w = smith_normal_form(combined)
        diag = w.diagonal
        nz = sum(1 for d in diag if d != 0)
        basis = []
        for j in range(nz, ncols):
            col = [w.V[i][j] for i in range(ncols)]
            basis.append(col[:m])
    k = FgAbGroup(len(basis))
    incl = GroupHom.from_columns(len(basis), f.source, basis)
    return k, incl


def dual(group: FgAbGroup) -> FgAbGroup:
    """Character lattice Hom(group, Z): free of the same rank."""
    return FgAbGroup(group.rank)


def dual_hom(f: GroupHom) -> GroupHom:
    """Hom(-, Z) applied to f: a map dual(target) -> dual(source)."""
    rows = f.source.rank
    cols = f.target.rank
    mat = [[f.matrix[k][j] for k in range(cols)] for j in range(rows)]
    return GroupHom(dual(f.target), dual(f.source), mat)


class GaleDual(tuple):
    """The pair (DG, beta_vee) that gale_dual returns, with the cokernels
    its Smith forms gave: cokernel = coker(beta) and gerbe_group =
    coker(beta_vee), so no caller takes their Smith forms again."""

    def __new__(cls, dg, beta_vee, coker_beta, mu):
        self = super().__new__(cls, (dg, beta_vee))
        self.cokernel = coker_beta
        self.gerbe_group = mu
        return self


def _verified_snf(matrix, name) -> SnfWitness:
    """smith_normal_form(matrix), refused unless it verifies as a witness
    of this very matrix."""
    w = smith_normal_form(matrix)
    if w.matrix != tuple(map(tuple, matrix)) or not w.verify():
        raise GaleExactnessError(f"Smith witness of {name} does not verify")
    return w


def gale_dual(beta: GroupHom) -> GaleDual:
    """Gale dual of beta: Z^m -> N with finite cokernel.

    Returns (DG, beta_vee) where DG = coker of the transpose of the lifted
    presentation [B Q] and beta_vee: Z^m -> DG is induced by the coordinate
    inclusion of (Z^m)* into (Z^{m+s})*. Before returning, it certifies

        0 -> DG* -f1-> Z^m -beta-> N -proj_n-> coker(beta) -> 0,
        0 -> N* -f2-> Z^m -beta_vee-> DG -proj_dg-> coker(beta_vee) -> 0,

    f1 = dual_hom(beta_vee), f2 = dual_hom(beta), from the three Smith
    forms that compute the answer and no other: W1 of M1 = [B | Q]
    (coker beta and proj_n), W2 of M1^T (DG and beta_vee) and W3 of
    [beta_vee | Q_DG] (coker beta_vee and proj_dg). Each W: U M V = D
    must verify() as a witness of its M; then two lemmas hold for it.

    (a) Cokernel lemma. Let M = [A | Q], A's columns in G = Z^r / im Q.
        The projection _cokernel_of_snf reads off W (the rows of U x,
        free where d_t = 0, mod d_t where d_t >= 2, dropped where
        d_t = 1, rows past the diagonal counting as d_t = 0) is onto,
        with kernel <A>. It kills x exactly when U x is in im D, and
        im D = im(D V^-1) = im(U M) as V is unimodular, so exactly when
        x is in im M = <A> + im Q. It is onto as x -> U x is onto Z^r.
    (b) Kernel lemma. The rows t of U with d_t = 0 (rows past the
        diagonal included) span ker(M^T) over Z. Write x = U^T y, y
        integral as U is unimodular; then M^T x = (U M)^T y =
        V^-T D^T y, which is 0 exactly when y_t = 0 wherever d_t != 0.

    (a) on W1 is exactness at N and at coker(beta). By (b) on W2, whose
    M^T is M1, ker M1 is spanned by the rows of U2 with d_t = 0, and
    beta x = 0 exactly when (x, y) is in ker M1 for some y, so ker(beta)
    is spanned by the first m entries of those rows. They are the
    columns of f1, as beta_vee's free rows are those rows cut to m
    entries: im f1 = ker(beta). By (a) on W2, with G free, beta_vee x = 0
    exactly when (x, 0) = M1^T z; Q^T z = 0 puts z on N's free
    coordinates (each q_j >= 2), so ker(beta_vee) = im(B_free^T) = im f2,
    B_free the rows of B on those coordinates. (a) on W3 is exactness
    at DG and at coker(beta_vee).

    The rest needs no check of its own; with d = rank N and s relations:
    * rank DG = m - d. By (a) on W1, coker(beta) = coker(M1) is finite
      (else InfiniteCokernel), so M1 has rank d + s; by (a) on W2, DG =
      coker(M1^T) then has rank (m + s) - (d + s).
    * f1 injects: by (b) on W2, im f1 = ker(beta), of rank m - d as the
      images of beta span N_Q, and f1's source DG* has rank m - d too.
    * f2 injects: its matrix B_free^T has rank d, the images of beta
      spanning N_Q.
    * coker(beta_vee) is finite: by (a) on W3 it is DG / im(beta_vee),
      and im(beta_vee) = Z^m / im f2 has rank m - d = rank DG.
    So GaleExactnessError is raised only for a witness that does not
    verify.
    """
    if beta.source.torsion:
        raise NonFreeSource("gale_dual requires a free source")
    n_group = beta.target
    m = beta.source.coords
    bq = _with_relations(n_group, beta.matrix)  # (d+s) x (m+s)
    c, _ = _cokernel_of_snf(n_group, _verified_snf(bq, "[B | Q]"))
    if not c.is_finite:
        raise InfiniteCokernel(
            f"cokernel has rank {c.rank}; ray images must span N over Q")
    # transpose written out so a trivial N keeps the right row count
    t = [[bq[j][i] for j in range(n_group.coords)]
         for i in range(m + len(n_group.torsion))]
    dg, proj = _cokernel_of_snf(FgAbGroup(len(t)),
                                _verified_snf(t, "[B | Q]^T"))
    beta_vee = GroupHom(FgAbGroup(m), dg,
                        [[proj.matrix[i][j] for j in range(m)]
                         for i in range(dg.coords)])
    mu, _ = _cokernel_of_snf(dg, _verified_snf(
        _with_relations(dg, beta_vee.matrix), "[beta_vee | Q_DG]"))
    return GaleDual(dg, beta_vee, c, mu)


def gerbe_group(beta: GroupHom) -> FgAbGroup:
    """The finite group coker(beta_vee) classifying the generic gerbe."""
    return gale_dual(beta).gerbe_group
