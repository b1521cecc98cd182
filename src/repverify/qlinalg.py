"""Exact rational matrices and the subspace calculus used everywhere else.

All arithmetic is over Q via fractions.Fraction, so ranks, kernels, sums,
intersections and orthogonal complements are exact.  Subspaces are kept in
reduced column echelon form, which makes subspace equality a plain value
comparison.

Every elimination over Q goes through the one pivot step `_pivot`: the column
sweep `_rref_rows` (behind rank, det, solves, kernels and canonical bases) and
the incremental `RowSpan.add` both call it.

Ranks that need no basis go through the one integer kernel
`independent_columns`, on columns cleared of denominators by
`integer_columns`: it eliminates mod a 31-bit prime p and keeps that answer
only when the mod-p rank reaches min(#columns, length), which certifies it
(rank_p <= rank_Q <= min, and a minor nonzero mod p is nonzero over Z); any
smaller mod-p rank is recomputed by Bareiss elimination over Z.

Every unipotent exponential goes through the one exp kernel `exp_product`:
it multiplies exp(t N) factors from the terms N^k/k! of each N (`exp_terms`)
over Z with one common denominator, and `nilpotent_exp` is its one-factor case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Rat = Fraction


class LinAlgError(Exception):
    pass


class DimensionMismatch(LinAlgError):
    pass


class NotNilpotent(LinAlgError):
    pass


def _rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Mat:
    """Immutable row-major rational matrix."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Mat":
        r = len(rows)
        c = len(rows[0]) if r else 0
        ents = []
        for row in rows:
            if len(row) != c:
                raise DimensionMismatch("ragged rows")
            ents.extend(_rat(x) for x in row)
        return Mat(r, c, tuple(ents))

    @staticmethod
    def from_cols(cols: Sequence[Sequence]) -> "Mat":
        if not cols:
            return Mat(0, 0, ())
        n = len(cols[0])
        return Mat.from_rows([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        return Mat(rows, cols, (Fraction(0),) * (rows * cols))

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(n, n, tuple(Fraction(1 if i == j else 0) for i in range(n) for j in range(n)))

    @staticmethod
    def diagonal(values: Sequence) -> "Mat":
        vals = [_rat(v) for v in values]
        n = len(vals)
        return Mat(n, n, tuple(vals[i] if i == j else Fraction(0) for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Mat":
        return Mat(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        return Mat(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in subtraction")
        return Mat(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Mat":
        return Mat(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c) -> "Mat":
        c = _rat(c)
        return Mat(self.rows, self.cols, tuple(c * a for a in self.entries))

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        r, k, c = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = [Fraction(0)] * (r * c)
        for i in range(r):
            arow = a[i * k : (i + 1) * k]
            for t in range(k):
                av = arow[t]
                if av:
                    boff = t * c
                    ooff = i * c
                    for j in range(c):
                        bv = b[boff + j]
                        if bv:
                            out[ooff + j] += av * bv
        return Mat(r, c, tuple(out))

    def apply(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        return tuple(sum((self.at(i, j) * vec[j] for j in range(self.cols)), Fraction(0)) for i in range(self.rows))

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionMismatch("trace of non-square matrix")
        return sum((self.at(i, i) for i in range(self.rows)), Fraction(0))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        rows = [list(self.row(i)) + list(other.row(i)) for i in range(self.rows)]
        return Mat(self.rows, self.cols + other.cols, tuple(x for row in rows for x in row))

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise DimensionMismatch("vstack column mismatch")
        return Mat(self.rows + other.rows, self.cols, self.entries + other.entries)

    def to_float_rows(self) -> list[list[float]]:
        return [[float(x) for x in self.row(i)] for i in range(self.rows)]


def _pivot(rows: list[list[Fraction]], r: int, c: int) -> Fraction:
    """The one elimination step: scale rows[r] to a leading 1 in column c and
    clear column c from every other row.  Returns the entry it divided by."""
    p = rows[r][c]
    if p != 1:
        inv = Fraction(1) / p
        rows[r] = [x * inv for x in rows[r]]
    prow = rows[r]
    for i, row in enumerate(rows):
        f = row[c]
        if f != 0 and i != r:
            rows[i] = [x - f * y for x, y in zip(row, prow)]
    return p


def _rref_rows(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """In-place reduced row echelon form by a column sweep of _pivot.

    Returns (rows, pivot column indices, signed product of the pivot entries);
    the product is the determinant when the matrix is square and nonsingular.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    d = Fraction(1)
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            d = -d
        d *= _pivot(rows, r, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots, d


def rank(m: Mat) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    _, pivots, _ = _rref_rows(m.to_rows())
    return len(pivots)


def det(m: Mat) -> Fraction:
    if m.rows != m.cols:
        raise DimensionMismatch("determinant of non-square matrix")
    _, pivots, d = _rref_rows(m.to_rows())
    return d if len(pivots) == m.rows else Fraction(0)


MODULUS = 2**31 - 1


def integer_columns(m: Mat) -> list[list[int]]:
    """The columns of m, each scaled by the lcm of its denominators; scaling a
    column keeps its span."""
    cols = []
    for j in range(m.cols):
        col = m.col(j)
        s = math.lcm(*(x.denominator for x in col))
        cols.append([x.numerator * (s // x.denominator) for x in col])
    return cols


def independent_columns(vecs: Sequence[Sequence[int]]) -> list[int]:
    """Indices of a maximal independent subset of the integer vectors vecs, so
    its length is their rank over Q.

    Eliminates mod MODULUS first.  rank_p <= rank_Q <= min(#vecs, length), and a
    minor that is nonzero mod p is nonzero over Z, so a mod-p count that reaches
    the minimum is the exact rank and its columns are an exact basis of the span.
    Any smaller count is recomputed by fraction-free Bareiss elimination over Z.
    """
    rows = [[x % MODULUS for x in row] for row in zip(*vecs)]
    pivots = _pivot_columns(rows, MODULUS)
    if len(pivots) == min(len(vecs), len(rows)):
        return pivots
    return _pivot_columns([list(row) for row in zip(*vecs)], None)


def _pivot_columns(rows: list[list[int]], modulus: int | None) -> list[int]:
    """Pivot columns of an integer matrix by a column sweep, in place: mod
    `modulus`, or over Z by Bareiss (each update is exactly divisible by the
    previous pivot) when it is None.  Zero columns below the pivots are skipped."""
    nrows = len(rows)
    pivots: list[int] = []
    prev, r = 1, 0
    for c in range(len(rows[0]) if rows else 0):
        i = next((i for i in range(r, nrows) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(r + 1, nrows):
            row = rows[i]
            f = row[c]
            if modulus:
                if f:
                    rows[i] = [(p * x - f * y) % modulus for x, y in zip(row, prow)]
            else:
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
        pivots.append(c)
        prev, r = p, r + 1
        if r == nrows:
            break
    return pivots


def solve_exact(m: Mat, rhs: Mat) -> Mat:
    """Solve m @ X = rhs for a consistent system with full column rank m."""
    aug = [list(m.row(i)) + list(rhs.row(i)) for i in range(m.rows)]
    aug, pivots, _ = _rref_rows(aug)
    # a pivot in the rhs columns is an inconsistent row; rows past the pivots are zero
    if len(pivots) < m.cols or any(p >= m.cols for p in pivots):
        raise LinAlgError("system is inconsistent or underdetermined")
    return Mat.from_rows([row[m.cols :] for row in aug[: m.cols]])


class RowSpan:
    """Incrementally maintained reduced row echelon span of exact vectors.

    Used for algebra closures and membership tests: add() reduces a vector
    against the current span and absorbs any new direction.  Each stored row
    is zero in every other row's pivot column, so reduction order is free.
    """

    def __init__(self, length: int):
        self.length = length
        self._rows: list[list[Fraction]] = []
        self._pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    def reduce(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        v = list(vec)
        for p, row in zip(self._pivots, self._rows):
            f = v[p]
            if f != 0:
                v = [a - f * b for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, vec: Sequence[Fraction]) -> bool:
        return all(x == 0 for x in self.reduce(vec))

    def add(self, vec: Sequence[Fraction]) -> bool:
        v = self.reduce(vec)
        p = next((i for i, x in enumerate(v) if x != 0), None)
        if p is None:
            return False
        self._rows.append(list(v))
        self._pivots.append(p)
        _pivot(self._rows, len(self._rows) - 1, p)
        return True


@dataclass(frozen=True)
class Subspace:
    """Column span in reduced column echelon form.

    The canonical basis makes equality of subspaces equality of values; the
    zero subspace is a basis with zero columns.
    """

    ambient_dim: int
    basis: Mat

    def __post_init__(self):
        if self.basis.rows != self.ambient_dim:
            raise DimensionMismatch("basis rows must equal ambient dimension")

    @property
    def dim(self) -> int:
        return self.basis.cols

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n, Mat(n, 0, ()))

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(n, Mat.identity(n))

    @staticmethod
    def from_columns(n: int, cols: Sequence[Sequence]) -> "Subspace":
        if not cols:
            return Subspace.zero(n)
        return canonicalize(Mat.from_cols([[_rat(x) for x in c] for c in cols]))

    def contains_vector(self, vec: Sequence[Fraction]) -> bool:
        if len(vec) != self.ambient_dim:
            raise DimensionMismatch("vector length mismatch")
        span = RowSpan(self.ambient_dim)
        for j in range(self.dim):
            span.add(self.basis.col(j))
        return span.contains(tuple(_rat(x) for x in vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        return subspace_sum(self, other) == self

    def column_vectors(self) -> list[tuple[Fraction, ...]]:
        return [self.basis.col(j) for j in range(self.dim)]


def canonicalize(m: Mat) -> Subspace:
    """Column span of m as a canonical Subspace (reduced column echelon form)."""
    if m.cols == 0:
        return Subspace(m.rows, Mat(m.rows, 0, ()))
    rows, pivots, _ = _rref_rows(m.transpose().to_rows())
    if not pivots:
        return Subspace(m.rows, Mat(m.rows, 0, ()))
    return Subspace(m.rows, Mat.from_cols(rows[: len(pivots)]))


def kernel_basis(m: Mat) -> Subspace:
    """ker(m) as a Subspace of the domain; dimension cols - rank(m)."""
    rows, pivots, _ = _rref_rows(m.to_rows())
    pivset = set(pivots)
    free = [j for j in range(m.cols) if j not in pivset]
    cols = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        cols.append(v)
    if not cols:
        return Subspace.zero(m.cols)
    return canonicalize(Mat.from_cols(cols))


def subspace_sum(u: Subspace, w: Subspace) -> Subspace:
    if u.ambient_dim != w.ambient_dim:
        raise DimensionMismatch("ambient dimension mismatch in sum")
    if u.dim == 0:
        return w
    if w.dim == 0:
        return u
    return canonicalize(u.basis.hstack(w.basis))


def subspace_intersect(u: Subspace, w: Subspace) -> Subspace:
    """u cap w via the kernel of the stacked block matrix [B_u | -B_w]."""
    if u.ambient_dim != w.ambient_dim:
        raise DimensionMismatch("ambient dimension mismatch in intersection")
    if u.dim == 0 or w.dim == 0:
        return Subspace.zero(u.ambient_dim)
    stacked = u.basis.hstack(-w.basis)
    ker = kernel_basis(stacked)
    if ker.dim == 0:
        return Subspace.zero(u.ambient_dim)
    top = Mat.from_rows([ker.basis.row(i) for i in range(u.dim)])
    return canonicalize(u.basis @ top)


def orthogonal_complement(u: Subspace) -> Subspace:
    """Complement w.r.t. the standard dot product of the fixed coordinates."""
    if u.dim == 0:
        return Subspace.full(u.ambient_dim)
    return kernel_basis(u.basis.transpose())


@dataclass(frozen=True)
class ExpTerms:
    """The terms N^k/k!, k = 1..degree, of exp(tN) for one nilpotent N.

    Term k is terms[k-1] = (its denominator, its integer rows), each row a tuple
    of (column, value) pairs; den is the lcm of the term denominators.
    """

    den: int
    terms: tuple[tuple[int, tuple[tuple[tuple[int, int], ...], ...]], ...]


def exp_terms(n: Mat) -> ExpTerms:
    """The ExpTerms of a nilpotent n, with its powers taken over Z.

    With n = M/d for an integer M, N^k/k! = M^k/(d^k k!); each term is reduced by
    the gcd of its denominator and entries.  Raises NotNilpotent when n^dim != 0.
    """
    if n.rows != n.cols:
        raise DimensionMismatch("exp of non-square matrix")
    dim = n.rows
    d = math.lcm(*(x.denominator for x in n.entries))
    m = [{j: x.numerator * (d // x.denominator) for j, x in enumerate(n.row(i)) if x} for i in range(dim)]
    terms = []
    power, den = m, 1
    for k in range(1, dim + 1):
        if not any(power):
            break
        den *= d * k
        g = math.gcd(den, *(v for row in power for v in row.values()))
        terms.append((den // g, tuple(tuple((j, v // g) for j, v in sorted(row.items())) for row in power)))
        power = _sparse_matmul(power, m)
    if any(power):
        raise NotNilpotent("matrix is not nilpotent (n^dim != 0)")
    return ExpTerms(math.lcm(*(den_k for den_k, _ in terms)), tuple(terms))


def _sparse_matmul(a: list[dict[int, int]], b: list[dict[int, int]]) -> list[dict[int, int]]:
    out = []
    for arow in a:
        acc: dict[int, int] = {}
        for t, x in arow.items():
            for j, y in b[t].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: v for j, v in acc.items() if v})
    return out


def exp_product(dim: int, factors: Sequence[tuple[ExpTerms, Fraction]]) -> Mat:
    """The exact product of exp(t N) over the (ExpTerms of N, t) factors, in order.

    For t = a/b, exp(tN) is an integer matrix over b^degree * den.  The running
    product is kept as integer rows over one common denominator, reduced by the
    gcd of that denominator and all entries after each factor; the Fractions
    are built once, at the end.
    """
    num = [[int(i == j) for j in range(dim)] for i in range(dim)]
    den = 1
    for terms, t in factors:
        a, b = t.numerator, t.denominator
        deg = len(terms.terms)
        scale = b**deg * terms.den
        # exp(tN) * scale = scale * I + sum_k a^k b^(deg-k) (den / den_k) * term_k
        coeffs = [a**k * b ** (deg - k) * (terms.den // den_k) for k, (den_k, _) in enumerate(terms.terms, 1)]
        exp_rows = []
        for i in range(dim):
            row = {i: scale}
            for c, (_, rows) in zip(coeffs, terms.terms):
                for j, v in rows[i]:
                    row[j] = row.get(j, 0) + c * v
            exp_rows.append([(j, v) for j, v in row.items() if v])
        prod = []
        for arow in num:
            out = [0] * dim
            for x, row in zip(arow, exp_rows):
                if x:
                    for j, v in row:
                        out[j] += x * v
            prod.append(out)
        num = prod
        den *= scale
        g = math.gcd(den, *(x for row in num for x in row))
        if g > 1:
            den //= g
            num = [[x // g for x in row] for row in num]
    return Mat(dim, dim, tuple(Fraction(x, den) for row in num for x in row))


def nilpotent_exp(n: Mat) -> Mat:
    """exp(n) as the finite exact series for nilpotent n."""
    return exp_product(n.rows, [(exp_terms(n), Fraction(1))])


# --- JSON round trip (exact rational strings) ---------------------------------


def mat_to_json(m: Mat) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[str(x) for x in m.row(i)] for i in range(m.rows)],
    }


def mat_from_json(obj: dict) -> Mat:
    rows = int(obj["rows"])
    cols = int(obj["cols"])
    ents = obj["entries"]
    if len(ents) != rows or any(len(r) != cols for r in ents):
        raise DimensionMismatch("bad serialized matrix shape")
    return Mat(rows, cols, tuple(Fraction(x) for r in ents for x in r))


def subspace_to_json(s: Subspace) -> dict:
    return {"ambient_dim": s.ambient_dim, "basis": mat_to_json(s.basis)}


def subspace_from_json(obj: dict) -> Subspace:
    return Subspace(int(obj["ambient_dim"]), mat_from_json(obj["basis"]))

