"""Exact rational matrices and the subspace calculus used everywhere else.

Matrices and vectors are Fractions.  Subspaces are kept over Z in one
canonical integer form, so their equality and hashing compare integers; ranks,
kernels, sums and intersections are exact, and the Fraction basis of a
subspace is built only when it is read.  Every exact product on a rank or span
path (translates h.W by a given matrix, the BCCT ranks of `brascamp_lieb`, the
kernel step of `subspace_intersect`) is the one integer product `apply_rows`:
integer rows times integer columns.  Translates by a sampled element come from
its recipe through the exp kernel below, with no matrix built.

Every matrix elimination over Z runs on integer rows in the one column sweep
`_pivot_columns`, fraction-free Gauss-Jordan on vectors cleared of
denominators (each times the lcm of its own; each update (p x - f y) // prev is
exact), where each pivot row ends as its reduced row echelon row times the last
pivot, the determinant of a square matrix.  A `Subspace` is those rows over
their gcd.  Every exact rank is a `RowSpan`: `independent_columns`, on columns
cleared by `integer_columns`, keeps the columns that enlarge a `RowSpan` of the
columns before them.  `RowSpan` runs no sweep: it keeps a primitive echelon
basis and appends one reduced row per new vector, and a reduction by a row
whose pivot ratio is 1 (a positive pivot that divides the vector's entry there)
touches only that row's support, its nonzero columns.  Nor does containment:
every pivot entry of a canonical column is L, so W lies in U exactly when W's
pivots are among U's and each column x of W satisfies
L x[i] = sum_j u_j[i] x[p_j], which `Subspace.contains_subspace` reads off the
integer columns.

The one elimination mod the 31-bit prime p = MODULUS is `certified_columns`,
one numpy sweep over a batch of residue matrices, which `generic` runs once
per trial check: a mod-p rank that reaches min(#columns, length) is the rank
over Q (rank_p <= rank_Q <= min, and a minor nonzero mod p is nonzero over Z).

Every exact unipotent exponential goes through the one exp kernel
`exp_product_columns`: it applies a product of exp(t N) factors, built from the
terms N^k/k! of each N (`word_exp_terms`, on N's integer word over its
denominator), to integer columns over Z, right to left and with one common
denominator.  A translate h.W takes W's columns alone; `exp_product` is the
kernel on the identity's columns, as a `Mat`, and
`nilpotent_exp` its one-factor case.  `exp_product_residues` computes the same
products mod p for a batch of parameter rows sharing one schedule of N's, as
int64 numpy arrays multiplied by `matmul_mod`, its factors as a pairwise tree.

`matmul_mod` multiplies residues on float64 BLAS with the reduction delayed to
the end of each inner sum, as in FFLAS (Dumas, Giorgi, Pernet, ACM TOMS 35(3),
2008): it splits one factor into 16-bit halves, so each inner sum of at most
MAX_DIM = 64 products of a residue below 2^31 and a half below 2^16 stays
below 2^53.  float64 holds every integer below 2^53 exactly, so the sums are
exact in any order, and the residues equal those of the exact integer product.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


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
    def from_integer(rows: Sequence[Sequence[int]], den: int) -> "Mat":
        """The matrix rows / den, for integer rows."""
        return Mat(len(rows), len(rows[0]) if rows else 0, tuple(Fraction(x, den) for row in rows for x in row))

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


def _integer(vec: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(s, s * vec) for s the lcm of the denominators of vec."""
    if all(isinstance(x, int) for x in vec):
        return 1, list(vec)
    s = math.lcm(*(x.denominator for x in vec))
    return s, [x.numerator * (s // x.denominator) for x in vec]


def rank(m: Mat) -> int:
    return len(independent_columns(integer_columns(m)))


MODULUS = 2**31 - 1
# The largest dimension of a configuration, and of the inner dimension of
# `matmul_mod`: 64 products of a residue below 2^31 and a 16-bit half sum to
# less than 2^53, below which float64 is exact.
MAX_DIM = 64
# Entries that one chunk of `exp_product_residues` factors may hold (512 KiB
# of int64).
FACTOR_ENTRIES = 2**16


def integer_columns(m: Mat) -> list[list[int]]:
    """The columns of m, each scaled by the lcm of its denominators; scaling a
    column keeps its span."""
    return [_integer(m.col(j))[1] for j in range(m.cols)]


def apply_rows(rows: Sequence[Sequence[int]], cols: Sequence[Sequence[int]]) -> list[list[int]]:
    """The integer matrix `rows` times each integer column of cols."""
    return [[sum(map(operator.mul, row, col)) for row in rows] for col in cols]


def independent_columns(vecs: Sequence[Sequence[int]]) -> list[int]:
    """Indices of the integer vectors vecs that enlarge a `RowSpan` of the
    vectors before them: a maximal independent subset, so its length is their
    rank over Q."""
    span = RowSpan(len(vecs[0]) if vecs else 0)
    return [i for i, vec in enumerate(vecs) if span.add(vec)]


def certified_columns(batch: np.ndarray) -> list[list[int] | None]:
    """Per matrix of a (trials, length, #vectors) int64 batch of residues mod
    MODULUS, its pivot columns when their count reaches min(#vectors, length),
    which certifies the rank over Q of any integer matrix with these residues;
    else None.

    One forward sweep runs over the whole batch: at each column, each matrix
    pivots on its first row y that is nonzero there, with entry p (1 if none
    is), and every row x, y too, becomes (p x - f y) mod MODULUS for f its entry
    there.  Both products are below 2^62, so int64 is exact.  The pivot columns
    of a forward sweep do not depend on the rows it picks.
    """
    trials, length, width = batch.shape
    m, at = batch, np.arange(trials)
    pivoted = np.zeros((trials, width), dtype=bool)
    for c in range(width):
        col = m[:, :, c]
        nonzero = col != 0
        y = m[at, nonzero.argmax(axis=1)]
        pivoted[:, c] = nonzero.any(axis=1)
        p = np.where(pivoted[:, c], y[:, c], 1)
        m = (p[:, None, None] * m - col[:, :, None] * y[:, None, :]) % MODULUS
    return [np.flatnonzero(row).tolist() if row.sum() == min(length, width) else None for row in pivoted]


def _pivot_columns(rows: list[Sequence[int]]) -> tuple[list[int], int]:
    """Pivot columns and last pivot of an integer matrix, by fraction-free
    Gauss-Jordan in place (each update (p x - f y) // prev is exact), so that
    every pivot row ends as its reduced row echelon row times the last pivot.
    Zero columns below the pivots are skipped.

    A row swap negates the row it moves down, so the determinant keeps its sign
    and the last pivot of a square nonsingular matrix is its determinant.
    """
    nrows = len(rows)
    pivots: list[int] = []
    prev, r = 1, 0
    for c in range(len(rows[0]) if rows else 0):
        i = next((i for i in range(r, nrows) if rows[i][c]), None)
        if i is None:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], [-x for x in rows[r]]
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
        pivots.append(c)
        prev, r = p, r + 1
        if r == nrows:
            break
    return pivots, prev


def _kernel_vectors(rows: list[Sequence[int]], ncols: int) -> list[list[int]]:
    """Integer vectors spanning the kernel of the integer matrix rows (consumed):
    one per free column f, d e_f - sum_r rows[r][f] e_(pivot r) with d the last
    pivot of the sweep over Z."""
    pivots, d = _pivot_columns(rows)
    out = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[f] = d
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        out.append(v)
    return out


class RowSpan:
    """Incrementally maintained row span of exact vectors, kept over Z.

    Used for algebra closures and membership tests: add() reduces a vector
    against the current span and appends any new direction as a row.  The rows
    are a primitive echelon basis in insertion order: each has gcd 1 and is zero
    in the pivot columns of the rows before it, so none is ever rewritten.
    Each row also keeps its support, its nonzero columns: a reduction by a row
    whose pivot ratio q is 1 subtracts f row in place over that support only.
    """

    def __init__(self, length: int):
        self.length = length
        self._rows: list[list[int]] = []
        self._pivots: list[int] = []
        self._supports: list[list[int]] = []

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _residual(self, vec: Sequence[Fraction]) -> tuple[list[int], int]:
        """(w, s) with w / s the unique vector of vec + span that is zero in
        every pivot column: at each nonzero pivot entry, w -> q w - f row for
        q / f = row[p] / w[p] in lowest terms, and s -> q s."""
        if len(vec) != self.length:
            raise DimensionMismatch("vector length mismatch")
        s, w = _integer(vec)
        for p, row, support in zip(self._pivots, self._rows, self._supports):
            if w[p]:
                g = math.gcd(row[p], w[p])
                q, f = row[p] // g, w[p] // g
                if q == 1:
                    for j in support:
                        w[j] -= f * row[j]
                else:
                    w = [q * a - f * b for a, b in zip(w, row)]
                    s *= q
        return w, s

    def reduce(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        w, s = self._residual(vec)
        return tuple(Fraction(x, s) for x in w)

    def contains(self, vec: Sequence[Fraction]) -> bool:
        return not any(self._residual(vec)[0])

    def add(self, vec: Sequence[Fraction]) -> bool:
        w, _ = self._residual(vec)
        c = next((i for i, x in enumerate(w) if x), None)
        if c is None:
            return False
        g = math.gcd(*w)
        self._rows.append([x // g for x in w])
        self._pivots.append(c)
        self._supports.append([j for j in range(c, self.length) if w[j]])
        return True


@dataclass(frozen=True)
class Subspace:
    """Column span, kept over Z as its reduced column echelon columns times the
    least positive integer L clearing their denominators: every pivot entry is
    L and the entries have gcd 1, so equality and hashing compare integers.
    `basis`, the Fraction matrix of the columns over L, is built on first read.
    """

    ambient_dim: int
    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if any(len(col) != self.ambient_dim for col in self.columns):
            raise DimensionMismatch("column length must equal ambient dimension")

    @property
    def dim(self) -> int:
        return len(self.columns)

    @cached_property
    def basis(self) -> Mat:
        scale = self.scale
        return Mat(self.ambient_dim, self.dim, tuple(Fraction(x, scale) for row in zip(*self.columns) for x in row))

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n, ())

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace.coordinate(n, range(n))

    @staticmethod
    def coordinate(n: int, indices: Iterable[int]) -> "Subspace":
        """The span of the unit vectors e_i, i in indices, already canonical."""
        idx = sorted(set(indices))
        if idx and (idx[0] < 0 or idx[-1] >= n):
            raise DimensionMismatch(f"coordinate indices must lie in [0, {n})")
        return Subspace(n, tuple(tuple(int(t == i) for t in range(n)) for i in idx))

    @staticmethod
    def from_columns(n: int, cols: Sequence[Sequence]) -> "Subspace":
        if any(len(col) != n for col in cols):
            raise DimensionMismatch(f"columns must have length {n}")
        return _span(n, [_integer([x if isinstance(x, int) else _rat(x) for x in col])[1] for col in cols])

    def contains_vector(self, vec: Sequence[Fraction]) -> bool:
        return self.contains_subspace(Subspace.from_columns(self.ambient_dim, [vec]))

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """The first nonzero row of each column, where its entry is L."""
        return tuple(next(i for i, x in enumerate(col) if x) for col in self.columns)

    @property
    def scale(self) -> int:
        """L, the pivot entry of every column; 1 for the zero subspace."""
        return self.columns[0][self.pivots[0]] if self.columns else 1

    def contains_subspace(self, other: "Subspace") -> bool:
        """Read off the columns: each column x of other satisfies
        L x[i] = sum_j self_j[i] x[p_j] for every i, with p_j the pivots."""
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimension mismatch in containment")
        if other.dim > self.dim or not set(other.pivots) <= set(self.pivots):
            return False
        if other.dim == 0 or self.dim == self.ambient_dim:
            return True
        scale = self.scale
        return all(
            scale * x[i] == sum(uj[i] * x[p] for uj, p in zip(self.columns, self.pivots))
            for x in other.columns
            for i in range(self.ambient_dim)
        )


def canonicalize(m: Mat) -> Subspace:
    """Column span of m as a canonical Subspace (reduced column echelon form)."""
    return _span(m.rows, integer_columns(m))


def _span(n: int, vecs: list[Sequence[int]]) -> Subspace:
    """The canonical Subspace spanned by integer vectors of length n (consumed):
    the rows of the sweep over Z, zero past the pivots, over their gcd, pivots > 0."""
    pivots, d = _pivot_columns(vecs)
    g = math.gcd(*(x for row in vecs for x in row)) * (1 if d > 0 else -1)
    return Subspace(n, tuple(tuple(x // g for x in row) for row in vecs[: len(pivots)]))


def kernel_of_rows(rows: Sequence[Sequence[int]], n: int) -> Subspace:
    """The kernel in Q^n of the integer matrix rows (not consumed), from one
    sweep over Z; rows may be empty, which gives Q^n."""
    return _span(n, _kernel_vectors(list(rows), n))


def subspace_sum(u: Subspace, w: Subspace) -> Subspace:
    if u.ambient_dim != w.ambient_dim:
        raise DimensionMismatch("ambient dimension mismatch in sum")
    if u.dim == 0:
        return w
    if w.dim == 0:
        return u
    return _span(u.ambient_dim, list(u.columns + w.columns))


def _meet_kernel(u: Subspace, w: Subspace) -> tuple[tuple[tuple[int, ...], ...], list[list[int]]]:
    """(W, K) with u cap w spanned by the W y, y in K, and dim(u cap w) = len(K):
    K spans the kernel of the constraints L x_i = sum_j u_j[i] x[p_j], i off the
    pivots p_j, on x = W y, for the larger of the two column lists u_j (pivot
    entry L) and the columns W of the other.  One sweep over Z; the columns of
    W are independent, so K's length is the dimension of the meet."""
    if u.ambient_dim != w.ambient_dim:
        raise DimensionMismatch("ambient dimension mismatch in intersection")
    if u.dim == 0 or w.dim == 0:
        return (), []
    if u.dim < w.dim:
        u, w = w, u
    cols, pivots, scale, rows = w.columns, u.pivots, u.scale, []
    for i in sorted(set(range(u.ambient_dim)) - set(pivots)):
        rows.append([scale * col[i] - sum(uj[i] * col[p] for uj, p in zip(u.columns, pivots)) for col in cols])
    return cols, _kernel_vectors(rows, len(cols))


def _meet(n: int, cols: Sequence[Sequence[int]], ker: list[list[int]]) -> Subspace:
    """The canonical span of the W y, y in ker, for a `_meet_kernel` pair (W, ker)."""
    return _span(n, apply_rows(list(zip(*cols)), ker)) if ker else Subspace.zero(n)


def subspace_intersect(u: Subspace, w: Subspace) -> Subspace:
    """u cap w from the one meet-kernel sweep `_meet_kernel`, which the BL
    lattice walk and `generic.submodularity_check` also call: the kernel's
    length is the meet's dimension, read there before any canonical form."""
    return _meet(u.ambient_dim, *_meet_kernel(u, w))


@dataclass(frozen=True)
class ExpTerms:
    """The terms N^k/k!, k = 1..degree, of exp(tN) for one dim x dim nilpotent N.

    Term k is terms[k-1] = (its denominator, its integer columns), each column
    a tuple of (row, value) pairs; den is the lcm of the term denominators.
    """

    dim: int
    den: int
    terms: tuple[tuple[int, tuple[tuple[tuple[int, int], ...], ...]], ...]

    @cached_property
    def residues(self) -> np.ndarray:
        """(degree, dim, dim) int64: term k mod MODULUS is residues[k-1]."""
        out = np.zeros((len(self.terms), self.dim, self.dim), dtype=np.int64)
        for k, (den_k, cols) in enumerate(self.terms):
            inv = _inverse(den_k)
            for j, col in enumerate(cols):
                for i, v in col:
                    out[k, i, j] = v * inv % MODULUS
        return out


def exp_terms(n: Mat) -> ExpTerms:
    """The ExpTerms of a nilpotent n: `word_exp_terms` of n cleared of denominators."""
    if n.rows != n.cols:
        raise DimensionMismatch("exp of non-square matrix")
    return word_exp_terms(n.rows, *_integer(n.entries))


def word_exp_terms(dim: int, d: int, ents: Sequence[int]) -> ExpTerms:
    """The ExpTerms of the nilpotent dim x dim matrix N = M/d of flat integer
    entries ents = M, with its powers taken over Z.

    N^k/k! = M^k/(d^k k!); each term is reduced by the gcd of its denominator
    and entries.  Raises NotNilpotent when N^dim != 0.
    """
    m = [{j: x for j, x in enumerate(ents[i * dim : (i + 1) * dim]) if x} for i in range(dim)]
    terms = []
    power, den = m, 1
    for k in range(1, dim + 1):
        if not any(power):
            break
        den *= d * k
        g = math.gcd(den, *(v for row in power for v in row.values()))
        cols: list[list[tuple[int, int]]] = [[] for _ in range(dim)]
        for i, row in enumerate(power):
            for j, v in row.items():
                cols[j].append((i, v // g))
        terms.append((den // g, tuple(tuple(col) for col in cols)))
        power = _sparse_matmul(power, m)
    if any(power):
        raise NotNilpotent("matrix is not nilpotent (n^dim != 0)")
    return ExpTerms(dim, math.lcm(*(den_k for den_k, _ in terms)), tuple(terms))


def _sparse_matmul(a: list[dict[int, int]], b: list[dict[int, int]]) -> list[dict[int, int]]:
    out = []
    for arow in a:
        acc: dict[int, int] = {}
        for t, x in arow.items():
            for j, y in b[t].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: v for j, v in acc.items() if v})
    return out


def exp_product_columns(
    dim: int, factors: Sequence[tuple[ExpTerms, Fraction]], cols: Sequence[Sequence[int]]
) -> tuple[list[list[int]], int]:
    """(out, den) with out / den the exact product of exp(t N) over the
    (ExpTerms of N, t) factors, in order, times each integer column of cols.

    The factors act right to left.  For t = a/b, exp(tN) times b^degree * den
    is an integer matrix, built once per factor as sparse columns; a running
    column x then becomes the sum of x_j times column j over its nonzero x_j.
    The columns share one denominator, reduced after each factor by its gcd
    with all their entries.
    """
    out = [list(col) for col in cols]
    den = 1
    for terms, t in reversed(factors):
        a, b = t.numerator, t.denominator
        deg = len(terms.terms)
        scale = b**deg * terms.den
        # exp(tN) * scale = scale * I + sum_k a^k b^(deg-k) (den / den_k) * term_k
        coeffs = [a**k * b ** (deg - k) * (terms.den // den_k) for k, (den_k, _) in enumerate(terms.terms, 1)]
        exp_cols = []
        for j in range(dim):
            col = {j: scale}
            for c, (_, term_cols) in zip(coeffs, terms.terms):
                for i, v in term_cols[j]:
                    col[i] = col.get(i, 0) + c * v
            exp_cols.append([(i, v) for i, v in col.items() if v])
        prod = []
        for x in out:
            y = [0] * dim
            for xj, col in zip(x, exp_cols):
                if xj:
                    for i, v in col:
                        y[i] += xj * v
            prod.append(y)
        out = prod
        den *= scale
        g = math.gcd(den, *(x for col in out for x in col))
        if g > 1:
            den //= g
            out = [[x // g for x in col] for col in out]
    return out, den


def exp_product(dim: int, factors: Sequence[tuple[ExpTerms, Fraction]]) -> Mat:
    """The exact product of exp(t N) over the (ExpTerms of N, t) factors, in
    order: `exp_product_columns` on the columns of the identity."""
    cols, den = exp_product_columns(dim, factors, [[int(i == j) for i in range(dim)] for j in range(dim)])
    return Mat.from_integer(list(zip(*cols)), den)


def _inverse(d: int) -> int:
    """1/d mod MODULUS; raises LinAlgError when MODULUS divides d."""
    if d % MODULUS == 0:
        raise LinAlgError(f"{d} is not invertible mod {MODULUS}")
    return pow(d, -1, MODULUS)


def matmul_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b mod MODULUS for int64 arrays of residues, broadcast over leading
    axes, for an inner dimension of at most MAX_DIM.

    b splits into 16-bit halves, b = 2^16 hi + lo, and a @ hi and a @ lo are
    two float64 products.  Every entry of a is below p < 2^31 and every entry
    of lo below 2^16, so an inner sum of at most 64 terms stays below
    64 * 2^31 * 2^16 = 2^53; float64 holds every integer below 2^53 exactly,
    so each partial sum, in any order the BLAS takes, is the exact integer.
    The result is ((a @ hi mod p) 2^16 + a @ lo) mod p, below 2^54 in int64.
    """
    if a.shape[-1] > MAX_DIM:
        raise LinAlgError(f"inner dimension {a.shape[-1]} exceeds {MAX_DIM}; float64 sums would not be exact")
    af = a.astype(np.float64)
    hi = np.matmul(af, (b >> 16).astype(np.float64)).astype(np.int64)
    lo = np.matmul(af, (b & 0xFFFF).astype(np.float64)).astype(np.int64)
    hi %= MODULUS
    hi <<= 16
    hi += lo
    hi %= MODULUS
    return hi


def exp_product_residues(dim: int, schedule: Sequence[ExpTerms], params: Sequence[Sequence[Fraction]]) -> np.ndarray:
    """Residues mod MODULUS of the products of exp(t_s N_s) over one schedule of
    (ExpTerms of) N_s, one product per row (t_1, ..., t_S) of params, as a
    (len(params), dim, dim) int64 array.

    Each t = a/b is a b^-1 mod p and each term N^k/k! its integer rows times the
    inverse of its denominator; `_inverse` checks that p divides neither.  The
    powers t^k, k = 1..degree, of the whole schedule form one (S, T, degree)
    array for S factors and T rows.  The factors are taken a chunk at a time:
    each factor exp(t_s N_s) = I + sum_k t_s^k N_s^k/k! of a chunk is I plus
    its powers times its stacked term residues, one batched `matmul_mod` over
    the chunk with an inner dimension of degree <= dim - 1, and the chunk's
    factors are multiplied in schedule order as a pairwise tree, one batched
    `matmul_mod` per level.  A chunk holds at most dim factors, and at most
    FACTOR_ENTRIES entries in its factors and stacked terms unless it is one
    factor, so the float64 temporaries of `matmul_mod` stay small.  Every
    product is exact, so the residues do not depend on the chunking.
    """
    count = len(params)
    t = np.array(
        [[row[s].numerator * _inverse(row[s].denominator) % MODULUS for row in params] for s in range(len(schedule))],
        dtype=np.int64,
    ).reshape(len(schedule), count)
    degree = max((len(terms.terms) for terms in schedule), default=0)
    powers = np.empty((len(schedule), count, degree), dtype=np.int64)
    if degree:
        powers[..., 0] = t
    for k in range(1, degree):
        powers[..., k] = powers[..., k - 1] * t % MODULUS
    size = max(1, min(dim, FACTOR_ENTRIES // max(1, (count + degree) * dim * dim)))
    diagonal = np.arange(dim)
    h = None
    for start in range(0, len(schedule), size):
        chunk = schedule[start : start + size]
        terms = np.zeros((len(chunk), degree, dim * dim), dtype=np.int64)
        for i, factor in enumerate(chunk):
            terms[i, : len(factor.terms)] = factor.residues.reshape(-1, dim * dim)
        factors = matmul_mod(powers[start : start + size], terms).reshape(len(chunk), count, dim, dim)
        factors[..., diagonal, diagonal] = (factors[..., diagonal, diagonal] + 1) % MODULUS
        while len(factors) > 1:
            pairs = matmul_mod(factors[0:-1:2], factors[1::2])
            factors = np.concatenate([pairs, factors[-1:]]) if len(factors) % 2 else pairs
        h = factors[0] if h is None else matmul_mod(h, factors[0])
    return np.broadcast_to(np.eye(dim, dtype=np.int64), (count, dim, dim)) if h is None else h


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


def _read_json(kind: type, x, *field):
    """kind(x) for a JSON value x, or a ValueError that names x's field.

    A bool is refused, and so is a number with a fractional part where kind is
    int, rather than read as 1 or truncated."""
    try:
        if isinstance(x, bool) or (kind is int and isinstance(x, float) and not x.is_integer()):
            raise ValueError
        return kind(x)
    except (TypeError, ValueError, ArithmeticError):
        noun = "an integer" if kind is int else "a rational number"
        raise ValueError(f"{' '.join(map(str, field))}: {x!r} is not {noun}") from None


def mat_from_json(obj: dict) -> Mat:
    rows, cols = _read_json(int, obj["rows"], "rows"), _read_json(int, obj["cols"], "cols")
    ents = obj["entries"]
    if len(ents) != rows or any(len(r) != cols for r in ents):
        raise DimensionMismatch("bad serialized matrix shape")
    return Mat(rows, cols, tuple(_read_json(Fraction, x, "entry", (i, j))
                                 for i, r in enumerate(ents) for j, x in enumerate(r)))


def subspace_to_json(s: Subspace) -> dict:
    return {"ambient_dim": s.ambient_dim, "basis": mat_to_json(s.basis)}


def subspace_from_json(obj: dict) -> Subspace:
    """Loads through canonicalize, so a stored basis that is not canonical (or
    not independent) gives the same Subspace as its span."""
    m = mat_from_json(obj["basis"])
    if m.rows != _read_json(int, obj["ambient_dim"], "ambient_dim"):
        raise DimensionMismatch("basis rows must equal ambient dimension")
    return canonicalize(m)

