"""Construction of the example (H, a, V) configurations.

Each configuration stores the action matrices of a basis of the Lie algebra
of H on V as integer words, in coordinates adapted to the chosen
diagonalizable element a: the coordinates of V are eigenvectors of a ordered
by descending eigenvalue, so flags are leading coordinate blocks and flag
projectors are coordinate projections.  All data is exact over Q.

Supported families:

  * so_pq:p,q       trace-form complement of so(p,q) inside sl_{p+q}
  * sp2n:n          trace-form complement of sp_{2n} inside sl_{2n}
  * diagonal:slK    adjoint representation of sl_K (diagonal subgroup model)
  * tensor:n,m      sl_n tensor sl_m as a representation of SL_n x SL_m
  * tensor_std:n,m  R^n tensor R^m (standard outer tensor model)
  * sl2_sym:k       degree-k symmetric power of the standard SL_2 module

`check_irreducible` spins the matrix algebra and each basis vector's orbit
through one helper, `_spin`, on sparse integer words graded by ad(a)-weight.
The grading is exact: a is diagonal and every generator is an
ad(a)-eigenvector, so every word is homogeneous and enlarges the span of the
words exactly when it enlarges its own weight block.

Construction runs on integer words too, and sweeps only to make canonical
(reduced column echelon) spans: the stabilizer and complement kernels
(`kernel_of_rows`) and sl_k.  Each span is ad(a)-stable, since a lies in the
stabilizer (`_complement_config` checks that first), so `_weight_adapt` only
sorts its canonical columns by the weight at their pivots.  A canonical basis
in a new order is still reduced, so `_action_matrices` reads each bracket's
(`_commutator`) coordinates at the basis pivots.  `tensor:n,m` takes each factor
from `_adjoint_config`.  No family and no check builds a `Fraction` generator.

Each family's generators are the image of a Lie algebra, so they are
square, traceless, ad(a)-homogeneous and bracket closed by construction, and
`build_config` does not check them again.  `config_from_json` checks a file's
configuration: its a square and diagonal, then the rest in `_validate_config`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .qlinalg import (
    MAX_DIM,
    DimensionMismatch,
    Mat,
    RowSpan,
    Subspace,
    _integer,
    kernel_of_rows,
    mat_from_json,
    mat_to_json,
)


class ConfigError(Exception):
    """Unsupported or malformed configuration descriptor."""


class RationalityError(ConfigError):
    """The requested configuration needs irrational structure constants."""


class InvalidLevel(Exception):
    """Requested flag level is not an eigenvalue."""


@dataclass(frozen=True)
class RepConfig:
    """An (H, a, V) configuration as exact matrix data.

    words holds the action of a weight-adapted basis of Lie(H) on V, each as
    the unique (L, word) pair, L > 0 and gcd(L, word) = 1, of the n x n matrix
    word / L of flat integer entries.  a is diagonal, and a_diag is its
    diagonal (ints for the built families, Fractions from a file), so the
    ad(a)-eigenvalue of a matrix unit E_ij is a_i - a_j.  Everything else is
    read off these: n = dim V, h_dim = dim H, and u_plus_indices /
    u_minus_indices, the basis elements of positive / negative ad(a)-eigenvalue
    (the horospherical generators).  Every generator is an ad(a)-eigenvector
    (by construction in `build_config`, checked in `config_from_json`), which
    makes each horospherical one nilpotent.  a is stored unnormalized.
    """

    name: str
    words: tuple[tuple[int, tuple[int, ...]], ...]
    a_diag: tuple

    @property
    def n(self) -> int:
        return len(self.a_diag)

    @property
    def h_dim(self) -> int:
        return len(self.words)

    @cached_property
    def h_basis(self) -> tuple[Mat, ...]:
        """The generators as Fraction matrices, for readers outside the exact checks."""
        return tuple(Mat(self.n, self.n, tuple(Fraction(x, s) for x in w)) for s, w in self.words)

    @cached_property
    def a_action(self) -> Mat:
        """a as a Fraction matrix, for readers outside the exact checks."""
        return Mat.diagonal(self.a_diag)

    @cached_property
    def generator_weights(self) -> tuple[Fraction, ...]:
        """The ad(a)-eigenvalue of each generator."""
        return tuple(_weight(w, self.a_diag) for _, w in self.words)

    @cached_property
    def u_plus_indices(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.generator_weights) if w > 0)

    @cached_property
    def u_minus_indices(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.generator_weights) if w < 0)

    def __hash__(self) -> int:
        # Equal configs agree on these values; the generated hash would read
        # every entry of every word on each lookup of a cache keyed by a config.
        return hash((self.name, self.n, self.h_dim))


@dataclass(frozen=True)
class WeightDecomposition:
    eigenvalues: tuple[Fraction, ...]
    eigenbases: tuple[Subspace, ...]

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(basis.dim for basis in self.eigenbases)

    @property
    def total_dim(self) -> int:
        return sum(self.multiplicities)

    @property
    def max_eigenvalue(self) -> Fraction:
        return self.eigenvalues[-1]


@dataclass(frozen=True)
class FlagProjector:
    mu: Fraction
    flag: Subspace

    @cached_property
    def projector(self) -> Mat:
        """The flag's 0/1 diagonal projector, for readers outside the exact checks."""
        return Mat.diagonal([int(i in self.flag.pivots) for i in range(self.flag.ambient_dim)])


@dataclass(frozen=True)
class IrreducibilityVerdict:
    """Outcome of the matrix-algebra closure (Burnside) test.

    kind is one of "absolutely_irreducible", "reducible" (with an invariant
    subspace witness), or "inconclusive" (algebra dimension below n^2 but no
    invariant closure of a basis vector found; irreducible over R but not
    absolutely is possible and is reported, never guessed).
    """

    kind: str
    algebra_dim: int
    witness: Subspace | None = None

    @property
    def is_absolutely_irreducible(self) -> bool:
        return self.kind == "absolutely_irreducible"


# --- matrix-space plumbing -----------------------------------------------------


def _weight(x: Sequence, diag: Sequence) -> Fraction:
    """The ad(a)-eigenvalue of the matrix of flat entries x for a = diag(diag), 0 for x = 0.

    ad(a) scales the matrix unit E_ij by a_i - a_j, so x is an eigenvector
    exactly when its nonzero entries all carry one such weight.
    """
    n = len(diag)
    weights = {diag[k // n] - diag[k % n] for k, x_k in enumerate(x) if x_k}
    if len(weights) > 1:
        raise ConfigError("generator is not an ad(a)-eigenvector")
    return weights.pop() if weights else Fraction(0)


def _so_gram(p: int, q: int) -> tuple[int, ...]:
    """Flat Gram matrix of 2 x_1 x_{p+q} + x_2^2 + ... + x_p^2 - x_{p+1}^2 - ... - x_{p+q-1}^2."""
    d = p + q
    s = [0] * (d * d)
    s[d - 1] = s[(d - 1) * d] = 1
    for i in range(1, d - 1):
        s[i * (d + 1)] = 1 if i < p else -1
    return tuple(s)


def _sp_form(nn: int) -> tuple[int, ...]:
    """Flat antidiagonal symplectic form on R^{2n}."""
    d = 2 * nn
    s = [0] * (d * d)
    for i in range(nn):
        s[i * d + d - 1 - i] = 1
        s[(d - 1 - i) * d + i] = -1
    return tuple(s)


def _form_stabilizer_basis(ents: Sequence[int]) -> Subspace:
    """{X : X^T S + S X = 0} inside gl_d, for S flat, as a subspace of the flat entries."""
    d = math.isqrt(len(ents))
    # Linear constraints on vec(X): for each (i, j), sum_k X_ki S_kj + S_ik X_kj = 0.
    rows = []
    for i in range(d):
        for j in range(d):
            coeff = [0] * (d * d)
            for k in range(d):
                coeff[k * d + i] += ents[k * d + j]
                coeff[k * d + j] += ents[i * d + k]
            rows.append(coeff)
    return kernel_of_rows(rows, d * d)


def _trace_complement_basis(d: int, words: list[Sequence[int]]) -> Subspace:
    """The trace-form orthocomplement of the span of the flat words inside sl_d."""
    # tr(Y X) = sum_{i,j} Y_ij X_ji, and the identity row keeps the trace zero
    rows = [[x[j * d + i] for i in range(d) for j in range(d)] for x in words]
    rows.append([int(i == j) for i in range(d) for j in range(d)])
    return kernel_of_rows(rows, d * d)


def _weight_adapt(span: Subspace, a_diag: list[int]) -> tuple[list[tuple[int, tuple[int, ...]]], list[int]]:
    """Re-basis a subspace of the flat d x d matrices into ad(a)-eigenvectors
    by descending eigenvalue, as (L, integer word) pairs, the matrices word / L:
    span's canonical columns, each over its gcd, and their eigenvalues.

    Requires a diagonal and span ad(a)-stable, as every span passed here is
    (a lies in the stabilizer, checked first).  Then span is the sum of its
    pieces in the blocks of matrix units E_ij of one weight a_i - a_j, and a
    canonical column's piece of another weight than its pivot's is zero at
    every pivot, so zero.  The stable sort keeps the basis reduced.
    """
    grading = [x - y for x in a_diag for y in a_diag]
    weights = [grading[p] for p in span.pivots]
    order = sorted(range(span.dim), key=weights.__getitem__, reverse=True)
    words = []
    for c in order:
        g = math.gcd(*span.columns[c])
        words.append((span.scale // g, tuple(x // g for x in span.columns[c])))
    return words, [weights[c] for c in order]


def _action_matrices(basis: list[tuple[int, Sequence[int]]], generators: list[tuple[int, Sequence[int]]]) -> list:
    """Matrices of Y -> [X, Y] on the span of the basis, in its coordinates,
    for (L, word) pairs: each stands for the square matrix of flat integer
    entries word / L, and so does each matrix returned, with gcd(L, word) = 1.

    Requires the basis reduced: every other word is zero at the pivot p_r of
    y_r, its first nonzero entry.  Every basis passed here is a canonical one
    in a new order (`_weight_adapt`), so a vector v of the span has coordinate
    t_r v[p_r] / y_r[p_r] on y_r / t_r.  The bracket word [x, y] of generator
    x / s and basis element y / t is s t [X, Y], so [X, Y_j] has coordinate
    t_r [x, y_j][p_r] / (s t_j y_r[p_r]) on Y_r, which is t_r (P / y_r[p_r])
    (T / t_j) [x, y_j][p_r] / (s T P) for T = lcm(t_j) and P = lcm(y_r[p_r]).
    The brackets lie in the span by construction: sl_k, or the trace-form
    complement of h, which ad(h) preserves.
    """
    ys = [_sparse_rows(y) for _, y in basis]
    pivots = [next(i for i, x in enumerate(y) if x) for _, y in basis]
    t_lcm = math.lcm(*(t for t, _ in basis))
    p_lcm = math.lcm(*(y[p] for (_, y), p in zip(basis, pivots)))
    row_factors = [(p, t * (p_lcm // y[p])) for (t, y), p in zip(basis, pivots)]
    col_factors = [t_lcm // t for t, _ in basis]
    out = []
    for s, x in generators:
        xs = _sparse_rows(x)
        brackets = [_commutator(xs, y) for y in ys]
        word = [f * c * b[p] for p, f in row_factors for c, b in zip(col_factors, brackets)]
        den = s * t_lcm * p_lcm
        g = math.gcd(den, *word)
        out.append((den // g, tuple(v // g for v in word)))
    return out


def _check_dim(n: int) -> None:
    if n > MAX_DIM:
        raise ConfigError(f"dimension {n} exceeds supported cap {MAX_DIM}")


def _validate_config(cfg: RepConfig) -> None:
    """The check of a configuration read from a file, on its words: 1 <= n <=
    MAX_DIM, independent generators, each an ad(a)-eigenvector of trace zero,
    and their span closed under brackets.  `build_config` never calls it: its
    families hold all this by construction."""
    n = cfg.n
    if n < 1:
        raise ConfigError("a_action is 0 x 0: V needs dimension at least 1")
    _check_dim(n)
    # raises unless each X has one weight w; X^k lives where a_i - a_j = k w: nilpotent if w != 0
    cfg.generator_weights
    span = RowSpan(n * n)
    for _, w in cfg.words:
        if sum(w[:: n + 1]):
            raise ConfigError("h_basis element with nonzero trace")
        if not span.add(w):
            raise ConfigError("h_basis element is zero or in the span of the ones before it")
    # bracket closure: [rho(X_i), rho(X_j)] must lie in span(h_basis), read off
    # the commutator of the words, a positive multiple of it
    words = [_sparse_rows(w) for _, w in cfg.words]
    for i, x in enumerate(words):
        for y in words[i + 1 :]:
            if not span.contains(_commutator(x, y)):
                raise ConfigError("h_basis is not closed under brackets")


def _complement_config(name: str, s_form: Sequence[int], a_diag: list[int]) -> RepConfig:
    d = math.isqrt(len(s_form))
    # a = diag(a_diag) lies in {X : X^T S + S X = 0} iff (a_i + a_j) S_ij = 0 for all i, j
    if any((a_diag[k // d] + a_diag[k % d]) * s_ij for k, s_ij in enumerate(s_form)):
        raise ConfigError("element a does not lie in the stabilizer algebra")
    h, _ = _weight_adapt(_form_stabilizer_basis(s_form), a_diag)
    # h's words and the identity, which is not in h, are independent: dim V = d^2 - 1 - dim h
    v, v_wts = _weight_adapt(_trace_complement_basis(d, [x for _, x in h]), a_diag)
    return RepConfig(name, tuple(_action_matrices(v, h)), tuple(v_wts))


def _sl_weight_basis(k: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Weight-adapted flat basis of sl_k for the regular a = diag(k-1, k-3, ...), and a's diagonal."""
    a_diag = [k - 1 - 2 * i for i in range(k)]
    words = []
    for i in range(k):
        for j in range(k):
            if i != j:
                e = [0] * (k * k)
                e[i * k + j] = 1
                words.append(tuple(e))
    for i in range(k - 1):
        h = [0] * (k * k)
        h[i * (k + 1)], h[(i + 1) * (k + 1)] = 1, -1
        words.append(tuple(h))
    words.sort(key=lambda w: _weight(w, a_diag), reverse=True)
    return words, a_diag


def _adjoint_config(name: str, k: int) -> RepConfig:
    basis, a_diag = _sl_weight_basis(k)
    v, v_wts = _weight_adapt(Subspace.from_columns(k * k, basis), a_diag)
    return RepConfig(name, tuple(_action_matrices(v, v)), tuple(v_wts))


def _kron_action(left: tuple | None, right: tuple | None, dims: tuple[int, int], order: list[int]) -> tuple:
    """The (L, word) pair of X (x) I or I (x) Y on the sorted tensor basis, for
    X or Y an (L, word) pair: its entries are X's or Y's, so gcd(L, word) = 1."""
    da, db = dims
    pos = [divmod(o, db) for o in order]  # sorted basis vector r is e_a (x) f_b for (a, b) = pos[r]
    if left:
        return left[0], tuple(left[1][a * da + c] if b == d else 0 for a, b in pos for c, d in pos)
    return right[0], tuple(right[1][b * db + d] if a == c else 0 for a, b in pos for c, d in pos)


def _tensor_config(name: str, kn: int, km: int, standard: bool) -> RepConfig:
    if standard:
        # factors act on R^kn and R^km by the matrices themselves
        left_words, left_fac_wts = _sl_weight_basis(kn)
        right_words, right_fac_wts = _sl_weight_basis(km)
        left_ops, right_ops = [(1, w) for w in left_words], [(1, w) for w in right_words]
    else:
        # factors act on sl_kn and sl_km by ad, so V = sl_kn (x) sl_km
        left, right = _adjoint_config(f"diagonal:sl{kn}", kn), _adjoint_config(f"diagonal:sl{km}", km)
        left_ops, left_fac_wts = left.words, left.a_diag
        right_ops, right_fac_wts = right.words, right.a_diag
    da, db = len(left_fac_wts), len(right_fac_wts)
    pair_wts = [left_fac_wts[i] + right_fac_wts[j] for i in range(da) for j in range(db)]
    order = sorted(range(da * db), key=pair_wts.__getitem__, reverse=True)
    sorted_wts = [pair_wts[o] for o in order]

    h_action = [_kron_action(x, None, (da, db), order) for x in left_ops]
    h_action += [_kron_action(None, y, (da, db), order) for y in right_ops]
    return RepConfig(name, tuple(h_action), tuple(sorted_wts))


def _sl2_sym_config(k: int) -> RepConfig:
    """Sym^k of the standard SL_2 module on monomials x^{k-i} y^i."""
    n = k + 1
    a_diag = [k - 2 * i for i in range(n)]
    e, h, f = [0] * (n * n), [0] * (n * n), [0] * (n * n)
    for i in range(n):
        h[i * (n + 1)] = a_diag[i]
        if i >= 1:
            e[(i - 1) * n + i] = i  # e: v_i -> i v_{i-1}
        if i <= k - 1:
            f[(i + 1) * n + i] = k - i  # f: v_i -> (k - i) v_{i+1}
    return RepConfig(f"sl2_sym:{k}", ((1, tuple(e)), (1, tuple(h)), (1, tuple(f))), tuple(a_diag))  # a is h


def parse_descriptor(text: str) -> tuple[str, tuple]:
    if ":" not in text:
        raise ConfigError(f"bad config descriptor {text!r}")
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    args = tuple(p.strip() for p in rest.split(",") if p.strip())
    return kind, args


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"bad integer {text!r} in config descriptor") from None


@lru_cache(maxsize=None)
def build_config(descriptor: str) -> RepConfig:
    """Build a configuration from a descriptor like "so_pq:2,1".

    Each kind's fields are range checked, and the dimension of V they give is
    checked against MAX_DIM, before any matrix is built.
    """
    kind, args = parse_descriptor(descriptor)
    if kind == "so_pq":
        if len(args) != 2:
            raise ConfigError("so_pq needs p,q")
        p, q = _int(args[0]), _int(args[1])
        if p < 1 or q < 1 or p + q < 3:
            raise ConfigError("so_pq needs p, q >= 1 with p + q >= 3")
        d = p + q
        _check_dim(d * (d + 1) // 2 - 1)  # dim sl_d - dim so(p, q)
        a_diag = [1] + [0] * (d - 2) + [-1]
        return _complement_config(f"so_pq:{p},{q}", _so_gram(p, q), a_diag)
    if kind == "sp2n":
        if len(args) != 1:
            raise ConfigError("sp2n needs n")
        nn = _int(args[0])
        if nn < 2:
            raise ConfigError("sp2n needs n >= 2")  # sp_2 = sl_2 leaves no complement
        _check_dim(2 * nn * nn - nn - 1)  # dim sl_2n - dim sp_2n
        a_diag = [nn - i for i in range(nn)] + [-(nn - i) for i in reversed(range(nn))]
        return _complement_config(f"sp2n:{nn}", _sp_form(nn), a_diag)
    if kind == "diagonal":
        if len(args) != 1 or not args[0].startswith("sl"):
            raise ConfigError("diagonal needs a kind like sl2, sl3")
        k = _int(args[0][2:])
        if k < 2:
            raise ConfigError("diagonal slK needs K >= 2")
        _check_dim(k * k - 1)
        return _adjoint_config(f"diagonal:sl{k}", k)
    if kind == "tensor":
        if len(args) != 2:
            raise ConfigError("tensor needs n,m")
        kn, km = _int(args[0]), _int(args[1])
        if kn < 2 or km < 2:
            raise ConfigError("tensor needs n, m >= 2")  # sl_1 = 0 would leave V = 0
        _check_dim((kn * kn - 1) * (km * km - 1))
        return _tensor_config(f"tensor:{kn},{km}", kn, km, standard=False)
    if kind == "tensor_std":
        if len(args) != 2:
            raise ConfigError("tensor_std needs n,m")
        kn, km = _int(args[0]), _int(args[1])
        if kn < 1 or km < 1 or kn + km < 3:
            raise ConfigError("tensor_std needs n, m >= 1 with n + m >= 3")
        _check_dim(kn * km)
        return _tensor_config(f"tensor_std:{kn},{km}", kn, km, standard=True)
    if kind == "sl2_sym":
        if len(args) != 1:
            raise ConfigError("sl2_sym needs k")
        k = _int(args[0])
        if k < 1:
            raise ConfigError("sl2_sym needs k >= 1")
        _check_dim(k + 1)
        return _sl2_sym_config(k)
    raise ConfigError(f"unsupported configuration kind {kind!r}")


@lru_cache(maxsize=None)
def weight_decompose(cfg: RepConfig) -> WeightDecomposition:
    """Eigenvalues of a on V with exact eigenbases, sorted ascending."""
    n, diag = cfg.n, cfg.a_diag
    values = sorted(set(diag))
    bases = tuple(Subspace.coordinate(n, [i for i in range(n) if diag[i] == mu]) for mu in values)
    return WeightDecomposition(tuple(values), bases)


def flag_projector(dec: WeightDecomposition, mu) -> FlagProjector:
    """Flag of eigenvalues >= mu; its coordinate projection is read off its pivots."""
    mu = Fraction(mu)
    if mu not in dec.eigenvalues:
        raise InvalidLevel(f"{mu} is not an eigenvalue")
    indices = [i for lam, basis in zip(dec.eigenvalues, dec.eigenbases) if lam >= mu for i in basis.pivots]
    return FlagProjector(mu, Subspace.coordinate(dec.total_dim, indices))


def _sparse_rows(word: Sequence[int]) -> list[list[tuple[int, int]]]:
    """The rows of the square integer matrix of flat entries word, as lists of
    their nonzero (column, value) pairs."""
    n = math.isqrt(len(word))
    return [[(t, x) for t, x in enumerate(word[i * n : (i + 1) * n]) if x] for i in range(n)]


def _product(g: list[list[tuple[int, int]]], x: list[int]) -> list[int]:
    """The flat entries of g x, for x the flat entries of an integer matrix
    with len(g) rows; zero entries of x are skipped, as in `Mat.__matmul__`."""
    c = len(x) // len(g)
    out = [0] * len(x)
    for i, row in enumerate(g):
        for t, v in row:
            for j in range(c):
                xv = x[t * c + j]
                if xv:
                    out[i * c + j] += v * xv
    return out


def _commutator(x: list[list[tuple[int, int]]], y: list[list[tuple[int, int]]]) -> list[int]:
    """The flat entries of x y - y x, for square integer matrices given by
    their sparse rows."""
    n = len(x)
    out = [0] * (n * n)
    for i in range(n):
        for t, v in x[i]:
            for j, w in y[t]:
                out[i * n + j] += v * w
        for t, v in y[i]:
            for j, w in x[t]:
                out[i * n + j] -= v * w
    return out


def _spin(cfg: RepConfig, seed: list[int], grading: Sequence) -> list[list[int]]:
    """The seed and the products g x over the generators g of cfg, breadth
    first, that each enlarge the span of those before them; none once that
    span is full.

    grading holds the ad(a)-weight of each coordinate of the seed: a_i - a_j
    for the entry (i, j) of a matrix, a_i for the entry i of a vector.  The
    seed is homogeneous and every generator is an ad(a)-eigenvector, so every
    word g_k ... g_1 x is homogeneous of weight w(x) + sum w(g), and a span of
    homogeneous words is the direct sum of its weight blocks: a word enlarges
    the span exactly when it enlarges the span of its own block.  So each
    block keeps its own RowSpan of only that block's entries, and a product
    whose block is full, or has no coordinate (the product is then zero),
    is never formed.  The grading is exact, not a filter: the orbit is the
    one an ungraded span gives.

    Each generator g is stored as its word L g, a positive multiple of it, so
    the same products enlarge the span and the orbit and its span are those of
    the Fraction products.  The products are integer and sparse, and as small
    as those products: each is the Fraction product g_k ... g_1 x times the
    product of those generators' L, which is 1 for integer generators such as
    those of so_pq:3,2, whose products stay within 4 bits.
    """
    blocks: dict[Fraction, list[int]] = {}
    for k, w in enumerate(grading):
        blocks.setdefault(w, []).append(k)
    coords = list(blocks.values())
    spans = [RowSpan(len(c)) for c in coords]
    ids = {w: b for b, w in enumerate(blocks)}
    # target[b][i]: the block of g_i x for x in block b, None when it has no coordinate
    target = [[ids.get(v + w) for w in cfg.generator_weights] for v in blocks]
    gens = [_sparse_rows(w) for _, w in cfg.words]

    def open_block(t: int | None) -> bool:
        return t is not None and spans[t].dim < spans[t].length

    def enlarges(x: list[int], t: int) -> bool:
        return spans[t].add([x[k] for k in coords[t]])

    first = ids[grading[next(k for k, x in enumerate(seed) if x)]]
    enlarges(seed, first)
    orbit, frontier = [seed], [(seed, first)]
    while frontier and len(orbit) < len(seed):
        products = ((_product(g, x), t) for x, b in frontier for g, t in zip(gens, target[b]) if open_block(t))
        frontier = [(p, t) for p, t in products if enlarges(p, t)]
        orbit += [p for p, _ in frontier]
    return orbit


@lru_cache(maxsize=None)
def check_irreducible(cfg: RepConfig) -> IrreducibilityVerdict:
    """Burnside closure test of the matrix algebra generated by the action.

    Both closures run graded by the ad(a)-weights read off `RepConfig.a_diag`
    and those of the generators (`RepConfig.generator_weights`), so a generator
    that is not an ad(a)-eigenvector raises ConfigError, as validation does,
    even for a configuration that was never validated.
    """
    n, diag = cfg.n, cfg.a_diag
    grading = [x - y for x in diag for y in diag]
    algebra_dim = len(_spin(cfg, [int(i == j) for i in range(n) for j in range(n)], grading))
    if algebra_dim == n * n:
        return IrreducibilityVerdict("absolutely_irreducible", algebra_dim)
    # hunt for an invariant subspace: the closure of a basis vector
    for start in range(n):
        orbit = _spin(cfg, [int(i == start) for i in range(n)], diag)
        if len(orbit) < n:
            return IrreducibilityVerdict("reducible", algebra_dim, Subspace.from_columns(n, orbit))
    return IrreducibilityVerdict("inconclusive", algebra_dim)


def check_proximal(dec: WeightDecomposition) -> bool:
    return dec.multiplicities[-1] == 1


def config_to_json(cfg: RepConfig) -> dict:
    return {
        "name": cfg.name,
        "h_basis": [mat_to_json(m) for m in cfg.h_basis],
        "a_action": mat_to_json(cfg.a_action),
    }


def config_from_json(obj: dict) -> RepConfig:
    """Rebuild a configuration from its three keys, ignoring any others, and
    validate it (`_validate_config`): this is where a configuration from
    outside the program enters.  a, square and diagonal, is kept as its
    diagonal and each n x n generator as its (L, word) pair, L the lcm of its
    denominators."""
    name = obj["name"]
    mats = [mat_from_json(m) for m in obj["h_basis"]]
    a = mat_from_json(obj["a_action"])
    n = a.rows
    if any((x.rows, x.cols) != (n, n) for x in mats):
        raise DimensionMismatch("h_basis element is not n x n for the n x n a_action")
    if a.cols != n or any(x for k, x in enumerate(a.entries) if k % (n + 1)):
        raise RationalityError("a_action is not diagonal in the stored coordinates")
    words = (_integer(x.entries) for x in mats)
    cfg = RepConfig(name, tuple((s, tuple(w)) for s, w in words), a.entries[:: n + 1])
    _validate_config(cfg)
    return cfg
