"""Brascamp-Lieb data: construction, BCCT feasibility, constant estimation.

Feasibility is the scaling condition sum p_j n_j = n together with
dim U <= sum p_j dim pi_j(U) over subspaces U.  The common kernel K of the
maps is decided first, by one integer sweep over their stacked rows
(`BLDatum.common_kernel`): K != 0 violates the criterion at once, since
pi_j(K) = 0, and is returned as the witness with lattice_size 1, before any
lift is built or any lattice walked.  Otherwise feasibility is proven (status
certified) by one lift: with p_j = c_j / c and N = c, the square
matrix stack_j (B_j (x) Z_j), Z_j a (p_j N) x N matrix of residues drawn from
a recorded seed, has full rank mod a prime.  Any U that violates the criterion
would make it singular, so the proof needs no probability; only finding a
nonsingular lift is left to chance.  Data the lift does not certify are
checked with exact integer arithmetic on a subspace lattice, which gives a
violating U as witness; a passing lattice check is labeled passed_lattice and
is not a proof for general data.  The lattice is the sum/intersection closure
of the map kernels.  Its walk sweeps every pair once for the dimension of its
meet: a pair in which one member contains the other is skipped, since its
sum and intersection are the pair itself, and a sum of dimension n is the
full space, already a member.  Each map's integer rows are cleared once, and
its surjectivity, its kernel and K are read from them.  A sampled datum's maps
are built over Z from the recipes and become `Fraction` `Mat`s only at the end.

The constant is estimated by alternating (operator) scaling of the maps
towards a geometric datum.  Every iterate gives two lower bounds for the
constant, certified by construction: the closed-form Gaussian ratio and the
reciprocal of the determinant-one Hilbert-Schmidt product, which meet at the
fixed point.  A nonzero common kernel K makes the constant infinite; the
estimator reads the same cached K, so a datum pays for its sweep once.  The
maps are converted to floats once per datum and stacked by target dimension
n_j.  Each scaling step makes one batched numpy call per stack for every
matrix product, `eigh` and `cholesky`, and one `slogdet` call per matrix shape
in each bound, in place of one call per map: on these 2 x 2 to 5 x 5 matrices
a call costs more than its arithmetic.  Batched LAPACK and matmul act on each
matrix as the two-dimensional calls do, and sums over the maps add in map
order, so every float is the one a loop over the maps computes.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np

from .generic import SampledElement, _factors
from .qlinalg import (
    MODULUS,
    Mat,
    Subspace,
    _meet,
    _meet_kernel,
    _read_json,
    apply_rows,
    certified_columns,
    exp_product_columns,
    independent_columns,
    integer_columns,
    kernel_of_rows,
    mat_from_json,
    mat_to_json,
    subspace_sum,
)
from .reps import RepConfig, flag_projector, weight_decompose

LATTICE_CAP = 4096
SCALING_TOL = 1e-6
LIFT_SEED = 0
LIFT_FIRST_MAX = 64  # largest n c at which check_feasibility lifts before it walks
LIFT_MAX = 512  # largest n c at which it lifts once the walk passes LATTICE_CAP


class InvalidExponent(Exception):
    pass


class CapExceeded(Exception):
    pass


class SingularForm(Exception):
    """The aggregate quadratic form is singular: an infeasibility direction."""


@dataclass(frozen=True)
class BLMap:
    n_j: int
    matrix: Mat  # n_j x n, surjective

    def __post_init__(self):
        if self.matrix.rows != self.n_j:
            raise ValueError("map shape does not match target dimension")

    @cached_property
    def integer_rows(self) -> list[list[int]]:
        """The rows of the matrix, each cleared of its denominators."""
        return integer_columns(self.matrix.transpose())


@dataclass(frozen=True)
class BLDatum:
    n: int
    maps: tuple[BLMap, ...]
    exponents: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if len(self.maps) != len(self.exponents):
            raise ValueError("maps and exponents length mismatch")
        for m in self.maps:
            if m.matrix.cols != self.n:
                raise ValueError("map domain dimension mismatch")
            if len(independent_columns(m.integer_rows)) != m.n_j:
                raise ValueError("map is not surjective")
        for p in self.exponents:
            if p < 0:
                raise InvalidExponent("exponents must be nonnegative")

    @property
    def m(self) -> int:
        return len(self.maps)

    @cached_property
    def exponent_numerators(self) -> tuple[int, tuple[int, ...]]:
        """(c, (c_1, ..., c_m)): p_j = c_j / c over the least common denominator c."""
        c = math.lcm(*(p.denominator for p in self.exponents))
        return c, tuple(p.numerator * (c // p.denominator) for p in self.exponents)

    def scaling_holds(self) -> bool:
        """sum p_j n_j = n, summed in Fractions on the first call only."""
        return self._scaling_holds

    @cached_property
    def _scaling_holds(self) -> bool:
        return sum((p * m.n_j for p, m in zip(self.exponents, self.maps)), Fraction(0)) == self.n

    @cached_property
    def common_kernel(self) -> Subspace:
        """K, the meet of the map kernels: one integer sweep over the stacked
        rows of all maps, read by both `check_feasibility` and the estimator."""
        return kernel_of_rows([row for m in self.maps for row in m.integer_rows], self.n)

    def numpy_maps(self) -> tuple[np.ndarray, ...]:
        """The maps as float arrays, converted on the first call only; they are
        shared by every caller, so read-only."""
        return self._float_maps

    @cached_property
    def _float_maps(self) -> tuple[np.ndarray, ...]:
        """Each map as an (n_j, n) array; reshaped, since a map onto Q^0 has no rows."""
        out = tuple(np.array(m.matrix.to_float_rows(), dtype=float).reshape(m.n_j, self.n) for m in self.maps)
        for a in out:
            a.flags.writeable = False
        return out

    @cached_property
    def float_exponents(self) -> tuple[float, ...]:
        """p_j as floats, converted once per datum."""
        return tuple(float(p) for p in self.exponents)

    @cached_property
    def map_groups(self) -> tuple[MapGroup, ...]:
        """The float maps stacked by target dimension, one group per n_j in
        order of first appearance; the estimator's batched calls run on them."""
        at: dict[int, list[int]] = {}
        for j, m in enumerate(self.maps):
            at.setdefault(m.n_j, []).append(j)
        return tuple(
            MapGroup(
                n_j,
                tuple(js),
                np.stack([self.numpy_maps()[j] for j in js]),
                np.array([self.float_exponents[j] for j in js]).reshape(-1, 1, 1),
            )
            for n_j, js in at.items()
        )


@dataclass(frozen=True, eq=False)
class MapGroup:
    """The maps of one target dimension n_j: their positions `at` in the datum,
    their float matrices stacked as a (k, n_j, n) array, and their exponents
    as a (k, 1, 1) array."""

    n_j: int
    at: tuple[int, ...]
    maps: np.ndarray
    ps: np.ndarray

    @cached_property
    def scaled_maps_t(self) -> np.ndarray:
        """p_j pi_j^T for each map, scaled before any product, as p_j pi_j^T M_j pi_j is."""
        return self.ps * self.maps.transpose(0, 2, 1)


@dataclass
class FeasibilityCertificate:
    scaling_ok: bool
    status: str  # "certified" (a proof) | "violated" (with a witness) | "passed_lattice" (no proof)
    witness: Subspace | None = None
    lattice_size: int = 0
    lift: tuple[int, int] | None = None  # (N, seed) of the nonsingular lift behind "certified"

    @property
    def feasible_so_far(self) -> bool:
        return self.scaling_ok and self.status != "violated"


@dataclass
class BLEstimate:
    lower_bound_variational: float
    lower_bound_gaussian: float
    iterations: int
    converged: bool
    bl_infinite: bool = False
    cause: str | None = None  # why bl_infinite: "common-kernel" (exact) or "unconverged"


# --- construction ---------------------------------------------------------------


def build_datum_from_rep(
    cfg: RepConfig,
    elements: tuple[SampledElement, ...],
    *,
    w: Subspace | None = None,
    mu=None,
) -> BLDatum:
    """Datum {pi_W o h_j} (subspace mode) or {pi^(mu) o u_j} (flag mode).

    All exponents equal n / (k m) with k the target dimension; the scaling
    condition then holds by construction.
    """
    if (w is None) == (mu is None):
        raise ValueError("exactly one of w / mu must be given")
    n = cfg.n
    m = len(elements)
    if m < 1:
        raise ValueError("need at least one group element")
    if mu is not None:
        w = flag_projector(weight_decompose(cfg), mu).flag
    elif w.ambient_dim != n or w.dim == 0:
        raise ValueError("w must be a nonzero subspace of the representation space")
    k = w.dim
    p = Fraction(n, k * m)
    if p > 1:
        raise InvalidExponent(f"m = {m} is too small: need m >= n / k = {Fraction(n, k)}")
    ident = [[int(i == j) for i in range(n)] for j in range(n)]
    maps = []
    for el in elements:
        # pi_W o h is rows / (den L): W's columns times each column of h.
        cols, den = exp_product_columns(n, _factors(cfg, el.recipe), ident)
        rows, den = list(zip(*apply_rows(w.columns, cols))), den * w.scale
        # 2^-e puts the HS norm of the nonzero map in [1, 2): it changes no kernel,
        # and keeps the estimators' collapse threshold meaningful at any height.
        e = math.floor(math.log2(float(Fraction(sum(x * x for row in rows for x in row), den * den))) / 2.0)
        maps.append(BLMap(k, Mat.from_integer([[x << max(-e, 0) for x in row] for row in rows], den << max(e, 0))))
    return BLDatum(n, tuple(maps), (p,) * m)


def holder_datum(n: int, m: int) -> BLDatum:
    """m copies of the identity with exponents 1/m."""
    return BLDatum(n, tuple(BLMap(n, Mat.identity(n)) for _ in range(m)), (Fraction(1, m),) * m)


def loomis_whitney_datum() -> BLDatum:
    """The three coordinate-pair projections of R^3 with exponents 1/2."""
    rows = {
        0: [[0, 1, 0], [0, 0, 1]],
        1: [[1, 0, 0], [0, 0, 1]],
        2: [[1, 0, 0], [0, 1, 0]],
    }
    maps = tuple(BLMap(2, Mat.from_rows(rows[i])) for i in range(3))
    return BLDatum(3, maps, (Fraction(1, 2),) * 3)


# --- feasibility ----------------------------------------------------------------


def _criterion_deficit(d: BLDatum, u: Subspace) -> int:
    """c dim U - sum c_j dim pi_j(U) for p_j = c_j / c, each dim the rank of the
    map's rows cleared of denominators times U's integer columns: c times
    dim U - sum p_j dim pi_j(U), so positive means the criterion is violated."""
    c, cs = d.exponent_numerators
    ranks = (len(independent_columns(apply_rows(m.integer_rows, u.columns))) for m in d.maps)
    return c * u.dim - sum(map(operator.mul, cs, ranks))


def _iter_kernel_lattice(d: BLDatum, cap: int):
    """Yield the sum/intersection closure of the map kernels as it grows.

    Each round combines every new element with the older members and with
    the new elements after it, so every unordered pair is combined once, by
    one meet-kernel sweep that gives dim(a cap b) and so dim(a + b) = dim a +
    dim b - dim(a cap b).  A comparable pair, whose meet has the smaller
    dimension, is skipped: its sum and intersection are the pair itself.  A
    sum of dimension n is the full space, a member from the start; any other
    sum is built, and the meet is built from the sweep.  New elements are
    yielded sum first, then meet.  Raises CapExceeded past `cap` elements;
    callers checking the criterion incrementally see every element first.
    """
    members = list(dict.fromkeys([kernel_of_rows(m.integer_rows, d.n) for m in d.maps] + [Subspace.full(d.n)]))
    seen = set(members)
    yield from members

    def add(c: Subspace) -> bool:
        """Whether c is new; a new c becomes a member."""
        if c in seen:
            return False
        seen.add(c)
        members.append(c)
        if len(members) > cap:
            raise CapExceeded(f"kernel lattice exceeded cap {cap}")
        return True

    lo, hi = 0, len(members)
    while lo < hi:
        for i in range(lo, hi):
            for j in chain(range(lo), range(i + 1, hi)):
                a, b = members[i], members[j]
                cols, ker = _meet_kernel(a, b)
                k = len(ker)
                if k == min(a.dim, b.dim):
                    continue
                if a.dim + b.dim - k < d.n and add(c := subspace_sum(a, b)):
                    yield c
                if add(c := _meet(d.n, cols, ker)):
                    yield c
        lo, hi = hi, len(members)


def _lift_factors(d: BLDatum, n_copies: int, seed: int) -> list[tuple[list[list[int]], list[list[int]]]]:
    """(B_j, Z_j) per map: its integer rows, and a (p_j N) x N matrix of
    residues mod MODULUS, drawn row by row in map order from random.Random(seed);
    N = n_copies is a multiple of the common denominator c."""
    rng = random.Random(seed)
    c, cs = d.exponent_numerators
    return [
        (m.integer_rows, [[rng.randrange(MODULUS) for _ in range(n_copies)] for _ in range(cj * n_copies // c)])
        for cj, m in zip(cs, d.maps)
    ]


def _lift_residues(d: BLDatum, n_copies: int, seed: int) -> np.ndarray:
    """The lift M = stack_j (B_j (x) Z_j) mod MODULUS, an int64 array of
    sum_j n_j p_j N rows and nN columns.  B_j is reduced in Python ints before
    any int64 array is built, so each product of two residues stays below 2^62."""
    blocks = []
    for rows, z in _lift_factors(d, n_copies, seed):
        b = np.array([[x % MODULUS for x in row] for row in rows], dtype=np.int64).reshape(len(rows), d.n)
        z = np.array(z, dtype=np.int64).reshape(len(z), n_copies)
        kron = b[:, None, :, None] * z[None, :, None, :] % MODULUS  # np.kron(b, z); np.kron pages in ~0.3 MB on first use
        blocks.append(kron.reshape(len(b) * len(z), d.n * n_copies))
    return np.vstack(blocks)


def certify_feasible(d: BLDatum) -> tuple[int, int] | None:
    """(N, LIFT_SEED) of a lift of d that is nonsingular mod MODULUS, which proves the
    BCCT criterion for d; None when the scaling condition fails or the lift at
    N = c (the exponents' common denominator) is singular.

    The lift M = stack_j (B_j (x) Z_j) takes Z_j a (p_j N) x N matrix of residues
    drawn from LIFT_SEED; with the scaling condition M is square, of size nN.  The
    proof uses no probability: a V with dim V > sum p_j dim B_j V makes M map
    V (x) Q^N, of dimension N dim V, into the sum of the B_j V (x) Q^(p_j N), of
    dimension N sum p_j dim B_j V, so M is singular over Q and hence mod the
    prime.  One `certified_columns` sweep, cubic in nc, decides it.  Conversely,
    at N = c e M is a blow-up of the operator of Garg-Gurvits-Oliveira-Wigderson
    (GAFA 2018), which is rank-nondecreasing exactly for feasible data, and some
    e <= cn - 1 has a nonsingular blow-up (Derksen-Makam, Adv. Math. 2017); only
    e = 1 is tried, and a random draw finds a nonsingular one there, when it
    exists, with probability at least 1 - nc/MODULUS.
    """
    if not d.scaling_holds():
        return None
    c = d.exponent_numerators[0]
    if certified_columns(_lift_residues(d, c, LIFT_SEED)[None])[0] is None:
        return None
    return c, LIFT_SEED


def check_feasibility(d: BLDatum, mode: str = "lattice") -> FeasibilityCertificate:
    """BCCT feasibility: the common kernel, then a proof by a nonsingular lift,
    else the kernel-lattice walk.

    The common kernel K = cap_j ker B_j is decided first.  When K != 0 it is a
    violation (dim K > 0 = sum p_j dim B_j K) and the bottom member of the
    lattice, the meet of every kernel: status violated with witness K and
    lattice_size 1, and no lift is built and no walk started.  Otherwise, when
    the scaling condition holds and n c is at most LIFT_FIRST_MAX, the lift of
    `certify_feasible` at N = c runs first.  A nonsingular one returns status
    certified, a proof that the constant is finite (BCCT, GAFA 2008), with no
    lattice walked (lattice_size 0) and the lift's (N, seed).  Otherwise the
    walk of `_walk_lattice` decides, and where it passes LATTICE_CAP the lift is
    tried at n c up to LIFT_MAX, where it costs about as much as the walk to
    the cap (0.5-0.9 s on a datum of Q^3, 2.7-7.5 s on data of Q^5 and Q^6);
    CapExceeded is raised again when it does not certify.  The bounds are
    there because a singular lift proves nothing and costs a sweep of an
    nc x nc matrix, cubic in nc, where the walk usually finds a violation in
    about a millisecond.
    """
    # "lattice" is the only mode; the parameter stays because the benchmark workloads pass it
    if mode != "lattice":
        raise ValueError(f"unknown feasibility mode {mode!r}")
    if d.common_kernel.dim:
        return FeasibilityCertificate(d.scaling_holds(), "violated", d.common_kernel, lattice_size=1)
    size = d.n * d.exponent_numerators[0]
    lift = certify_feasible(d) if size <= LIFT_FIRST_MAX else None
    if lift is None:
        try:
            return _walk_lattice(d)
        except CapExceeded:
            lift = certify_feasible(d) if LIFT_FIRST_MAX < size <= LIFT_MAX else None
            if lift is None:
                raise
    return FeasibilityCertificate(True, "certified", lift=lift)


def _walk_lattice(d: BLDatum) -> FeasibilityCertificate:
    """BCCT criterion on the kernel lattice: violated with the first member
    that violates it, else passed_lattice.

    A pass is not a proof of feasibility: the criterion quantifies over all
    subspaces.  The lattice is checked incrementally, so a violation is
    reported even when the full closure would exceed the element cap.

    Random subspaces are never worth checking: the full space is in the
    lattice, so past it sum p_j n_j >= n, and a generic U of dimension k has
    dim pi_j(U) = min(k, n_j) >= k n_j / n, hence deficit <= 0.  Only a U on
    a proper Zariski-closed locus can fail.
    """
    scaling_ok = d.scaling_holds()
    lattice_size = 0
    for u in _iter_kernel_lattice(d, LATTICE_CAP):
        lattice_size += 1
        if _criterion_deficit(d, u) > 0:
            return FeasibilityCertificate(scaling_ok, "violated", u, lattice_size)
    return FeasibilityCertificate(scaling_ok, "passed_lattice", None, lattice_size)


# --- Gaussian ratio and estimators ----------------------------------------------


def gaussian_ratio(d: BLDatum, m_list: list[np.ndarray]) -> float:
    """det(sum p_j pi_j^T M_j pi_j)^{-1/2} prod det(M_j)^{p_j/2}.

    m_list holds one n_j x n_j positive-definite M_j per map, in map order.
    The value is a lower bound for the constant of the datum for any such
    choice.  The M_j are stacked by target dimension (`BLDatum.map_groups`):
    each check and product is one call per stack, and `slogdet` one call per
    matrix shape.
    """
    if len(m_list) != d.m:
        raise ValueError("need one positive-definite matrix per map")
    for j, (m, mj) in enumerate(zip(d.maps, m_list)):
        if np.shape(mj) != (m.n_j, m.n_j):
            raise ValueError(f"map {j}: M_j has shape {np.shape(mj)}, need ({m.n_j}, {m.n_j})")
    groups = d.map_groups
    ms = [np.asarray([m_list[j] for j in g.at], dtype=float) for g in groups]
    if not all(np.isfinite(m).all() for m in ms):
        raise SingularForm("M_j has non-finite entries")
    try:
        for m in ms:
            np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise SingularForm("M_j is not positive definite")
    agg = _sum_in_map_order(d, [g.scaled_maps_t @ m @ g.maps for g, m in zip(groups, ms)])
    with np.errstate(divide="ignore"):  # an exactly singular aggregate reads sign 0, logdet -inf
        signs, logdets = _slogdets([agg[None], *ms])
    sign, logdet_agg = signs[0][0], logdets[0][0]
    diag = agg.diagonal()
    # The Hadamard ratio det / prod(diagonal) is the product of the n Cholesky
    # pivots of the form rescaled to a unit diagonal, each in (0, 1]; unlike
    # det itself it does not change when a coordinate is rescaled.  The form is
    # singular to working precision when their geometric mean is below epsilon.
    hadamard = logdet_agg - float(np.log(diag).sum()) if (diag > 0).all() else -math.inf
    if sign <= 0 or hadamard < math.log(np.finfo(float).eps) * d.n:
        raise SingularForm("aggregate form is singular along some direction")
    logprod = 0.0
    for p, logdet in zip(d.float_exponents, _in_map_order(d, logdets[1:])):
        logprod += p / 2.0 * logdet
    return math.exp(-0.5 * logdet_agg + logprod)


def _in_map_order(d: BLDatum, per_group: list) -> list:
    """One value per map, in map order, from one sequence per group of `BLDatum.map_groups`."""
    out = [None] * d.m
    for g, values in zip(d.map_groups, per_group):
        for j, v in zip(g.at, values):
            out[j] = v
    return out


def _sum_in_map_order(d: BLDatum, per_group: list[np.ndarray]) -> np.ndarray:
    """0 + T_1 + ... + T_m for one (k, n, n) stack of terms per group: added in
    map order, as a loop over the maps adds them."""
    if len(per_group) == 1:
        terms = per_group[0]
    else:
        terms = np.empty((d.m, d.n, d.n))
        for g, t in zip(d.map_groups, per_group):
            terms[list(g.at)] = t
    return np.add.reduce(terms, axis=0, initial=0.0)


def _slogdets(stacks: list[np.ndarray]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The signs and the log |det| of each stack of square matrices, from one
    slogdet call per matrix shape."""
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for i, s in enumerate(stacks):
        by_shape.setdefault(s.shape[1:], []).append(i)
    signs, logdets = [None] * len(stacks), [None] * len(stacks)
    for idx in by_shape.values():
        stack = stacks[idx[0]] if len(idx) == 1 else np.concatenate([stacks[i] for i in idx])
        sign, logdet = np.linalg.slogdet(stack)
        start = 0
        for i in idx:
            stop = start + len(stacks[i])
            signs[i], logdets[i] = sign[start:stop], logdet[start:stop]
            start = stop
    return signs, logdets


def _inv_sqrt(g: np.ndarray) -> np.ndarray:
    """g^{-1/2} of each matrix of a stack of symmetric positive-definite Gram
    matrices; the empty Gram matrix of a map onto Q^0 is its own inverse square root."""
    w, v = np.linalg.eigh(g)
    if w.size and (w[:, 0] <= 0).any():
        raise SingularForm("Gram matrix is not positive definite")
    return (v / np.sqrt(w)[:, None, :]) @ v.transpose(0, 2, 1)


def _hs_product_bound(d: BLDatum, a: np.ndarray, cs: list[np.ndarray], bs: list[np.ndarray]) -> float:
    """Reciprocal of prod (||B_j||^2 / n_j)^{p_j n_j / 2}, B_j = C_j pi_j A, at |det A| = |det C_j| = 1,
    with C_j and B_j stacked per group of `BLDatum.map_groups`.

    Determinant-one changes of variables leave the constant unchanged, and
    the product is at least its inverse, so the value is a lower bound.  A map
    onto Q^0 contributes the factor 1.
    """
    _, logdets = _slogdets([a[None], *cs])
    log_f = -logdets[0][0]
    sq_norms = _in_map_order(d, [(b**2).sum(axis=(1, 2)) for b in bs])
    for p, m, sq, c_logdet in zip(d.float_exponents, d.maps, sq_norms, _in_map_order(d, logdets[1:])):
        if m.n_j:
            log_f += p * (m.n_j / 2 * math.log(float(sq) / m.n_j) - c_logdet)
    return math.exp(-log_f)


def estimate_bl_constant(d: BLDatum, budget: int, seed: int, restarts: int = 8) -> BLEstimate:
    """Two lower bounds for the constant of a scaling-correct datum.

    Alternating scaling (Garg-Gurvits-Oliveira-Wigderson, GAFA 2018) keeps
    B_j = C_j pi_j A and alternately normalizes B_j B_j^T = I, through
    C_j <- (B_j B_j^T)^{-1/2} C_j, and sum p_j B_j^T B_j = I, through
    A <- A (sum p_j B_j^T B_j)^{-1/2}; it stops once the squared Frobenius
    error of the second condition is below SCALING_TOL (`converged`) or after
    `budget` steps (`iterations` counts the steps begun).  Each step gives
    two lower bounds that meet at the fixed point: the Gaussian ratio at
    M_j = C_j^T C_j, and the reciprocal of the determinant-one
    Hilbert-Schmidt product at (A, C_j).  A step whose matrices or bounds
    leave the float range, or whose Gram matrices or Gaussian form are not
    positive definite, ends the loop unconverged; the last bounds computed
    stand.

    The maps are stacked by target dimension n_j (`BLDatum.map_groups`), and
    a step makes one batched call per group for each matrix product, `eigh`
    and `cholesky`, and one `slogdet` call per matrix shape in each bound.
    Each matrix gets the floats a loop over the maps would give it, and sums
    over the maps add in map order, so the grouping changes no result.

    The constant is reported infinite (bl_infinite) when the maps share a
    kernel direction, certified exactly by a rank deficit of the stacked maps
    over Q, with both bounds math.inf (cause "common-kernel"); or when the
    scaling does not converge, which is evidence but not proof (cause
    "unconverged").  A finite constant has cause None.
    `seed` and `restarts` are accepted and have no effect: the result depends
    only on the datum and the budget, which must be at least 1.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if not d.scaling_holds():
        raise InvalidExponent("scaling condition fails; constant is trivially degenerate")
    if d.common_kernel.dim:
        return BLEstimate(math.inf, math.inf, 0, False, bl_infinite=True, cause="common-kernel")
    groups = d.map_groups
    a = eye = np.eye(d.n)
    cs = [np.repeat(np.eye(g.n_j)[None], len(g.at), axis=0) for g in groups]
    bounds = (0.0, 0.0)
    steps, converged = 0, False
    with np.errstate(over="raise", invalid="raise"):
        try:
            for steps in range(1, budget + 1):
                bs = [c @ g.maps @ a for g, c in zip(groups, cs)]
                cs = [_inv_sqrt(b @ b.transpose(0, 2, 1)) @ c for b, c in zip(bs, cs)]
                bs = [c @ g.maps @ a for g, c in zip(groups, cs)]
                ms = _in_map_order(d, [c.transpose(0, 2, 1) @ c for c in cs])
                bounds = (_hs_product_bound(d, a, cs, bs), gaussian_ratio(d, ms))
                s = _sum_in_map_order(d, [g.ps * b.transpose(0, 2, 1) @ b for g, b in zip(groups, bs)])
                if float(((s - eye) ** 2).sum()) < SCALING_TOL:
                    converged = True
                    break
                a = a @ _inv_sqrt(s[None])[0]
        except (FloatingPointError, OverflowError, SingularForm):
            pass  # the guard stops the loop; the last bounds computed stand
    cause = None if converged else "unconverged"
    return BLEstimate(bounds[0], bounds[1], steps, converged, bl_infinite=not converged, cause=cause)


# --- serialization ---------------------------------------------------------------


def datum_to_json(d: BLDatum) -> dict:
    return {
        "n": d.n,
        "maps": [{"nj": m.n_j, "matrix": mat_to_json(m.matrix)} for m in d.maps],
        "exponents": [str(p) for p in d.exponents],
    }


def datum_from_json(obj: dict) -> BLDatum:
    maps = tuple(BLMap(_read_json(int, m["nj"], "nj"), mat_from_json(m["matrix"])) for m in obj["maps"])
    exponents = tuple(_read_json(Fraction, p, "exponent", k) for k, p in enumerate(obj["exponents"]))
    return BLDatum(_read_json(int, obj["n"], "n"), maps, exponents)
