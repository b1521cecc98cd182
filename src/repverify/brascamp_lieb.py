"""Brascamp-Lieb data: construction, BCCT feasibility, constant estimation.

Feasibility is the scaling condition sum p_j n_j = n together with
dim U <= sum p_j dim pi_j(U) over subspaces U; both sides are evaluated with
exact rational arithmetic on a subspace lattice.  A passing lattice check is
labeled as such and is not a proof for general data.

The constant is estimated from below by two independent routes: minimizing
the determinant-one Hilbert-Schmidt product (whose infimum is the inverse
constant) and maximizing the closed-form Gaussian ratio.  Both values are
certified lower bounds for the constant by construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.linalg import expm

from .generic import SampledElement
from .qlinalg import (
    Mat,
    Subspace,
    kernel_basis,
    mat_from_json,
    mat_to_json,
    rank,
    subspace_intersect,
    subspace_sum,
)
from .reps import RepConfig, flag_projector, weight_decompose

LATTICE_CAP = 4096
BL_ZERO_THRESHOLD = 1e-6
CONVERGENCE_RTOL = 1e-3
FD_STEP = 1e-6
DET_GUARD = 1e-9


class InvalidExponent(Exception):
    pass


class CapExceeded(Exception):
    def __init__(self, msg, partial):
        super().__init__(msg)
        self.partial = partial


class SingularForm(Exception):
    """The aggregate quadratic form is singular: an infeasibility direction."""


@dataclass(frozen=True)
class BLMap:
    n_j: int
    matrix: Mat  # n_j x n, surjective

    def __post_init__(self):
        if self.matrix.rows != self.n_j:
            raise ValueError("map shape does not match target dimension")


@dataclass(frozen=True)
class BLDatum:
    n: int
    maps: tuple[BLMap, ...]
    exponents: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.maps) != len(self.exponents):
            raise ValueError("maps and exponents length mismatch")
        for m in self.maps:
            if m.matrix.cols != self.n:
                raise ValueError("map domain dimension mismatch")
            if rank(m.matrix) != m.n_j:
                raise ValueError("map is not surjective")
        for p in self.exponents:
            if p < 0:
                raise InvalidExponent("exponents must be nonnegative")

    @property
    def m(self) -> int:
        return len(self.maps)

    def scaling_holds(self) -> bool:
        return sum((p * m.n_j for p, m in zip(self.exponents, self.maps)), Fraction(0)) == self.n

    def numpy_maps(self) -> list[np.ndarray]:
        return [np.array(m.matrix.to_float_rows(), dtype=float) for m in self.maps]


@dataclass
class FeasibilityCertificate:
    scaling_ok: bool
    status: str  # "violated" | "passed_lattice" | "passed_heuristic"
    witness: Subspace | None = None
    lattice_size: int = 0
    random_checks: int = 0

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
    history: list[tuple[float, float]] = field(default_factory=list)

    @property
    def best_lower_bound(self) -> float:
        return max(self.lower_bound_variational, self.lower_bound_gaussian)


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
        proj = flag_projector(weight_decompose(cfg), mu)
        rows_idx = [i for i in range(n) if proj.projector.at(i, i) == 1]
        base = Mat.from_rows([[Fraction(1 if j == i else 0) for j in range(n)] for i in rows_idx])
        k = base.rows
    else:
        if w.ambient_dim != n or w.dim == 0:
            raise ValueError("w must be a nonzero subspace of the representation space")
        base = w.basis.transpose()  # k x n, kernel = w-perp
        k = w.dim
    p = Fraction(n, k * m)
    if p > 1:
        raise InvalidExponent(f"m = {m} is too small: need m >= n / k = {Fraction(n, k)}")
    maps = tuple(BLMap(k, _dyadic_normalize(base @ el.matrix)) for el in elements)
    return BLDatum(n, maps, (p,) * m)


def _dyadic_normalize(m: Mat) -> Mat:
    """Scale by an exact power of two so the HS norm lands in [1, 2).

    Composing a map with a scalar isomorphism changes neither its kernel nor
    the feasibility of any datum containing it, and keeps the estimators'
    collapse threshold meaningful for sampled group elements of any height.
    """
    sq = sum((x * x for x in m.entries), Fraction(0))
    if sq == 0:
        return m
    e = math.floor(math.log2(float(sq)) / 2.0)
    return m.scale(Fraction(1, 2**e) if e >= 0 else Fraction(2**-e))


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


def _criterion_deficit(d: BLDatum, u: Subspace) -> Fraction:
    """dim U - sum p_j dim pi_j(U); positive means the criterion is violated."""
    total = Fraction(0)
    for p, m in zip(d.exponents, d.maps):
        if u.dim:
            total += p * rank(m.matrix @ u.basis)
    return Fraction(u.dim) - total


def _iter_kernel_lattice(d: BLDatum, cap: int):
    """Yield the sum/intersection closure of the map kernels as it grows.

    Raises CapExceeded (carrying the partial lattice) past `cap` elements;
    callers checking the criterion incrementally see every element first.
    """
    seeds = [kernel_basis(m.matrix) for m in d.maps]
    seeds.append(Subspace.full(d.n))
    seen: dict[Subspace, bool] = {}
    for s in seeds:
        if s not in seen:
            seen[s] = True
            yield s
    frontier = list(seen)
    while frontier:
        new: list[Subspace] = []
        members = list(seen)
        for a in frontier:
            for b in members:
                if a == b:
                    continue
                for c in (subspace_sum(a, b), subspace_intersect(a, b)):
                    if c not in seen:
                        seen[c] = True
                        new.append(c)
                        if len(seen) > cap:
                            raise CapExceeded(f"kernel lattice exceeded cap {cap}", list(seen))
                        yield c
        frontier = new


def check_feasibility(
    d: BLDatum,
    mode: str = "lattice",
    random_count: int = 0,
    seed: int = 0,
) -> FeasibilityCertificate:
    """BCCT criterion on the kernel lattice, optionally reinforced.

    mode is one of "lattice", "lattice_plus_random", "coordinate_exhaustive".
    A pass is labeled passed_lattice only in pure lattice mode; anything that
    adds random or coordinate subspaces reports passed_heuristic.  Neither is
    a proof of feasibility: the criterion quantifies over all subspaces.
    The lattice is checked incrementally, so a violation is reported even
    when the full closure would exceed the element cap.
    """
    scaling_ok = d.scaling_holds()
    lattice_size = 0
    for u in _iter_kernel_lattice(d, LATTICE_CAP):
        lattice_size += 1
        if _criterion_deficit(d, u) > 0:
            return FeasibilityCertificate(scaling_ok, "violated", u, lattice_size, 0)
    random_checks = 0
    if mode == "lattice":
        return FeasibilityCertificate(scaling_ok, "passed_lattice", None, lattice_size, 0)
    if mode == "lattice_plus_random":
        rng = random.Random(seed)
        from .generic import random_subspace

        for dim in range(1, d.n):
            for _ in range(max(1, random_count)):
                u = random_subspace(d.n, dim, rng)
                random_checks += 1
                if _criterion_deficit(d, u) > 0:
                    return FeasibilityCertificate(
                        scaling_ok, "violated", u, lattice_size, random_checks
                    )
        return FeasibilityCertificate(scaling_ok, "passed_heuristic", None, lattice_size, random_checks)
    if mode == "coordinate_exhaustive":
        if d.n > 16:
            raise ValueError("coordinate_exhaustive supported only for n <= 16")
        for size in range(1, d.n):
            for idx in combinations(range(d.n), size):
                cols = [[Fraction(1 if t == i else 0) for t in range(d.n)] for i in idx]
                u = Subspace.from_columns(d.n, cols)
                random_checks += 1
                if _criterion_deficit(d, u) > 0:
                    return FeasibilityCertificate(
                        scaling_ok, "violated", u, lattice_size, random_checks
                    )
        return FeasibilityCertificate(scaling_ok, "passed_heuristic", None, lattice_size, random_checks)
    raise ValueError(f"unknown feasibility mode {mode!r}")


# --- Gaussian ratio and estimators ----------------------------------------------


def gaussian_ratio(d: BLDatum, m_list: list[np.ndarray]) -> float:
    """det(sum p_j pi_j^T M_j pi_j)^{-1/2} prod det(M_j)^{p_j/2}.

    Each M_j must be positive definite; the value is a lower bound for the
    constant of the datum for any such choice.
    """
    mats = d.numpy_maps()
    if len(m_list) != d.m:
        raise ValueError("need one positive-definite matrix per map")
    agg = np.zeros((d.n, d.n))
    logprod = 0.0
    for p, pi, mj in zip(d.exponents, mats, m_list):
        mj = np.asarray(mj, dtype=float)
        if not np.all(np.isfinite(mj)):
            raise SingularForm("M_j has non-finite entries")
        try:
            np.linalg.cholesky(mj)
        except np.linalg.LinAlgError:
            raise SingularForm("M_j is not positive definite")
        agg += float(p) * pi.T @ mj @ pi
        sign, logdet = np.linalg.slogdet(mj)
        logprod += float(p) / 2.0 * logdet
    sign, logdet_agg = np.linalg.slogdet(agg)
    if sign <= 0 or logdet_agg < math.log(DET_GUARD) * d.n:
        raise SingularForm("aggregate form is singular along some direction")
    return math.exp(-0.5 * logdet_agg + logprod)


def _traceless(x: np.ndarray) -> np.ndarray:
    return x - np.trace(x) / x.shape[0] * np.eye(x.shape[0])


def _hs_product_value(d: BLDatum, mats: list[np.ndarray], theta: np.ndarray, dims: list[int]) -> float:
    """log of prod n_j^{-p_j n_j / 2} ||A_j pi_j A^t||^{p_j n_j} at packed parameters."""
    n = d.n
    offset = n * n
    a = expm(_traceless(theta[:offset].reshape(n, n)))
    out = 0.0
    pos = offset
    for p, nj, pi in zip(d.exponents, dims, mats):
        aj = expm(_traceless(theta[pos : pos + nj * nj].reshape(nj, nj)))
        pos += nj * nj
        norm = np.linalg.norm(aj @ pi @ a.T)
        pn = float(p) * nj
        out += pn * math.log(max(norm, 1e-300)) - 0.5 * pn * math.log(nj)
    return out


def _fd_gradient(f, theta: np.ndarray) -> np.ndarray:
    g = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = FD_STEP
        g[i] = (f(theta + e) - f(theta - e)) / (2 * FD_STEP)
    return g


def _descend(f, theta0: np.ndarray, iters: int):
    """Gradient descent with backtracking; returns (best value, trajectory)."""
    theta = theta0.copy()
    val = f(theta)
    best = val
    traj = [best]
    step = 0.5
    for _ in range(iters):
        g = _fd_gradient(f, theta)
        gn = np.linalg.norm(g)
        if gn < 1e-12:
            traj.append(best)
            continue
        s = step
        for _ in range(20):
            cand = theta - s * g
            cval = f(cand)
            if cval < val - 1e-4 * s * gn * gn:
                theta, val = cand, cval
                step = min(s * 2.0, 4.0)
                break
            s *= 0.5
        best = min(best, val)
        traj.append(best)
    return best, traj


def _exp_or_inf(x: float) -> float:
    """exp(x), with a value too large for a float reported as math.inf."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def estimate_bl_constant(
    d: BLDatum, budget: int, seed: int, restarts: int = 8
) -> BLEstimate:
    """Dual lower-bound estimation of the constant of a scaling-correct datum.

    Variational route: minimize the determinant-one Hilbert-Schmidt product
    and report the reciprocal.  Gaussian route: maximize the Gaussian ratio
    over Cholesky-parameterized positive-definite inputs.  Deterministic in
    (datum, budget, seed).  A collapse of the product below 1e-6 is the
    bl_infinite signal (the datum is infeasible and the constant is infinite).
    """
    if not d.scaling_holds():
        raise InvalidExponent("scaling condition fails; constant is trivially degenerate")
    mats = d.numpy_maps()
    dims = [m.n_j for m in d.maps]
    n = d.n
    rng = np.random.default_rng(seed)
    iters = max(2, budget // max(1, restarts))

    # (a) variational
    nvar = n * n + sum(nj * nj for nj in dims)
    f_var = lambda th: _hs_product_value(d, mats, th, dims)
    best_log_f = math.inf
    var_traj_best: list[float] = []
    for r in range(restarts):
        theta0 = np.zeros(nvar) if r == 0 else rng.normal(scale=0.3, size=nvar)
        val, traj = _descend(f_var, theta0, iters)
        if val < best_log_f:
            best_log_f = val
            var_traj_best = traj
    bl_infinite_var = best_log_f < math.log(BL_ZERO_THRESHOLD)
    lower_var = _exp_or_inf(-best_log_f)

    # (b) Gaussian, maximize log ratio over Cholesky parameters
    try:
        gaussian_ratio(d, [np.eye(nj) for nj in dims])
        identity_singular = False
    except SingularForm:
        # singular aggregate at the identity: the maps share a kernel
        # direction, the integral functional is infinite
        identity_singular = True
    tri = [nj * (nj + 1) // 2 for nj in dims]

    def unpack(th):
        out = []
        pos = 0
        for nj, tn in zip(dims, tri):
            l = np.zeros((nj, nj))
            vals = th[pos : pos + tn]
            pos += tn
            k = 0
            for i in range(nj):
                for j in range(i + 1):
                    l[i, j] = math.exp(min(vals[k], 300.0)) if i == j else vals[k]
                    k += 1
            out.append(l @ l.T)
        return out

    def neg_log_ratio(th):
        try:
            return -math.log(max(gaussian_ratio(d, unpack(th)), 1e-300))
        except SingularForm:
            return math.inf

    ngauss = sum(tri)
    best_neg = math.inf
    gauss_traj_best: list[float] = [math.inf] * (iters + 1)
    if not identity_singular:
        for r in range(restarts):
            theta0 = np.zeros(ngauss) if r == 0 else rng.normal(scale=0.3, size=ngauss)
            val, traj = _descend(neg_log_ratio, theta0, iters)
            if val < best_neg:
                best_neg = val
                gauss_traj_best = traj
    lower_gauss = _exp_or_inf(-best_neg)
    bl_infinite_gauss = identity_singular or lower_gauss > 1.0 / BL_ZERO_THRESHOLD

    bl_infinite = bl_infinite_var or bl_infinite_gauss
    history = [
        (_exp_or_inf(-v), _exp_or_inf(-g))
        for v, g in zip(var_traj_best, gauss_traj_best)
    ]
    tail = max(1, len(history) // 10)
    converged = not bl_infinite and all(
        abs(v - g) <= CONVERGENCE_RTOL * max(v, g) for v, g in history[-tail:]
    )
    return BLEstimate(
        lower_bound_variational=lower_var,
        lower_bound_gaussian=lower_gauss,
        iterations=iters * restarts,
        converged=converged,
        bl_infinite=bl_infinite,
        history=history,
    )


# --- serialization ---------------------------------------------------------------


def datum_to_json(d: BLDatum) -> dict:
    return {
        "n": d.n,
        "maps": [{"nj": m.n_j, "matrix": mat_to_json(m.matrix)} for m in d.maps],
        "exponents": [str(p) for p in d.exponents],
    }


def datum_from_json(obj: dict) -> BLDatum:
    maps = tuple(BLMap(int(m["nj"]), mat_from_json(m["matrix"])) for m in obj["maps"])
    return BLDatum(int(obj["n"]), maps, tuple(Fraction(p) for p in obj["exponents"]))
