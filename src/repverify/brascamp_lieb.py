"""Brascamp-Lieb data: construction, BCCT feasibility, constant estimation.

Feasibility is the scaling condition sum p_j n_j = n together with
dim U <= sum p_j dim pi_j(U) over subspaces U; both sides are evaluated with
exact rational arithmetic on a subspace lattice.  A passing lattice check is
labeled as such and is not a proof for general data.

The constant is estimated by alternating (operator) scaling of the maps
towards a geometric datum.  Every iterate gives two lower bounds for the
constant, certified by construction: the closed-form Gaussian ratio and the
reciprocal of the determinant-one Hilbert-Schmidt product, which meet at the
fixed point.  A common kernel direction of the maps, which makes the
constant infinite, is found exactly with a rank computation over Q.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations

import numpy as np

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
DET_GUARD = 1e-9
SCALING_TOL = 1e-6


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


def _inv_sqrt(g: np.ndarray) -> np.ndarray:
    """g^{-1/2} of a symmetric positive-definite Gram matrix."""
    w, v = np.linalg.eigh(g)
    if w[0] <= 0:
        raise SingularForm("Gram matrix is not positive definite")
    return (v / np.sqrt(w)) @ v.T


def _hs_product_bound(ps: list[float], a: np.ndarray, cs: list[np.ndarray], bs: list[np.ndarray]) -> float:
    """Reciprocal of prod (||B_j||^2 / n_j)^{p_j n_j / 2}, B_j = C_j pi_j A, at |det A| = |det C_j| = 1.

    Determinant-one changes of variables leave the constant unchanged, and
    the product is at least its inverse, so the value is a lower bound.
    """
    log_f = -np.linalg.slogdet(a)[1]
    for p, c, b in zip(ps, cs, bs):
        nj = b.shape[0]
        log_f += p * (nj / 2 * math.log(float(np.sum(b**2)) / nj) - np.linalg.slogdet(c)[1])
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

    The constant is reported infinite (bl_infinite) when the maps share a
    kernel direction, certified exactly by a rank deficit of the stacked maps
    over Q, with both bounds math.inf; or when the scaling does not converge.
    `seed` and `restarts` are accepted and have no effect: the result depends
    only on the datum and the budget.
    """
    if not d.scaling_holds():
        raise InvalidExponent("scaling condition fails; constant is trivially degenerate")
    if rank(reduce(Mat.vstack, (m.matrix for m in d.maps))) < d.n:
        return BLEstimate(math.inf, math.inf, 0, False, bl_infinite=True)
    mats = d.numpy_maps()
    ps = [float(p) for p in d.exponents]
    a = np.eye(d.n)
    cs = [np.eye(m.n_j) for m in d.maps]
    bounds = (0.0, 0.0)
    steps, converged = 0, False
    with np.errstate(over="raise", invalid="raise"):
        try:
            for steps in range(1, budget + 1):
                bs = [c @ pi @ a for c, pi in zip(cs, mats)]
                cs = [_inv_sqrt(b @ b.T) @ c for b, c in zip(bs, cs)]
                bs = [c @ pi @ a for c, pi in zip(cs, mats)]
                bounds = (_hs_product_bound(ps, a, cs, bs), gaussian_ratio(d, [c.T @ c for c in cs]))
                s = sum(p * b.T @ b for p, b in zip(ps, bs))
                if float(np.sum((s - np.eye(d.n)) ** 2)) < SCALING_TOL:
                    converged = True
                    break
                a = a @ _inv_sqrt(s)
        except (FloatingPointError, OverflowError, SingularForm):
            pass  # the guard stops the loop; the last bounds computed stand
    return BLEstimate(bounds[0], bounds[1], steps, converged, bl_infinite=not converged)


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
