"""Discretized covering numbers, energies, and projection experiments.

All partitions are by half-open dyadic cubes anchored at 0, so bucketing is a
floor division.  Point sets live in the unit box; images under sampled group
elements may leave it, which covering counts handle transparently.  Norms are
Euclidean throughout (a different norm only shifts constants).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .reps import RepConfig, check_proximal, flag_projector, weight_decompose

MAX_POINTS = 1 << 26
DEDUP_SCALE = 40  # coincidence resolution 2^-40
MAX_SCALE = 40
PAIR_BLOCK = 1 << 16  # point pairs per block of the pairwise-distance scans


class SpecError(Exception):
    pass


class MembershipError(Exception):
    pass


class SizeError(Exception):
    pass


class HypothesisError(Exception):
    pass


class DegenerateError(Exception):
    pass


def _dyadic_exponent(delta: float) -> int:
    s = round(-math.log2(delta))
    if not (1 <= s <= MAX_SCALE) or abs(2.0**-s - delta) > 1e-15:
        raise SpecError(f"delta must be 2^-s with 1 <= s <= {MAX_SCALE}, got {delta}")
    return s


@dataclass(frozen=True)
class PointSet:
    ambient: int
    points: np.ndarray  # (N, ambient) float
    provenance: str
    seed: int | None = None
    designed_dim: float | None = None

    def __post_init__(self):
        pts = self.points
        if pts.ndim != 2 or pts.shape[1] != self.ambient:
            raise SpecError("points array must be (N, ambient)")
        if pts.shape[0] > MAX_POINTS:
            raise SizeError(f"point set exceeds cap {MAX_POINTS}")

    @property
    def size(self) -> int:
        return self.points.shape[0]


def _dedupe(points: np.ndarray) -> np.ndarray:
    keys = np.round(points * (1 << DEDUP_SCALE)).astype(np.int64)
    _, idx = np.unique(keys, axis=0, return_index=True)
    return points[np.sort(idx)]


def make_point_set(points, provenance: str, seed=None, designed_dim=None) -> PointSet:
    pts = _dedupe(np.asarray(points, dtype=float))
    return PointSet(pts.shape[1], pts, provenance, seed, designed_dim)


def _cube_keys(points: np.ndarray, delta: float) -> np.ndarray:
    """Cube indices floor(points / delta), column-major so that each
    coordinate's keys are contiguous for `_count_distinct`."""
    keys = points / delta
    np.floor(keys, out=keys)
    return keys.astype(np.int64, order="F")


def _count_distinct(keys: np.ndarray) -> int:
    """Number of distinct rows of an (N, k) integer key array.

    Counts by sorting and comparing neighbours: the count is 1 + the number of
    adjacent unequal entries.  np.unique would give the same number, but on
    int64 numpy 2.x sends it through a hash table (`_unique_hash`), about 40x
    slower than np.sort on 2^20 keys.  Rows whose shifted columns fit in 62 bits
    are packed into one int64 and sorted in place; wider rows are lexsorted.
    """
    if keys.shape[0] == 0:
        return 0
    if keys.shape[1] == 1:
        flat = np.sort(keys[:, 0])
    else:
        lo = keys.min(axis=0)
        widths = [int(w).bit_length() for w in keys.max(axis=0) - lo + 1]
        if sum(widths) > 62:
            rows = keys[np.lexsort(keys.T)]
            return 1 + int(np.count_nonzero(np.any(rows[1:] != rows[:-1], axis=1)))
        flat = keys[:, 0] - lo[0]
        for j in range(1, keys.shape[1]):
            flat <<= widths[j]
            flat |= keys[:, j] - lo[j]
        flat.sort()
    return 1 + int(np.count_nonzero(flat[1:] != flat[:-1]))


def covering_number(a: PointSet, delta: float) -> int:
    """Number of half-open axis-aligned delta-cubes anchored at 0 meeting a."""
    _dyadic_exponent(delta)
    return _count_distinct(_cube_keys(a.points, delta))


@dataclass(frozen=True)
class TubeSpec:
    """Anisotropic tube partition data.

    r_tuple and level_dims are listed in ascending-eigenvalue order; ambient
    coordinates are ordered by descending eigenvalue, so level i occupies the
    trailing block of size level_dims[i].
    """

    delta: float
    r_tuple: tuple[float, ...]
    level_dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.r_tuple) != len(self.level_dims):
            raise SpecError("r_tuple and level_dims must have equal length")
        if any(r < 0 for r in self.r_tuple) or self.r_tuple[-1] != 1:
            raise SpecError("need 0 <= r_1 <= ... <= r_m = 1")
        if any(a > b for a, b in zip(self.r_tuple, self.r_tuple[1:])):
            raise SpecError("r_tuple must be nondecreasing")
        _dyadic_exponent(self.delta)

    def level_slices(self) -> list[slice]:
        n = sum(self.level_dims)
        out = []
        stop = n
        for k in self.level_dims:
            out.append(slice(stop - k, stop))
            stop -= k
        return out


def tube_covering_number(a: PointSet, spec: TubeSpec) -> int:
    """Occupied atoms of the join partition with level-i scale delta^{r_i}."""
    if sum(spec.level_dims) != a.ambient:
        raise SpecError("level dimensions do not sum to the ambient dimension")
    cols = []
    for sl, r in zip(spec.level_slices(), spec.r_tuple):
        cols.append(_cube_keys(a.points[:, sl], spec.delta**r))
    return _count_distinct(np.hstack(cols))


def _distance_blocks(queries: np.ndarray, pts: np.ndarray):
    """Euclidean distances from each query row to every point, as row blocks.

    A block holds about PAIR_BLOCK distances (one row when a row is longer),
    so its memory does not grow with the number of queries."""
    step = max(1, PAIR_BLOCK // pts.shape[0])
    for start in range(0, queries.shape[0], step):
        block = queries[start : start + step]
        # coordinate by coordinate: the same sums, in the same order, as
        # np.linalg.norm(pts - w, axis=1), without reducing a length-d axis
        sq = (pts[None, :, 0] - block[:, 0, None]) ** 2
        for j in range(1, pts.shape[1]):
            sq += (pts[None, :, j] - block[:, j, None]) ** 2
        yield np.sqrt(sq)


def _truncated_energies(dists: np.ndarray, delta: float, alpha: float) -> np.ndarray:
    """Row sums of max(d, delta)^-alpha over the distances d that are not coincidences."""
    at_w = dists <= 2.0**-DEDUP_SCALE
    return np.where(at_w, 0.0, np.maximum(dists, delta) ** -alpha).sum(axis=1)


def alpha_energy(f: PointSet, delta: float, alpha: float, w) -> float:
    """Scale-truncated Riesz energy sum_{w' != w} max(|w'-w|, delta)^-alpha."""
    if not 0 < alpha < f.ambient + 1e-12:
        raise SpecError("need 0 < alpha <= ambient dimension")
    (dists,) = _distance_blocks(np.asarray(w, dtype=float)[None, :], f.points)
    if not np.any(dists <= 2.0**-DEDUP_SCALE):
        raise MembershipError("w is not a point of the set")
    return float(_truncated_energies(dists, delta, alpha)[0])


def frostman_constant(f: PointSet, delta0: float, alpha: float) -> float:
    """Minimal C with mu_F(B(x, r)) <= C r^alpha over x in F, dyadic r in [delta0, 1]."""
    if f.size < 2:
        raise SpecError("need at least two points")
    s_max = _dyadic_exponent(delta0)
    # heaviest ball of each dyadic radius 2^-s over all centres
    counts = [0] * (s_max + 1)
    for dists in _distance_blocks(f.points, f.points):
        for s in range(s_max + 1):
            counts[s] = max(counts[s], int(np.count_nonzero(dists <= 2.0**-s, axis=1).max()))
    return max((counts[s] / f.size) / (2.0**-s) ** alpha for s in range(s_max + 1))


def frostman_energy_bound_check(f: PointSet, delta: float, alpha: float, beta: float) -> bool:
    """Nonconcentration controls the truncated energy:
    G^(beta)(w) <= 2^n C (1 + 1/(1 - 2^{beta-alpha})) #F at every w."""
    if not 0 < beta < alpha:
        raise SpecError("need 0 < beta < alpha")
    c = frostman_constant(f, delta, alpha)
    bound = 2.0**f.ambient * c * (1.0 + 1.0 / (1.0 - 2.0 ** (beta - alpha))) * f.size
    return not any(
        np.any(_truncated_energies(dists, delta, beta) > bound)
        for dists in _distance_blocks(f.points, f.points)
    )


# --- generators -----------------------------------------------------------------


@dataclass(frozen=True)
class FullGrid:
    ambient: int
    s: int  # spacing 2^-s


@dataclass(frozen=True)
class ProductCantor:
    # per coordinate: (base, kept digits, depth)
    coords: tuple[tuple[int, tuple[int, ...], int], ...]


@dataclass(frozen=True)
class RandomSubset:
    ambient: int
    s: int
    density: float


@dataclass(frozen=True)
class WeightAligned:
    """Per-coordinate designed dimensions at construction scale 2^-level_scale.

    Coordinate j carries a grid of 2^round(level_scale * dims[j]) points, so
    the designed box dimension is sum(dims) at the construction scale.
    """

    dims: tuple[float, ...]
    level_scale: int = 8


FractalSpec = FullGrid | ProductCantor | RandomSubset | WeightAligned


def parse_fractal(text: str) -> FractalSpec:
    kind, _, rest = text.partition(":")
    args = [p for p in rest.split(",") if p]
    if kind == "full_grid":
        return FullGrid(int(args[0]), int(args[1]))
    if kind == "random_subset":
        return RandomSubset(int(args[0]), int(args[1]), float(args[2]))
    if kind == "weight_aligned":
        return WeightAligned(tuple(float(x) for x in args))
    if kind == "cantor":
        base, digits, depth = int(args[0]), args[1], int(args[2])
        return ProductCantor(((base, tuple(int(c) for c in digits), depth),))
    raise SpecError(f"unknown fractal descriptor {text!r}")


def _grid_points(count: int, spacing: float) -> np.ndarray:
    return np.arange(count) * spacing


def generate_fractal(desc: FractalSpec | str, seed: int = 0) -> PointSet:
    """Deterministic point set with its designed box dimension recorded."""
    if isinstance(desc, str):
        desc = parse_fractal(desc)
    if isinstance(desc, FullGrid):
        side = 1 << desc.s
        if side**desc.ambient > MAX_POINTS:
            raise SizeError("grid too large")
        axes = [_grid_points(side, 2.0**-desc.s)] * desc.ambient
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, desc.ambient)
        return PointSet(desc.ambient, pts, f"full_grid:{desc.ambient},{desc.s}", seed, float(desc.ambient))
    if isinstance(desc, ProductCantor):
        axes = []
        dim = 0.0
        for base, digits, depth in desc.coords:
            vals = np.zeros(1)
            for level in range(1, depth + 1):
                vals = (vals[:, None] + np.array(digits) * float(base) ** -level).ravel()
            axes.append(vals)
            dim += math.log(len(digits)) / math.log(base)
        total = math.prod(len(a) for a in axes)
        if total > MAX_POINTS:
            raise SizeError("cantor set too large")
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
        return PointSet(len(axes), pts, f"product_cantor:{desc.coords}", seed, dim)
    if isinstance(desc, RandomSubset):
        side = 1 << desc.s
        if side**desc.ambient > MAX_POINTS:
            raise SizeError("grid too large")
        rng = np.random.default_rng(seed)
        axes = [_grid_points(side, 2.0**-desc.s)] * desc.ambient
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, desc.ambient)
        keep = rng.random(pts.shape[0]) < desc.density
        if not np.any(keep):
            keep[0] = True
        pts = pts[keep]
        dim = math.log(pts.shape[0]) / (desc.s * math.log(2))
        return PointSet(
            desc.ambient, pts, f"random_subset:{desc.ambient},{desc.s},{desc.density}", seed, dim
        )
    if isinstance(desc, WeightAligned):
        axes = []
        for dj in desc.dims:
            if not 0 <= dj <= 1:
                raise SpecError("per-coordinate dimensions must lie in [0, 1]")
            count = 1 << round(desc.level_scale * dj)
            axes.append(_grid_points(count, 2.0 ** -(desc.level_scale * dj) if dj > 0 else 1.0))
        total = math.prod(len(a) for a in axes)
        if total > MAX_POINTS:
            raise SizeError("weight-aligned product too large")
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
        return PointSet(
            len(desc.dims), pts,
            f"weight_aligned:{','.join(str(d) for d in desc.dims)}@{desc.level_scale}",
            seed, float(sum(desc.dims)),
        )
    raise SpecError(f"unknown fractal spec {desc!r}")


# --- projection experiments -------------------------------------------------------


@dataclass
class ExceptionalReport:
    num_u: int
    exceptional_fraction: float
    threshold: float  # delta^epsilon, the allowed fraction
    covering_threshold: float
    per_u: list[tuple[tuple[float, ...], int, bool]] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    @property
    def within_bound(self) -> bool:
        return self.exceptional_fraction <= self.threshold


def _unipotent_matrix(cfg: RepConfig, coeffs: np.ndarray) -> np.ndarray:
    """exp(sum t_i N_i) over the expanding generators, as a float matrix."""
    gens = [np.array(cfg.h_basis[i].to_float_rows()) for i in cfg.u_plus_indices]
    x = sum(t * g for t, g in zip(coeffs, gens))
    out = np.eye(cfg.n)
    term = np.eye(cfg.n)
    for k in range(1, cfg.n + 1):
        term = term @ x / k
        out += term
    return out


def projection_experiment(
    cfg: RepConfig,
    f: PointSet,
    mu,
    delta: float,
    epsilon: float,
    m_exponent: float,
    num_u: int,
    seed: int,
    mode: str = "subcritical",
) -> ExceptionalReport:
    """Covering numbers of flag projections of u-translates of f.

    subcritical: u is exceptional when |pi^(mu)(u.F)|_delta falls below
    delta^(M eps) |F|_delta^(dim flag / n) with M = m_exponent.
    supercritical: the top-weight projection must reach the Bourgain-type
    bound delta^(-alpha/n - eps) capped by the full slice delta^(-flag dim),
    with alpha measured from |F|_delta; requires proximality.
    """
    s = _dyadic_exponent(delta)
    if f.ambient != cfg.n:
        raise SpecError("point set ambient dimension does not match the representation")
    # desk-scale caps
    if cfg.n > 9:
        raise SizeError("experiments support ambient dimension <= 9")
    if s > 14:
        raise SpecError("experiments support delta >= 2^-14")
    if num_u > 1000:
        raise SizeError("experiments support at most 1000 sampled parameters")
    dec = weight_decompose(cfg)
    if mode not in ("subcritical", "supercritical"):
        raise SpecError(f"unknown mode {mode!r}")
    if mode == "supercritical":
        if not check_proximal(dec):
            raise HypothesisError("supercritical mode needs a proximal configuration")
        mu = dec.max_eigenvalue
    proj = flag_projector(dec, mu)
    flag_idx = [i for i in range(cfg.n) if proj.projector.at(i, i) == 1]
    k = len(flag_idx)
    n = cfg.n

    base_cover = covering_number(f, delta)
    if mode == "subcritical":
        covering_threshold = delta ** (m_exponent * epsilon) * base_cover ** (k / n)
    else:
        alpha = math.log(base_cover) / math.log(1.0 / delta) if base_cover > 1 else 0.0
        covering_threshold = min(delta ** (-alpha / n - epsilon), delta ** (-float(k)))

    rng = np.random.default_rng(seed)
    dim_u = len(cfg.u_plus_indices)
    per_u = []
    exceptional = 0
    pts_t = f.points.T  # n x N
    for i in range(num_u):
        coeffs = rng.uniform(-1.0, 1.0, size=dim_u)
        mat = _unipotent_matrix(cfg, coeffs)
        image = (mat[flag_idx] @ pts_t).T
        cover = _count_distinct(_cube_keys(image, delta))
        bad = cover < covering_threshold
        exceptional += bad
        per_u.append((tuple(coeffs), cover, bool(bad)))
    frac = exceptional / num_u if num_u else 0.0
    return ExceptionalReport(
        num_u=num_u,
        exceptional_fraction=frac,
        threshold=delta**epsilon,
        covering_threshold=covering_threshold,
        per_u=per_u,
        params={
            "config": cfg.name,
            "mu": str(mu),
            "delta": delta,
            "epsilon": epsilon,
            "m_exponent": m_exponent,
            "mode": mode,
            "set": f.provenance,
            "set_covering": base_cover,
        },
    )


# --- Remez check -----------------------------------------------------------------


@dataclass(frozen=True)
class Poly:
    """Multivariate polynomial as (coefficient, exponent tuple) terms."""

    nvars: int
    degree: int
    terms: tuple[tuple[float, tuple[int, ...]], ...]

    def __post_init__(self):
        for _, exps in self.terms:
            if len(exps) != self.nvars or sum(exps) > self.degree:
                raise SpecError("term exponents exceed the declared degree")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        out = np.zeros(x.shape[0])
        for c, exps in self.terms:
            term = np.full(x.shape[0], c)
            for j, e in enumerate(exps):
                if e:
                    term = term * x[:, j] ** e
            out += term
        return out

    def is_zero(self) -> bool:
        return all(c == 0 for c, _ in self.terms)


def random_poly(nvars: int, degree: int, rng: random.Random) -> Poly:
    terms = []
    for exps in _exponents(nvars, degree):
        if rng.random() < 0.7:
            terms.append((rng.uniform(-2, 2), exps))
    if not terms:
        terms.append((rng.uniform(0.5, 2), (0,) * nvars))
    return Poly(nvars, degree, tuple(terms))


def _exponents(nvars: int, degree: int):
    if nvars == 1:
        for d in range(degree + 1):
            yield (d,)
        return
    for d in range(degree + 1):
        for rest in _exponents(nvars - 1, degree - d):
            yield (d,) + rest


@dataclass
class RemezResult:
    empirical_measure: float
    bound: float
    sup_estimate: float
    ok: bool


def remez_check(
    p: Poly,
    box: tuple[tuple[float, float], ...],
    eps: float,
    samples: int,
    seed: int,
    c_factor: float | None = None,
) -> RemezResult:
    """Monte Carlo check of the sublevel-measure inequality
    Leb{|P| < eps} <= C (eps / sup_B |P|)^{1/(d k)} Leb(B).

    The sup norm is estimated from a dense grid plus the Monte Carlo sample;
    being a lower bound for the true sup it only enlarges the right side.
    The default C = 4^{d k} comes from the configuration table.
    """
    if p.is_zero():
        raise DegenerateError("zero polynomial")
    if samples < 10_000:
        raise SpecError("need at least 1e4 samples")
    d, k = p.nvars, max(p.degree, 1)
    if len(box) != d:
        raise SpecError("box arity mismatch")
    c = c_factor if c_factor is not None else 4.0 ** (d * k)
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    pts = rng.uniform(lo, hi, size=(samples, d))
    vals = np.abs(p(pts))
    grid_axes = [np.linspace(b[0], b[1], 33) for b in box]
    grid = np.stack(np.meshgrid(*grid_axes, indexing="ij"), axis=-1).reshape(-1, d)
    sup = max(float(vals.max()), float(np.abs(p(grid)).max()))
    if sup == 0:
        raise DegenerateError("polynomial vanishes on the sample")
    vol = float(np.prod(hi - lo))
    empirical = float(np.mean(vals < eps)) * vol
    bound = c * (eps / sup) ** (1.0 / (d * k)) * vol
    return RemezResult(empirical, bound, sup, empirical <= bound)
