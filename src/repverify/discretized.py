"""Discretized covering numbers, energies, and projection experiments.

All partitions are by half-open dyadic cubes anchored at 0, so bucketing is a
floor division.  Point sets live in the unit box; images under sampled group
elements may leave it, which covering counts handle transparently.  Norms are
Euclidean throughout (a different norm only shifts constants).

Every covering count reads its key ranges off the point set's box and packs
the keys of KEY_BLOCK points at a time, each block filled once into one reused
buffer, so it holds one packed key per point plus one block.

Generated point sets other than random subsets are kept as their coordinate
axes, never as an (N, n) array: a cube count is the product of one count per
axis, and a projection count builds each block of points from the axes.  The
array is built only when `points` is read, as the pairwise Frostman scan does.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .reps import RepConfig, check_proximal, flag_projector, weight_decompose

MAX_POINTS = 1 << 26
DEDUP_SCALE = 40  # coincidence resolution 2^-40
MAX_SCALE = 40
PAIR_BLOCK = 1 << 16  # point pairs per block of the pairwise-distance scans
KEY_BLOCK = 1 << 15  # points per block of a covering count's keys
MAX_QUOTIENT = 2.0**1023  # bound on |x| / side: a power of two times a side rounds below the float range


class SpecError(Exception):
    pass


class SizeError(Exception):
    pass


class HypothesisError(Exception):
    pass


class DegenerateError(Exception):
    pass


def _dyadic_exponent(delta: float) -> int:
    s = round(-math.log2(delta)) if 0 < delta < math.inf else 0  # NaN, 0 and inf fail the range check
    if not (1 <= s <= MAX_SCALE) or delta != 2.0**-s:
        raise SpecError(f"delta must be 2^-s with 1 <= s <= {MAX_SCALE}, got {delta}")
    return s


@dataclass(frozen=True)
class PointSet:
    """A finite set of points in R^ambient, built from an (N, ambient) array.

    `points` is a read-only copy of that array, in its dtype and memory order: a
    write through it raises ValueError, and a write to the caller's array does
    not reach it, so the box read off the points at construction stays theirs.
    generate_fractal builds its product sets as `_AxisProduct`, which
    holds only the coordinate axes; `axes` is None on every other set.
    """

    ambient: int
    points: np.ndarray = field(repr=False)  # (N, ambient) float, read-only
    provenance: str
    seed: int | None = None
    designed_dim: float | None = None

    axes = None  # not a field: _AxisProduct sets it

    def __post_init__(self):
        pts = np.array(self.points)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if self.ambient < 1:
            raise SpecError("ambient dimension must be >= 1")
        if pts.ndim != 2 or pts.shape[1] != self.ambient:
            raise SpecError("points array must be (N, ambient)")
        if pts.shape[0] > MAX_POINTS:
            raise SizeError(f"point set exceeds cap {MAX_POINTS}")
        if not np.isfinite(self.box).all():  # a NaN or an infinity reaches the extremes
            raise SpecError("point coordinates must be finite")

    @cached_property
    def box(self) -> np.ndarray:
        """(2, ambient): the least and the greatest x_j over the points, for each coordinate j."""
        pts = self.points if self.size else np.zeros((1, self.ambient))  # zeros for no points
        return np.stack([pts.min(axis=0), pts.max(axis=0)])

    @property
    def size(self) -> int:
        return self.points.shape[0]


def _product_grid(axes) -> np.ndarray:
    """(len(axes), N): the coordinates of the points of A_0 x ... x A_{k-1} in
    row-major order, the last coordinate varying fastest; np.stack writes each
    coordinate as one contiguous row from broadcast views."""
    return np.stack(np.meshgrid(*axes, indexing="ij", copy=False)).reshape(len(axes), -1)


class _AxisProduct(PointSet):
    """The product A_0 x ... x A_{ambient-1} of finite 1-D coordinate axes.

    Only the axes are held, read-only: size, box and the finiteness check are
    read off them.  `points`, the (N, ambient) array of the points in
    row-major order of the axes, is built on first read and cached read-only;
    it is column-major, so each coordinate is one contiguous run.
    """

    def __init__(self, axes: tuple[np.ndarray, ...], provenance: str, seed: int | None, designed_dim: float):
        for x in axes:
            x.flags.writeable = False
        state = dict(ambient=len(axes), axes=axes, provenance=provenance, seed=seed, designed_dim=designed_dim)
        for name, value in state.items():
            object.__setattr__(self, name, value)  # frozen, as a PointSet is
        if not np.isfinite(self.box).all():
            raise SpecError("point coordinates must be finite")

    @cached_property
    def points(self) -> np.ndarray:
        pts = _product_grid(self.axes).T
        pts.flags.writeable = False
        return pts

    @cached_property
    def box(self) -> np.ndarray:
        return np.array([[x.min() for x in self.axes], [x.max() for x in self.axes]])

    @property
    def size(self) -> int:
        return math.prod(len(x) for x in self.axes)


def _count_distinct(n: int, lo, hi, fill) -> int:
    """Number of distinct key tuples among n points whose key j lies in [lo[j], hi[j]].

    fill(start, out) writes the keys of points start .. start + m - 1, as
    integer-valued floats, into the (k, m) buffer out, m <= KEY_BLOCK; one
    buffer serves every block, each filled once.  Each block is shifted by lo
    and packed into one key per point by one product with the place values,
    key j taking bit_length(hi_j - lo_j + 1) bits: a range wider than its keys
    costs bits, never exactness.  The packed keys are sorted and unequal
    neighbours counted.

    Keys of at most 53 bits pack as float64, where every integer is exact, and
    sort as uint32 when they fit in 32 bits.  Keys of 54 to 62 bits pack as
    int64.  Only wider keys, which no int64 holds, and ranges reaching 2^63 in
    absolute value, past which no int64 shift or cast is exact, are kept whole
    and lexsorted.
    """
    if n == 0:
        return 0
    k = len(lo)
    lo, hi = [int(v) for v in lo], [int(v) for v in hi]
    widths = [(top - low + 1).bit_length() for low, top in zip(lo, hi)]
    bits = sum(widths)
    step = min(n, KEY_BLOCK)
    buf = np.empty(k * step)

    def blocks():
        for start in range(0, n, step):
            out = buf[: k * min(step, n - start)].reshape(k, -1)
            fill(start, out)
            yield slice(start, start + out.shape[1]), out

    if bits > 62 or any(abs(v) >= 1 << 63 for v in lo + hi):
        rows = np.empty((k, n))
        for at, out in blocks():
            rows[:, at] = out
        rows = rows[:, np.lexsort(rows)]
        return 1 + int(np.count_nonzero(np.any(rows[:, 1:] != rows[:, :-1], axis=0)))
    exact = np.int64 if bits > 53 else np.float64
    place = np.array([1 << sum(widths[j + 1 :]) for j in range(k)], dtype=exact)
    shift = np.array(lo, dtype=exact)[:, None]
    key = np.empty(n, np.uint32 if bits <= 32 else exact)
    for at, out in blocks():
        out = out.astype(exact, copy=False)
        out -= shift
        key[at] = out[0] if k == 1 else np.dot(place, out)  # np.dot on one row costs more than a copy
    key.sort()
    return 1 + int(np.count_nonzero(key[1:] != key[:-1]))


def covering_number(a: PointSet, delta: float) -> int:
    """Number of half-open axis-aligned delta-cubes anchored at 0 meeting a.

    delta = 2^-s, so the cube indices floor(x / delta) are exact and lie in
    floor(box / delta).  SpecError, before any division, when some |x| / delta
    would reach MAX_QUOTIENT.  The cubes meeting a product A_0 x ... x A_{n-1}
    are the products of the cells meeting each axis, so its count is the
    product of one count per axis; an array's points are counted whole, each
    coordinate of a block read from its transpose.
    """
    _dyadic_exponent(delta)
    if np.any(np.abs(a.box) >= delta * MAX_QUOTIENT):
        raise SpecError(f"|coordinate| / cell side must stay below 2^1023, got {np.abs(a.box).max()} / {delta}")

    def count(coords, lo, hi):
        def fill(start, out):
            np.divide(coords[:, start : start + out.shape[1]], delta, out=out)
            np.floor(out, out=out)

        return _count_distinct(coords.shape[1], lo, hi, fill)

    lo, hi = np.floor(a.box / delta)
    if a.axes is None:
        return count(a.points.T, lo, hi)
    return math.prod(count(x[None], lo[j : j + 1], hi[j : j + 1]) for j, x in enumerate(a.axes))


def _distance_blocks(pts: np.ndarray):
    """Euclidean distances from each point to every point, as row blocks.

    A block holds about PAIR_BLOCK distances (one row when a row is longer),
    so its memory does not grow with the number of points."""
    step = max(1, PAIR_BLOCK // pts.shape[0])
    for start in range(0, pts.shape[0], step):
        block = pts[start : start + step]
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


def _heaviest_balls(f: PointSet, s_max: int, delta: float, beta: float) -> tuple[list[int], float]:
    """The most points of f in one ball centred at a point of f, per dyadic radius
    2^-s for s = 0..s_max, and the largest truncated beta-energy at a point of f.
    One pass over the pairwise distances."""
    counts = [0] * (s_max + 1)
    top = 0.0
    for dists in _distance_blocks(f.points):
        for s in range(s_max + 1):
            counts[s] = max(counts[s], int(np.count_nonzero(dists <= 2.0**-s, axis=1).max()))
        top = max(top, float(_truncated_energies(dists, delta, beta).max()))
    return counts, top


def _frostman_from_counts(counts: list[int], size: int, alpha: float) -> float:
    """Minimal C with mu_F(B(x, 2^-s)) <= C 2^(-s alpha) over the heaviest ball counts."""
    return max((c / size) / (2.0**-s) ** alpha for s, c in enumerate(counts))


def frostman_energy_bound_check(f: PointSet, delta: float, alpha: float, beta: float) -> bool:
    """Nonconcentration controls the truncated energy:
    G^(beta)(w) <= 2^n C (1 + 1/(1 - 2^{beta-alpha})) #F at every w.

    The energies do not depend on C, so one pass over the distances yields
    both the ball counts behind C and the largest energy."""
    if not 0 < beta < alpha:
        raise SpecError("need 0 < beta < alpha")
    if f.size < 2:
        raise SpecError("need at least two points")
    counts, top = _heaviest_balls(f, _dyadic_exponent(delta), delta, beta)
    c = _frostman_from_counts(counts, f.size, alpha)
    return top <= 2.0**f.ambient * c * (1.0 + 1.0 / (1.0 - 2.0 ** (beta - alpha))) * f.size


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


_FIELDS = {"full_grid": 2, "random_subset": 3, "cantor": 3}


def parse_fractal(text: str) -> FractalSpec:
    """The spec of a descriptor such as full_grid:2,6; SpecError names a bad one."""
    kind, _, rest = text.partition(":")
    args = [p for p in rest.split(",") if p]
    if len(args) != _FIELDS.get(kind, len(args)):
        raise SpecError(f"fractal descriptor {text!r} needs {_FIELDS[kind]} fields")
    try:
        if kind == "full_grid":
            return FullGrid(int(args[0]), int(args[1]))
        if kind == "random_subset":
            return RandomSubset(int(args[0]), int(args[1]), float(args[2]))
        if kind == "weight_aligned":
            return WeightAligned(tuple(float(x) for x in args))
        if kind == "cantor":
            base, digits, depth = int(args[0]), args[1], int(args[2])
            return ProductCantor(((base, tuple(int(c) for c in digits), depth),))
    except ValueError as exc:
        raise SpecError(f"fractal descriptor {text!r} has a non-numeric field") from exc
    raise SpecError(f"unknown fractal descriptor {text!r}")


def generate_fractal(desc: FractalSpec | str, seed: int = 0) -> PointSet:
    """Deterministic point set with its designed box dimension recorded.

    Every family is one product of coordinate axes.  An axis is a digit expansion
    listed as places (digits, scale): one place (range(count), spacing) for a grid,
    one per level for a Cantor coordinate.  The size is checked before any axis is
    built.  FullGrid, ProductCantor and WeightAligned sets are kept as their axes
    (`_AxisProduct`), so no (N, n) array is built unless `points` is read.
    RandomSubset masks FullGrid's points by `seed`, keeping the first if none, and
    is kept as that array.
    """
    if seed < 0:
        raise SpecError(f"seed must be >= 0, got {seed}")
    if isinstance(desc, str):
        desc = parse_fractal(desc)
    if isinstance(desc, (FullGrid, RandomSubset)):
        min_s = 1 if isinstance(desc, RandomSubset) else 0  # a random subset's dimension divides by s
        if desc.ambient < 1 or desc.s < min_s:
            raise SpecError(f"a grid needs ambient >= 1 and s >= {min_s}")
        if isinstance(desc, RandomSubset) and not 0 <= desc.density <= 1:
            raise SpecError(f"a random subset needs 0 <= density <= 1, got {desc.density}")
        axes = [[(range(1 << desc.s), 2.0**-desc.s)]] * desc.ambient
        dim = float(desc.ambient)
        provenance = f"full_grid:{desc.ambient},{desc.s}"
    elif isinstance(desc, ProductCantor):
        if not desc.coords or any(
            base < 2 or depth < 1 or not digits or len({c for c in digits if 0 <= c < base}) < len(digits)
            for base, digits, depth in desc.coords
        ):
            raise SpecError("each Cantor coordinate needs base >= 2, distinct digits in [0, base) and depth >= 1")
        axes = [
            [(digits, base**-level) for level in range(1, depth + 1)] for base, digits, depth in desc.coords
        ]
        dim = sum(math.log(len(digits)) / math.log(base) for base, digits, _ in desc.coords)
        provenance = f"product_cantor:{desc.coords}"
    elif isinstance(desc, WeightAligned):
        if not desc.dims or desc.level_scale < 0 or not all(0 <= dj <= 1 for dj in desc.dims):
            raise SpecError("need at least one coordinate, level_scale >= 0 and dimensions in [0, 1]")
        axes = [[(range(1 << round(desc.level_scale * dj)), 2.0 ** -(desc.level_scale * dj))] for dj in desc.dims]
        dim = float(sum(desc.dims))
        provenance = f"weight_aligned:{','.join(str(d) for d in desc.dims)}@{desc.level_scale}"
    else:
        raise SpecError(f"unknown fractal spec {desc!r}")
    total = math.prod(len(digits) for places in axes for digits, _ in places)
    if total > MAX_POINTS:
        raise SizeError(f"{desc} has {total} points, more than the cap {MAX_POINTS}")
    grids = []
    for places in axes:
        vals = np.zeros(1)
        for digits, scale in places:
            digits = np.arange(len(digits)) if isinstance(digits, range) else np.asarray(digits)
            vals = (vals[:, None] + digits * scale).ravel()
        grids.append(vals)
    if not isinstance(desc, RandomSubset):
        return _AxisProduct(tuple(grids), provenance, seed, dim)
    keep = np.random.default_rng(seed).random(total) < desc.density
    if not np.any(keep):
        keep[0] = True
    pts = _product_grid(grids).T[keep]
    dim = math.log(pts.shape[0]) / (desc.s * math.log(2))
    provenance = f"random_subset:{desc.ambient},{desc.s},{desc.density}"
    return PointSet(len(grids), pts, provenance, seed, dim)


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
    # int true division x / s rounds correctly, as float(Fraction(x, s)) does
    words = [cfg.words[i] for i in cfg.u_plus_indices]
    gens = [np.array([x / s for x in w]).reshape(cfg.n, cfg.n) for s, w in words]
    x = sum(t * g for t, g in zip(coeffs, gens))
    out = np.eye(cfg.n)
    term = np.eye(cfg.n)
    for k in range(1, cfg.n + 1):
        term = term @ x / k
        out += term
    return out


def _coordinate_blocks(f: PointSet):
    """coords(start, m): the (ambient, m) coordinates of points start .. start + m - 1
    of f, for the blocks of a covering count, whose starts are multiples of
    min(f.size, KEY_BLOCK).

    An array's are a view of its transpose.  A product's are built from its
    inner grid, the product of as many trailing axes as hold at most KEY_BLOCK
    points together: point i is row i // L of the product of the leading axes
    joined to point i % L of the inner grid, L its size.
    A product that fits in one block is its own inner grid, read in place.
    Otherwise every block is written into one buffer: the inner grid's rows
    are tiled into it once when L divides the block, and gathered per block
    when blocks start mid-row; the leading coordinates are written per block.
    The blocks hold the same floats as the array's, in the same order.
    """
    if f.axes is None:
        pts_t = f.points.T
        return lambda start, m: pts_t[:, start : start + m]
    lead = next(t for t in range(f.ambient + 1) if math.prod(len(x) for x in f.axes[t:]) <= KEY_BLOCK)
    inner = _product_grid(f.axes[lead:]) if lead < f.ambient else np.empty((0, 1))
    width = inner.shape[1]
    if lead == 0:
        return lambda start, m: inner[:, start : start + m]
    buf = np.empty((f.ambient, KEY_BLOCK))
    tiled = KEY_BLOCK % width == 0
    if tiled:
        buf[lead:] = np.tile(inner, KEY_BLOCK // width)
    shape = [len(x) for x in f.axes[:lead]]

    def coords(start, m):
        out = buf[:, :m]
        first, offset = divmod(start, width)
        rows = np.unravel_index(np.arange(first, (start + m - 1) // width + 1), shape)
        if tiled:  # the block is whole rows: each leading coordinate is one value per row
            for j in range(lead):
                out[j].reshape(-1, width)[:] = f.axes[j][rows[j], None]
            return out
        out[lead:] = inner[:, (start + np.arange(m)) % width]
        for j in range(lead):
            out[j] = np.repeat(f.axes[j][rows[j]], width)[offset : offset + m]
        return out

    return coords


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
    if seed < 0:
        raise SpecError(f"seed must be >= 0, got {seed}")
    s = _dyadic_exponent(delta)
    if f.ambient != cfg.n:
        raise SpecError("point set ambient dimension does not match the representation")
    # desk-scale caps
    if cfg.n > 9:
        raise SizeError("experiments support ambient dimension <= 9")
    if s > 14:
        raise SpecError("experiments support delta >= 2^-14")
    if not 1 <= num_u <= 1000:
        raise SizeError("experiments support 1 to 1000 sampled parameters")
    if not (0 < epsilon < math.inf and 0 <= m_exponent < math.inf):
        raise SpecError("need a finite epsilon > 0 and a finite m_exponent >= 0")
    if mode not in ("subcritical", "supercritical"):
        raise SpecError(f"unknown mode {mode!r}")
    dec = weight_decompose(cfg)
    if mode == "supercritical":
        if not check_proximal(dec):
            raise HypothesisError("supercritical mode needs a proximal configuration")
        mu = dec.max_eigenvalue
    flag_idx = list(flag_projector(dec, mu).flag.pivots)
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
    coords = _coordinate_blocks(f)
    extent = np.abs(f.box).max(axis=0)
    for i in range(num_u):
        coeffs = rng.uniform(-1.0, 1.0, size=dim_u)
        # delta = 2^-s, so pre-scaling the flag rows is exact: each k x m block
        # product equals (mat @ pts) / delta bit for bit, and is floored where it
        # lies.  Key r, floor(rows[r] . x), is bounded over the box by interval
        # arithmetic before any key is computed.  The keys' matmul and the
        # interval's sums each err by at most gamma_n bound <= 2n 2^-53 bound,
        # bound = |rows[r]| . extent (Higham, Accuracy and Stability of Numerical
        # Algorithms, ch. 3), so each end widens by twice that: one cell at most
        # at desk scales.
        rows = _unipotent_matrix(cfg, coeffs)[flag_idx] / delta
        with np.errstate(over="ignore"):  # an overflowing bound is inf, rejected here
            bound = np.abs(rows) @ extent
        if not np.all(bound < MAX_QUOTIENT):
            raise SpecError(f"|flag key| must stay below 2^1023, got a bound of {bound.max()}")
        ends = np.sort([rows * f.box[0], rows * f.box[1]], axis=0).sum(axis=2)  # least and greatest
        lo, hi = np.floor(ends + [[-1.0], [1.0]] * (n * 2.0**-51 * bound))

        def fill(start, out):
            np.matmul(rows, coords(start, out.shape[1]), out=out)
            np.floor(out, out=out)

        cover = _count_distinct(f.size, lo, hi, fill)
        bad = cover < covering_threshold
        exceptional += bad
        per_u.append((tuple(coeffs), cover, bool(bad)))
    return ExceptionalReport(
        num_u=num_u,
        exceptional_fraction=exceptional / num_u,
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
        # powers[j][e] = x_j^e by repeated multiplication: `**` sends a negative
        # base through libm pow, some 70 times slower than a product
        powers = []
        for j in range(self.nvars):
            col = [None, x[:, j]]
            for _ in range(2, max((exps[j] for _, exps in self.terms), default=0) + 1):
                col.append(col[-1] * x[:, j])
            powers.append(col)
        out = np.zeros(x.shape[0])
        for c, exps in self.terms:
            term = np.full(x.shape[0], c)
            for j, e in enumerate(exps):
                if e:
                    term = term * powers[j][e]
            out += term
        return out

    def is_zero(self) -> bool:
        return all(c == 0 for c, _ in self.terms)


def random_poly(nvars: int, degree: int, rng: random.Random) -> Poly:
    terms = []
    for exps in itertools.product(range(degree + 1), repeat=nvars):
        if sum(exps) <= degree and rng.random() < 0.7:
            terms.append((rng.uniform(-2, 2), exps))
    if not terms:
        terms.append((rng.uniform(0.5, 2), (0,) * nvars))
    return Poly(nvars, degree, tuple(terms))


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
) -> RemezResult:
    """Monte Carlo check of the sublevel-measure inequality
    Leb{|P| < eps} <= C (eps / sup_B |P|)^{1/(d k)} Leb(B).

    The sup norm is estimated from a dense grid plus the Monte Carlo sample;
    being a lower bound for the true sup it only enlarges the right side.
    C = 4^{d k} comes from the configuration table.
    """
    if p.is_zero():
        raise DegenerateError("zero polynomial")
    if samples < 10_000:
        raise SpecError("need at least 1e4 samples")
    if not 0 < eps < math.inf:
        raise SpecError("need a finite eps > 0")
    d, k = p.nvars, max(p.degree, 1)
    if len(box) != d:
        raise SpecError("box arity mismatch")
    if not all(-math.inf < a < b < math.inf for a, b in box):
        raise SpecError("each side of the box needs finite ends lo < hi")
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
    bound = 4.0 ** (d * k) * (eps / sup) ** (1.0 / (d * k)) * vol
    return RemezResult(empirical, bound, sup, empirical <= bound)
