"""Covering numbers, Frostman energies, fractal generators, projections, Remez."""

from __future__ import annotations

import hashlib
import math
import random
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from repverify import discretized
from repverify.discretized import (
    DegenerateError,
    FullGrid,
    HypothesisError,
    PointSet,
    Poly,
    ProductCantor,
    RandomSubset,
    SizeError,
    SpecError,
    WeightAligned,
    covering_number,
    frostman_energy_bound_check,
    generate_fractal,
    parse_fractal,
    projection_experiment,
    random_poly,
    remez_check,
)
from repverify.qlinalg import mat_to_json
from repverify.reps import build_config, config_from_json, config_to_json, flag_projector, weight_decompose


class TestCovering:
    def test_single_point(self):
        ps = PointSet(2, np.array([[0.3, 0.4]]), "p")
        assert covering_number(ps, 2**-3) == 1

    def test_eighths_at_quarter_scale(self):
        ps = PointSet(1, np.array([[i / 8] for i in range(8)]), "g")
        assert covering_number(ps, 2**-2) == 4  # two points per cube

    def test_full_grid_square(self):
        g = generate_fractal(FullGrid(2, 5))
        assert covering_number(g, 2**-5) == 4**5  # delta^-2

    def test_monotone_in_inclusion_and_scale(self):
        rng = np.random.default_rng(3)
        pts = rng.random((500, 3))
        a = PointSet(3, pts[:200], "a")
        b = PointSet(3, pts, "b")
        for s in (2, 4, 6):
            assert covering_number(a, 2**-s) <= covering_number(b, 2**-s)
        for s in (2, 4, 6):
            ca = covering_number(b, 2**-s)
            cf = covering_number(b, 2 ** -(s + 1))
            assert ca <= cf <= 2**3 * ca

    def test_bad_delta(self):
        ps = PointSet(1, np.array([[0.0]]), "p")
        with pytest.raises(SpecError):
            covering_number(ps, 0.3)

    @pytest.mark.parametrize(
        "delta", [math.nan, math.inf, -math.inf, 0.0, -0.25, 1.0, 2.0**-41, 0.375, 2**-40 * 1.001, 2**-10 * (1 + 1e-14)]
    )
    @pytest.mark.parametrize(
        "count",
        [
            lambda ps, delta: covering_number(ps, delta),
            lambda ps, delta: frostman_energy_bound_check(ps, delta, 1.0, 0.5),
        ],
        ids=["covering_number", "frostman_energy_bound_check"],
    )
    def test_delta_outside_dyadic_range_is_a_spec_error(self, count, delta):
        # NaN, 0, negatives and inf used to escape as ValueError or OverflowError from log2
        ps = PointSet(1, np.array([[0.25], [0.75]]), "p")
        with pytest.raises(SpecError, match="delta must be 2"):
            count(ps, delta)

    @pytest.mark.parametrize("s", [1, 5, 12])
    def test_matches_floor_tuples(self, s):
        rng = np.random.default_rng(s)
        grid = generate_fractal(FullGrid(3, 4)).points  # points on cube boundaries
        pts = np.vstack([rng.uniform(-1.5, 1.5, (3000, 3)), grid, grid[:300] - 0.5])
        ps = PointSet(3, pts, "mix")
        assert covering_number(ps, 2**-s) == _floor_tuples(ps.points, [2**-s] * 3)

    @pytest.mark.parametrize(
        "count",
        [
            lambda pts: covering_number(PointSet(1, pts, "p"), 2**-40),
            lambda pts: covering_number(PointSet(2, np.hstack([pts, pts]), "p"), 2**-40),
        ],
        ids=["covering_number", "two_coordinates"],
    )
    @pytest.mark.parametrize("x", [1e300, -1e300, 2.0**983])
    def test_overflowing_quotient_is_a_spec_error(self, count, x):
        # 1e300 / 2^-40 overflows to inf; 2^983 / 2^-40 = 2^1023 is finite but on the bound
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecError, match=r"2\^1023"):
                count(np.array([[0.5], [x]]))
            assert count(np.array([[0.5], [x * 2.0**-40]])) == 2

    def test_overflowing_flag_key_is_a_spec_error(self):
        # the base cover passes the 2^1023 check, but the flag keys of the far
        # point overflow: their bound is rejected before any key is computed
        ps = PointSet(5, np.array([[0.5] * 5, [2.0**1020] * 5]), "big")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecError, match=r"2\^1023"):
                projection_experiment(build_config("sl2_sym:4"), ps, 0, 2**-1, 0.05, 2.0, 5, 1)

    def test_wide_keys(self, monkeypatch):
        # 3 x 41 key bits at 2^-40 take the lexsort path
        rng = np.random.default_rng(12)
        pts = rng.random((400, 3))
        pts = np.vstack([pts, pts[:150], np.floor(pts[:100] * 2**20) / 2**20])
        keys = np.floor(pts * 2**40).astype(np.int64)
        lexsorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda k: lexsorts.append(1) or lexsort(k))
        count = covering_number(PointSet(3, pts, "wide"), 2**-40)
        assert count == _distinct_rows(keys) == 500
        assert len(lexsorts) == 1


def _floor_tuples(points: np.ndarray, scales) -> int:
    """Occupied cubes by brute force: distinct tuples of floor(x_j / scales[j])."""
    return len({tuple(math.floor(x / h) for x, h in zip(p, scales)) for p in points.tolist()})


class TestPointSet:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_coordinates_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecError):
                PointSet(2, np.array([[bad, 0.0], [0.5, 0.5]]), "p")
            with pytest.raises(SpecError):
                PointSet(2, np.array([[0.5, 0.5], [0.0, bad]]), "p")

    @pytest.mark.parametrize("count", [3, 0])
    def test_ambient_zero_rejected(self, count):
        # covering_number of such a set used to fail in a numpy reshape
        with pytest.raises(SpecError):
            PointSet(0, np.zeros((count, 0)), "x")

    @pytest.mark.parametrize("bad", [[0.1, 0.2], [], [[]], 0.5])
    def test_not_a_point_array_rejected(self, bad):
        with pytest.raises(SpecError):
            PointSet(2, np.asarray(bad, dtype=float), "p")

    @pytest.mark.parametrize(
        "points, size",
        [
            ([[1e7], [2e7], [3e7]], 3),
            ([[1e7, 0], [-1e7, 0]], 2),
            ([[2.0**982, 1.0], [-(2.0**982), 1.0], [2.0**982, 1.0]], 2),
            ([[5000.0, 0.5], [5000.0, 0.5 + 2**-45], [-0.0, 0.0], [0.0, 0.0]], 2),
        ],
    )
    def test_large_coordinates_keep_distinct_points(self, points, size):
        # cube keys at 2^-40 pass 2^63 from |x| = 2^23 on, where no int64 holds them
        ps = PointSet(len(points[0]), np.array(points, dtype=float), "p")
        assert covering_number(ps, 2**-40) == size

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: PointSet(2, np.array([[0.0, 0.0], [0.5, 0.5]]), "p"), id="array"),
            pytest.param(lambda: generate_fractal(FullGrid(2, 1)), id="product"),
            pytest.param(lambda: generate_fractal(RandomSubset(2, 1, 1.0)), id="random-subset"),
        ],
    )
    def test_points_are_read_only(self, make):
        # a write through points would leave the box stale: counts would go
        # wrong without a word, and a NaN would reach the casts unchecked
        ps = make()
        before = covering_number(ps, 2**-1)
        with pytest.raises(ValueError, match="read-only"):
            ps.points[:] = [[0.0, 4.0], [1.0, 0.0]] * (ps.size // 2)
        with pytest.raises(ValueError, match="read-only"):
            ps.points[0, 0] = math.nan
        for x in ps.axes or ():
            with pytest.raises(ValueError, match="read-only"):
                x[0] = math.nan
        assert covering_number(ps, 2**-1) == before

    def test_owns_its_array(self):
        # a write to the caller's array must not leave the box stale
        a = np.array([[0, 0], [0.5, 0.5]])
        ps = PointSet(2, a, "p")
        a[:] = [[0, 4], [1, 0]]
        assert covering_number(ps, 0.5) == 2
        assert ps.points.tolist() == [[0, 0], [0.5, 0.5]]

    def test_validated_once(self, monkeypatch):
        # the extremes behind the finiteness check are one pass over every point
        calls = []
        post_init = PointSet.__post_init__
        monkeypatch.setattr(PointSet, "__post_init__", lambda ps: calls.append(ps.size) or post_init(ps))
        ps = generate_fractal(RandomSubset(3, 4, 0.5), seed=4)
        assert calls == [ps.size] and "box" in vars(ps)


def _distinct_rows(keys: np.ndarray) -> int:
    return len(set(map(tuple, keys.tolist())))


def _count_rows(keys: np.ndarray) -> int:
    """`_count_distinct` of the rows of an (N, k) array, handed over as blocks of keys."""

    def fill(start, out):
        out[:] = keys[start : start + out.shape[1]].T

    lo, hi = (keys.min(axis=0), keys.max(axis=0)) if len(keys) else ([0] * keys.shape[1],) * 2
    return discretized._count_distinct(len(keys), lo, hi, fill)


class TestCountDistinct:
    @pytest.mark.parametrize(
        "shape, span",
        [
            ((5000, 1), 1 << 40),  # single column
            ((5000, 1), 7),
            ((5000, 3), 50),  # packable: 3 x 6 bits
            ((5000, 2), 1 << 31),  # packable: 2 x 31 bits, the 62-bit limit
            ((5000, 2), 1 << 32),  # 2 x 32 bits, wider than 62: lexsort
            ((3000, 4), 1 << 20),  # 4 x 20 bits: lexsort
        ],
    )
    def test_matches_set_of_rows(self, shape, span):
        rng = np.random.default_rng(span % 1000 + shape[1])
        keys = rng.integers(-span // 2, span // 2, size=shape)
        keys = np.vstack([keys, keys[: shape[0] // 3]])  # repeated rows
        assert _count_rows(keys) == _distinct_rows(keys)

    @pytest.mark.parametrize(
        "pad, lexsorted",
        [
            (0, False),  # 2 x 16 bits: uint32
            (1, False),  # 2 x 17 bits: across the 32-bit cut, float64
            (1 << 29, False),  # 2 x 31 bits: int64
            (1 << 31, True),  # 2 x 33 bits: lexsort
        ],
    )
    def test_ranges_wider_than_keys(self, pad, lexsorted, monkeypatch):
        keys = _spanning_keys((16, 16), 500)
        lexsorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda k: lexsorts.append(1) or lexsort(k))

        def fill(start, out):
            out[:] = keys[start : start + out.shape[1]].T

        lo, hi = keys.min(axis=0) - pad, keys.max(axis=0) + pad
        assert discretized._count_distinct(len(keys), lo, hi, fill) == _distinct_rows(keys)
        assert len(lexsorts) == lexsorted

    @pytest.mark.parametrize("sign", [1, -1])
    def test_keys_beyond_int64(self, sign):
        # keys near 2^71, 2^61 apart: 62 bits, but no int64 holds the shift
        pts = PointSet(1, sign * np.array([[2.0**70], [2.0**70 + 2.0**60]]), "far")
        assert covering_number(pts, 2**-1) == 2

    @pytest.mark.parametrize("sign", [1, -1])
    def test_range_straddling_int64(self, sign):
        # keys 2^63 - 2^60, 2^63 + 2^60 and 2^63 + 2^60 + 2^58: a 62-bit range
        # whose top end leaves int64
        x = np.array([[2.0**62 - 2.0**59], [2.0**62 + 2.0**59], [2.0**62 + 2.0**59 + 2.0**57]])
        assert covering_number(PointSet(1, sign * x, "straddle"), 2**-1) == 3

    def test_negative_offset_columns(self):
        keys = np.array([[-5, 3], [-5, 3], [2, -7], [-5, -7], [2, -7]])
        assert _count_rows(keys) == 3

    @pytest.mark.parametrize("width", [1, 3])
    def test_empty(self, width):
        assert _count_rows(np.zeros((0, width), dtype=np.int64)) == 0

    @pytest.mark.parametrize(
        "widths",
        [
            (53,),  # one float column, packed as float64
            (20, 20, 13),  # 53 bits: float64 pack
            (20, 20, 14),  # 54 bits: int64 pack
            (31, 31),  # 62 bits: int64 pack
            (21, 21, 21),  # 63 bits: lexsort
        ],
    )
    def test_float_keys_match_int64(self, widths, monkeypatch):
        # integer-valued floats handed as the transpose of a (k, N) buffer, as
        # the covering counts hand them; column j spans exactly widths[j] bits
        rng = np.random.default_rng(sum(widths))
        lo = rng.integers(-(1 << 20), 0, size=len(widths))  # every key below 2^53, exact in float64
        hi = lo + [(1 << w) - 2 for w in widths]
        keys = rng.integers(lo, hi + 1, size=(4000, len(widths)))
        # a packed key above 2^53 rounds in float64: neighbours differing by 1
        # in the last column collide unless wider keys leave the float pack
        top = np.tile(hi, (200, 1))
        top[:, -1] = lo[-1] + np.arange(200)
        keys = np.vstack([lo, hi, keys, keys[:1000], top])
        buf = np.ascontiguousarray(keys.T, dtype=float)
        assert np.array_equal(buf.T.astype(np.int64), keys)
        lexsorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda k: lexsorts.append(1) or lexsort(k))
        assert _count_rows(buf.T) == _distinct_rows(keys)
        assert _count_rows(keys) == _distinct_rows(keys)
        assert len(lexsorts) == (2 if sum(widths) > 62 else 0)


def _spanning_keys(widths, size: int) -> np.ndarray:
    """size rows of integer keys, column j spanning exactly widths[j] bits.

    The largest row comes first and the smallest last, so the extremes fall in
    different blocks; between them are repeated rows and rows at the top of the
    range that differ by 1 in the last column."""
    rng = np.random.default_rng(sum(widths) + size)
    lo = rng.integers(-(1 << 20), 0, size=len(widths))
    hi = lo + [(1 << w) - 2 for w in widths]
    top = np.tile(hi, (size, 1))
    top[:, -1] -= np.arange(size)
    body = rng.integers(lo, hi + 1, size=(size, len(widths)))
    rest = np.vstack([top, body, body])
    return np.vstack([hi, rest[rng.permutation(len(rest))[: size - 2]], lo])


class TestKeyBlocks:
    """Counts whose points span several blocks of keys match sets of floor tuples."""

    SIZES = [6, 7, 8, 50]  # below, at and just above one block of 7, and several blocks

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(discretized, "KEY_BLOCK", 7)

    @staticmethod
    def _points(size: int, ambient: int) -> np.ndarray:
        # every point twice, the copies in other blocks; no dedupe, so size is exact
        pts = np.random.default_rng(size + ambient).uniform(-1.5, 1.5, (size // 2 + 1, ambient))
        return np.vstack([pts, pts[::-1]])[:size]

    @pytest.mark.parametrize("size", SIZES)
    def test_covering_number(self, size):
        ps = PointSet(3, self._points(size, 3), "p")
        for s in (1, 3, 6):
            assert covering_number(ps, 2**-s) == _floor_tuples(ps.points, [2**-s] * 3)

    @pytest.mark.parametrize("size", SIZES)
    def test_covering_number_at_cube_edges(self, size):
        # points on and just below multiples of delta: x / delta is exact for a
        # dyadic delta, so every block floors them as the tuples do
        delta = 2**-3
        edges = np.arange(-12, 13) * delta
        edges = np.concatenate([edges, np.nextafter(edges, -np.inf)])
        rng = np.random.default_rng(size)
        ps = PointSet(3, rng.choice(edges, (size, 3)), "edges")
        assert covering_number(ps, delta) == _floor_tuples(ps.points, [delta] * 3)

    @pytest.mark.parametrize("mode, mu", [("subcritical", 0), ("supercritical", None)])
    @pytest.mark.parametrize("size", SIZES)
    def test_projection_covers(self, size, mode, mu):
        cfg = build_config("so_pq:2,1")
        ps = PointSet(5, self._points(size, 5), "p")
        rep = projection_experiment(cfg, ps, mu, 2**-6, 0.05, 2.0, 6, 5, mode=mode)
        assert rep.params["set_covering"] == _floor_tuples(ps.points, [2**-6] * 5)
        dec = weight_decompose(cfg)
        proj = flag_projector(dec, dec.max_eigenvalue if mu is None else mu)
        flag_idx = [i for i in range(cfg.n) if proj.projector.at(i, i) == 1]
        for coeffs, cover, _ in rep.per_u:
            image = (discretized._unipotent_matrix(cfg, np.array(coeffs)) @ ps.points.T)[flag_idx] / 2**-6
            assert cover == len(set(map(tuple, np.floor(image).T.tolist())))

    @pytest.mark.parametrize("size", SIZES)
    def test_given_ranges_hold_every_key(self, size, monkeypatch):
        # the cube indices' ranges are exact; the flag keys' may be wider
        ranges = []
        count = discretized._count_distinct

        def spy(n, lo, hi, fill):
            def checked(start, out):
                fill(start, out)
                ranges.append((out.min(axis=1), out.max(axis=1), np.asarray(lo), np.asarray(hi)))

            return count(n, lo, hi, checked)

        monkeypatch.setattr(discretized, "_count_distinct", spy)
        ps = PointSet(5, self._points(size, 5), "p")
        covering_number(ps, 2**-3)
        low, high = np.floor(ps.points / 2**-3).min(axis=0), np.floor(ps.points / 2**-3).max(axis=0)
        assert np.array_equal(ranges[0][2], low) and np.array_equal(ranges[0][3], high)
        projection_experiment(build_config("so_pq:2,1"), ps, 0, 2**-6, 0.05, 2.0, 6, 5)
        assert len(ranges) == 8 * -(-size // 7)  # each block of two base covers and six u, once
        for low, high, lo, hi in ranges:
            assert np.all(lo <= low) and np.all(high <= hi)

    @pytest.mark.parametrize("widths", [(16, 16), (21, 21, 21)])  # packed, lexsorted
    def test_one_fill_per_block(self, widths):
        keys = _spanning_keys(widths, 50)
        starts = []

        def fill(start, out):
            starts.append(start)
            out[:] = keys[start : start + out.shape[1]].T

        assert discretized._count_distinct(50, keys.min(axis=0), keys.max(axis=0), fill) == _distinct_rows(keys)
        assert starts == list(range(0, 50, 7))  # 8 blocks, each filled once

    @pytest.mark.parametrize(
        "widths",
        [
            (16, 16),  # 32 bits: uint32 keys
            (16, 17),  # 33 bits: float64 keys
            (20, 20, 13),  # 53 bits: float64 pack
            (20, 20, 14),  # 54 bits: int64 pack
            (31, 31),  # 62 bits: int64 pack
            (21, 21, 21),  # 63 bits: lexsort
        ],
    )
    @pytest.mark.parametrize("size", SIZES)
    def test_bit_cuts(self, widths, size, monkeypatch):
        keys = _spanning_keys(widths, size)
        lexsorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda k: lexsorts.append(1) or lexsort(k))
        assert _count_rows(keys) == _distinct_rows(keys)
        assert len(lexsorts) == (1 if sum(widths) > 62 else 0)


@pytest.mark.parametrize("count", ["covering_number", "projection_experiment"])
def test_count_memory_stays_small(count):
    # a count holds one packed key per point and one block of keys; the (k, N)
    # key buffer it replaced peaked near 57 MB on this 2^20-point set
    cfg = build_config("so_pq:2,1")
    f = generate_fractal(WeightAligned((1, 1, 0.5, 0, 0)))
    tracemalloc.start()
    try:
        if count == "covering_number":
            covering_number(f, 2**-10)
        else:
            projection_experiment(cfg, f, 0, 2**-10, 0.05, 2.0, 1, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_generation_and_counts_stay_small():
    # a product set keeps its axes: the 2^20-point set's (N, 5) array, 40 MB,
    # is never built by generating it, counting its cubes or its projections
    cfg = build_config("so_pq:2,1")
    tracemalloc.start()
    try:
        ps = generate_fractal(WeightAligned((1, 1, 0.5, 0, 0)))
        covering_number(ps, 2**-10)
        projection_experiment(cfg, ps, 0, 2**-10, 0.05, 2.0, 1, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert "points" not in vars(ps)


def _criterion_8_constant(ps, delta0, alpha):
    """The constant C that criterion 8 computes, from the heaviest dyadic balls
    down to radius delta0 (the beta of the energies beside them plays no part)."""
    counts, _ = discretized._heaviest_balls(ps, discretized._dyadic_exponent(delta0), delta0, 0.5)
    return discretized._frostman_from_counts(counts, ps.size, alpha)


class TestFrostman:
    def test_uniform_grid_constant(self):
        ps = PointSet(1, np.array([[i / 64] for i in range(64)]), "u")
        assert _criterion_8_constant(ps, 1 / 64, 1.0) == pytest.approx(3.0)

    def test_alpha_zero_gives_one(self):
        ps = PointSet(1, np.array([[i / 16] for i in range(16)]), "u")
        assert _criterion_8_constant(ps, 2**-4, 0.0) == pytest.approx(1.0)

    def test_cluster_dominates(self):
        delta = 2**-10
        cluster = [[j * delta / 8] for j in range(8)]
        spread = [[0.25 + i / 16] for i in range(8)]
        ps = PointSet(1, np.array(cluster + spread), "c")
        c = _criterion_8_constant(ps, delta, 1.0)
        assert c >= (8 / 16) / delta * 0.9  # worst ball holds the cluster

    def test_energy_bound_on_generated_sets(self):
        sets = [
            generate_fractal(FullGrid(1, 6)),
            generate_fractal(ProductCantor(((3, (0, 2), 6),))),
            generate_fractal(RandomSubset(2, 5, 0.4), seed=8),
            generate_fractal(WeightAligned((1, 0.5, 0.5), level_scale=4)),
        ]
        for ps in sets:
            assert frostman_energy_bound_check(ps, 2**-8, 1.0, 0.5)

    def test_exponent_order_enforced(self):
        ps = generate_fractal(FullGrid(1, 4))
        with pytest.raises(SpecError):
            frostman_energy_bound_check(ps, 2**-6, 0.5, 1.0)


def _frostman_reference(ps, delta0, alpha):
    """The per-point definition: sort each point's distances, count each ball."""
    s_max = round(-math.log2(delta0))
    best = 0.0
    for i in range(ps.size):
        d = np.sort(np.linalg.norm(ps.points - ps.points[i], axis=1))
        for s in range(s_max + 1):
            count = int(np.searchsorted(d, 2.0**-s, side="right"))
            best = max(best, (count / ps.size) / (2.0**-s) ** alpha)
    return best


def _energy_reference(ps, delta, beta, w):
    dists = np.linalg.norm(ps.points - w, axis=1)
    dists = dists[dists > 2.0**-40]
    return float(np.sum(np.maximum(dists, delta) ** -beta))


def _criterion_8_sets(count, rng):
    for i in range(count):
        kind = i % 5
        if kind == 0:
            spec = FullGrid(1, rng.randint(4, 7))
        elif kind == 1:
            spec = ProductCantor(((3, (0, 2), rng.randint(4, 7)),))
        elif kind == 2:
            spec = RandomSubset(2, rng.randint(3, 5), rng.uniform(0.2, 0.8))
        elif kind == 3:
            spec = WeightAligned((1, rng.choice((0.25, 0.5, 0.75)), 0.5), level_scale=4)
        else:
            spec = ProductCantor(((2, (0, 1), rng.randint(4, 6)), (4, (0, 3), 3)))
        yield generate_fractal(spec, seed=i)


class TestHeaviestBalls:
    """Ball counts and the largest truncated energy of small sets, by hand."""

    def test_singleton_has_no_energy(self):
        ps = PointSet(1, np.array([[0.5]]), "p")
        assert discretized._heaviest_balls(ps, 4, 2**-4, 0.5) == ([1] * 5, 0.0)

    def test_two_term_example(self):
        # at delta the energy is 1/delta + 1/(1 - delta), above 1/delta + 1 at 0
        delta = 2**-6
        ps = PointSet(1, np.array([[0.0], [delta], [1.0]]), "p")
        counts, top = discretized._heaviest_balls(ps, 6, delta, 1.0)
        assert counts == [3, 2, 2, 2, 2, 2, 2]
        assert top == pytest.approx(1 / delta + 1 / (1 - delta))

    def test_coincident_points_carry_no_energy(self):
        ps = PointSet(1, np.array([[0.0], [0.0], [0.5]]), "p")
        counts, top = discretized._heaviest_balls(ps, 4, 2**-4, 1.0)
        assert counts == [3, 3, 2, 2, 2]  # the closed ball of radius 1/2 at 0 reaches 0.5
        assert top == 4.0  # at 0.5: two points at distance 1/2

    def test_largest_energy_monotone_in_delta(self):
        ps = PointSet(2, np.random.default_rng(9).random((60, 2)), "r")
        tops = [discretized._heaviest_balls(ps, s, 2**-s, 1.5)[1] for s in (8, 6, 4, 2)]
        assert all(a >= b for a, b in zip(tops, tops[1:]))
        assert tops[0] > tops[-1]


class TestFrostmanBlocks:
    """The row-block scans against the per-point definitions."""

    @pytest.mark.parametrize("pair_block", [None, 1, 1000])
    def test_constant_and_verdicts_match_per_point(self, pair_block, monkeypatch):
        if pair_block is not None:  # one row per block, and blocks that leave a remainder
            monkeypatch.setattr(discretized, "PAIR_BLOCK", pair_block)
        for ps in _criterion_8_sets(10, random.Random(808)):
            for alpha, beta in ((1.0, 0.5), (2.5, 2.0)):
                if alpha > ps.ambient:
                    continue
                c = _frostman_reference(ps, 2**-8, alpha)
                counts, top = discretized._heaviest_balls(ps, 8, 2**-8, beta)
                assert discretized._frostman_from_counts(counts, ps.size, alpha) == c
                bound = 2.0**ps.ambient * c * (1.0 + 1.0 / (1.0 - 2.0 ** (beta - alpha))) * ps.size
                energies = [_energy_reference(ps, 2**-8, beta, w) for w in ps.points]
                assert frostman_energy_bound_check(ps, 2**-8, alpha, beta) == (max(energies) <= bound)
                assert top == pytest.approx(max(energies), rel=1e-14)

    @pytest.mark.parametrize("level, verdict", [(0.5, False), (2.0, True)])
    def test_verdict_follows_largest_energy(self, level, verdict, monkeypatch):
        # a constant that puts the bound at level x the median or the largest energy
        ps = generate_fractal(RandomSubset(2, 4, 0.6), seed=2)
        energies = sorted(_energy_reference(ps, 2**-6, 0.5, w) for w in ps.points)
        target = level * (energies[len(energies) // 2] if level < 1 else energies[-1])
        scale = 2.0**2 * (1.0 + 1.0 / (1.0 - 2.0 ** (0.5 - 1.0))) * ps.size
        monkeypatch.setattr(discretized, "_frostman_from_counts", lambda counts, size, a: target / scale)
        monkeypatch.setattr(discretized, "PAIR_BLOCK", 7)
        assert frostman_energy_bound_check(ps, 2**-6, 1.0, 0.5) is verdict

    def test_largest_energy_of_every_block_counts(self, monkeypatch):
        # a bound just below / just above the largest energy, at one point per block
        ps = generate_fractal(RandomSubset(2, 4, 0.6), seed=2)
        energies = [_energy_reference(ps, 2**-6, 0.5, w) for w in ps.points]
        assert int(np.argmax(energies)) != ps.size - 1  # not the last block's point
        scale = 2.0**2 * (1.0 + 1.0 / (1.0 - 2.0 ** (0.5 - 1.0))) * ps.size
        monkeypatch.setattr(discretized, "PAIR_BLOCK", 7)
        for level, verdict in ((1 - 1e-9, False), (1 + 1e-9, True)):
            c = level * max(energies) / scale
            monkeypatch.setattr(discretized, "_frostman_from_counts", lambda counts, size, a, c=c: c)
            assert frostman_energy_bound_check(ps, 2**-6, 1.0, 0.5) is verdict


def _point_set_digest(ps: PointSet) -> str:
    h = hashlib.sha256(ps.points.tobytes())
    h.update(repr((ps.points.dtype.str, ps.points.shape, ps.provenance, ps.designed_dim, ps.seed)).encode())
    return h.hexdigest()


# sha256 of each generated set's points, shape, provenance, designed dimension and
# seed, pinned before the families were built as one product of coordinate axes.
# The specs are those of the discretized suite (its RandomSubset seed is the one
# derived at master seed 0), criteria 8 and 9, benchmark/workloads.py and scripts/,
# plus an empty keep-mask, parsed descriptors and non-dyadic weight-aligned spacings.
GENERATOR_PINS = [
    (FullGrid(1, 6), 0, "0a9a11ce7f3dc525a616162466e0e8128e9965d0f2b3c7a0ef3a58683b866200"),
    (ProductCantor(((3, (0, 2), 6),)), 0, "3ea1c03e8c91ba1d10dd9ba030718e7736ce1ea7c52058be2962fad73182e974"),
    (RandomSubset(2, 5, 0.4), 5249665824929755717, "69fa204837f191218c9646e50e1dce7220a15185586c87e88ef6edd80bbb84fe"),
    (WeightAligned((1, 0.5, 0.5), level_scale=4), 0, "0421e78b9fa796c9d7a734881440c41360d6d4a80152891423b5032db8ebf251"),
    (WeightAligned((1, 1, 0.5, 0, 0), level_scale=6), 0, "94428e3833a3851a30560659ce0c9a72415563174845b8b25ad29ec3ea001666"),
    (FullGrid(5, 3), 0, "bf49a3aed8e0049a429b6aa13d8a643cd8a49f0a1523f04a2eb87222bfb707e8"),
    (FullGrid(1, 7), 0, "2a5e69a9590b5f028212a544abeda3dda806cdc14a3d99bfd4b033e8c9c7bdd7"),
    (ProductCantor(((3, (0, 2), 7),)), 0, "0f487c96db20bc582775e0fc37d9a9c977ce3df890911ce88acb78057e4b2adf"),
    (RandomSubset(2, 4, 0.55), 2, "864e92f65b4320211ef10a145e5b0975648f533edc39595d5f9421bc7cee9718"),
    (WeightAligned((1, 0.75, 0.5), level_scale=4), 3, "364c5a9f01160a4f9cae69002f8851162e6561f3ee6e6f0368b0f18bf27cbf8d"),
    (ProductCantor(((2, (0, 1), 5), (4, (0, 3), 3))), 4, "f9246b77eed8f9d2903097aaab67d94157cd8deeba696ac54ce5bc615bd0a7ff"),
    (WeightAligned((1, 1, 0.5, 0, 0)), 0, "8cc1d87aa5e152678eeab668aaa528c8fb4c23478c68c7c8ed9e8d714a837f56"),
    (FullGrid(5, 4), 0, "eca39f0a7247e927b21f4648b215e465a040fa25d6bd142f6d14b7085920328a"),
    (WeightAligned((0.5, 0.5, 0.25, 0.25, 0.25)), 0, "cfec02aa214704f6b4fc0ecbb83420f130b1c444b174215a0d1087ba40d3a157"),
    (RandomSubset(5, 3, 0.2), 9, "132757810e46e199d34f5aa65abcbdee478cf0e7738aa20a19f8a9cf03e5f6aa"),
    (RandomSubset(2, 3, 0.0), 0, "8360867d81eaabd329f7e3728e11797b61a6dac63b1595ebd0cb02ffb48c4507"),
    ("full_grid:2,6", 0, "b6b30bf9828a498cae06fdc921ec94b874a7130b67d87b7f2fa696602decc990"),
    ("cantor:3,02,6", 0, "3ea1c03e8c91ba1d10dd9ba030718e7736ce1ea7c52058be2962fad73182e974"),
    ("random_subset:2,4,0.5", 7, "b0ece924e1423eecfcc076fe38eea508a8fb7bf6264c8f42e5cfb96b34f6a381"),
    ("weight_aligned:1,0.5,0.5,0,0", 0, "c1cc6af1bea91d5642eb239328ca80af4a7af8d533655a112274e9a4c61a78b2"),
    ("weight_aligned:0.3,0.7", 0, "eac1a880962a42853dbdec570d39523faf9e1c820bf07e70b1c3f2195f62f491"),
]


class TestGenerators:
    @pytest.mark.parametrize("spec, seed, digest", GENERATOR_PINS, ids=[f"{s!r}@{seed}" for s, seed, _ in GENERATOR_PINS])
    def test_generated_set_pinned(self, spec, seed, digest):
        assert _point_set_digest(generate_fractal(spec, seed=seed)) == digest

    @pytest.mark.parametrize(
        "spec",
        [
            FullGrid(2, 14),
            FullGrid(1, 40),
            RandomSubset(3, 9, 0.5),
            ProductCantor(((2, (0, 1), 14), (3, (0, 2), 13))),
            ProductCantor(((2, (0, 1), 40),)),
            WeightAligned((1, 1, 1, 1)),
            WeightAligned((1,), level_scale=40),
        ],
    )
    def test_oversized_spec_rejected_before_building(self, spec):
        # the single-axis specs would need terabytes if an axis were built first
        with pytest.raises(SizeError, match=re.escape(repr(spec))):
            generate_fractal(spec)

    @pytest.mark.parametrize("dims", [(1, 1.5), (-0.25, 0.5)])
    def test_weight_aligned_dimension_outside_unit_interval(self, dims):
        with pytest.raises(SpecError):
            generate_fractal(WeightAligned(dims))

    @pytest.mark.parametrize(
        "spec",
        [
            FullGrid(0, 3),
            FullGrid(2, -3),
            RandomSubset(0, 3, 0.5),
            RandomSubset(2, 0, 0.5),
            WeightAligned(()),
            WeightAligned((1, 0.5), level_scale=-1),
            ProductCantor(()),
            ProductCantor(((1, (0,), 3),)),
            ProductCantor(((0, (0,), 2),)),
            ProductCantor(((3, (0, 5), 2),)),
            ProductCantor(((3, (0, -1), 2),)),
            ProductCantor(((3, (), 2),)),
            ProductCantor(((3, (0, 2), 0),)),
            ProductCantor(((3, (0, 0), 4),)),
            ProductCantor(((3, (2, 0, 2), 3),)),
            "random_subset:5,2,2",
            RandomSubset(2, 2, -0.25),
            RandomSubset(2, 2, math.nan),
            RandomSubset(2, 2, math.inf),
        ],
    )
    def test_field_out_of_range(self, spec):
        with pytest.raises(SpecError):
            generate_fractal(spec)

    @pytest.mark.parametrize("spec", [FullGrid(1, 3), "random_subset:2,2,0.5"])
    def test_negative_seed_rejected(self, spec):
        with pytest.raises(SpecError, match="seed"):
            generate_fractal(spec, seed=-1)

    def test_field_range_edges_still_build(self):
        assert generate_fractal(FullGrid(1, 0)).size == 1
        assert generate_fractal(ProductCantor(((2, (1,), 1),))).size == 1
        assert generate_fractal(WeightAligned((0.5,), level_scale=0)).size == 1

    def test_full_grid(self):
        g = generate_fractal(FullGrid(2, 6))
        assert g.size == 4096 and g.designed_dim == 2.0

    def test_middle_thirds(self):
        c = generate_fractal(ProductCantor(((3, (0, 2), 8),)))
        assert c.size == 256
        assert c.designed_dim == pytest.approx(math.log(2) / math.log(3))

    def test_weight_aligned_dim(self):
        wa = generate_fractal(WeightAligned((1, 1, 0.5, 0, 0)))
        assert wa.designed_dim == 2.5
        assert wa.size == 2**20

    def test_determinism(self):
        a = generate_fractal(RandomSubset(2, 5, 0.3), seed=5)
        b = generate_fractal(RandomSubset(2, 5, 0.3), seed=5)
        assert np.array_equal(a.points, b.points)

    def test_parse(self):
        assert parse_fractal("full_grid:2,6") == FullGrid(2, 6)
        assert parse_fractal("weight_aligned:1,1,0.5,0,0") == WeightAligned((1, 1, 0.5, 0, 0))

    def test_in_unit_box(self):
        for desc in (FullGrid(2, 4), WeightAligned((1, 0.5), level_scale=6)):
            ps = generate_fractal(desc)
            assert np.all(ps.points >= 0) and np.all(ps.points < 1)


# a configuration of each ambient dimension a projection can run in
_PROJECTION_CONFIGS = {2: "sl2_sym:1", 3: "sl2_sym:2", 5: "so_pq:2,1"}


class TestProductPath:
    """A product set's counts equal those of the array of its points, bit for bit."""

    PRODUCT_SPECS = [spec for spec, _, _ in GENERATOR_PINS if not isinstance(parse_fractal(spec) if isinstance(spec, str) else spec, RandomSubset)]

    @staticmethod
    def _as_array(ps: PointSet) -> PointSet:
        return PointSet(ps.ambient, ps.points, ps.provenance, ps.seed, ps.designed_dim)

    def _check(self, ps: PointSet, deltas, num_u: int = 3):
        arr = self._as_array(ps)
        assert ps.axes is not None and arr.axes is None
        assert np.array_equal(ps.box, arr.box) and ps.size == arr.size
        for delta in deltas:
            assert covering_number(ps, delta) == covering_number(arr, delta)
        # every block of a count holds the array's floats, in the array's order
        coords, step = discretized._coordinate_blocks(ps), min(ps.size, discretized.KEY_BLOCK)
        for start in range(0, ps.size, step):
            m = min(step, ps.size - start)
            assert coords(start, m).tobytes() == ps.points.T[:, start : start + m].tobytes()
        if ps.ambient not in _PROJECTION_CONFIGS:
            return  # no configuration acts on R^1
        cfg = build_config(_PROJECTION_CONFIGS[ps.ambient])
        mu = weight_decompose(cfg).max_eigenvalue
        for delta in deltas[-1:]:
            a = projection_experiment(cfg, ps, mu, delta, 0.05, 2.0, num_u, 7)
            b = projection_experiment(cfg, arr, mu, delta, 0.05, 2.0, num_u, 7)
            assert a.per_u == b.per_u and a.params == b.params
            assert a.covering_threshold == b.covering_threshold

    @pytest.mark.parametrize("spec", PRODUCT_SPECS, ids=[repr(s) for s in PRODUCT_SPECS])
    def test_generator_pins(self, spec):
        self._check(generate_fractal(spec), [2**-1, 2**-3, 2**-6])

    @pytest.mark.parametrize(
        "spec",
        [
            pytest.param(FullGrid(3, 1), id="inner-grid-of-4-blocks-of-7"),
            pytest.param(ProductCantor(((3, (0, 1, 2), 1),) * 3), id="3-digit-axes"),
            pytest.param(ProductCantor(((2, (0, 1), 2), (7, tuple(range(7)), 1))), id="inner-grid-fills-a-block"),
            pytest.param(ProductCantor(((3, (0, 1, 2), 1), (2, (0, 1), 3))), id="last-axis-longer-than-a-block"),
            pytest.param(WeightAligned((1, 0.5, 0.5, 0, 0), level_scale=4), id="weight-aligned"),
        ],
    )
    def test_blocks_of_seven(self, spec, monkeypatch):
        monkeypatch.setattr(discretized, "KEY_BLOCK", 7)
        self._check(generate_fractal(spec), [2**-1, 2**-2, 2**-5], num_u=6)

    def test_blocks_start_mid_row(self):
        # 81 x 81 x 8 points: the inner grid of the two trailing axes holds 648,
        # which does not divide a block of 2^15
        self._check(generate_fractal(ProductCantor(((3, (0, 1, 2), 4), (3, (0, 1, 2), 4), (2, (0, 1), 3)))), [2**-3, 2**-7])

    def test_axis_longer_than_a_block(self):
        self._check(generate_fractal(ProductCantor(((2, (0, 1), 1), (2, (0, 1), 16)))), [2**-4, 2**-10])

    def test_weight_aligned_at_criterion_9_scale(self):
        self._check(generate_fractal(WeightAligned((1, 1, 0.5, 0, 0))), [2**-4, 2**-10], num_u=2)


class TestProjectionExperiment:
    def test_single_point_never_exceptional(self):
        cfg = build_config("so_pq:2,1")
        ps = PointSet(5, np.array([[0.1, 0.2, 0.3, 0.4, 0.5]]), "p")
        rep = projection_experiment(cfg, ps, 0, 2**-6, 0.05, 2.0, 20, 7)
        assert rep.exceptional_fraction == 0.0
        assert all(c == 1 for _, c, _ in rep.per_u)

    def test_full_grid_top_weight(self):
        cfg = build_config("so_pq:2,1")
        grid = generate_fractal(FullGrid(5, 3))
        rep = projection_experiment(cfg, grid, 2, 2**-3, 0.05, 2.0, 30, 7)
        assert rep.exceptional_fraction == 0.0
        # the top-weight projection of a full grid covers a full 1-dim grid
        assert all(c >= 2**3 for _, c, _ in rep.per_u)

    def test_supercritical_full_grid(self):
        cfg = build_config("so_pq:2,1")
        grid = generate_fractal(FullGrid(5, 3))
        rep = projection_experiment(cfg, grid, None, 2**-3, 0.05, 2.0, 30, 7, mode="supercritical")
        assert rep.exceptional_fraction == 0.0

    def test_supercritical_needs_proximal(self):
        from dataclasses import replace
        from tests.test_reps import _direct_sum_fixture

        cfg = _direct_sum_fixture()
        ps = PointSet(4, np.array([[0.1, 0.2, 0.3, 0.4]]), "p")
        with pytest.raises(HypothesisError):
            projection_experiment(cfg, ps, None, 2**-4, 0.05, 2.0, 5, 1, mode="supercritical")

    def test_deterministic_and_order_free(self):
        cfg = build_config("so_pq:2,1")
        ps = generate_fractal(WeightAligned((1, 0.5, 0.5, 0, 0), level_scale=4))
        a = projection_experiment(cfg, ps, 0, 2**-6, 0.05, 2.0, 10, 3)
        b = projection_experiment(cfg, ps, 0, 2**-6, 0.05, 2.0, 10, 3)
        assert a.per_u == b.per_u and a.exceptional_fraction == b.exceptional_fraction


    @pytest.mark.parametrize("num_u", [0, -4, 1001])
    def test_num_u_out_of_range(self, num_u):
        cfg = build_config("so_pq:2,1")
        ps = PointSet(5, np.array([[0.1, 0.2, 0.3, 0.4, 0.5]]), "p")
        with pytest.raises(SizeError):
            projection_experiment(cfg, ps, 0, 2**-6, 0.05, 2.0, num_u, 7)

    @pytest.mark.parametrize(
        "epsilon, m_exponent",
        [(math.nan, 2.0), (-1.0, 2.0), (0.0, 2.0), (math.inf, 2.0), (0.05, math.nan), (0.05, -1.0), (0.05, math.inf)],
    )
    def test_epsilon_and_m_exponent_checked_before_any_cover(self, epsilon, m_exponent, monkeypatch):
        def no_cover(*args):
            raise AssertionError("a cover was counted")

        monkeypatch.setattr(discretized, "_count_distinct", no_cover)
        cfg = build_config("so_pq:2,1")
        ps = PointSet(5, np.array([[0.1, 0.2, 0.3, 0.4, 0.5]]), "p")
        with pytest.raises(SpecError):
            projection_experiment(cfg, ps, 0, 2**-6, epsilon, m_exponent, 20, 7)

    def test_bad_mode_rejected_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(discretized, "weight_decompose", no_work)
        monkeypatch.setattr(discretized, "_count_distinct", no_work)
        cfg = build_config("so_pq:2,1")
        ps = PointSet(5, np.array([[0.1, 0.2, 0.3, 0.4, 0.5]]), "p")
        with pytest.raises(SpecError):
            projection_experiment(cfg, ps, 0, 2**-6, 0.05, 2.0, 20, 7, mode="critical")

    def test_negative_seed_rejected_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(discretized, "weight_decompose", no_work)
        monkeypatch.setattr(discretized, "_count_distinct", no_work)
        cfg = build_config("so_pq:2,1")
        ps = PointSet(5, np.array([[0.1, 0.2, 0.3, 0.4, 0.5]]), "p")
        with pytest.raises(SpecError, match="seed"):
            projection_experiment(cfg, ps, 0, 2**-6, 0.05, 2.0, 20, -1)

    @pytest.mark.parametrize(
        "desc, delta",
        [
            (WeightAligned((1, 0.5, 0.5, 0, 0), level_scale=6), 2**-8),
            (FullGrid(5, 3), 2**-3),
            (FullGrid(5, 3), 2**-1),
            (RandomSubset(5, 3, 0.05), 2**-5),  # not a box product: ranges can be wider than the keys
            (ProductCantor(((3, (0, 2), 2),) * 5), 2**-6),
        ],
    )
    def test_per_u_covers_match_unscaled_recount(self, desc, delta):
        # the flag rows are pre-scaled by 1/delta; recount from (mat @ p) / delta
        cfg = build_config("so_pq:2,1")
        ps = generate_fractal(desc)
        rep = projection_experiment(cfg, ps, 0, delta, 0.05, 2.0, 12, 5)
        proj = flag_projector(weight_decompose(cfg), 0)
        flag_idx = [i for i in range(cfg.n) if proj.projector.at(i, i) == 1]
        for coeffs, cover, _ in rep.per_u:
            image = (discretized._unipotent_matrix(cfg, np.array(coeffs)) @ ps.points.T)[flag_idx] / delta
            assert cover == len(set(map(tuple, np.floor(image).T.tolist())))


class TestPoly:
    @pytest.mark.parametrize("nvars,degree", [(1, 6), (2, 4), (3, 3)])
    def test_matches_pow_within_rounding(self, nvars, degree):
        # a product chain rounds at each step where pow rounds once: each term
        # may move by about degree ulps of its size, so the sum by as many ulps
        # of the sum of the terms' absolute values
        rng = random.Random(nvars)
        x = np.random.default_rng(degree).uniform(-1.5, 1.5, size=(2000, nvars))
        for _ in range(5):
            p = random_poly(nvars, degree, rng)
            terms = [c * np.prod([x[:, j] ** e for j, e in enumerate(exps)], axis=0) for c, exps in p.terms]
            ref, size = np.sum(terms, axis=0), np.sum(np.abs(terms), axis=0)
            assert np.all(np.abs(p(x) - ref) <= 4 * (degree + 1) * np.finfo(float).eps * size)


class TestRemez:
    def test_linear_sublevel(self):
        p = Poly(1, 1, ((1.0, (1,)),))
        res = remez_check(p, ((0.0, 1.0),), 0.1, 20_000, 5)
        assert res.ok
        assert res.empirical_measure == pytest.approx(0.1, abs=0.02)

    def test_constant_polynomial(self):
        p = Poly(1, 1, ((1.0, (0,)),))
        res = remez_check(p, ((0.0, 1.0),), 0.5, 20_000, 5)
        assert res.empirical_measure == 0.0 and res.ok

    def test_zero_polynomial_rejected(self):
        with pytest.raises(DegenerateError):
            remez_check(Poly(1, 1, ((0.0, (1,)),)), ((0.0, 1.0),), 0.1, 20_000, 5)

    def test_sample_floor(self):
        p = Poly(1, 1, ((1.0, (1,)),))
        with pytest.raises(SpecError):
            remez_check(p, ((0.0, 1.0),), 0.1, 100, 5)

    @pytest.mark.parametrize("eps", [-0.05, 0.0, math.nan, math.inf])
    def test_eps_must_be_finite_and_positive(self, eps):
        with pytest.raises(SpecError):
            remez_check(random_poly(1, 2, random.Random(0)), ((0.0, 1.0),), eps, 20_000, 5)

    @pytest.mark.parametrize(
        "box",
        [
            ((1.0, 0.0),),
            ((0.5, 0.5),),
            ((0.0, math.inf),),
            ((-math.inf, 0.0),),
            ((math.nan, 1.0),),
            ((0.0, 1.0), (0.0, math.nan)),
            ((0.0, 1.0), (2.0, -2.0)),
        ],
    )
    def test_bad_box_rejected_before_sampling(self, box, monkeypatch):
        def no_sample(seed):
            raise AssertionError("sampled")

        monkeypatch.setattr(np.random, "default_rng", no_sample)
        with pytest.raises(SpecError):
            remez_check(random_poly(len(box), 2, random.Random(0)), box, 0.1, 20_000, 5)

    def test_random_cubics(self):
        rng = random.Random(31)
        for i in range(25):
            p = random_poly(2, 3, rng)
            res = remez_check(p, ((-1.0, 1.0), (-1.0, 1.0)), 0.05, 20_000, 100 + i)
            assert res.ok


def test_unipotent_matrix_reads_scaled_words_as_their_floats():
    """The float generators come from the integer words over L, bit for bit
    as from the Fraction entries, also for a generator with denominators."""
    cfg = build_config("so_pq:2,1")
    doc = config_to_json(cfg)
    i = cfg.u_plus_indices[0]
    doc["h_basis"][i] = mat_to_json(cfg.h_basis[i].scale(Fraction(1, 3)))
    scaled = config_from_json(doc)
    assert scaled.words[i][0] == 3
    coeffs = np.array([0.7])
    x = sum(t * np.array(scaled.h_basis[j].to_float_rows()) for t, j in zip(coeffs, scaled.u_plus_indices))
    out, term = np.eye(scaled.n), np.eye(scaled.n)
    for k in range(1, scaled.n + 1):
        term = term @ x / k
        out += term
    assert np.array_equal(discretized._unipotent_matrix(scaled, coeffs), out)
