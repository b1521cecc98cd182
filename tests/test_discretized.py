"""Covering numbers, energies, fractal generators, projections, Remez."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repverify import discretized
from repverify.discretized import (
    DegenerateError,
    FullGrid,
    HypothesisError,
    MembershipError,
    PointSet,
    Poly,
    ProductCantor,
    RandomSubset,
    SpecError,
    TubeSpec,
    WeightAligned,
    alpha_energy,
    covering_number,
    frostman_constant,
    frostman_energy_bound_check,
    generate_fractal,
    make_point_set,
    parse_fractal,
    projection_experiment,
    random_poly,
    remez_check,
    tube_covering_number,
)
from repverify.reps import build_config


class TestCovering:
    def test_single_point(self):
        ps = make_point_set([[0.3, 0.4]], "p")
        assert covering_number(ps, 2**-3) == 1

    def test_eighths_at_quarter_scale(self):
        ps = make_point_set([[i / 8] for i in range(8)], "g")
        assert covering_number(ps, 2**-2) == 4  # two points per cube

    def test_full_grid_square(self):
        g = generate_fractal(FullGrid(2, 5))
        assert covering_number(g, 2**-5) == 4**5  # delta^-2

    def test_monotone_in_inclusion_and_scale(self):
        rng = np.random.default_rng(3)
        pts = rng.random((500, 3))
        a = make_point_set(pts[:200], "a")
        b = make_point_set(pts, "b")
        for s in (2, 4, 6):
            assert covering_number(a, 2**-s) <= covering_number(b, 2**-s)
        for s in (2, 4, 6):
            ca = covering_number(b, 2**-s)
            cf = covering_number(b, 2 ** -(s + 1))
            assert ca <= cf <= 2**3 * ca

    def test_bad_delta(self):
        ps = make_point_set([[0.0]], "p")
        with pytest.raises(SpecError):
            covering_number(ps, 0.3)


def _distinct_rows(keys: np.ndarray) -> int:
    return len(set(map(tuple, keys.tolist())))


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
        assert discretized._count_distinct(keys) == _distinct_rows(keys)

    def test_negative_offset_columns(self):
        keys = np.array([[-5, 3], [-5, 3], [2, -7], [-5, -7], [2, -7]])
        assert discretized._count_distinct(keys) == 3

    @pytest.mark.parametrize("width", [1, 3])
    def test_empty(self, width):
        assert discretized._count_distinct(np.zeros((0, width), dtype=np.int64)) == 0


class TestTubeCovering:
    def test_degenerate_tuple_is_covering(self):
        g = generate_fractal(FullGrid(2, 4))
        spec = TubeSpec(2**-4, (1.0, 1.0), (1, 1))
        assert tube_covering_number(g, spec) == covering_number(g, 2**-4)

    def test_single_point(self):
        ps = make_point_set([[0.1, 0.2, 0.3]], "p")
        spec = TubeSpec(2**-6, (0.5, 1.0), (2, 1))
        assert tube_covering_number(ps, spec) == 1

    def test_product_grid_count(self):
        # per-level spacing delta^{r_i}: one point per tube up to boundary.
        # level 1 (r = 1/2, coarse) occupies the trailing coordinate.
        delta = 2**-8
        r = (0.5, 1.0)
        coarse = np.arange(0, 1, delta**0.5)
        fine = np.arange(0, 1, delta)
        pts = np.array([[a, b] for a in fine for b in coarse])
        ps = make_point_set(pts, "prod")
        spec = TubeSpec(delta, r, (1, 1))
        count = tube_covering_number(ps, spec)
        expected = len(fine) * len(coarse)
        assert expected <= count <= 4 * expected

    def test_wide_keys(self):
        # levels at 2^-20 and 2^-40: 20 + 40 + 40 key bits take the lexsort path
        rng = np.random.default_rng(12)
        pts = rng.random((400, 3))
        pts = np.vstack([pts, pts[:150], np.floor(pts[:100] * 2**20) / 2**20])
        spec = TubeSpec(2**-40, (0.5, 1.0), (1, 2))
        keys = np.hstack([np.floor(pts[:, :2] * 2**40), np.floor(pts[:, 2:] * 2**20)]).astype(np.int64)
        count = tube_covering_number(PointSet(3, pts, "wide"), spec)
        assert count == _distinct_rows(keys) == 500

    def test_malformed_spec(self):
        with pytest.raises(SpecError):
            TubeSpec(2**-4, (1.0, 0.5), (1, 1))
        with pytest.raises(SpecError):
            TubeSpec(2**-4, (0.5,), (1,))


class TestAlphaEnergy:
    def test_singleton(self):
        ps = make_point_set([[0.5]], "p")
        assert alpha_energy(ps, 2**-4, 0.5, [0.5]) == 0.0

    def test_two_term_example(self):
        delta = 2**-6
        ps = make_point_set([[0.0], [delta], [1.0]], "p")
        assert alpha_energy(ps, delta, 1.0, [0.0]) == pytest.approx(1 / delta + 1.0)

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(9)
        ps = make_point_set(rng.random((60, 2)), "r")
        w = ps.points[0]
        vals = [alpha_energy(ps, 2**-s, 1.5, w) for s in (8, 6, 4, 2)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_membership_required(self):
        ps = make_point_set([[0.0], [1.0]], "p")
        with pytest.raises(MembershipError):
            alpha_energy(ps, 2**-4, 1.0, [0.5])


class TestFrostman:
    def test_uniform_grid_constant(self):
        ps = make_point_set([[i / 64] for i in range(64)], "u")
        assert frostman_constant(ps, 1 / 64, 1.0) == pytest.approx(3.0)

    def test_alpha_zero_gives_one(self):
        ps = make_point_set([[i / 16] for i in range(16)], "u")
        assert frostman_constant(ps, 2**-4, 0.0) == pytest.approx(1.0)

    def test_cluster_dominates(self):
        delta = 2**-10
        cluster = [[j * delta / 8] for j in range(8)]
        spread = [[0.25 + i / 16] for i in range(8)]
        ps = make_point_set(cluster + spread, "c")
        c = frostman_constant(ps, delta, 1.0)
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
                assert frostman_constant(ps, 2**-8, alpha) == c
                bound = 2.0**ps.ambient * c * (1.0 + 1.0 / (1.0 - 2.0 ** (beta - alpha))) * ps.size
                energies = [_energy_reference(ps, 2**-8, beta, w) for w in ps.points]
                assert frostman_energy_bound_check(ps, 2**-8, alpha, beta) == (max(energies) <= bound)
                for i in (0, ps.size // 2, ps.size - 1):
                    assert alpha_energy(ps, 2**-8, beta, ps.points[i]) == pytest.approx(energies[i], rel=1e-14)

    @pytest.mark.parametrize("level, verdict", [(0.5, False), (2.0, True)])
    def test_verdict_follows_largest_energy(self, level, verdict, monkeypatch):
        # a constant that puts the bound at level x the median or the largest energy
        ps = generate_fractal(RandomSubset(2, 4, 0.6), seed=2)
        energies = sorted(_energy_reference(ps, 2**-6, 0.5, w) for w in ps.points)
        target = level * (energies[len(energies) // 2] if level < 1 else energies[-1])
        scale = 2.0**2 * (1.0 + 1.0 / (1.0 - 2.0 ** (0.5 - 1.0))) * ps.size
        monkeypatch.setattr(discretized, "frostman_constant", lambda f, d, a: target / scale)
        monkeypatch.setattr(discretized, "PAIR_BLOCK", 7)
        assert frostman_energy_bound_check(ps, 2**-6, 1.0, 0.5) is verdict


class TestGenerators:
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


class TestProjectionExperiment:
    def test_single_point_never_exceptional(self):
        cfg = build_config("so_pq:2,1")
        ps = make_point_set([[0.1, 0.2, 0.3, 0.4, 0.5]], "p")
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
        ps = make_point_set([[0.1, 0.2, 0.3, 0.4]], "p")
        with pytest.raises(HypothesisError):
            projection_experiment(cfg, ps, None, 2**-4, 0.05, 2.0, 5, 1, mode="supercritical")

    def test_deterministic_and_order_free(self):
        cfg = build_config("so_pq:2,1")
        ps = generate_fractal(WeightAligned((1, 0.5, 0.5, 0, 0), level_scale=4))
        a = projection_experiment(cfg, ps, 0, 2**-6, 0.05, 2.0, 10, 3)
        b = projection_experiment(cfg, ps, 0, 2**-6, 0.05, 2.0, 10, 3)
        assert a.per_u == b.per_u and a.exceptional_fraction == b.exceptional_fraction


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

    def test_random_cubics(self):
        rng = random.Random(31)
        for i in range(25):
            p = random_poly(2, 3, rng)
            res = remez_check(p, ((-1.0, 1.0), (-1.0, 1.0)), 0.05, 20_000, 100 + i)
            assert res.ok
