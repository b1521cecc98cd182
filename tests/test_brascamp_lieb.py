"""Brascamp-Lieb feasibility and constant estimation."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from repverify.brascamp_lieb import (
    BLDatum,
    BLMap,
    InvalidExponent,
    SingularForm,
    build_datum_from_rep,
    check_feasibility,
    datum_from_json,
    datum_to_json,
    estimate_bl_constant,
    gaussian_ratio,
    holder_datum,
    loomis_whitney_datum,
)
from repverify.generic import sample_elements
from repverify.harness import derive_seed
from repverify.qlinalg import Mat
from repverify.reps import build_config

F = Fraction


def quadrature_ratio(datum: BLDatum, m_list, L=7.0, num=71) -> float:
    """Independent oracle: Riemann quadrature of the inequality on Gaussians.

    Returns (integral of prod f_j(pi_j x)^{p_j}) / (prod (integral f_j)^{p_j})
    for f_j(y) = exp(-pi y . M_j y); trapezoid sums on centered Gaussians
    converge far below the tolerances used here.
    """
    assert datum.n <= 3
    grid = np.linspace(-L, L, num)
    h = grid[1] - grid[0]
    axes = np.meshgrid(*([grid] * datum.n), indexing="ij")
    pts = np.stack([a.ravel() for a in axes])  # n x N
    mats = datum.numpy_maps()
    integrand = np.ones(pts.shape[1])
    denom = 1.0
    for p, pi, mj in zip(datum.exponents, mats, m_list):
        y = pi @ pts
        fj = np.exp(-np.pi * np.einsum("iN,ij,jN->N", y, mj, y))
        integrand *= fj ** float(p)
        denom *= float(np.linalg.det(mj)) ** (-float(p) / 2.0)
    lhs = integrand.sum() * h**datum.n
    return lhs / denom


class TestDatum:
    def test_holder_scaling(self):
        d = holder_datum(3, 2)
        assert d.scaling_holds()
        assert d.exponents == (F(1, 2), F(1, 2))

    def test_loomis_whitney_scaling(self):
        d = loomis_whitney_datum()
        assert d.scaling_holds()  # 3 = 3 * (1/2) * 2

    def test_non_surjective_rejected(self):
        with pytest.raises(ValueError):
            BLDatum(2, (BLMap(2, Mat.from_rows([[1, 0], [2, 0]])),), (F(1),))

    def test_json_round_trip(self):
        d = loomis_whitney_datum()
        assert datum_from_json(datum_to_json(d)) == d


class TestBuildFromRep:
    def test_flag_mode_exponents(self):
        cfg = build_config("so_pq:2,1")
        els = tuple(sample_elements(cfg, seed=2, count=5, height=5))
        d = build_datum_from_rep(cfg, els, mu=2)
        assert d.exponents == (F(1),) * 5  # 5 / (1 * 5)
        assert all(m.n_j == 1 for m in d.maps)
        assert d.scaling_holds()

    def test_subspace_mode_exponents(self):
        cfg = build_config("so_pq:2,1")
        els = tuple(sample_elements(cfg, seed=2, count=5, height=5))
        from repverify.generic import random_subspace

        w = random_subspace(5, 2, random.Random(4))
        d = build_datum_from_rep(cfg, els, w=w)
        assert d.exponents == (F(1, 2),) * 5  # 5 / (2 * 5)

    def test_m_too_small(self):
        cfg = build_config("so_pq:2,1")
        els = tuple(sample_elements(cfg, seed=2, count=3, height=5))
        with pytest.raises(InvalidExponent):
            build_datum_from_rep(cfg, els, mu=2)  # p = 5/3 > 1


class TestFeasibility:
    def test_holder_passes(self):
        cert = check_feasibility(holder_datum(3, 2), "lattice")
        assert cert.scaling_ok and cert.status == "passed_lattice"

    def test_loomis_whitney_coordinate_exhaustive(self):
        cert = check_feasibility(loomis_whitney_datum(), "coordinate_exhaustive")
        assert cert.scaling_ok and cert.status == "passed_heuristic"
        assert cert.random_checks == 6  # proper nonzero coordinate subspaces of R^3

    def test_single_projection_violated(self):
        d = BLDatum(2, (BLMap(1, Mat.from_rows([[1, 0]])),), (F(2),))
        cert = check_feasibility(d, "lattice")
        assert cert.scaling_ok  # 2 = 2 * 1
        assert cert.status == "violated"
        assert cert.witness is not None and cert.witness.dim == 1
        # witness is the kernel: 1 > 2 * 0
        assert cert.witness.contains_vector([0, 1])

    def test_common_kernel_found_despite_big_lattice(self):
        cfg = build_config("so_pq:2,1")
        els = tuple(sample_elements(cfg, seed=17, count=5, height=5))
        d = build_datum_from_rep(cfg, els, mu=2)
        proj = Mat.diagonal([F(1)] * 4 + [F(0)])
        stuffed = BLDatum(
            d.n, tuple(BLMap(m.n_j, m.matrix @ proj) for m in d.maps), d.exponents
        )
        cert = check_feasibility(stuffed, "lattice")
        assert cert.status == "violated"


class TestGaussianRatio:
    def test_holder_identity(self):
        assert gaussian_ratio(holder_datum(3, 2), [np.eye(3)] * 2) == pytest.approx(1.0)

    def test_loomis_whitney_identity(self):
        assert gaussian_ratio(loomis_whitney_datum(), [np.eye(2)] * 3) == pytest.approx(1.0)

    def test_scaling_invariance(self):
        # simultaneous rescaling leaves the ratio unchanged when the scaling
        # condition holds
        d = loomis_whitney_datum()
        rng = np.random.default_rng(5)
        ms = []
        for _ in range(3):
            a = rng.normal(size=(2, 2))
            ms.append(a @ a.T + 0.5 * np.eye(2))
        base = gaussian_ratio(d, ms)
        for c in (0.25, 3.0, 17.0):
            assert gaussian_ratio(d, [c * m for m in ms]) == pytest.approx(base, rel=1e-9)

    def test_singular_aggregate(self):
        d = BLDatum(2, (BLMap(1, Mat.from_rows([[1, 0]])),), (F(2),))
        with pytest.raises(SingularForm):
            gaussian_ratio(d, [np.eye(1)])

    def test_ratio_is_lower_bound_against_quadrature(self):
        # closed form vs direct numerical integration on random Gaussians
        rng = np.random.default_rng(11)
        for d in (holder_datum(3, 2), loomis_whitney_datum()):
            for _ in range(3):
                ms = []
                for m in d.maps:
                    a = rng.normal(size=(m.n_j, m.n_j))
                    ms.append(a @ a.T + 0.6 * np.eye(m.n_j))
                closed = gaussian_ratio(d, ms)
                quad = quadrature_ratio(d, ms)
                assert quad == pytest.approx(closed, rel=1e-6)


class TestEstimate:
    def test_holder_reaches_one(self):
        est = estimate_bl_constant(holder_datum(3, 2), budget=200, seed=1)
        assert est.lower_bound_variational >= 0.999
        assert est.lower_bound_gaussian >= 0.999
        assert not est.bl_infinite

    def test_loomis_whitney_reaches_one(self):
        est = estimate_bl_constant(loomis_whitney_datum(), budget=200, seed=1)
        assert est.lower_bound_variational >= 0.999
        assert est.lower_bound_gaussian >= 0.999
        assert est.converged

    def test_infeasible_signals_infinite(self):
        d = BLDatum(2, (BLMap(1, Mat.from_rows([[1, 0]])),), (F(2),))
        est = estimate_bl_constant(d, budget=300, seed=2)
        assert est.bl_infinite

    def test_infeasible_without_common_kernel_signals_infinite(self):
        # U = span(e_2) violates the criterion (1 > 2/3), yet no direction is
        # killed by every map, so only the scaling can see the infinite constant
        d = BLDatum(
            2,
            (BLMap(1, Mat.from_rows([[1, 0]])), BLMap(1, Mat.from_rows([[1, 0]])), BLMap(1, Mat.from_rows([[0, 1]]))),
            (F(2, 3),) * 3,
        )
        assert check_feasibility(d, "lattice").status == "violated"
        est = estimate_bl_constant(d, budget=10, seed=0)
        assert est.bl_infinite and not est.converged

    def test_overflowing_bound_is_infinite(self):
        d = BLDatum(2, (BLMap(1, Mat.from_rows([[1, 0]])),), (F(2),))
        est = estimate_bl_constant(d, budget=200, seed=derive_seed(0, "bl", "violating"))
        assert est.bl_infinite
        assert est.lower_bound_variational == math.inf

    def test_deterministic(self):
        a = estimate_bl_constant(loomis_whitney_datum(), budget=100, seed=9)
        b = estimate_bl_constant(loomis_whitney_datum(), budget=100, seed=9)
        assert a.lower_bound_variational == b.lower_bound_variational
        assert a.lower_bound_gaussian == b.lower_bound_gaussian
