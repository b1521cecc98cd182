"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances and frozen thresholds are pinned here; the subcritical covering
exponent M = 2.0 and the final small-value threshold 0.05 were frozen from
pilot brute-force runs (scripts/pilot_subcritical.py and
`oppenheim --form 'x1^2+x2^2-sqrt2*x3^2' --T 1000 --decay` reproduce them).
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from repverify import brascamp_lieb as bl
from repverify import discretized as dg
from repverify import generic, oppenheim
from repverify.qlinalg import Mat, Subspace
from repverify.reps import build_config, check_irreducible, check_proximal, flag_projector, weight_decompose

F = Fraction

HYPOTHESIS_CONFIGS = ("so_pq:2,1", "so_pq:2,2", "so_pq:3,1", "sp2n:2", "tensor:2,2", "sl2_sym:4")

# frozen from the pilot run: minimal observed covering ratio exceeds
# delta^{-M eps} for M = 2 by orders of magnitude on the acceptance set
SUBCRITICAL_M = 2.0
OPPENHEIM_FINAL_THRESHOLD = 0.05


def _report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f": {detail}" if detail else ""))


def _flags(name):
    cfg = build_config(name)
    dec = weight_decompose(cfg)
    return cfg, dec, [flag_projector(dec, mu).flag for mu in dec.eigenvalues[1:]]


def test_criterion_1_hypothesis_suite():
    """Irreducibility and proximality verdicts on the example families."""
    start = time.monotonic()
    ok = True
    for name in HYPOTHESIS_CONFIGS:
        cfg = build_config(name)
        verdict = check_irreducible(cfg)
        prox = check_proximal(weight_decompose(cfg))
        good = verdict.is_absolutely_irreducible and prox
        ok = ok and good
        _report(f"criterion 1 ({name})", good, f"{verdict.kind}, proximal={prox}")
    elapsed = time.monotonic() - start
    _report("criterion 1 runtime", elapsed < 30, f"{elapsed:.1f} s")
    assert ok and elapsed < 30


def test_criterion_2_generic_intersection_bound():
    """200 exact trials per weight-flag pair: 100% pass, zero witnesses."""
    start = time.monotonic()
    total_failures = 0
    for name in HYPOTHESIS_CONFIGS:
        cfg, dec, flags = _flags(name)
        elements = generic.sample_elements(cfg, seed=42, count=200)
        for w in flags:
            for wp in flags:
                rep = generic.check_intersection_bound(cfg, w, wp, 200, 42, elements=elements)
                total_failures += len(rep.witness_failures)
    # tensor standard model: plane/plane intersection attains the bound with
    # equality, dimension exactly 1 on every trial
    cfg_std = build_config("tensor_std:2,2")
    w = Subspace.from_columns(4, [[1, 0, 0, 0], [0, 0, 1, 0]])
    wp = Subspace.from_columns(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    rep = generic.check_intersection_bound(cfg_std, w, wp, 200, 42)
    equality_ok = rep.dimension_histogram == {1: 200} and rep.all_passed
    elapsed = time.monotonic() - start
    _report("criterion 2 intersection bound", total_failures == 0, f"{total_failures} witnesses")
    _report("criterion 2 tensor equality case", equality_ok, str(rep.dimension_histogram))
    _report("criterion 2 runtime", elapsed < 120, f"{elapsed:.1f} s")
    assert total_failures == 0 and equality_ok and elapsed < 120


def test_criterion_3_spanning_identity():
    """Minimal spanning count and the exact identity sum k_q' = qk - n."""
    ok = True
    for name in HYPOTHESIS_CONFIGS:
        cfg, dec, flags = _flags(name)
        for w in flags:
            q, k_list = generic.find_spanning_q(cfg, w, trials=10, seed=11)
            good = sum(k_list) == q * w.dim - cfg.n and all(k < w.dim for k in k_list)
            ok = ok and good
    cfg2 = build_config("sl2_sym:2")
    top = flag_projector(weight_decompose(cfg2), 2).flag
    pair = generic.find_spanning_q(cfg2, top, trials=20, seed=3)
    _report("criterion 3 spanning identities", ok)
    _report("criterion 3 sl2_sym:2 top line", pair == (3, (0, 0)), str(pair))
    assert ok and pair == (3, (0, 0))


def test_criterion_4_submodularity():
    """1000 random exact triples in n = 4, 5, 6: always true."""
    rng = random.Random(2024)
    failures = 0
    for i in range(1000):
        n = (4, 5, 6)[i % 3]
        wp = generic.random_subspace(n, rng.randint(0, n), rng)
        w1 = generic.random_subspace(n, rng.randint(0, n), rng)
        w2 = generic.random_subspace(n, rng.randint(0, n), rng)
        if not generic.submodularity_check(wp, w1, w2):
            failures += 1
    _report("criterion 4 submodularity", failures == 0, f"{failures}/1000 failures")
    assert failures == 0


def test_criterion_5_duality_identity():
    """rank(pi_W o h|_W') = rank(pi_{h^t.W}|_W') on 500 exact instances."""
    rng = random.Random(55)
    configs = [build_config(n) for n in ("tensor_std:2,2", "so_pq:2,1", "sl2_sym:4")]
    mismatches = 0
    for i in range(500):
        cfg = configs[i % len(configs)]
        n = cfg.n
        w = generic.random_subspace(n, rng.randint(1, n - 1), rng)
        wp = generic.random_subspace(n, rng.randint(1, n - 1), rng)
        h = generic.sample_element(cfg, 9000 + i, generic.default_complexity(cfg), height=9).matrix
        from repverify.qlinalg import rank

        lhs = rank(w.basis.transpose() @ h @ wp.basis)
        rhs = rank(generic.translate(h.transpose(), w).basis.transpose() @ wp.basis)
        if lhs != rhs:
            mismatches += 1
    _report("criterion 5 duality identity", mismatches == 0, f"{mismatches}/500 mismatches")
    assert mismatches == 0


def _quadrature_ratio(datum, m_list, L=7.0, num=71) -> float:
    grid = np.linspace(-L, L, num)
    h = grid[1] - grid[0]
    axes = np.meshgrid(*([grid] * datum.n), indexing="ij")
    pts = np.stack([a.ravel() for a in axes])
    mats = datum.numpy_maps()
    integrand = np.ones(pts.shape[1])
    denom = 1.0
    for p, pi, mj in zip(datum.exponents, mats, m_list):
        y = pi @ pts
        fj = np.exp(-np.pi * np.einsum("iN,ij,jN->N", y, mj, y))
        integrand *= fj ** float(p)
        denom *= float(np.linalg.det(mj)) ** (-float(p) / 2.0)
    return float(integrand.sum()) * h**datum.n / denom


def test_criterion_6_bl_constants():
    """Both estimators reach 0.999 on the two exact cases; quadrature never
    beats 1; the kernel-violating datum is infeasible with a witness and the
    optimizer signals an infinite constant."""
    start = time.monotonic()
    results = {}
    for name, datum in (("holder", bl.holder_datum(3, 2)), ("loomis-whitney", bl.loomis_whitney_datum())):
        est = bl.estimate_bl_constant(datum, budget=240, seed=1)
        results[name] = est
        _report(
            f"criterion 6 {name} estimators",
            est.lower_bound_variational >= 0.999 and est.lower_bound_gaussian >= 0.999,
            f"var={est.lower_bound_variational:.6f} gauss={est.lower_bound_gaussian:.6f}",
        )
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(5):
            ms = []
            for m in datum.maps:
                a = rng.normal(size=(m.n_j, m.n_j))
                ms.append(a @ a.T + 0.6 * np.eye(m.n_j))
            worst = max(worst, _quadrature_ratio(datum, ms))
        results[name + "-quad"] = worst
        _report(f"criterion 6 {name} quadrature", worst <= 1 + 1e-6, f"max ratio {worst:.9f}")

    bad = bl.BLDatum(2, (bl.BLMap(1, Mat.from_rows([[1, 0]])),), (F(2),))
    cert = bl.check_feasibility(bad, "lattice")
    est_bad = bl.estimate_bl_constant(bad, budget=300, seed=2)
    bad_ok = cert.status == "violated" and cert.witness is not None and est_bad.bl_infinite
    _report("criterion 6 violating datum", bad_ok, f"{cert.status}, bl_infinite={est_bad.bl_infinite}")
    elapsed = time.monotonic() - start
    _report("criterion 6 runtime", elapsed < 60, f"{elapsed:.1f} s")

    assert all(
        results[k].lower_bound_variational >= 0.999 and results[k].lower_bound_gaussian >= 0.999
        for k in ("holder", "loomis-whitney")
    )
    assert results["holder-quad"] <= 1 + 1e-6 and results["loomis-whitney-quad"] <= 1 + 1e-6
    assert bad_ok and elapsed < 60


def _stuffed(datum: bl.BLDatum) -> bl.BLDatum:
    proj = Mat.diagonal([F(1)] * (datum.n - 1) + [F(0)])
    return bl.BLDatum(
        datum.n, tuple(bl.BLMap(m.n_j, m.matrix @ proj) for m in datum.maps), datum.exponents
    )


def test_criterion_7_feasibility_optimizer_agreement():
    """20-datum corpus: feasibility verdicts and optimizer verdicts agree.

    The feasible half mixes perfect-transversality flag data, a random-line
    orbit datum, a Loomis-Whitney-type mid flag in dimension 3, and strictly
    interior tensor-plane data; the infeasible half stuffs a common kernel
    line into each.
    """
    plans = [
        ("so_pq:2,1", {"mu": 2}, 5, 1700),
        ("so_pq:2,1", {"mu": 2}, 5, 1800),
        ("so_pq:2,1", {"w_dim": 1}, 5, 1900),
        ("sp2n:2", {"mu": 3}, 5, 2000),
        ("sp2n:2", {"mu": 3}, 5, 2100),
        ("sl2_sym:4", {"mu": 4}, 5, 2200),
        ("sl2_sym:2", {"mu": 2}, 3, 2300),
        ("sl2_sym:2", {"mu": 0}, 3, 2400),
        ("tensor_std:2,2", {"plane": True}, 3, 2500),
        ("tensor_std:2,2", {"plane": True}, 3, 2600),
    ]
    rng = random.Random(91)
    agreements = 0
    total = 0
    for idx, (name, how, m, seed) in enumerate(plans):
        cfg = build_config(name)
        els = tuple(generic.sample_elements(cfg, seed=seed, count=m, height=5))
        if "mu" in how:
            datum = bl.build_datum_from_rep(cfg, els, mu=how["mu"])
        elif "plane" in how:
            w = Subspace.from_columns(4, [[1, 0, 0, 0], [0, 0, 1, 0]])
            datum = bl.build_datum_from_rep(cfg, els, w=w)
        else:
            w = generic.random_subspace(cfg.n, how["w_dim"], rng)
            datum = bl.build_datum_from_rep(cfg, els, w=w)
        for variant, expect_feasible in ((datum, True), (_stuffed(datum), False)):
            cert = bl.check_feasibility(variant, "lattice")
            est = bl.estimate_bl_constant(variant, budget=260, seed=7 + idx)
            feas_verdict = cert.feasible_so_far
            opt_verdict = not est.bl_infinite
            total += 1
            if feas_verdict == opt_verdict == expect_feasible:
                agreements += 1
            else:
                _report(
                    f"criterion 7 disagreement ({name}, feasible={expect_feasible})",
                    False,
                    f"cert={cert.status} optimizer_finite={opt_verdict}",
                )
    _report("criterion 7 agreement", agreements == total, f"{agreements}/{total}")
    assert agreements == total == 20


def test_criterion_8_frostman_energy():
    """The nonconcentration-to-energy bound on 50 generated sets."""
    rng = random.Random(808)
    sets = []
    for i in range(50):
        kind = i % 5
        if kind == 0:
            sets.append(dg.generate_fractal(dg.FullGrid(1, rng.randint(4, 7))))
        elif kind == 1:
            sets.append(dg.generate_fractal(dg.ProductCantor(((3, (0, 2), rng.randint(4, 7)),))))
        elif kind == 2:
            sets.append(
                dg.generate_fractal(dg.RandomSubset(2, rng.randint(3, 5), rng.uniform(0.2, 0.8)), seed=i)
            )
        elif kind == 3:
            sets.append(
                dg.generate_fractal(
                    dg.WeightAligned((1, rng.choice((0.25, 0.5, 0.75)), 0.5), level_scale=4)
                )
            )
        else:
            sets.append(
                dg.generate_fractal(
                    dg.ProductCantor(((2, (0, 1), rng.randint(4, 6)), (4, (0, 3), 3))), seed=i
                )
            )
    failures = 0
    for ps in sets:
        for alpha, beta in ((1.0, 0.5), (2.5, 2.0)):
            if alpha > ps.ambient:
                continue
            if not dg.frostman_energy_bound_check(ps, 2**-8, alpha, beta):
                failures += 1
    _report("criterion 8 frostman-to-energy", failures == 0, f"{failures} failures / 50 sets")
    assert failures == 0


def test_criterion_9_subcritical_projection():
    """Weight-aligned fractal of designed dimension 2.5 on the 5-dim model:
    exceptional fraction within delta^epsilon at delta = 2^-10; the full-grid
    control has no exceptional parameters at all."""
    start = time.monotonic()
    cfg = build_config("so_pq:2,1")
    fractal = dg.generate_fractal(dg.WeightAligned((1, 1, 0.5, 0, 0)))
    assert fractal.designed_dim == 2.5
    rep = dg.projection_experiment(
        cfg, fractal, 0, 2**-10, 0.05, SUBCRITICAL_M, num_u=200, seed=3, mode="subcritical"
    )
    ok_main = rep.exceptional_fraction <= rep.threshold
    _report(
        "criterion 9 subcritical",
        ok_main,
        f"fraction {rep.exceptional_fraction:.3f} <= {rep.threshold:.3f}",
    )
    control = dg.generate_fractal(dg.FullGrid(5, 4))
    rep2 = dg.projection_experiment(
        cfg, control, 0, 2**-4, 0.05, SUBCRITICAL_M, num_u=200, seed=3, mode="subcritical"
    )
    ok_ctrl = rep2.exceptional_fraction == 0.0
    _report("criterion 9 full-grid control", ok_ctrl, f"fraction {rep2.exceptional_fraction}")
    elapsed = time.monotonic() - start
    _report("criterion 9 runtime", elapsed < 300, f"{elapsed:.1f} s")
    assert ok_main and ok_ctrl and elapsed < 300


def test_criterion_10_remez():
    """100 random polynomials, 1e5 samples each, all within the bound."""
    rng = random.Random(4242)
    failures = 0
    for i in range(100):
        nvars = rng.choice((1, 2))
        degree = rng.randint(1, 4)
        p = dg.random_poly(nvars, degree, rng)
        res = dg.remez_check(p, ((-1.0, 1.0),) * nvars, 0.05, 100_000, 77_000 + i)
        if not res.ok:
            failures += 1
    _report("criterion 10 remez", failures == 0, f"{failures}/100 outside bound")
    assert failures == 0


def test_criterion_11_oppenheim():
    """sqrt2 form: strictly positive non-increasing minima with final value
    below the frozen threshold; the rational isotropic control reaches 0."""
    start = time.monotonic()
    curve = oppenheim.decay_curve(oppenheim.sqrt2_form(), 0.0, [10, 100, 1000])
    vals = [v for _, v in curve.rows]
    positive = all(not e.is_zero() for e in curve.exact_values)
    monotone = all(a >= b for a, b in zip(vals, vals[1:]))
    final_ok = vals[-1] <= OPPENHEIM_FINAL_THRESHOLD
    _report("criterion 11 positivity", positive, f"values {[f'{v:.3g}' for v in vals]}")
    _report("criterion 11 monotone", monotone)
    _report("criterion 11 final threshold", final_ok, f"{vals[-1]:.4g} <= {OPPENHEIM_FINAL_THRESHOLD}")
    iso = oppenheim.search_min_value(oppenheim.isotropic_form(), 0.0, 10)
    iso_ok = iso.value_exact.is_zero()
    _report("criterion 11 isotropic control", iso_ok, f"v = {iso.best_v}")
    elapsed = time.monotonic() - start
    _report("criterion 11 runtime", elapsed < 120, f"{elapsed:.1f} s")
    assert positive and monotone and final_ok and iso_ok and elapsed < 120
