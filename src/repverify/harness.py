"""Named verification suites with reproducible seeds and stable reports.

Every randomized operation receives a seed derived by stable hashing of
(master_seed, module, op, index), so adding a suite never perturbs another
suite's randomness and two runs with the same configuration produce the same
results.  The report hash covers the result payload only (wall-clock time is
reported but never hashed).
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import brascamp_lieb as bl
from . import discretized as dg
from . import generic, oppenheim
from .qlinalg import Mat
from .reps import RepConfig, build_config, check_irreducible, check_proximal, flag_projector, weight_decompose

SUITES = ("hypotheses", "generic-dim", "bl", "discretized", "oppenheim")

BUILTIN_CONFIGS = (
    "so_pq:2,1",
    "so_pq:2,2",
    "so_pq:3,1",
    "sp2n:2",
    "tensor:2,2",
    "tensor_std:2,2",
    "sl2_sym:2",
    "sl2_sym:4",
)


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    master_seed: int = 0
    scale: float = 1.0  # multiplies trial counts; 1.0 is the standard run

    def __post_init__(self):
        if self.suite not in SUITES + ("all",):
            raise UsageError(f"unknown suite {self.suite!r}; choose from {SUITES + ('all',)}")
        if not 0 < self.scale < float("inf"):
            raise UsageError(f"scale must be finite and > 0, got {self.scale}")


@dataclass
class ExperimentReport:
    suite: str
    master_seed: int
    results: list[dict] = field(default_factory=list)
    wall_clock_s: float = 0.0

    @property
    def passes(self) -> int:
        return sum(1 for r in self.results if r["passed"])

    @property
    def failures(self) -> int:
        return len(self.results) - self.passes

    @property
    def all_passed(self) -> bool:
        return self.failures == 0

    def content_hash(self) -> str:
        payload = json.dumps(
            {"suite": self.suite, "seed": self.master_seed, "results": self.results},
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def derive_seed(master_seed: int, module: str, op: str, index: int = 0) -> int:
    digest = hashlib.sha256(f"{master_seed}|{module}|{op}|{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _scaled(base: int, scale: float) -> int:
    return max(2, int(round(base * scale)))


def _item(name: str, passed: bool, **detail) -> dict:
    return {"name": name, "passed": bool(passed), **detail}


# --- individual suites -------------------------------------------------------------


def _suite_hypotheses(cfg: SuiteConfig) -> list[dict]:
    results = []
    for name in BUILTIN_CONFIGS:
        rc = build_config(name)
        verdict = check_irreducible(rc)
        dec = weight_decompose(rc)
        prox = check_proximal(dec)
        results.append(
            _item(
                f"hypotheses/{name}",
                verdict.is_absolutely_irreducible,
                irreducibility=verdict.kind,
                algebra_dim=verdict.algebra_dim,
                proximal=prox,
                eigenvalues=[str(x) for x in dec.eigenvalues],
                multiplicities=list(dec.multiplicities),
            )
        )
    return results


def _suite_generic_dim(cfg: SuiteConfig) -> list[dict]:
    results = []
    trials = _scaled(50, cfg.scale)
    for idx, name in enumerate(("so_pq:2,1", "sl2_sym:4", "sp2n:2")):
        rc = build_config(name)
        dec = weight_decompose(rc)
        flags = [flag_projector(dec, mu).flag for mu in dec.eigenvalues[1:]]
        seed = derive_seed(cfg.master_seed, "generic", "intersection", idx)
        elements = generic.sample_elements(rc, seed, trials)
        fails = 0
        witnesses = []
        for w in flags:
            for wp in flags:
                rep = generic.check_intersection_bound(rc, w, wp, trials, seed, elements=elements)
                fails += rep.trials - rep.passes
                witnesses.extend(
                    {"seed": s, "recipe": [[i, str(t)] for i, t in r]} for s, r in rep.witness_failures
                )
        results.append(
            _item(
                f"generic-dim/intersection/{name}",
                fails == 0,
                trials=trials * len(flags) ** 2,
                failures=fails,
                failing_recipes=witnesses,
            )
        )
        seed2 = derive_seed(cfg.master_seed, "generic", "projection", idx)
        rep = generic.check_projection_bound(rc, flags[0], flags[-1], trials, seed2)
        results.append(
            _item(f"generic-dim/projection/{name}", rep.all_passed, trials=rep.trials, failures=rep.trials - rep.passes)
        )
        spans = []
        ok = True
        for w in flags:
            q, k_list = generic.find_spanning_q(
                rc, w, _scaled(10, cfg.scale), derive_seed(cfg.master_seed, "generic", "spanning", idx)
            )
            ok = ok and sum(k_list) == q * w.dim - rc.n and all(k < w.dim for k in k_list)
            spans.append({"dim_w": w.dim, "q": q, "k_list": list(k_list)})
        results.append(_item(f"generic-dim/spanning/{name}", ok, spans=spans))
    rng = random.Random(derive_seed(cfg.master_seed, "generic", "submodularity"))
    triples = _scaled(200, cfg.scale)
    bad = 0
    for _ in range(triples):
        n = rng.choice((4, 5, 6))
        wp = generic.random_subspace(n, rng.randint(0, n), rng)
        w1 = generic.random_subspace(n, rng.randint(0, n), rng)
        w2 = generic.random_subspace(n, rng.randint(0, n), rng)
        if not generic.submodularity_check(wp, w1, w2):
            bad += 1
    results.append(_item("generic-dim/submodularity", bad == 0, triples=triples, failures=bad))
    return results


CORPUS_DRAWS = 16


def _corpus_pair(rc: RepConfig, master_seed: int, idx: int, mu: int, m: int) -> tuple[bl.BLDatum, bl.BLDatum]:
    """A corpus datum and its stuffed twin, whose maps drop the last coordinate.

    Dropping it can leave a map non-surjective, which is no BL datum; such a
    draw is replaced by the next seed of a fixed sequence, so the first draw,
    and every master seed where it works, keeps its elements.
    """
    proj = Mat.diagonal([Fraction(1)] * (rc.n - 1) + [Fraction(0)])
    for draw in range(CORPUS_DRAWS):
        op, index = ("corpus", idx) if draw == 0 else (f"corpus-redraw/{idx}", draw)
        els = tuple(generic.sample_elements(rc, derive_seed(master_seed, "bl", op, index), m, height=5))
        datum = bl.build_datum_from_rep(rc, els, mu=mu)
        try:
            stuffed = bl.BLDatum(
                datum.n, tuple(bl.BLMap(mp.n_j, mp.matrix @ proj) for mp in datum.maps), datum.exponents
            )
        except ValueError:  # a stuffed map is not surjective
            continue
        return datum, stuffed
    raise ValueError(f"no stuffed twin with surjective maps in {CORPUS_DRAWS} draws")


def _suite_bl(cfg: SuiteConfig) -> list[dict]:
    results = []
    budget = _scaled(200, cfg.scale)
    for name, datum in (("holder", bl.holder_datum(3, 2)), ("loomis_whitney", bl.loomis_whitney_datum())):
        cert = bl.check_feasibility(datum)
        est = bl.estimate_bl_constant(datum, budget, derive_seed(cfg.master_seed, "bl", name))
        ok = (
            cert.feasible_so_far
            and est.lower_bound_variational >= 0.999
            and est.lower_bound_gaussian >= 0.999
            and not est.bl_infinite
        )
        results.append(
            _item(
                f"bl/{name}",
                ok,
                status=cert.status,
                lower_bound_variational=round(est.lower_bound_variational, 6),
                lower_bound_gaussian=round(est.lower_bound_gaussian, 6),
            )
        )
    bad = bl.BLDatum(2, (bl.BLMap(1, Mat.from_rows([[1, 0]])),), (Fraction(2),))
    cert = bl.check_feasibility(bad)
    est = bl.estimate_bl_constant(bad, budget, derive_seed(cfg.master_seed, "bl", "violating"))
    results.append(
        _item(
            "bl/violating-datum",
            cert.status == "violated" and est.bl_infinite,
            status=cert.status,
            witness_dim=(cert.witness.dim if cert.witness else None),
            bl_infinite=est.bl_infinite,
        )
    )
    # small feasible/stuffed agreement corpus
    agree = 0
    total = 0
    for idx, (name, mu, m) in enumerate(
        (("so_pq:2,1", 2, 5), ("sl2_sym:4", 4, 5), ("sl2_sym:2", 2, 3))
    ):
        datum, stuffed = _corpus_pair(build_config(name), cfg.master_seed, idx, mu, m)
        c1 = bl.check_feasibility(datum)
        c2 = bl.check_feasibility(stuffed)
        e1 = bl.estimate_bl_constant(datum, budget, derive_seed(cfg.master_seed, "bl", "corpus-est", idx))
        e2 = bl.estimate_bl_constant(stuffed, budget, derive_seed(cfg.master_seed, "bl", "corpus-est2", idx))
        agree += int(c1.feasible_so_far == (not e1.bl_infinite))
        agree += int((c2.status == "violated") == e2.bl_infinite)
        total += 2
    results.append(_item("bl/feasibility-optimizer-agreement", agree == total, agreements=agree, total=total))
    return results


def _suite_discretized(cfg: SuiteConfig) -> list[dict]:
    results = []
    sets = [
        dg.generate_fractal(dg.FullGrid(1, 6)),
        dg.generate_fractal(dg.ProductCantor(((3, (0, 2), 6),))),
        dg.generate_fractal(dg.RandomSubset(2, 5, 0.4), seed=derive_seed(cfg.master_seed, "dg", "subset")),
        dg.generate_fractal(dg.WeightAligned((1, 0.5, 0.5), level_scale=4)),
    ]
    ok = all(dg.frostman_energy_bound_check(ps, 2**-8, 1.0, 0.5) for ps in sets)
    results.append(_item("discretized/frostman-energy", ok, sets=len(sets)))

    rc = build_config("so_pq:2,1")
    wa = dg.generate_fractal(dg.WeightAligned((1, 1, 0.5, 0, 0), level_scale=6))
    rep = dg.projection_experiment(
        rc, wa, 0, 2**-8, 0.05, 2.0, _scaled(40, cfg.scale),
        derive_seed(cfg.master_seed, "dg", "subcritical"),
    )
    results.append(
        _item(
            "discretized/subcritical",
            rep.within_bound,
            exceptional_fraction=rep.exceptional_fraction,
            threshold=rep.threshold,
            covering_threshold=rep.covering_threshold,
        )
    )
    grid = dg.generate_fractal(dg.FullGrid(5, 3))
    rep2 = dg.projection_experiment(
        rc, grid, None, 2**-3, 0.05, 2.0, _scaled(40, cfg.scale),
        derive_seed(cfg.master_seed, "dg", "supercritical"), mode="supercritical",
    )
    results.append(
        _item("discretized/supercritical-grid", rep2.exceptional_fraction == 0.0,
              exceptional_fraction=rep2.exceptional_fraction)
    )
    rng = random.Random(derive_seed(cfg.master_seed, "dg", "remez"))
    polys = _scaled(20, cfg.scale)
    bad = 0
    for i in range(polys):
        p = dg.random_poly(rng.choice((1, 2)), rng.choice((2, 3, 4)), rng)
        res = dg.remez_check(
            p, ((-1.0, 1.0),) * p.nvars, 0.05, 20_000, derive_seed(cfg.master_seed, "dg", "remez", i)
        )
        bad += 0 if res.ok else 1
    results.append(_item("discretized/remez", bad == 0, polynomials=polys, failures=bad))
    return results


def _suite_oppenheim(cfg: SuiteConfig) -> list[dict]:
    results = []
    t_list = [10, 100, 1000] if cfg.scale >= 1.0 else [5, 20, 100]
    curve = oppenheim.decay_curve(oppenheim.sqrt2_form(), 0.0, t_list)
    vals = [v for _, v in curve.rows]
    ok = (
        all(v > 0 for v in vals)
        and all(a >= b for a, b in zip(vals, vals[1:]))
        and all(not e.is_zero() for e in curve.exact_values)
    )
    results.append(
        _item(
            "oppenheim/sqrt2-decay",
            ok,
            rows=curve.rows,
            kappa=curve.kappa,
            exact=[str(e) for e in curve.exact_values],
        )
    )
    iso = oppenheim.search_min_value(oppenheim.isotropic_form(), 0.0, 10)
    results.append(
        _item("oppenheim/isotropic-control", iso.value_exact.is_zero(), best_v=list(iso.best_v))
    )
    return results


_SUITE_FUNCS = {
    "hypotheses": _suite_hypotheses,
    "generic-dim": _suite_generic_dim,
    "bl": _suite_bl,
    "discretized": _suite_discretized,
    "oppenheim": _suite_oppenheim,
}


def _error_site(exc: Exception) -> str:
    """Package-relative `file:line` of the innermost traceback frame inside repverify."""
    pkg = Path(__file__).resolve().parent
    frames = [f for f in traceback.extract_tb(exc.__traceback__) if Path(f.filename).resolve().parent == pkg]
    return f"{pkg.name}/{Path(frames[-1].filename).name}:{frames[-1].lineno}"


def _run_one(args: tuple[str, "SuiteConfig"]) -> list[dict]:
    name, cfg = args
    try:
        return _SUITE_FUNCS[name](cfg)
    except Exception as exc:  # precondition failures are recorded, not fatal
        return [
            _item(
                f"{name}/error",
                False,
                error=f"{type(exc).__name__}: {exc}",
                error_type=type(exc).__name__,
                error_at=_error_site(exc),
            )
        ]


def run_suite(cfg: SuiteConfig, jobs: int = 1) -> ExperimentReport:
    """Execute the named suite (or all of them); partial failures are recorded.

    With jobs > 1 the component suites of `all` fan out to worker processes;
    results are assembled in the fixed suite order either way, so the report
    is identical to a sequential run.
    """
    names = SUITES if cfg.suite == "all" else (cfg.suite,)
    report = ExperimentReport(cfg.suite, cfg.master_seed)
    start = time.monotonic()
    if jobs > 1 and len(names) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
            for chunk in pool.map(_run_one, [(name, cfg) for name in names]):
                report.results.extend(chunk)
    else:
        for name in names:
            report.results.extend(_run_one((name, cfg)))
    report.wall_clock_s = time.monotonic() - start
    return report


def emit_report(report: ExperimentReport, fmt: str = "json") -> str:
    """Serialize a report; JSON is the source of truth."""
    if fmt == "json":
        from . import __version__

        return json.dumps(
            {
                "suite": report.suite,
                "master_seed": report.master_seed,
                "tool_version": __version__,
                "passes": report.passes,
                "failures": report.failures,
                "hash": report.content_hash(),
                "wall_clock_s": round(report.wall_clock_s, 3),
                "results": report.results,
            },
            indent=2,
            sort_keys=True,
            default=str,
        )
    if fmt == "csv":
        lines = ["name,passed"]
        for r in report.results:
            lines.append(f"{r['name']},{int(r['passed'])}")
        return "\n".join(lines) + "\n"
    if fmt == "markdown-summary":
        lines = [
            f"# Suite `{report.suite}` (seed {report.master_seed})",
            "",
            f"{report.passes}/{len(report.results)} checks passed in {report.wall_clock_s:.1f} s.",
            "",
            "| check | result |",
            "| --- | --- |",
        ]
        for r in report.results:
            lines.append(f"| {r['name']} | {'pass' if r['passed'] else 'FAIL'} |")
        return "\n".join(lines) + "\n"
    raise UsageError(f"unknown report format {fmt!r}")
