"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed through
`harness.derive_seed`, runs batches of verdict operations, checks the
invariant of every verdict, and afterwards (outside the timed phase) runs an
independent oracle on what it ran.  A failed op is one whose verdict
contradicts its invariant or its oracle; an op that raises stops the run.

Interface, used by `worker.py`:

- `setup()` does the work a user pays before the first verdict;
- a batch is `PARTS` parts; `run_part(batch, part)` runs one and returns a
  `PartResult` (ops, failed ops, deterministic counts);
- `oracle()` returns one line per mismatch found in the parts this process ran;
- `probes()` times kernel calls on the workload's own data (traced run only);
- `layer_metrics(tracer, batch_mark)` derives per-layer numbers from the spans.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from repverify import brascamp_lieb as bl
from repverify import discretized as dg
from repverify import generic, harness, oppenheim, qlinalg, reps


@dataclass
class PartResult:
    ops: int = 0
    failed: int = 0
    counts: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


def median(values, scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def _entry_bits(m: qlinalg.Mat) -> int:
    return max(max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for x in m.entries)


def _sympy_matrix(m: qlinalg.Mat):
    """The same rationals as a sympy domain matrix, for arithmetic independent of qlinalg."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    rows = [[QQ(x.numerator, x.denominator) for x in m.row(i)] for i in range(m.rows)]
    return DomainMatrix(rows, (m.rows, m.cols), QQ)


def _sympy_deficit(datum: bl.BLDatum, u: qlinalg.Subspace) -> Fraction:
    """dim U - sum p_j dim B_j(U) with sympy ranks; positive means infeasible."""
    ub = _sympy_matrix(u.basis)
    covered = sum(
        (p * _sympy_matrix(m.matrix).matmul(ub).rank() for p, m in zip(datum.exponents, datum.maps)), Fraction(0)
    )
    return u.dim - covered


class Workload:
    name = ""
    PARTS = 1
    # Seconds of --seconds one batch is charged: a run times
    # --seconds // SECONDS_PER_BATCH batches (at least one).  Set a little
    # above the batch's length on the 2-core host the benchmark was tuned on,
    # so that a run's set-ups and oracles stay within its time budget too.
    SECONDS_PER_BATCH = 6.0

    def __init__(self, seed: int):
        self.seed = seed
        self.details: list = []  # what the parts run so far produced, for the oracle and probes

    def derive(self, op: str, index: int = 0) -> int:
        return harness.derive_seed(self.seed, f"bench.{self.name}", op, index)

    def probes(self) -> dict:
        return {}


# --- exact-mc ----------------------------------------------------------------------


class ExactMC(Workload):
    """Exact Monte Carlo checks of the generic bounds at n = 5, 5, 9, 14."""

    name = "exact-mc"
    # (config, exact trials per flag pair and projection check, spanning trials per flag)
    PLAN = (("so_pq:2,1", 4, 2), ("sl2_sym:4", 4, 2), ("so_pq:2,2", 2, 1), ("so_pq:3,2", 1, 1))

    def setup(self):
        self.configs = []
        for name, trials, span_trials in self.PLAN:
            rc = reps.build_config(name)
            verdict = reps.check_irreducible(rc)
            if not verdict.is_absolutely_irreducible:
                raise RuntimeError(f"{name} is not certified irreducible")
            dec = reps.weight_decompose(rc)
            flags = [reps.flag_projector(dec, mu).flag for mu in dec.eigenvalues[1:]]
            self.configs.append((rc, flags, trials, span_trials))

    def run_part(self, batch: int, part: int) -> PartResult:
        out = PartResult()
        peak_bits = 0
        witnesses = 0
        for rc, flags, trials, span_trials in self.configs:
            seed = self.derive(f"{rc.name}/intersection", batch)
            elements = generic.sample_elements(rc, seed, trials)
            peak_bits = max(peak_bits, max(_entry_bits(el.matrix) for el in elements))
            hists = {}
            for i, w in enumerate(flags):
                for j, wp in enumerate(flags):
                    rep = generic.check_intersection_bound(rc, w, wp, trials, seed, elements=elements)
                    out.ops += rep.trials
                    out.failed += rep.trials - rep.passes
                    witnesses += len(rep.witness_failures)
                    hists[(i, j)] = (dict(rep.dimension_histogram), list(rep.witness_failures))
            prep = generic.check_projection_bound(
                rc, flags[0], flags[-1], trials, self.derive(f"{rc.name}/projection", batch)
            )
            out.ops += prep.trials
            out.failed += prep.trials - prep.passes
            witnesses += len(prep.witness_failures)
            for w in flags:
                q, k_list = generic.find_spanning_q(rc, w, span_trials, self.derive(f"{rc.name}/spanning", batch))
                out.ops += span_trials
                if sum(k_list) != q * w.dim - rc.n or any(k >= w.dim for k in k_list):
                    out.failed += span_trials
                    out.notes.append(f"{rc.name}: spanning identity fails for dim W = {w.dim}")
            self.details.append((rc, flags, elements, hists, list(prep.witness_failures)))
        out.counts = {"generic.trials": out.ops, "generic.witnesses": witnesses, "qlinalg.peak_entry_bits": peak_bits}
        return out

    def oracle(self) -> list[str]:
        """sympy recomputes every trial of three flag pairs per config; every
        witness recipe and each config's first element replay exactly."""
        bad = []
        rng = random.Random(self.derive("oracle"))
        for rc, flags, elements, hists, proj_witnesses in self.details:
            last = len(flags) - 1
            pairs = {(0, last), (last, 0), (rng.randrange(len(flags)), rng.randrange(len(flags)))}
            mats = [_sympy_matrix(el.matrix) for el in elements]
            for i, j in sorted(pairs):
                w, wp = flags[i], flags[j]
                wb, wpb = _sympy_matrix(w.basis), _sympy_matrix(wp.basis)
                hist: dict[int, int] = {}
                for h in mats:
                    dim = w.dim + wp.dim - h.matmul(wb).hstack(wpb).rank()
                    hist[dim] = hist.get(dim, 0) + 1
                if hist != hists[(i, j)][0]:
                    bad.append(f"{rc.name} flags ({i},{j}): sympy {hist} != qlinalg {hists[(i, j)][0]}")
            if generic.replay_recipe(rc, elements[0].recipe) != elements[0].matrix:
                bad.append(f"{rc.name}: element recipe does not replay")
            for (i, j), (_, witnesses) in hists.items():
                for _seed, recipe in witnesses:
                    h = _sympy_matrix(generic.replay_recipe(rc, recipe))
                    w, wp = flags[i], flags[j]
                    dim = w.dim + wp.dim - h.matmul(_sympy_matrix(w.basis)).hstack(_sympy_matrix(wp.basis)).rank()
                    if dim * rc.n <= w.dim * wp.dim:
                        bad.append(f"{rc.name}: witness for flags ({i},{j}) does not violate the bound")
            w, wp = flags[0], flags[-1]
            for _seed, recipe in proj_witnesses:
                h = _sympy_matrix(generic.replay_recipe(rc, recipe))
                hw = h.matmul(_sympy_matrix(w.basis))
                if hw.transpose().matmul(_sympy_matrix(wp.basis)).rank() * rc.n >= w.dim * wp.dim:
                    bad.append(f"{rc.name}: projection witness does not violate the bound")
        return bad

    def probes(self) -> dict:
        """Median rank / intersect / nilpotent_exp over the batch's matrices, per n."""
        out = {}
        by_n = {}
        for rc, flags, elements, _, _ in self.details:
            by_n.setdefault(rc.n, (rc, flags, elements))
        for n, (rc, flags, elements) in by_n.items():
            tw = [generic.translate(el.matrix, flags[1]) for el in elements]
            gens = [rc.h_basis[idx].scale(t) for el in elements for idx, t in el.recipe][:12]
            rank_t, inter_t, exp_t = [], [], []
            for _ in range(max(1, 6 // len(elements))):
                for el, hw in zip(elements, tw):
                    t0 = time.perf_counter()
                    qlinalg.rank(el.matrix)
                    t1 = time.perf_counter()
                    qlinalg.subspace_intersect(hw, flags[-2])
                    t2 = time.perf_counter()
                    rank_t.append(t1 - t0)
                    inter_t.append(t2 - t1)
            for g in gens:
                t0 = time.perf_counter()
                qlinalg.nilpotent_exp(g)
                exp_t.append(time.perf_counter() - t0)
            out[f"qlinalg.rank_ms.n{n}"] = median(rank_t, 1e3)
            out[f"qlinalg.intersect_ms.n{n}"] = median(inter_t, 1e3)
            out[f"qlinalg.nilpotent_exp_ms.n{n}"] = median(exp_t, 1e3)
        return out

    def layer_metrics(self, tracer, batch_mark: int) -> dict:
        out = {}
        trials_by_n = {rc.n: trials for rc, _, trials, _ in self.configs}
        for n, trials in trials_by_n.items():
            out[f"generic.sample_ms.n{n}"] = median(tracer.durations(f"generic.sample_element.n{n}", batch_mark), 1e3)
            out[f"generic.intersection_trial_ms.n{n}"] = median(
                tracer.durations(f"generic.check_intersection_bound.n{n}", batch_mark), 1e3 / trials
            )
        proj = []
        for n, trials in trials_by_n.items():
            proj += [d / trials for d in tracer.durations(f"generic.check_projection_bound.n{n}", batch_mark)]
        out["generic.projection_trial_ms"] = median(proj, 1e3)
        out["generic.spanning_run_ms"] = median(tracer.durations("generic.find_spanning_q", batch_mark), 1e3)
        return out


# --- bl-corpus ---------------------------------------------------------------------


def _stuffed(d: bl.BLDatum) -> bl.BLDatum:
    """The same maps with a common kernel line e_n: always infeasible."""
    proj = qlinalg.Mat.diagonal([Fraction(1)] * (d.n - 1) + [Fraction(0)])
    return bl.BLDatum(d.n, tuple(bl.BLMap(m.n_j, m.matrix @ proj) for m in d.maps), d.exponents)


class BLCorpus(Workload):
    """Criterion 7 shape: feasible/stuffed pairs plus the three classical data."""

    name = "bl-corpus"
    SECONDS_PER_BATCH = 20.0
    # (config, flag level or None for the coordinate plane, group elements)
    PLAN = (("so_pq:2,1", 2, 5), ("sp2n:2", 3, 5), ("sl2_sym:2", 2, 3), ("sl2_sym:4", 4, 5), ("tensor_std:2,2", None, 3))
    BUDGET = 200  # the `bl` suite's budget at scale 1
    PAIR_RESTARTS = 2

    def setup(self):
        # (label, datum, expected verdict, estimator restarts or None for the default)
        self.corpus = []
        self.replaced = []  # (label, datum, violated certificate) of draws replaced as infeasible
        for idx, (name, mu, m) in enumerate(self.PLAN):
            rc = reps.build_config(name)
            datum, stuffed = self._pair(rc, idx, mu, m)
            self.corpus.append((f"{name}/generic", datum, "agree", self.PAIR_RESTARTS))
            self.corpus.append((f"{name}/stuffed", stuffed, "infeasible", self.PAIR_RESTARTS))
        self.corpus.append(("holder", bl.holder_datum(3, 2), "exact", None))
        self.corpus.append(("loomis_whitney", bl.loomis_whitney_datum(), "exact", None))
        violating = bl.BLDatum(2, (bl.BLMap(1, qlinalg.Mat.from_rows([[1, 0]])),), (Fraction(2),))
        self.corpus.append(("violating", violating, "infeasible", None))
        self.peak_bits = max(_entry_bits(m.matrix) for _, d, _, _ in self.corpus for m in d.maps)
        self.PARTS = len(self.corpus)

    def _pair(self, rc, idx: int, mu, m: int) -> tuple[bl.BLDatum, bl.BLDatum]:
        """A feasible datum from height-5 elements and its stuffed twin.

        Height-5 draws are sometimes degenerate: a rank-one map can be killed
        by the stuffing projection (BLDatum rejects it as not surjective), or
        the lattice certificate finds the datum infeasible.  Such a draw is
        replaced by the next seed in a fixed sequence; the oracle confirms
        every infeasibility witness behind a replacement with sympy.
        """
        for attempt in range(100):
            els = tuple(generic.sample_elements(rc, self.derive(f"corpus/{idx}", attempt), m, height=5))
            if mu is None:
                plane = qlinalg.Subspace.from_columns(4, [[1, 0, 0, 0], [0, 0, 1, 0]])
                datum = bl.build_datum_from_rep(rc, els, w=plane)
            else:
                datum = bl.build_datum_from_rep(rc, els, mu=mu)
            try:
                stuffed = _stuffed(datum)
            except ValueError:
                continue
            cert = bl.check_feasibility(datum, "lattice")
            if cert.status == "violated":
                self.replaced.append((f"{rc.name}/draw {attempt}", datum, cert))
                continue
            return datum, stuffed
        raise RuntimeError(f"no valid feasible datum for {rc.name}")

    def run_part(self, batch: int, part: int) -> PartResult:
        """One datum of the corpus: certified, estimated, verdicts checked."""
        out = PartResult(ops=1)
        label, datum, expect, restarts = self.corpus[part]
        cert = bl.check_feasibility(datum, "lattice")
        seed = self.derive(f"estimate/{label}", batch)
        if restarts is None:
            est = bl.estimate_bl_constant(datum, self.BUDGET, seed)
        else:
            est = bl.estimate_bl_constant(datum, self.BUDGET, seed, restarts=restarts)
        agree = cert.feasible_so_far == (not est.bl_infinite)
        ok = agree
        if expect == "infeasible":
            ok = ok and cert.status == "violated" and est.bl_infinite
        elif expect == "exact":
            ok = ok and cert.feasible_so_far and min(est.lower_bound_variational, est.lower_bound_gaussian) >= 0.999
        if not ok:
            out.failed = 1
            out.notes.append(f"{label}: {cert.status}, bl_infinite={est.bl_infinite}")
        out.counts = {
            "brascamp_lieb.lattice_size": cert.lattice_size,
            "brascamp_lieb.iterations": est.iterations,
            "brascamp_lieb.converged": int(est.converged),
            "brascamp_lieb.agreements": int(agree),
            "qlinalg.peak_entry_bits": self.peak_bits,
        }
        self.details.append((label, datum, cert))
        return out

    def oracle(self) -> list[str]:
        """Exact scaling condition for every datum; every violation witness,
        also those behind replaced draws, recomputed with sympy ranks."""
        bad = []
        for label, datum, cert in self.details + self.replaced:
            if sum((p * m.n_j for p, m in zip(datum.exponents, datum.maps)), Fraction(0)) != datum.n:
                bad.append(f"{label}: scaling condition fails")
            if cert.status == "violated" and _sympy_deficit(datum, cert.witness) <= 0:
                bad.append(f"{label}: violation witness has no positive deficit")
        return bad

    def layer_metrics(self, tracer, batch_mark: int) -> dict:
        lattice_ops = tracer.durations("qlinalg.subspace_sum", batch_mark) + tracer.durations(
            "qlinalg.subspace_intersect", batch_mark
        )
        return {"qlinalg.lattice_op_ms": median(lattice_ops, 1e3)}


# --- projection --------------------------------------------------------------------


def _unipotent_image_cover(rc, points: "np.ndarray", coeffs, flag_idx, delta: float) -> int:
    """Covering number of one projected u-translate, counted by sorting whole
    key rows (lexsort) instead of the program's packed-key np.unique."""
    import numpy as np

    gens = [np.array(rc.h_basis[i].to_float_rows()) for i in rc.u_plus_indices]
    x = sum(t * g for t, g in zip(coeffs, gens))
    mat = np.eye(rc.n)
    term = np.eye(rc.n)
    for k in range(1, rc.n + 1):
        term = term @ x / k
        mat += term
    image = (mat @ points.T)[flag_idx].T
    keys = np.floor(image / delta).astype(np.int64)
    rows = keys[np.lexsort(keys.T)]
    return 1 + int(np.count_nonzero(np.any(rows[1:] != rows[:-1], axis=1)))


class Projection(Workload):
    """Criterion 9 and 8 shapes: covering counts of 2^20 points, Frostman sets."""

    name = "projection"
    SUB_U = 2  # sampled u per batch on the weight-aligned set at delta = 2^-10
    CTRL_U = 2  # sampled u per batch on the full-grid control at delta = 2^-4
    FROSTMAN_SETS = 15

    def setup(self):
        self.rc = reps.build_config("so_pq:2,1")
        self.fractal = dg.generate_fractal(dg.WeightAligned((1, 1, 0.5, 0, 0)))
        self.control = dg.generate_fractal(dg.FullGrid(5, 4))
        rng = random.Random(self.derive("frostman-sets"))
        self.sets = []
        for i in range(self.FROSTMAN_SETS):
            kind = i % 5
            if kind == 0:
                spec = dg.FullGrid(1, rng.randint(4, 7))
            elif kind == 1:
                spec = dg.ProductCantor(((3, (0, 2), rng.randint(4, 7)),))
            elif kind == 2:
                spec = dg.RandomSubset(2, rng.randint(3, 5), rng.uniform(0.2, 0.8))
            elif kind == 3:
                spec = dg.WeightAligned((1, rng.choice((0.25, 0.5, 0.75)), 0.5), level_scale=4)
            else:
                spec = dg.ProductCantor(((2, (0, 1), rng.randint(4, 6)), (4, (0, 3), 3)))
            self.sets.append(dg.generate_fractal(spec, seed=self.derive("frostman-set", i)))

    def run_part(self, batch: int, part: int) -> PartResult:
        out = PartResult()
        sub = dg.projection_experiment(
            self.rc, self.fractal, 0, 2**-10, 0.05, 2.0, self.SUB_U, self.derive("subcritical", batch)
        )
        ctrl = dg.projection_experiment(
            self.rc, self.control, 0, 2**-4, 0.05, 2.0, self.CTRL_U, self.derive("control", batch)
        )
        sub_bad = sum(bad for _, _, bad in sub.per_u)
        ctrl_bad = sum(bad for _, _, bad in ctrl.per_u)
        out.ops += sub.num_u + ctrl.num_u
        if not sub.within_bound:
            out.failed += sub_bad
            out.notes.append(f"subcritical fraction {sub.exceptional_fraction} > {sub.threshold}")
        if ctrl_bad:
            out.failed += ctrl_bad
            out.notes.append(f"full-grid control has {ctrl_bad} exceptional u")
        for ps in self.sets:
            ok = all(
                dg.frostman_energy_bound_check(ps, 2**-8, alpha, beta)
                for alpha, beta in ((1.0, 0.5), (2.5, 2.0))
                if alpha <= ps.ambient
            )
            out.ops += 1
            if not ok:
                out.failed += 1
                out.notes.append(f"frostman bound fails on {ps.provenance}")
        out.counts = {"discretized.exceptional_count": sub_bad + ctrl_bad}
        self.details.append((sub, ctrl))
        return out

    def oracle(self) -> list[str]:
        bad = []
        dec = reps.weight_decompose(self.rc)
        flag_idx = [i for i in range(self.rc.n) if reps.flag_projector(dec, 0).projector.at(i, i) == 1]
        for sub, ctrl in self.details:
            for rep, ps, delta in ((sub, self.fractal, 2**-10), (ctrl, self.control, 2**-4)):
                coeffs, cover, _ = rep.per_u[0]
                again = _unipotent_image_cover(self.rc, ps.points, coeffs, flag_idx, delta)
                if again != cover:
                    bad.append(f"{ps.provenance}: cover {cover} != recount {again}")
        return bad

    def layer_metrics(self, tracer, batch_mark: int) -> dict:
        per_u = []
        for idx in tracer.spans_of("discretized.projection_experiment", batch_mark)[:1]:
            busy = tracer.end[idx] - tracer.start[idx] - tracer.child_time(idx, "discretized.covering_number")
            per_u.append(busy / self.SUB_U)
        u_s = median(per_u)
        return {
            "discretized.generate_s": median(tracer.durations("discretized.generate_fractal")[:2]),
            "discretized.covering_ms": median(tracer.durations("discretized.covering_number", batch_mark), 1e3),
            "discretized.projection_u_ms": u_s * 1e3,
            "discretized.points_per_s": self.fractal.size / u_s if u_s else 0.0,
            "discretized.frostman_ms": median(
                tracer.durations("discretized.frostman_energy_bound_check", batch_mark), 1e3
            ),
        }


# --- suites ------------------------------------------------------------------------


def _sympy_quad(text: str):
    """'a+b*sqrt2' as an exact sympy number."""
    import sympy

    a, b = text.split("+", 1)
    b, d = b.split("*sqrt")
    return sympy.Rational(a) + sympy.Rational(b) * sympy.sqrt(int(d))


class Suites(Workload):
    """Every harness suite at scale 1, in the order scripts/run_all_suites.py uses.

    The suites run at the documented default master seed 0 whatever the
    benchmark seed: the `bl` suite errors out on about one master seed in
    seven (its stuffed corpus datum can have a non-surjective map), and a
    workload must not fail.  Seed-varied shapes of the same code are the
    other three workloads.
    """

    name = "suites"
    MASTER_SEED = 0
    PARTS = len(harness.SUITES)
    SECONDS_PER_BATCH = 26.0

    def setup(self):
        self.suites = tuple(harness.SUITES)

    def run_part(self, batch: int, part: int) -> PartResult:
        """One suite, run and emitted as JSON and markdown."""
        report = harness.run_suite(
            harness.SuiteConfig(self.suites[part], master_seed=self.MASTER_SEED, scale=1.0), jobs=1
        )
        harness.emit_report(report, "json")
        harness.emit_report(report, "markdown-summary")
        out = PartResult(ops=len(report.results), failed=report.failures)
        out.notes = [f"{r['name']} failed" for r in report.results if not r["passed"]]
        out.counts = {f"harness.hash.{report.suite}": report.content_hash()}
        self.details.append(report)
        return out

    def oracle(self) -> list[str]:
        """Oppenheim minima re-evaluated in sympy with exact sqrt(2)."""
        import sympy

        bad = []
        if not any(rep.suite == "oppenheim" for rep in self.details):
            return []
        rows = {r["name"]: r for rep in self.details for r in rep.results}
        decay = rows.get("oppenheim/sqrt2-decay")
        if decay is None:
            return ["oppenheim/sqrt2-decay row missing"]
        exact = [_sympy_quad(e) for e in decay["exact"]]
        t_list = [t for t, _ in decay["rows"]]
        for (t, val), e in zip(decay["rows"], exact):
            # The reported float sums a and b*sqrt2 in double precision, so it
            # carries rounding error relative to the size of those terms.
            rational, terms = e.as_coeff_add()
            size = float(abs(rational) + sum(abs(x) for x in terms))
            if e == 0 or abs(float(abs(e)) - val) > 64 * sys.float_info.epsilon * size:
                bad.append(f"T={t}: exact {e} does not match reported {val}")
        for x, y in zip(exact, exact[1:]):
            if not (sympy.Abs(x) - sympy.Abs(y)).is_nonnegative:
                bad.append(f"minima not monotone: {x} then {y}")
        q, sqrt2 = oppenheim.sqrt2_form(), sympy.sqrt(2)
        for t, e in zip(t_list, exact):
            if t > 100:
                continue
            v = oppenheim.search_min_value(q, 0.0, t).best_v
            value = v[0] ** 2 + v[1] ** 2 - sqrt2 * v[2] ** 2
            if sympy.expand(value**2 - e**2) != 0:
                bad.append(f"T={t}: Q{v} = {value} but the curve reports {e}")
        return bad

    def layer_metrics(self, tracer, batch_mark: int) -> dict:
        out = {f"harness.suite_s.{r.suite}": r.wall_clock_s for r in self.details}
        out["harness.emit_ms"] = median(tracer.durations("harness.emit_report", batch_mark), 1e3)
        out["oppenheim.scan_s"] = median(tracer.durations("oppenheim.decay_curve", batch_mark))
        out["oppenheim.isotropic_s"] = median(tracer.durations("oppenheim.search_min_value", batch_mark))
        return out


WORKLOADS = {cls.name: cls for cls in (ExactMC, BLCorpus, Projection, Suites)}
