"""Command-line entry points.

`repverify` runs named verification suites; `genericdim`, `bl`, `proj-exp`
and `oppenheim` expose the individual engines.  Exit codes: 0 all checks
passed, 1 verification failures, 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import brascamp_lieb as bl_mod
from . import discretized as dg
from . import generic, oppenheim
from .harness import SUITES, SuiteConfig, UsageError, emit_report, run_suite
from .qlinalg import LinAlgError, Subspace, subspace_to_json
from .reps import ConfigError, InvalidLevel, build_config, flag_projector, weight_decompose


def _outputs_missing(*paths: str | None) -> bool:
    """True, after printing an error, when the directory of an output path does
    not exist, so that no work is spent on a result that cannot be written."""
    for path in paths:
        if path and not Path(path).parent.is_dir():
            print(f"error: cannot write {path}: no directory {Path(path).parent}", file=sys.stderr)
            return True
    return False


def _write_out(text: str, out: str | None, code: int) -> int:
    """Write text to out, or print it; code, or 2 if out cannot be written."""
    if not out:
        print(text)
        return code
    try:
        Path(out).write_text(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 2
    return code


def parse_subspace(cfg, spec: str) -> Subspace:
    """Subspace descriptors: flag:<mu>, weight:<mu>, or full."""
    dec = weight_decompose(cfg)
    if spec == "full":
        return Subspace.full(cfg.n)
    kind, _, arg = spec.partition(":")
    if kind == "flag":
        return flag_projector(dec, Fraction(arg)).flag
    if kind == "weight":
        mu = Fraction(arg)
        for lam, basis in zip(dec.eigenvalues, dec.eigenbases):
            if lam == mu:
                return basis
        raise UsageError(f"{mu} is not an eigenvalue of {cfg.name}")
    raise UsageError(f"bad subspace descriptor {spec!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repverify", description=__doc__)
    sub = parser.add_subparsers(dest="suite", required=True)
    for name in SUITES + ("all",):
        p = sub.add_parser(name, help=f"run the {name} suite")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--scale", type=float, default=1.0, help="trial-count multiplier")
        p.add_argument("--jobs", type=int, default=1, help="parallel workers for the all suite")
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv", "markdown-summary"), default="json")
        p.add_argument("--config", default=None, help="JSON file overriding the flags")
    args = parser.parse_args(argv)
    try:
        overrides = {}
        if args.config:
            overrides = json.loads(Path(args.config).read_text())
            if not isinstance(overrides, dict):
                raise UsageError(f"--config {args.config} does not hold a JSON object")
        cfg = SuiteConfig(
            suite=overrides.get("suite", args.suite),
            master_seed=int(overrides.get("master_seed", args.seed)),
            scale=float(overrides.get("scale", args.scale)),
        )
        out = overrides.get("out", args.out)
    except (UsageError, json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if _outputs_missing(out):
        return 2
    report = run_suite(cfg, jobs=args.jobs)
    return _write_out(emit_report(report, args.format), out, 0 if report.all_passed else 1)


def genericdim_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="genericdim")
    parser.add_argument("--config", required=True, help="e.g. so_pq:2,1")
    parser.add_argument("--w", required=True, help="flag:<mu> | weight:<mu> | full")
    parser.add_argument("--wprime", required=True)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--check", choices=("intersection", "projection"), default="intersection")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if _outputs_missing(args.out):
        return 2
    try:
        cfg = build_config(args.config)
        w = parse_subspace(cfg, args.w)
        wp = parse_subspace(cfg, args.wprime)
    except (ConfigError, InvalidLevel, UsageError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    check = (
        generic.check_intersection_bound
        if args.check == "intersection"
        else generic.check_projection_bound
    )
    try:
        report = check(cfg, w, wp, args.trials, args.seed)
    except generic.PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {
        "config": args.config,
        "W": subspace_to_json(w),
        "W'": subspace_to_json(wp),
        "check": args.check,
        "trials": report.trials,
        "passes": report.passes,
        "histogram": {str(k): v for k, v in sorted(report.dimension_histogram.items())},
        "failures": [
            {"seed": seed, "recipe": [[i, str(t)] for i, t in recipe]}
            for seed, recipe in report.witness_failures
        ],
    }
    return _write_out(json.dumps(payload, indent=2, sort_keys=True), args.out, 0 if report.all_passed else 1)


def bl_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bl")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_check = sub.add_parser("check")
    p_check.add_argument("--datum", required=True)
    p_check.add_argument("--mode", choices=("lattice", "coordinate_exhaustive"), default="lattice")
    p_check.add_argument("--out", default=None)
    p_est = sub.add_parser("estimate")
    p_est.add_argument("--datum", required=True)
    p_est.add_argument("--budget", type=int, default=5000)
    p_est.add_argument("--seed", type=int, default=1)
    p_est.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if _outputs_missing(args.out):
        return 2
    try:
        datum = bl_mod.datum_from_json(json.loads(Path(args.datum).read_text()))
    except (OSError, ValueError, KeyError, TypeError, bl_mod.InvalidExponent, LinAlgError) as exc:
        print(f"error: cannot load datum: {exc}", file=sys.stderr)
        return 2
    try:
        if args.cmd == "check":
            cert = bl_mod.check_feasibility(datum, args.mode)
        else:
            est = bl_mod.estimate_bl_constant(datum, args.budget, args.seed)
    except (bl_mod.CapExceeded, bl_mod.InvalidExponent, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.cmd == "check":
        payload = {
            "scaling_ok": cert.scaling_ok,
            "status": cert.status,
            "lattice_size": cert.lattice_size,
            "random_checks": cert.random_checks,
            "witness": subspace_to_json(cert.witness) if cert.witness else None,
            "lift": {"N": cert.lift[0], "seed": cert.lift[1]} if cert.lift else None,
        }
        return _write_out(json.dumps(payload, indent=2, sort_keys=True), args.out, 0 if cert.feasible_so_far else 1)
    payload = {
        "lower_bound_variational": est.lower_bound_variational if math.isfinite(est.lower_bound_variational) else None,
        "lower_bound_gaussian": est.lower_bound_gaussian if math.isfinite(est.lower_bound_gaussian) else None,
        "iterations": est.iterations,
        "converged": est.converged,
        "bl_infinite": est.bl_infinite,
        "cause": est.cause,
    }
    return _write_out(json.dumps(payload, indent=2, sort_keys=True), args.out, 0)


def proj_exp_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="proj-exp")
    parser.add_argument("--config", required=True)
    parser.add_argument("--fractal", required=True, help="e.g. weight_aligned:1,1,0.5,0,0")
    parser.add_argument("--mu", default="0")
    parser.add_argument("--delta", type=int, required=True, help="scale exponent s for delta = 2^-s")
    parser.add_argument("--epsilon", type=float, default=0.05)
    parser.add_argument("--m-exponent", type=float, default=2.0)
    parser.add_argument("--num-u", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("subcritical", "supercritical"), default="subcritical")
    parser.add_argument("--out", default=None)
    parser.add_argument("--csv", default=None, help="optional per-u CSV path")
    args = parser.parse_args(argv)
    if _outputs_missing(args.out, args.csv):
        return 2
    try:
        cfg = build_config(args.config)
        mu = Fraction(args.mu)
    except (ConfigError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        fractal = dg.generate_fractal(args.fractal, seed=args.seed)
        rep = dg.projection_experiment(
            cfg,
            fractal,
            mu,
            2.0**-args.delta if args.delta > -1024 else math.inf,  # 2^1024 overflows; inf fails like 0.0
            args.epsilon,
            args.m_exponent,
            args.num_u,
            args.seed,
            args.mode,
        )
    except (ConfigError, InvalidLevel, dg.SpecError, dg.HypothesisError, dg.SizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {
        "params": rep.params,
        "num_u": rep.num_u,
        "exceptional_fraction": rep.exceptional_fraction,
        "threshold": rep.threshold,
        "covering_threshold": rep.covering_threshold,
        "within_bound": rep.within_bound,
    }
    code = _write_out(json.dumps(payload, indent=2, sort_keys=True), args.out, 0 if rep.within_bound else 1)
    if args.csv and code != 2:
        lines = ["u_coords,covering,exceptional"]
        for coords, cover, bad in rep.per_u:
            lines.append(f"\"{' '.join(f'{c:.6f}' for c in coords)}\",{cover},{int(bad)}")
        code = _write_out("\n".join(lines) + "\n", args.csv, code)
    return code


def oppenheim_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="oppenheim")
    parser.add_argument("--form", required=True, help='e.g. "x1^2+x2^2-sqrt2*x3^2"')
    parser.add_argument("--s", type=float, default=0.0)
    parser.add_argument("--T", type=int, required=True)
    parser.add_argument("--decay", action="store_true", help="run the T/100, T/10, T curve")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if _outputs_missing(args.out):
        return 2
    try:
        form = oppenheim.parse_form(args.form)
        if args.decay:
            t_list = sorted({max(2, args.T // 100), max(3, args.T // 10), args.T})
            curve = oppenheim.decay_curve(form, args.s, t_list)
            payload = {
                "form": args.form,
                "s": args.s,
                "rows": curve.rows,
                "kappa": None if curve.kappa == float("inf") else curve.kappa,
                "exact_values": [str(e) for e in curve.exact_values],
            }
        else:
            res = oppenheim.search_min_value(form, args.s, args.T)
            payload = {
                "form": args.form,
                "s": args.s,
                "T": args.T,
                "best_v": list(res.best_v),
                "best_value": res.best_value,
                "value_exact": str(res.value_exact),
            }
    except (oppenheim.FormParseError, oppenheim.SignatureError, oppenheim.BudgetError, oppenheim.FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _write_out(json.dumps(payload, indent=2, sort_keys=True), args.out, 0)


if __name__ == "__main__":
    sys.exit(main())
