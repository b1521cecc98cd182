"""Command-line entry points.

`repverify` runs named verification suites; `genericdim`, `bl`, `proj-exp`
and `oppenheim` expose the individual engines.  Exit codes: 0 all checks
passed, 1 verification failures, 2 usage or configuration errors.  One rule
covers every entry point: a malformed flag or file, an output path that
cannot be written, or an input an engine refuses exits 2 with one `error:`
line on stderr and no traceback.
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

# What reading a flag or a file can raise, then each engine's refusal of its input.
INPUT_ERRORS = (
    OSError, ValueError, TypeError, KeyError, ArithmeticError,
    UsageError, ConfigError, InvalidLevel, LinAlgError, generic.PreconditionError,
    bl_mod.InvalidExponent, bl_mod.CapExceeded, dg.SpecError, dg.SizeError, dg.HypothesisError,
    oppenheim.FormParseError, oppenheim.SignatureError, oppenheim.BudgetError, oppenheim.FitError,
)


def _check_outputs(*paths: str | None) -> None:
    """Refuse an output path with no directory, before any work is spent on its text."""
    for path in paths:
        if path and not Path(path).parent.is_dir():
            raise UsageError(f"cannot write {path}: no directory {Path(path).parent}")


def _run(body, *outs: str | None) -> int:
    """Check outs, run body and write each (text, path) it returns, or print it for path None;
    return body's exit code, or 2 after one `error:` line for any input error on the way."""
    try:
        _check_outputs(*outs)
        code, outputs = body()
        for text, path in outputs:
            if not path:
                print(text)
                continue
            try:
                Path(path).write_text(text)
            except OSError as exc:
                raise UsageError(f"cannot write {path}: {exc}") from exc
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def _rational(text: str, where: str) -> Fraction:
    """text as a Fraction, or a UsageError that starts with where, the flag it came in."""
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise UsageError(f"{where}: {text!r} has a zero denominator") from exc
    except ValueError as exc:
        raise UsageError(f"{where}: {text!r} is not a rational number") from exc


def parse_subspace(cfg, spec: str, flag: str) -> Subspace:
    """Subspace descriptors: flag:<mu>, weight:<mu>, or full; flag names the option read."""
    dec = weight_decompose(cfg)
    if spec == "full":
        return Subspace.full(cfg.n)
    kind, _, arg = spec.partition(":")
    if kind == "flag":
        return flag_projector(dec, _rational(arg, f"{flag} {spec}")).flag
    if kind == "weight":
        mu = _rational(arg, f"{flag} {spec}")
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

    def body():
        overrides = {}
        if args.config:
            overrides = json.loads(Path(args.config).read_text())
            if not isinstance(overrides, dict):
                raise UsageError(f"--config {args.config} does not hold a JSON object")
        seed = overrides.get("master_seed", args.seed)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise UsageError(f"--config {args.config}: \"master_seed\" must be an integer, got {seed!r}")
        scale = overrides.get("scale", args.scale)
        if isinstance(scale, bool) or not isinstance(scale, (int, float)):
            raise UsageError(f"--config {args.config}: \"scale\" must be a number, got {scale!r}")
        cfg = SuiteConfig(suite=overrides.get("suite", args.suite), master_seed=seed, scale=float(scale))
        out = overrides.get("out", args.out)
        if out is not None and not isinstance(out, str):
            raise UsageError(f"--config {args.config}: \"out\" must be a string or null, got {out!r}")
        _check_outputs(out)  # the config file may name the output, so it is checked here
        report = run_suite(cfg, jobs=args.jobs)
        return 0 if report.all_passed else 1, [(emit_report(report, args.format), out)]

    return _run(body)


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

    def body():
        cfg = build_config(args.config)
        w = parse_subspace(cfg, args.w, "--w")
        wp = parse_subspace(cfg, args.wprime, "--wprime")
        check = (
            generic.check_intersection_bound
            if args.check == "intersection"
            else generic.check_projection_bound
        )
        report = check(cfg, w, wp, args.trials, args.seed)
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
        return 0 if report.all_passed else 1, [(json.dumps(payload, indent=2, sort_keys=True), args.out)]

    return _run(body, args.out)


def bl_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bl")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_check = sub.add_parser("check")
    p_check.add_argument("--datum", required=True)
    p_check.add_argument("--out", default=None)
    p_est = sub.add_parser("estimate")
    p_est.add_argument("--datum", required=True)
    p_est.add_argument("--budget", type=int, default=5000)
    p_est.add_argument("--seed", type=int, default=1)
    p_est.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    def body():
        try:
            datum = bl_mod.datum_from_json(json.loads(Path(args.datum).read_text()))
        except INPUT_ERRORS as exc:
            raise UsageError(f"cannot load datum: {exc}") from exc
        if args.cmd == "check":
            cert = bl_mod.check_feasibility(datum)
            payload = {
                "scaling_ok": cert.scaling_ok,
                "status": cert.status,
                "lattice_size": cert.lattice_size,
                "witness": subspace_to_json(cert.witness) if cert.witness else None,
                "lift": {"N": cert.lift[0], "seed": cert.lift[1]} if cert.lift else None,
            }
            return 0 if cert.feasible_so_far else 1, [(json.dumps(payload, indent=2, sort_keys=True), args.out)]
        est = bl_mod.estimate_bl_constant(datum, args.budget, args.seed)
        payload = {
            "lower_bound_variational": est.lower_bound_variational if math.isfinite(est.lower_bound_variational) else None,
            "lower_bound_gaussian": est.lower_bound_gaussian if math.isfinite(est.lower_bound_gaussian) else None,
            "iterations": est.iterations,
            "converged": est.converged,
            "bl_infinite": est.bl_infinite,
            "cause": est.cause,
        }
        return 0, [(json.dumps(payload, indent=2, sort_keys=True), args.out)]

    return _run(body, args.out)


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

    def body():
        cfg = build_config(args.config)
        mu = _rational(args.mu, "--mu")
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
        payload = {
            "params": rep.params,
            "num_u": rep.num_u,
            "exceptional_fraction": rep.exceptional_fraction,
            "threshold": rep.threshold,
            "covering_threshold": rep.covering_threshold,
            "within_bound": rep.within_bound,
        }
        outputs = [(json.dumps(payload, indent=2, sort_keys=True), args.out)]
        if args.csv:
            lines = ["u_coords,covering,exceptional"]
            for coords, cover, bad in rep.per_u:
                lines.append(f"\"{' '.join(f'{c:.6f}' for c in coords)}\",{cover},{int(bad)}")
            outputs.append(("\n".join(lines) + "\n", args.csv))
        return 0 if rep.within_bound else 1, outputs

    return _run(body, args.out, args.csv)


def oppenheim_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="oppenheim")
    parser.add_argument("--form", required=True, help='e.g. "x1^2+x2^2-sqrt2*x3^2"')
    parser.add_argument("--s", type=float, default=0.0)
    parser.add_argument("--T", type=int, required=True)
    parser.add_argument("--decay", action="store_true", help="run the T/100, T/10, T curve")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    def body():
        form = oppenheim.parse_form(args.form)
        if args.decay:
            if args.T < 4:  # below 4 the bounds are not three distinct values up to T
                raise UsageError(f"--decay needs --T >= 4, got {args.T}")
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
        return 0, [(json.dumps(payload, indent=2, sort_keys=True), args.out)]

    return _run(body, args.out)


if __name__ == "__main__":
    sys.exit(main())
