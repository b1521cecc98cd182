#!/usr/bin/env python3
"""repverify benchmark: one workload at one seed, end to end or traced per layer.

Run from the root of the repository:

    python3 benchmark/run.py --workload exact-mc --seed 0 --seconds 15 --trace 0

With --trace 0 it starts the workload in three fresh single-threaded
processes, one at a time.  Each sets up, then times every third part of the
run's batches (a batch is one or more parts; --seconds sets how many batches
run), so each batch is timed in pieces spread over the run.  It prints
setup_s (median of the three set-ups), wall_s (mean batch), ops_per_s,
peak_rss_mb and failed_frac with their units.  Times are scaled to a fixed
reference speed (see at_reference_speed); the unscaled ones are printed too.

With --trace 1 it times batch 0 twice, untraced and with every layer wrapped
in spans, refuses to report if their deterministic counts differ, and prints
the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Full results, the machine description and the spans go
to .bench_out/ in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("exact-mc", "bl-corpus", "projection", "suites")
# Pinned before numpy is imported in any workload process.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
PROCESSES = 3  # fresh processes per end-to-end run; setup_s is their median
# worker.reference_s() twice, on the 2-core host the benchmark was tuned on.
REFERENCE_S = 0.5
DEADLINE_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "ops/s"), ("peak_rss_mb", "MB"))
_SIZES = ("n5", "n9", "n14")
PER_LAYER = (
    (("cli.import_s", "s"),)
    + (("reps.build_config_s", "s"), ("reps.check_irreducible_s", "s"), ("reps.horospherical_basis_us", "us"))
    + tuple((f"qlinalg.{k}_ms.{n}", "ms") for k in ("rank", "intersect", "nilpotent_exp") for n in _SIZES)
    + (("qlinalg.lattice_op_ms", "ms"), ("qlinalg.peak_entry_bits", "count"))
    + (("qlinalg.self_s", "s"), ("qlinalg.calls", "count"))
    + tuple((f"generic.{k}_ms.{n}", "ms") for k in ("sample", "intersection_trial") for n in _SIZES)
    + (("generic.projection_trial_ms", "ms"), ("generic.spanning_run_ms", "ms"))
    + (("generic.trials", "count"), ("generic.witnesses", "count"), ("generic.self_s", "s"))
    + (("brascamp_lieb.feasibility_ms", "ms"), ("brascamp_lieb.estimate_s", "s"))
    + (("brascamp_lieb.lattice_size", "count"), ("brascamp_lieb.iterations", "count"))
    + (("brascamp_lieb.converged_frac", "ratio"), ("brascamp_lieb.agreement_frac", "ratio"))
    + (("brascamp_lieb.runtime_warnings", "count"), ("brascamp_lieb.self_s", "s"))
    + (("discretized.generate_s", "s"), ("discretized.covering_ms", "ms"), ("discretized.projection_u_ms", "ms"))
    + (("discretized.points_per_s", "1/s"), ("discretized.frostman_ms", "ms"))
    + (("discretized.exceptional_count", "count"), ("discretized.self_s", "s"))
    + (("oppenheim.scan_s", "s"), ("oppenheim.isotropic_s", "s"))
    + tuple(
        (f"harness.suite_s.{s}", "s") for s in ("hypotheses", "generic-dim", "bl", "discretized", "oppenheim")
    )
    + (("harness.emit_ms", "ms"), ("trace.overhead_frac", "ratio"))
)


class BenchError(Exception):
    pass


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "thread_env": THREAD_ENV,
    }


def run_worker(args, mode: str, deadline: float, *extra: str) -> dict:
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH="src", PYTHONHASHSEED="0")
    cmd = [
        sys.executable, str(Path(__file__).resolve().parent / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode, *extra,
    ]
    spawned_at = time.monotonic()
    timeout = deadline - spawned_at
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)], env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"{mode} process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def at_reference_speed(run: dict) -> float:
    """Factor that turns a process's seconds into seconds at the reference speed.

    The shared host's speed drifts by tens of percent over minutes.  Each
    process times a fixed job that does not use repverify (worker.reference_s);
    scaling by it cancels the drift, and leaves a change to repverify visible.
    """
    return REFERENCE_S / run["reference_s"]


def batch_times(parts: list[dict]) -> dict[int, float]:
    """Seconds per batch, summed over its parts from every process."""
    out: dict[int, float] = {}
    for p in parts:
        out[p["batch"]] = out.get(p["batch"], 0.0) + p["s"]
    return out


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    """PROCESSES fresh processes; process k times every PROCESSES-th part.

    The host's speed drifts over tens of seconds, so every batch, even a long
    single one, is timed in pieces spread over the whole run.
    """
    runs = [
        run_worker(
            args, "timed", deadline, "--seconds", repr(args.seconds),
            "--process", str(k), "--processes", str(PROCESSES),
        )
        for k in range(PROCESSES)
    ]
    parts = [dict(p, s=p["s"] * at_reference_speed(r)) for r in runs for p in r["parts"]]
    timed_s = sum(p["s"] for p in parts)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] * at_reference_speed(r) for r in runs),
        # A mean: with the few batches of a run it is steadier than their median.
        "wall_s": timed_s / len(batch_times(parts)),
        "ops_per_s": sum(p["ops"] for p in parts) / timed_s,
        "peak_rss_mb": max(r["rss_mb"] for r in runs if r["parts"]),
    }
    measured_s = sum(p["s"] for r in runs for p in r["parts"])
    raw = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "wall_s": measured_s / len(batch_times(parts)),
        "ops_per_s": sum(p["ops"] for p in parts) / measured_s,
        "reference_s": statistics.median(r["reference_s"] for r in runs),
    }
    return metrics, {"processes": runs, "unscaled": raw}


def per_layer(args, deadline: float, out_dir: Path) -> tuple[dict, dict]:
    plain = run_worker(args, "once", deadline)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    traced = run_worker(args, "trace", deadline, "--spans-out", str(spans))
    if plain["counts"] != traced["counts"]:
        raise BenchError(
            "counter self-check failed: two runs of one seed disagree\n"
            f"untraced: {plain['counts']}\ntraced:   {traced['counts']}"
        )
    metrics = {name: 0 for name, _ in PER_LAYER}
    metrics.update({k: v for k, v in traced["layer"].items() if k in metrics})
    untraced_s = batch_times(plain["parts"])[0] * at_reference_speed(plain)
    traced_s = batch_times(traced["parts"])[0] * at_reference_speed(traced)
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return metrics, {"processes": [plain, traced], "spans": str(spans)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "repverify" / "__init__.py").is_file():
        print("benchmark: run from the repository root; src/repverify is missing", file=sys.stderr)
        return 2
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    try:
        if args.trace:
            metrics, raw = per_layer(args, deadline, out_dir)
            units = dict(PER_LAYER)
            # The traced process's verdicts; the self-check matched the other's.
            runs = raw["processes"][1:]
        else:
            metrics, raw = end_to_end(args, deadline)
            units = dict(END_TO_END)
            runs = raw["processes"]
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    warned: dict[tuple[str, str], int] = {}
    for r in runs:
        for kind, site, n in r["warnings"]:
            warned[(kind, site)] = warned.get((kind, site), 0) + n
    notes = [note for r in runs for note in r["notes"]]
    info = dict(machine(), **runs[0]["versions"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": info, "metrics": metrics, "attempted": attempted, "failed": failed, "runs": raw,
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:36} {value:.6g} {units[name]}")
    for name, value in raw.get("unscaled", {}).items():
        print(f"  {'unscaled ' + name:36} {value:.6g}")
    print(f"  {'failed_frac':36} {failed / attempted:.6g} ratio  ({failed} of {attempted} ops)")
    for (kind, site), n in sorted(warned.items()):
        print(f"  warning x{n}: {kind} at {site}")
    for note in notes:
        print(f"  failed: {note}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
