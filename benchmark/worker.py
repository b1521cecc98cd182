"""One workload process: set-up, timed parts of batches, oracle, one JSON line.

`run.py` starts this file in a fresh single-threaded interpreter, one process
at a time, from the root of the repository:

    python3 benchmark/worker.py --workload exact-mc --seed 0 --mode timed \
        --seconds 15 --process 0 --processes 3 --spawned-at <parent's time.monotonic()>

Modes: `timed` runs this process's share of the run's batches (every
--processes-th part, from --process on); `once` runs batch 0 whole; `trace`
does the same with every layer wrapped in spans, then runs the kernel probes
and writes the spans out.  Each mode then runs the oracle on what it ran.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import random
import warnings
from collections import Counter
from fractions import Fraction
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent


_REF_RNG = random.Random(20251119)
_REF_MATRIX = [[Fraction(_REF_RNG.randint(-2**40, 2**40), _REF_RNG.randint(1, 2**40)) for _ in range(12)] for _ in range(12)]


def reference_s(repeats: int = 10) -> float:
    """Seconds for a fixed exact-arithmetic job that never touches repverify.

    Rational Gaussian elimination of one 12 x 12 matrix with 40-bit entries:
    interpreter and big-integer work like most of the program's.  run.py
    divides each process's times by it, so host-speed drift cancels and a
    change to repverify does not.
    """
    t = time.perf_counter()
    for _ in range(repeats):
        rows = [row[:] for row in _REF_MATRIX]
        for c in range(len(rows)):
            inv = 1 / rows[c][c]
            for i in range(c + 1, len(rows)):
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return time.perf_counter() - t


def _runtime_warnings(sites: Counter) -> int:
    return sum(n for (category, _), n in sites.items() if category == "RuntimeWarning")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "once", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--process", type=int, default=0)
    parser.add_argument("--processes", type=int, default=1)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    # Every warning is counted by kind and site and reported; none reaches
    # stderr unseen.
    sites: Counter = Counter()

    def count_warning(message, category, filename, lineno, file=None, line=None):
        sites[(category.__name__, f"{Path(filename).name}:{lineno}: {message}")] += 1

    warnings.showwarning = count_warning
    warnings.simplefilter("always")

    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(HERE))
    t0 = time.perf_counter()
    import repverify.cli  # noqa: F401  (what the `repverify` command imports)

    import_s = time.perf_counter() - t0

    import numpy as np

    import tracing
    import workloads

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    setup_s = time.monotonic() - args.spawned_at
    ref_s = reference_s()
    out = {
        "mode": args.mode,
        "import_s": import_s,
        "setup_s": setup_s,
        "versions": {
            "numpy": np.__version__,
            "scipy": metadata.version("scipy"),
            "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if args.mode == "timed":
        # This process's share of the run: every PROCESSES-th part of the
        # run's batches, so each batch is timed across all processes.
        batches = max(1, int(args.seconds // wl.SECONDS_PER_BATCH))
        todo = [divmod(i, wl.PARTS) for i in range(batches * wl.PARTS)][args.process :: args.processes]
    else:
        todo = [(0, part) for part in range(wl.PARTS)]
    batch_mark = tracer.mark() if tracer else 0
    parts, counts, notes = [], [], []
    for batch_index, part in todo:
        warned = _runtime_warnings(sites)
        t = time.perf_counter()
        res = wl.run_part(batch_index, part)
        seconds = time.perf_counter() - t
        res.counts["brascamp_lieb.runtime_warnings"] = _runtime_warnings(sites) - warned
        parts.append({"batch": batch_index, "part": part, "s": seconds, "ops": res.ops, "failed": res.failed})
        counts.append(res.counts)
        notes += res.notes
    # Peak memory of set-up and the timed parts, before the oracle's sympy.
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["reference_s"] = ref_s + reference_s()
    if tracer:
        tracer.enabled = False
    mismatches = wl.oracle() if parts else []
    out.update(
        parts=parts,
        ops=sum(p["ops"] for p in parts),
        failed=sum(p["failed"] for p in parts) + len(mismatches),
        counts=counts,
        notes=notes + [f"oracle: {m}" for m in mismatches],
    )
    if tracer:
        out["layer"] = layer_metrics(wl, tracer, batch_mark, counts, import_s)
        if args.spans_out:
            tracer.dump(args.spans_out)
    out["warnings"] = [[kind, site, n] for (kind, site), n in sorted(sites.items())]
    print(json.dumps(out))
    return 0


def layer_metrics(wl, tracer, batch_mark: int, part_counts: list[dict], import_s: float) -> dict:
    """Per-layer numbers of a traced batch 0; layers the workload does not
    exercise are left out here and reported as 0 by run.py."""
    from workloads import median

    counts: dict = {}
    for part in part_counts:
        for name, value in part.items():
            if name == "qlinalg.peak_entry_bits":
                counts[name] = max(counts.get(name, 0), value)
            elif isinstance(value, int):
                counts[name] = counts.get(name, 0) + value

    def med(name: str, since: int, scale: float = 1.0) -> float:
        return median(tracer.durations(name, since), scale)

    self_s, calls = tracer.self_times(batch_mark)
    out = {"cli.import_s": import_s}
    for layer in ("qlinalg", "generic", "brascamp_lieb", "discretized"):
        out[f"{layer}.self_s"] = self_s[layer]
    out["qlinalg.calls"] = calls["qlinalg"]
    out["reps.build_config_s"] = med("reps.build_config", 0)
    out["reps.check_irreducible_s"] = sum(tracer.durations("reps.check_irreducible", 0))
    out["reps.horospherical_basis_us"] = med("reps.horospherical_basis", batch_mark, 1e6)
    out["brascamp_lieb.feasibility_ms"] = med("brascamp_lieb.check_feasibility", batch_mark, 1e3)
    out["brascamp_lieb.estimate_s"] = med("brascamp_lieb.estimate_bl_constant", batch_mark)
    for name in (
        "generic.trials",
        "generic.witnesses",
        "qlinalg.peak_entry_bits",
        "brascamp_lieb.lattice_size",
        "brascamp_lieb.iterations",
        "brascamp_lieb.runtime_warnings",
        "discretized.exceptional_count",
    ):
        if name in counts:
            out[name] = counts[name]
    estimates = len(tracer.durations("brascamp_lieb.estimate_bl_constant", batch_mark))
    if "brascamp_lieb.converged" in counts and estimates:
        out["brascamp_lieb.converged_frac"] = counts["brascamp_lieb.converged"] / estimates
        out["brascamp_lieb.agreement_frac"] = counts["brascamp_lieb.agreements"] / estimates
    out.update(wl.layer_metrics(tracer, batch_mark))
    out.update(wl.probes())
    return out


if __name__ == "__main__":
    sys.exit(main())
