#!/usr/bin/env python3
"""Pilot run that calibrates the subcritical threshold exponent M.

For a family of test sets on the 5-dimensional so(2,1)-complement model,
measures the worst observed ratio |pi(u.F)|_delta / |F|_delta^{k/n} over
sampled u and reports the largest M for which the delta^{M eps} threshold
stays below it.  The acceptance suite freezes M = 2 from this run.  A bad
flag, such as --num-u 0, exits 2 with one `error:` line, as the package's
commands do.
"""

from __future__ import annotations

import argparse
import math
import sys

from repverify import cli
from repverify import discretized as dg
from repverify.reps import build_config, flag_projector, weight_decompose


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--num-u", type=int, default=100)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--epsilon", type=float, default=0.05)
    args = parser.parse_args()

    def body():
        cfg = build_config("so_pq:2,1")
        dec = weight_decompose(cfg)
        runs = [
            ("weight_aligned 2.5", dg.generate_fractal(dg.WeightAligned((1, 1, 0.5, 0, 0))), 0, 10),
            ("weight_aligned 1.75", dg.generate_fractal(dg.WeightAligned((0.5, 0.5, 0.25, 0.25, 0.25))), 0, 8),
            ("full grid 2^-4", dg.generate_fractal(dg.FullGrid(5, 4)), 0, 4),
            ("random subset", dg.generate_fractal(dg.RandomSubset(5, 3, 0.2), seed=9), 1, 3),
        ]
        lines = [f"{'set':24} {'mu':>3} {'delta':>7} {'|F|_d':>9} {'min ratio':>10} {'min M':>7}"]
        overall = 0.0
        for name, ps, mu, s in runs:
            delta = 2.0**-s
            fp = flag_projector(dec, mu)
            k = fp.flag.dim
            rep = dg.projection_experiment(cfg, ps, mu, delta, args.epsilon, 1.0, args.num_u, args.seed)
            base = rep.params["set_covering"]
            min_cover = min(c for _, c, _ in rep.per_u)
            ratio = min_cover / base ** (k / cfg.n)
            # a u is non-exceptional iff ratio >= delta^{M eps}; ratios below 1
            # force a minimum M, ratios above 1 impose nothing
            min_m = max(0.0, -math.log(ratio) / (args.epsilon * math.log(1 / delta)))
            overall = max(overall, min_m)
            lines.append(f"{name:24} {mu:>3} 2^-{s:<4} {base:>9} {ratio:>10.3f} {min_m:>7.2f}")
        lines.append(f"\nany M above {overall:.2f} keeps every sampled u non-exceptional; frozen M = 2")
        return 0, [("\n".join(lines), None)]

    return cli._run(body)


if __name__ == "__main__":
    sys.exit(main())
