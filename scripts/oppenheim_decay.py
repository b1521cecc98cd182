#!/usr/bin/env python3
"""Decay-curve experiment for small values of indefinite quadratic forms.

Writes a CSV of (T, running minimum, exact record) rows and prints the
fitted decay exponent.  The T = 10^3 value of the default form is the
brute-force oracle behind the 0.05 acceptance threshold.  A bad --form or
--t-list exits 2 with one `error:` line, as the package's commands do.
"""

from __future__ import annotations

import argparse
import sys

from repverify import cli, oppenheim


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--form", default="x1^2+x2^2-sqrt2*x3^2")
    parser.add_argument("--s", type=float, default=0.0)
    parser.add_argument("--t-list", default="10,100,1000")
    parser.add_argument("--out", default=None, help="CSV output path")
    args = parser.parse_args()

    def body():
        form = oppenheim.parse_form(args.form)
        try:
            t_list = [int(t) for t in args.t_list.split(",")]
        except ValueError:
            raise cli.UsageError(f"--t-list must be integers separated by commas, got {args.t_list!r}") from None
        curve = oppenheim.decay_curve(form, args.s, t_list)
        lines = [f"{'T':>7} {'min |Q(v)-s|':>14}  exact"]
        for (t, val), exact in zip(curve.rows, curve.exact_values):
            lines.append(f"{t:>7} {val:>14.6g}  {exact}")
        kappa = curve.kappa
        lines.append(f"fitted decay exponent kappa = {kappa if kappa != float('inf') else 'inf (exact zero)'}")
        outputs = [("\n".join(lines), None)]
        if args.out:
            rows = ["T,min_value,exact"]
            for (t, val), exact in zip(curve.rows, curve.exact_values):
                rows.append(f"{t},{val!r},{exact}")
            outputs += [("\n".join(rows) + "\n", args.out), (f"wrote {args.out}", None)]
        return 0, outputs

    return cli._run(body, args.out)


if __name__ == "__main__":
    sys.exit(main())
