#!/usr/bin/env python3
"""Run every verification suite and write JSON + markdown reports.

A bad --scale or an --out-dir that cannot be made exits 2 with one `error:`
line, before any suite runs, as the package's commands do.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repverify import cli
from repverify.harness import SUITES, SuiteConfig, emit_report, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out-dir", default="reports")
    args = parser.parse_args()

    def body():
        configs = [SuiteConfig(suite, master_seed=args.seed, scale=args.scale) for suite in SUITES]
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        failures = 0
        for cfg in configs:
            report = run_suite(cfg)
            (out / f"{cfg.suite}.json").write_text(emit_report(report, "json"))
            (out / f"{cfg.suite}.md").write_text(emit_report(report, "markdown-summary"))
            failures += report.failures
            status = "ok" if report.all_passed else "FAILURES"
            print(f"{cfg.suite:12} {report.passes}/{len(report.results)} {status} ({report.wall_clock_s:.1f} s)")
        return 1 if failures else 0, []

    return cli._run(body)


if __name__ == "__main__":
    sys.exit(main())
