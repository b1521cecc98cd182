"""Suite orchestration: determinism, report formats, CLI surfaces."""

from __future__ import annotations

import inspect
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import repverify
from repverify import harness, reps
from repverify.cli import bl_main, genericdim_main, main, oppenheim_main, proj_exp_main
from repverify.harness import (
    SuiteConfig,
    UsageError,
    derive_seed,
    emit_report,
    run_suite,
)


class TestSeeds:
    def test_stable_derivation(self):
        a = derive_seed(42, "generic", "intersection", 3)
        b = derive_seed(42, "generic", "intersection", 3)
        assert a == b

    def test_independent_streams(self):
        assert derive_seed(42, "generic", "intersection", 0) != derive_seed(42, "bl", "intersection", 0)
        assert derive_seed(42, "generic", "a", 0) != derive_seed(43, "generic", "a", 0)


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(UsageError):
            SuiteConfig("nonsense")

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(UsageError, match="scale"):
            SuiteConfig("generic-dim", scale=scale)

    def test_hypotheses_deterministic_hash(self):
        a = run_suite(SuiteConfig("hypotheses", master_seed=5))
        b = run_suite(SuiteConfig("hypotheses", master_seed=5))
        assert a.content_hash() == b.content_hash()
        assert a.all_passed

    def test_oppenheim_suite_small(self):
        rep = run_suite(SuiteConfig("oppenheim", master_seed=5, scale=0.2))
        assert rep.all_passed

    def test_summary_counts(self):
        rep = run_suite(SuiteConfig("hypotheses", master_seed=1))
        assert rep.passes + rep.failures == len(rep.results)

    @pytest.mark.parametrize(
        "suite,seed,scale,digest",
        [
            ("hypotheses", 0, 1.0, "0dd2f3daf07dd3e4d7160cbdee3ef46808cbcbaad1b5454ce2d5e8adc488eeb5"),
            ("generic-dim", 4, 0.1, "c5d0915ecbb5d2480131c362f21758fa4cfb1bc6e009ae9c05ede84240f8f92c"),
            ("bl", 0, 1.0, "34037206314db0cf0b985e34e19de1a658c85f36ba3226c503fb81820f6d772f"),
        ],
    )
    def test_exact_suite_hash_pinned(self, suite, seed, scale, digest):
        # the digest does not depend on the BLAS in use: these suites record exact
        # values, verdicts, and floating-point bounds rounded to 6 digits
        assert run_suite(SuiteConfig(suite, master_seed=seed, scale=scale)).content_hash() == digest

    @pytest.mark.parametrize("seed", [18, 23, 24])
    def test_bl_redraws_non_surjective_stuffed_datum(self, seed):
        # at master seed 18 the first draw's stuffed twin has a non-surjective map;
        # at 23 and 24 the corpus holds data whose constants are finite but large
        results = {r["name"]: r for r in run_suite(SuiteConfig("bl", master_seed=seed, scale=0.05)).results}
        assert "bl/error" not in results
        assert results["bl/feasibility-optimizer-agreement"]["passed"]

    def test_error_item_records_type_and_site(self, monkeypatch):
        monkeypatch.setitem(harness._SUITE_FUNCS, "oppenheim", lambda cfg: reps.build_config("bogus:1"))
        (item,) = run_suite(SuiteConfig("oppenheim")).results
        lines, start = inspect.getsourcelines(reps.build_config)
        raise_line = start + next(i for i, l in enumerate(lines) if "unsupported configuration kind" in l)
        assert item["name"] == "oppenheim/error" and not item["passed"]
        assert item["error_type"] == "ConfigError"
        assert item["error_at"] == f"repverify/reps.py:{raise_line}"

    def test_all_suite_composes_with_identical_hash(self):
        a = run_suite(SuiteConfig("all", master_seed=6, scale=0.05))
        b = run_suite(SuiteConfig("all", master_seed=6, scale=0.05), jobs=2)
        assert a.content_hash() == b.content_hash()
        names = {r["name"].split("/")[0] for r in a.results}
        assert {"hypotheses", "generic-dim", "bl", "discretized", "oppenheim"} <= names


class TestEmit:
    def test_json_round_trip(self):
        rep = run_suite(SuiteConfig("hypotheses", master_seed=2))
        doc = json.loads(emit_report(rep, "json"))
        assert doc["suite"] == "hypotheses"
        assert doc["passes"] == rep.passes
        assert doc["hash"] == rep.content_hash()

    def test_csv_rows(self):
        rep = run_suite(SuiteConfig("hypotheses", master_seed=2))
        csv = emit_report(rep, "csv")
        assert len(csv.strip().splitlines()) == len(rep.results) + 1

    def test_markdown_table(self):
        rep = run_suite(SuiteConfig("hypotheses", master_seed=2))
        md = emit_report(rep, "markdown-summary")
        assert "| check | result |" in md

    def test_unknown_format(self):
        rep = run_suite(SuiteConfig("hypotheses", master_seed=2))
        with pytest.raises(UsageError):
            emit_report(rep, "xml")


PROJ_EXP_ARGV = ["--config", "so_pq:2,1", "--fractal", "weight_aligned:1,0.5,0.5,0,0", "--delta", "4", "--num-u", "5"]


class TestCLI:
    def test_suite_exit_code(self, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["hypotheses", "--seed", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["failures"] == 0

    def test_config_file_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "hypotheses", "master_seed": 9}))
        out = tmp_path / "rep.json"
        code = main(["oppenheim", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["suite"] == "hypotheses"

    def test_bad_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["hypotheses", "--config", str(cfg)]) == 2

    def test_genericdim(self, tmp_path):
        out = tmp_path / "g.json"
        code = genericdim_main(
            ["--config", "so_pq:2,1", "--w", "flag:1", "--wprime", "flag:0",
             "--trials", "20", "--seed", "42", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["trials"] == 20 and doc["passes"] == 20
        assert doc["failures"] == []

    def test_genericdim_bad_config(self):
        assert genericdim_main(["--config", "bogus:1", "--w", "full", "--wprime", "full"]) == 2

    def test_genericdim_zero_denominator(self, capsys):
        assert genericdim_main(["--config", "so_pq:2,1", "--w", "flag:1/0", "--wprime", "full"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("check", ["intersection", "projection"])
    def test_genericdim_zero_trials(self, check, capsys):
        argv = ["--config", "so_pq:2,1", "--w", "flag:1", "--wprime", "flag:0", "--trials", "0", "--check", check]
        assert genericdim_main(argv) == 2
        assert capsys.readouterr().err.startswith("error: need at least 1 trial")

    def test_bl_check_and_estimate(self, tmp_path):
        from repverify.brascamp_lieb import datum_to_json, loomis_whitney_datum

        datum_path = tmp_path / "lw.json"
        datum_path.write_text(json.dumps(datum_to_json(loomis_whitney_datum())))
        out = tmp_path / "cert.json"
        assert bl_main(["check", "--datum", str(datum_path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "certified" and doc["lift"] == {"N": 2, "seed": 0}
        out2 = tmp_path / "est.json"
        assert bl_main(["estimate", "--datum", str(datum_path), "--budget", "100",
                        "--seed", "1", "--out", str(out2)]) == 0
        doc = json.loads(out2.read_text())
        assert doc["lower_bound_gaussian"] >= 0.999 and doc["cause"] is None

    def test_bl_estimate_writes_strict_json(self, tmp_path):
        from repverify.brascamp_lieb import BLDatum, BLMap, datum_to_json
        from repverify.qlinalg import Mat

        violating = BLDatum(2, (BLMap(1, Mat.from_rows([[1, 0]])),), (Fraction(2),))
        datum_path = tmp_path / "bad.json"
        datum_path.write_text(json.dumps(datum_to_json(violating)))
        out = tmp_path / "est.json"
        assert bl_main(["estimate", "--datum", str(datum_path), "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"non-strict JSON constant {name}")

        doc = json.loads(out.read_text(), parse_constant=reject)
        assert doc["lower_bound_variational"] is None and doc["lower_bound_gaussian"] is None
        assert doc["bl_infinite"] is True and doc["cause"] == "common-kernel"

    def test_proj_exp(self, tmp_path):
        out = tmp_path / "p.json"
        csv = tmp_path / "p.csv"
        code = proj_exp_main(
            ["--config", "so_pq:2,1", "--fractal", "weight_aligned:1,0.5,0.5,0,0",
             "--mu", "0", "--delta", "6", "--epsilon", "0.05", "--num-u", "10",
             "--seed", "3", "--mode", "subcritical", "--out", str(out), "--csv", str(csv)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["within_bound"] is True
        assert len(csv.read_text().strip().splitlines()) == 11  # header + one row per u

    @pytest.mark.parametrize("fractal", ["full_grid:5", "random_subset:2,4", "cantor:3,0a,2"])
    def test_proj_exp_bad_fractal(self, fractal, capsys):
        assert proj_exp_main(["--config", "so_pq:2,1", "--fractal", fractal, "--delta", "4"]) == 2
        assert capsys.readouterr().err.startswith("error: fractal descriptor")

    @pytest.mark.parametrize(
        "config,mu",
        [("so_pq:x,1", "0"), ("tensor:2,y", "0"), ("so_pq:2,1", "abc"), ("so_pq:2,1", "1/0"), ("so_pq:2,1", "7")],
    )
    def test_proj_exp_bad_config_or_mu(self, config, mu, capsys):
        argv = ["--config", config, "--fractal", "weight_aligned:1,0.5,0.5,0,0", "--mu", mu, "--delta", "4"]
        assert proj_exp_main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "fractal,message",
        [
            ("full_grid:0,3", "ambient >= 1"),
            ("full_grid:2,-3", "s >= 0"),
            ("weight_aligned:", "at least one coordinate"),
            ("cantor:1,0,3", "base >= 2"),
            ("cantor:0,0,2", "base >= 2"),
            ("cantor:3,05,2", "digits in [0, base)"),
            ("cantor:3,00,4", "distinct digits"),
        ],
    )
    def test_proj_exp_fractal_field_out_of_range(self, fractal, message, capsys):
        assert proj_exp_main(["--config", "so_pq:2,1", "--fractal", fractal, "--delta", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("delta", ["0", "41", "1100", "-2000"])
    def test_proj_exp_delta_out_of_range(self, delta, capsys):
        # 2^-1100 underflows to 0.0, which used to escape as a ValueError from log2;
        # 2^2000 overflows, which used to escape as an OverflowError
        argv = ["--config", "so_pq:2,1", "--fractal", "full_grid:5,2", "--delta", delta]
        assert proj_exp_main(argv) == 2
        assert capsys.readouterr().err.startswith("error: delta must be 2^-s")

    @pytest.mark.parametrize("num_u", ["0", "-4"])
    def test_proj_exp_no_sampled_u(self, num_u, capsys):
        argv = ["--config", "so_pq:2,1", "--fractal", "full_grid:5,2", "--delta", "3", "--num-u", num_u]
        assert proj_exp_main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_bl_estimate_budget_below_one(self, tmp_path, capsys):
        from repverify.brascamp_lieb import datum_to_json, holder_datum

        datum_path = tmp_path / "holder.json"
        datum_path.write_text(json.dumps(datum_to_json(holder_datum(3, 2))))
        assert bl_main(["estimate", "--datum", str(datum_path), "--budget", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: budget")

    def test_bl_check_violated_has_no_lift(self, tmp_path):
        from repverify.brascamp_lieb import BLDatum, BLMap, datum_to_json
        from repverify.qlinalg import Mat

        violating = BLDatum(2, (BLMap(1, Mat.from_rows([[1, 0]])),), (Fraction(2),))
        datum_path = tmp_path / "bad.json"
        datum_path.write_text(json.dumps(datum_to_json(violating)))
        out = tmp_path / "cert.json"
        assert bl_main(["check", "--datum", str(datum_path), "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert (doc["status"], doc["lattice_size"], doc["lift"]) == ("violated", 1, None)

    def test_bl_check_stuffed_datum_returns_common_kernel(self, tmp_path):
        # the so_pq:2,1 corpus datum with e_5 dropped from every map: the common kernel
        # <e_5> is the one member checked, and no lift is built
        from repverify.brascamp_lieb import datum_to_json
        from repverify.qlinalg import Subspace, subspace_from_json

        _, stuffed = harness._corpus_pair(reps.build_config("so_pq:2,1"), 0, 0, 2, 5)
        datum_path = tmp_path / "stuffed.json"
        datum_path.write_text(json.dumps(datum_to_json(stuffed)))
        out = tmp_path / "cert.json"
        assert bl_main(["check", "--datum", str(datum_path), "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert (doc["status"], doc["lattice_size"], doc["lift"]) == ("violated", 1, None)
        assert subspace_from_json(doc["witness"]) == Subspace.coordinate(5, [4])

    def test_bl_check_cap_without_certificate(self, tmp_path, capsys, monkeypatch):
        # five maps of Q^3 with an infinite kernel lattice, at twice exponents that
        # meet the scaling condition: no lift is square and the walk passes the cap
        from repverify import brascamp_lieb
        from repverify.brascamp_lieb import BLDatum, BLMap, datum_to_json
        from repverify.qlinalg import Mat

        rows = ([[0, 2, 1]], [[2, -1, 1]], [[2, 0, 0], [1, 2, 2]], [[1, 0, 0], [0, 2, 1]], [[-1, 0, 2]])
        maps = tuple(BLMap(len(r), Mat.from_rows(r)) for r in rows)
        d = BLDatum(3, maps, tuple(Fraction(6, 5 * m.n_j) for m in maps))
        datum_path = tmp_path / "q3.json"
        datum_path.write_text(json.dumps(datum_to_json(d)))
        monkeypatch.setattr(brascamp_lieb, "LATTICE_CAP", 64)
        assert bl_main(["check", "--datum", str(datum_path)]) == 2
        assert capsys.readouterr().err == "error: kernel lattice exceeded cap 64\n"

    def test_bl_check_large_denominator_exits_2(self, tmp_path, capsys, monkeypatch):
        # the Q^3 datum above with exponents over c = 99990 that meet the scaling
        # condition: n c is past LIFT_MAX, so the cap's exit 2 comes without a lift
        from repverify import brascamp_lieb
        from repverify.brascamp_lieb import BLDatum, BLMap, datum_to_json
        from repverify.qlinalg import Mat

        rows = ([[0, 2, 1]], [[2, -1, 1]], [[2, 0, 0], [1, 2, 2]], [[1, 0, 0], [0, 2, 1]], [[-1, 0, 2]])
        maps = tuple(BLMap(len(r), Mat.from_rows(r)) for r in rows)
        e = Fraction(1, 9999)
        exponents = [Fraction(3, 5 * m.n_j) for m in maps]
        d = BLDatum(3, maps, (exponents[0] + e, exponents[1] - e, *exponents[2:]))
        assert d.scaling_holds() and d.exponent_numerators[0] == 99990
        datum_path = tmp_path / "q3c.json"
        datum_path.write_text(json.dumps(datum_to_json(d)))

        def no_lift(*args):
            raise AssertionError("lift built")

        monkeypatch.setattr(brascamp_lieb, "_lift_residues", no_lift)
        monkeypatch.setattr(brascamp_lieb, "LATTICE_CAP", 64)
        assert bl_main(["check", "--datum", str(datum_path)]) == 2
        assert capsys.readouterr().err == "error: kernel lattice exceeded cap 64\n"

    def test_bl_check_map_onto_q0(self, tmp_path):
        # a 0 x 2 map next to a line with exponent 2: the common kernel <e_2> is the
        # violation
        from repverify.brascamp_lieb import BLDatum, BLMap, datum_to_json
        from repverify.qlinalg import Mat

        d = BLDatum(2, (BLMap(1, Mat.from_rows([[1, 0]])), BLMap(0, Mat.zeros(0, 2))), (Fraction(2), Fraction(1, 3)))
        datum_path = tmp_path / "q0.json"
        datum_path.write_text(json.dumps(datum_to_json(d)))
        out = tmp_path / "cert.json"
        assert bl_main(["check", "--datum", str(datum_path), "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert (doc["status"], doc["lift"]) == ("violated", None)

    def test_bl_estimate_map_onto_q0(self, tmp_path):
        # the identity on Q^2 next to a 0 x 2 map: the estimate is the identity's
        from repverify.brascamp_lieb import BLDatum, BLMap, datum_to_json
        from repverify.qlinalg import Mat

        d = BLDatum(2, (BLMap(2, Mat.identity(2)), BLMap(0, Mat.zeros(0, 2))), (Fraction(1), Fraction(1, 3)))
        datum_path = tmp_path / "q0.json"
        datum_path.write_text(json.dumps(datum_to_json(d)))
        out = tmp_path / "est.json"
        assert bl_main(["estimate", "--datum", str(datum_path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["lower_bound_gaussian"], doc["converged"], doc["cause"]) == (1.0, True, None)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--mode", "lattice_plus_random"],
            ["--random-count", "3"],
            ["--seed", "1"],
            ["--mode", "lattice"],
            ["--mode", "coordinate_exhaustive"],
        ],
        ids=["random-mode", "random-count", "seed", "lattice-mode", "coordinate-exhaustive-mode"],
    )
    def test_bl_check_has_no_random_mode(self, flags, tmp_path):
        from repverify.brascamp_lieb import datum_to_json, holder_datum

        datum_path = tmp_path / "holder.json"
        datum_path.write_text(json.dumps(datum_to_json(holder_datum(3, 2))))
        with pytest.raises(SystemExit) as exc:
            bl_main(["check", "--datum", str(datum_path), *flags])
        assert exc.value.code == 2

    @pytest.mark.parametrize("name, code", [("holder", 0), ("violating", 1)])
    def test_bl_check_json_has_no_random_checks(self, name, code, tmp_path):
        from repverify.brascamp_lieb import BLDatum, BLMap, datum_to_json, holder_datum
        from repverify.qlinalg import Mat

        violating = BLDatum(2, (BLMap(1, Mat.from_rows([[1, 0]])),), (Fraction(2),))
        datum_path, out = tmp_path / f"{name}.json", tmp_path / "cert.json"
        datum_path.write_text(json.dumps(datum_to_json(holder_datum(3, 2) if name == "holder" else violating)))
        assert bl_main(["check", "--datum", str(datum_path), "--out", str(out)]) == code
        assert sorted(json.loads(out.read_text())) == ["lattice_size", "lift", "scaling_ok", "status", "witness"]

    @pytest.mark.parametrize("scale", ["nan", "inf", "-1", "0"])
    def test_suite_scale_out_of_range(self, scale, tmp_path, capsys):
        assert main(["generic-dim", "--scale", scale]) == 2
        assert capsys.readouterr().err.startswith("error: scale")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scale": scale}))
        assert main(["generic-dim", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: scale")

    def test_genericdim_flag_level_out_of_range(self, capsys):
        assert genericdim_main(["--config", "so_pq:2,1", "--w", "flag:7", "--wprime", "full"]) == 2
        assert capsys.readouterr().err.startswith("error: 7 is not an eigenvalue")

    @pytest.mark.parametrize("cmd", ["check", "estimate"])
    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 2, "maps": [{"nj": 1, "matrix": {"rows": 1, "cols": 2, "entries": [["1", "0"]]}}],
             "exponents": ["-2"]},
            {"n": 2, "maps": [{"nj": 1, "matrix": {"rows": 2, "cols": 2, "entries": [["1", "0"], ["1"]]}}],
             "exponents": ["2"]},
            [1, 2],
        ],
        ids=["negative-exponent", "ragged-matrix", "not-an-object"],
    )
    def test_bl_bad_datum(self, cmd, doc, tmp_path, capsys):
        datum_path = tmp_path / "datum.json"
        datum_path.write_text(json.dumps(doc))
        assert bl_main([cmd, "--datum", str(datum_path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot load datum: ")

    def test_config_file_not_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(["hypotheses"]))
        assert main(["hypotheses", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_oppenheim_cli(self, tmp_path):
        out = tmp_path / "o.json"
        code = oppenheim_main(["--form", "x1^2+x2^2-sqrt2*x3^2", "--s", "0", "--T", "50",
                               "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["best_value"] > 0

    @pytest.mark.parametrize("flags", [["--epsilon", "nan"], ["--epsilon", "-1"], ["--m-exponent", "nan"]])
    def test_proj_exp_epsilon_or_m_exponent_out_of_range(self, flags, capsys):
        argv = ["--config", "so_pq:2,1", "--fractal", "weight_aligned:1,0.5,0.5,0,0", "--delta", "4", *flags]
        assert proj_exp_main(argv) == 2
        assert capsys.readouterr().err.startswith("error: need a finite epsilon")

    @pytest.mark.parametrize("config", ["so_pq:40,40", "tensor:1,2", "tensor_std:0,3"])
    def test_proj_exp_config_out_of_range(self, config, capsys):
        argv = ["--config", config, "--fractal", "weight_aligned:1,0.5,0.5,0,0", "--delta", "4"]
        assert proj_exp_main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("s", ["nan", "inf"])
    def test_oppenheim_non_finite_target(self, s, capsys):
        assert oppenheim_main(["--form", "x1^2+x2^2-sqrt2*x3^2", "--s", s, "--T", "5"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_oppenheim_bad_form(self):
        assert oppenheim_main(["--form", "x1^3", "--T", "10"]) == 2

    def test_oppenheim_zero_denominator(self, capsys):
        assert oppenheim_main(["--form", "x1^2+x2^2-1/0*x3^2", "--T", "10"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("radicand", ["sqrtx", "sqrt2/1"])
    def test_oppenheim_bad_radicand(self, radicand):
        assert oppenheim_main(["--form", f"x1^2+x2^2-{radicand}*x3^2", "--T", "5"]) == 2

    @pytest.mark.parametrize(
        "entry, argv",
        [
            (main, ["hypotheses", "--out", "{bad}"]),
            (genericdim_main, ["--config", "so_pq:2,1", "--w", "flag:1", "--wprime", "flag:0", "--trials", "5",
                               "--out", "{bad}"]),
            (bl_main, ["check", "--datum", "{datum}", "--out", "{bad}"]),
            (bl_main, ["estimate", "--datum", "{datum}", "--budget", "100", "--out", "{bad}"]),
            (proj_exp_main, [*PROJ_EXP_ARGV, "--out", "{bad}"]),
            (proj_exp_main, [*PROJ_EXP_ARGV, "--csv", "{bad}"]),
            (oppenheim_main, ["--form", "x1^2+x2^2-sqrt2*x3^2", "--T", "5", "--out", "{bad}"]),
        ],
        ids=["repverify", "genericdim", "bl-check", "bl-estimate", "proj-exp-out", "proj-exp-csv", "oppenheim"],
    )
    def test_unwritable_output(self, entry, argv, tmp_path, capsys):
        from repverify.brascamp_lieb import datum_to_json, loomis_whitney_datum

        datum = tmp_path / "lw.json"
        datum.write_text(json.dumps(datum_to_json(loomis_whitney_datum())))
        bad = tmp_path / "missing" / "out.json"
        assert entry([a.format(bad=bad, datum=datum) for a in argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {bad}")

    @pytest.mark.parametrize(
        "entry, argv, work",
        [
            (main, ["bl", "--out", "{bad}"], "repverify.cli.run_suite"),
            (genericdim_main, ["--config", "so_pq:2,1", "--w", "flag:1", "--wprime", "flag:0", "--out", "{bad}"],
             "repverify.cli.build_config"),
            (bl_main, ["check", "--datum", "{bad}", "--out", "{bad}"], "repverify.brascamp_lieb.datum_from_json"),
            (proj_exp_main, [*PROJ_EXP_ARGV, "--csv", "{bad}"], "repverify.cli.build_config"),
            (oppenheim_main, ["--form", "x1^2", "--T", "5", "--out", "{bad}"], "repverify.oppenheim.parse_form"),
        ],
        ids=["repverify", "genericdim", "bl", "proj-exp-csv", "oppenheim"],
    )
    def test_unwritable_output_fails_before_any_work(self, entry, argv, work, tmp_path, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the output path was checked")

        monkeypatch.setattr(work, no_work)
        bad = tmp_path / "missing" / "x.json"
        assert entry([a.format(bad=bad) for a in argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {bad}")

    def test_proj_exp_negative_seed(self, capsys):
        assert proj_exp_main([*PROJ_EXP_ARGV, "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be >= 0")

    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repverify.cli"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


def test_report_csv_trial_rows():
    rep = run_suite(SuiteConfig("generic-dim", master_seed=4, scale=0.1))
    csv = emit_report(rep, "csv")
    assert csv.splitlines()[0] == "name,passed"


# The functions whose spans benchmark/workloads.py and benchmark/worker.py read
# by name: an inlined or renamed one would make its per-layer metric read 0.
BENCHMARK_SPANS = {
    "discretized": ("generate_fractal", "covering_number", "projection_experiment", "frostman_energy_bound_check"),
    "generic": ("sample_element", "check_intersection_bound", "check_projection_bound", "find_spanning_q"),
    "brascamp_lieb": ("check_feasibility", "estimate_bl_constant"),
    "qlinalg": ("subspace_sum", "subspace_intersect"),
    "reps": ("build_config", "check_irreducible"),
    "oppenheim": ("decay_curve", "search_min_value"),
    "harness": ("emit_report",),
}


def test_benchmark_tracer_installs():
    """benchmark/tracing.py resolves every layer name it wraps with
    inspect.getattr_static, so a renamed or deleted public method (say
    RowSpan.reduce) breaks `--trace 1`; the probes also call the names below.
    Every function whose spans the benchmark reads must come out wrapped."""
    root = Path(__file__).resolve().parents[1]
    code = (
        "import importlib, tracing\n"
        "from repverify import generic, qlinalg\n"
        "tracing.install(tracing.Tracer())\n"
        "names = (qlinalg.rank, qlinalg.subspace_intersect, qlinalg.nilpotent_exp, generic.translate)\n"
        "assert all(map(callable, names))\n"
        f"for layer, attrs in {BENCHMARK_SPANS!r}.items():\n"
        "    mod = importlib.import_module('repverify.' + layer)\n"
        "    for attr in attrs:\n"
        "        assert hasattr(getattr(mod, attr, None), '__wrapped__'), f'{layer}.{attr} is not traced'\n"
    )
    path = os.pathsep.join([str(root / "benchmark"), str(Path(repverify.__file__).resolve().parents[1])])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_help_runs(script):
    """Each script imports what it uses of the package at its top, so `--help`
    fails when one of those names is renamed or deleted."""
    proc = subprocess.run(
        [sys.executable, str(script), "--help"],
        env={**os.environ, "PYTHONPATH": str(Path(repverify.__file__).resolve().parents[1])},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


def test_public_api_names_resolve():
    names = repverify.__all__
    assert [name for name in names if not hasattr(repverify, name)] == []
    assert len(names) == len(set(names))
    for gone in (
        "TreeOp",
        "eval_tree",
        "Rat",
        "TubeSpec",
        "tube_covering_number",
        "alpha_energy",
        "frostman_constant",
        "orthogonal_complement",
    ):
        assert gone not in names and not hasattr(repverify, gone)
