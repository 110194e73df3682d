"""End-to-end coverage of the gen/solve/bench/check subcommands."""

import csv
import json
import math
import statistics
import subprocess
import sys

import pytest

from sparseratio.cli import main
from sparseratio.instances import (
    GenSpec,
    generate,
    load_instance,
    load_result,
    save_instance,
)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def cauchy_instance(tmp_path):
    path = tmp_path / "cauchy.json"
    rc = main(["gen", "cauchy", "--n", "64", "--m", "24", "--k", "3",
               "--seed", "2", "--out", str(path)])
    assert rc == 0
    return path


class TestGen:
    def test_robust_cs_outlier_budget(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        rc = main(["gen", "robust-cs", "--n", "512", "--p", "144", "--k", "16",
                   "--iota", "2", "--seed", "7", "--out", str(out)])
        assert rc == 0
        inst = load_instance(out)
        assert inst.model.r == 4
        assert "robust_cs" in capsys.readouterr().out

    def test_cauchy_default_gamma(self, tmp_path):
        out = tmp_path / "inst.json"
        rc = main(["gen", "cauchy", "--n", "512", "--m", "144", "--k", "16",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
        assert load_instance(out).model.gamma == 0.02

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "robust-cs", "--p", "144", "--k", "16",
                  "--iota", "2", "--seed", "7"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, spec", [
        (["robust-cs", "--n", "96", "--p", "30", "--k", "4", "--iota", "3"],
         {"family": "robust_cs", "n": 96, "p": 30, "k": 4, "iota": 3}),
        (["cauchy", "--n", "96", "--m", "30", "--k", "4"],
         {"family": "cauchy", "n": 96, "m": 30, "k": 4}),
        (["cauchy", "--n", "96", "--m", "30", "--k", "4", "--gamma", "0.05"],
         {"family": "cauchy", "n": 96, "m": 30, "k": 4, "gamma": 0.05}),
        (["badly-scaled", "--n", "96", "--m", "20", "--k", "4", "--F", "5",
          "--D", "2"],
         {"family": "badly_scaled", "n": 96, "m": 20, "k": 4, "F": 5.0,
          "D": 2.0}),
    ])
    @pytest.mark.parametrize("sigma_factor", [None, "1.7"])
    def test_written_file_matches_generate(self, argv, spec, sigma_factor,
                                           tmp_path):
        out, ref = tmp_path / "cli.json", tmp_path / "ref.json"
        extra = ["--sigma-factor", sigma_factor] if sigma_factor else []
        rc = main(["gen", *argv, "--seed", "5", *extra, "--out", str(out)])
        assert rc == 0
        if sigma_factor:
            spec = {**spec, "sigma_factor": float(sigma_factor)}
        save_instance(generate(GenSpec(seed=5, **spec)), ref)
        assert out.read_bytes() == ref.read_bytes()

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "inst.json"
        proc = subprocess.run(
            [sys.executable, "-m", "sparseratio", "gen", "cauchy", "--n", "48",
             "--m", "16", "--k", "3", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()


class TestSolve:
    def test_ratio_pipeline_prints_nonpositive_residual(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        main(["gen", "robust-cs", "--n", "64", "--p", "20", "--k", "4",
              "--iota", "2", "--seed", "3", "--out", str(inst)])
        out = tmp_path / "result.json"
        rc = main(["solve", "--instance", str(inst), "--pipeline", "mba_ratio",
                   "--tol", "1e-6", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        residual = float(stdout.split("residual=")[1].split()[0])
        assert residual <= 1e-10
        doc = load_result(out)
        assert doc["status"] == "converged"
        assert doc["metrics"]["residual"] == pytest.approx(residual, rel=1e-5)

    def test_trace_flag_stores_monotone_omega(self, cauchy_instance, tmp_path):
        out = tmp_path / "result.json"
        rc = main(["solve", "--instance", str(cauchy_instance), "--trace",
                   "--tol", "1e-8", "--out", str(out)])
        assert rc == 0
        omega = load_result(out)["trace"]["main"]["omega"]
        assert len(omega) >= 2
        assert all(b <= a + 1e-10 for a, b in zip(omega, omega[1:]))

    def test_two_stage_reports_both_timings(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        main(["gen", "badly-scaled", "--n", "64", "--m", "16", "--k", "3",
              "--F", "5", "--D", "1", "--seed", "4", "--out", str(inst)])
        rc = main(["solve", "--instance", str(inst), "--pipeline", "two_stage",
                   "--tol", "1e-8", "--warm-tol", "1e-6"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "t_warm=" in stdout and "t_main=" in stdout
        assert "warm stage:" in stdout

    def test_missing_instance_file(self, tmp_path, capsys):
        rc = main(["solve", "--instance", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_pipeline_is_usage_error(self, cauchy_instance):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--instance", str(cauchy_instance),
                  "--pipeline", "magic"])
        assert exc.value.code == 2


class TestBench:
    def run_inline(self, tmp_path, tag, extra=()):
        rows = tmp_path / f"rows_{tag}.csv"
        agg = tmp_path / f"agg_{tag}.csv"
        rc = main(["bench", "--family", "cauchy", "--n", "64", "--m", "24",
                   "--k", "3", "--seeds", "0:3", "--pipeline", "mba_ratio",
                   "--tol", "1e-8", "--quiet", "--out-rows", str(rows),
                   "--out-agg", str(agg), *extra])
        assert rc == 0
        return read_rows(rows), read_rows(agg)

    def test_inline_grid_rows_and_header(self, tmp_path):
        rows, _ = self.run_inline(tmp_path, "a")
        assert rows[0] == ["family", "n", "m", "k", "seed", "rec_err",
                           "residual", "iters", "status", "t_gen", "t_warm",
                           "t_main", "warm_rec_err"]
        assert len(rows) == 4  # header + |cells| x |seeds|
        assert [r[4] for r in rows[1:]] == ["0", "1", "2"]
        assert all(r[8] == "converged" for r in rows[1:])

    def test_aggregates_recompute_from_rows(self, tmp_path):
        rows, agg = self.run_inline(tmp_path, "b")
        recs = [float(r[5]) for r in rows[1:]]
        resids = [float(r[6]) for r in rows[1:]]
        head, vals = agg[0], agg[1]
        at = dict(zip(head, vals))
        assert float(at["rec_err_mean"]) == pytest.approx(
            statistics.mean(recs), abs=1e-12)
        assert float(at["rec_err_median"]) == pytest.approx(
            statistics.median(recs), abs=1e-12)
        assert float(at["residual_mean"]) == pytest.approx(
            statistics.mean(resids), abs=1e-12)
        assert at["n_ok"] == "3" and at["failures"] == "0"

    def test_rerun_reproduces_rec_err_bitwise(self, tmp_path):
        rows1, _ = self.run_inline(tmp_path, "c")
        rows2, _ = self.run_inline(tmp_path, "d")
        assert [r[5] for r in rows1[1:]] == [r[5] for r in rows2[1:]]

    def test_parallel_jobs_match_serial(self, tmp_path):
        rows1, _ = self.run_inline(tmp_path, "e")
        rows2, _ = self.run_inline(tmp_path, "f", extra=("--jobs", "2"))
        assert [r[5] for r in rows1[1:]] == [r[5] for r in rows2[1:]]

    def test_plan_file_two_stage(self, tmp_path):
        plan = {
            "family": "badly_scaled",
            "cells": [{"n": 64, "m": 16, "k": 3, "F": 5.0, "D": 1.0}],
            "seeds": [0, 1],
            "pipeline": "two_stage",
            "config": {"tol": 1e-8},
            "warm_tol": 1e-6,
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        rows_path = tmp_path / "rows.csv"
        rc = main(["bench", "--plan", str(plan_path), "--quiet",
                   "--out-rows", str(rows_path)])
        assert rc == 0
        rows = read_rows(rows_path)
        assert len(rows) == 3
        head = rows[0]
        for r in rows[1:]:
            at = dict(zip(head, r))
            assert not math.isnan(float(at["warm_rec_err"]))
            assert float(at["t_warm"]) > 0
            assert at["status"] == "converged"

    def test_empty_seed_list_fails(self, tmp_path, capsys):
        rc = main(["bench", "--family", "cauchy", "--n", "64", "--m", "24",
                   "--k", "3", "--seeds", "", "--quiet"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        {"cells": [{"n": "64", "m": 24, "k": 3}]},
        {"cells": [{"n": 64.0, "m": 24, "k": 3}]},
        {"cells": [{"n": 64, "m": 24, "k": True}]},
        {"cells": [{"n": 64, "m": 24, "k": 3.5}]},
        {"seeds": [0.9]},
        {"seeds": [True]},
        {"seeds": ["7"]},
        {"seeds": 3},
        {"config": {"tol": "1e-6"}},
        {"config": {"l_max": math.inf}},
        {"config": {"feas_tol": math.nan}},
        {"config": {"alpha": True}},
        {"config": {"max_outer_iters": 1.5}},
        {"config": {"sub_max_iter": 0}},
    ])
    def test_malformed_plan_cell_fails(self, bad, tmp_path, capsys):
        # bad replaces whole fields of an otherwise valid plan
        plan = {"family": "cauchy", "cells": [{"n": 64, "m": 24, "k": 3}],
                "seeds": [0], "pipeline": "mba_ratio", **bad}
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        rc = main(["bench", "--plan", str(plan_path), "--quiet"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_inline_needs_all_family_params(self, capsys):
        rc = main(["bench", "--family", "cauchy", "--n", "64", "--k", "3",
                   "--quiet"])
        assert rc == 1
        assert "--m" in capsys.readouterr().err


class TestCheck:
    def test_clean_pair_passes(self, cauchy_instance, tmp_path, capsys):
        result = tmp_path / "result.json"
        rc = main(["solve", "--instance", str(cauchy_instance), "--trace",
                   "--tol", "1e-8", "--out", str(result)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["check", "--instance", str(cauchy_instance),
                   "--result", str(result)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and all(line.startswith("ok:") for line in lines)

    def test_tampered_instance_fails(self, cauchy_instance, capsys):
        doc = json.loads(cauchy_instance.read_text())
        doc["b"][0] = doc["b"][0] + 0.5
        cauchy_instance.write_text(json.dumps(doc))
        rc = main(["check", "--instance", str(cauchy_instance)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out



def _inject(path, token):
    """A fault that writes the raw JSON token in place of the first number
    under doc[path[0]][path[1]]..."""
    def apply(doc):
        target = doc
        for key in path:
            target = target[key]
        while isinstance(target[0], list):
            target = target[0]
        target[0] = "<inject>"
        return json.dumps(doc).replace('"<inject>"', token)
    return apply


def _edit(change):
    def apply(doc):
        change(doc)
        return json.dumps(doc)
    return apply


# 1e400 is valid JSON that parses to inf, so it reaches the loader's own
# checks; NaN and -Infinity are stopped by the reader
_FAULTS = {
    **{f"{name}-{token}": _inject(path, token)
       for name, path in [("matrix", ["matrix"]), ("b", ["b"]),
                          ("x_orig", ["x_orig"]),
                          ("noise", ["noise_record", "epsilon"])]
       for token in ["NaN", "-Infinity", "1e400"]},
    "short-x_orig": _edit(lambda doc: doc["x_orig"].pop()),
    "unknown-variant": _edit(lambda doc: doc["model"].update(variant="huber")),
    "unknown-format": _edit(lambda doc: doc.update(format_version=99)),
}


class TestFaultInjection:
    @pytest.mark.parametrize("command", ["solve", "check"])
    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    def test_loader_rejects_fault(self, cauchy_instance, fault, command,
                                  tmp_path, capsys):
        doc = json.loads(cauchy_instance.read_text())
        cauchy_instance.write_text(_FAULTS[fault](doc))
        out = tmp_path / "result.json"
        argv = [command, "--instance", str(cauchy_instance)]
        if command == "solve":
            argv += ["--out", str(out)]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")
        assert captured.out == ""
        assert not out.exists()

    def test_check_rejects_non_finite_result(self, cauchy_instance, tmp_path,
                                             capsys):
        result = tmp_path / "result.json"
        assert main(["solve", "--instance", str(cauchy_instance),
                     "--out", str(result)]) == 0
        doc = json.loads(result.read_text())
        doc["x_final"][0] = "<inject>"
        result.write_text(json.dumps(doc).replace('"<inject>"', "NaN"))
        capsys.readouterr()
        rc = main(["check", "--instance", str(cauchy_instance),
                   "--result", str(result)])
        assert rc == 1
        assert "error: non-finite JSON constant NaN" in capsys.readouterr().err
