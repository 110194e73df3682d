"""End-to-end coverage of the gen/solve/bench/check subcommands."""

import csv
import dataclasses
import json
import math
import re
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sparseratio import cli, drivers
from sparseratio.cli import (
    BenchPlan,
    build_parser,
    load_plan,
    main,
    run_bench_plan,
    run_pipeline,
)
from sparseratio.drivers import SolverConfig
from sparseratio.subsolvers import SubsolverError
from sparseratio.instances import (
    GenSpec,
    generate,
    load_instance,
    load_result,
    save_instance,
)


ROOT = Path(__file__).resolve().parent.parent


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_plan(tmp_path, **fields):
    """A valid one-cell cauchy plan file with fields replaced."""
    plan = {"family": "cauchy", "cells": [{"n": 64, "m": 24, "k": 3}],
            "seeds": [0], "pipeline": "mba_ratio", **fields}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return str(path)


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
        (["badly-scaled", "--n", "96", "--m", "20", "--k", "4", "--F", "5",
          "--D", "2"],
         {"family": "badly_scaled", "n": 96, "m": 20, "k": 4, "F": 5.0,
          "D": 2.0}),
    ])
    def test_written_file_matches_generate(self, argv, spec, tmp_path):
        out, ref = tmp_path / "cli.json", tmp_path / "ref.json"
        rc = main(["gen", *argv, "--seed", "5", "--out", str(out)])
        assert rc == 0
        save_instance(generate(GenSpec(seed=5, **spec)), ref)
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("flag", [["--gamma", "0.05"],
                                      ["--sigma-factor", "1.7"]])
    def test_recipe_constant_flag_is_usage_error(self, flag, tmp_path,
                                                 capsys):
        # gamma and sigma_factor are constants of the generators
        out = tmp_path / "inst.json"
        with pytest.raises(SystemExit) as exc:
            main(["gen", "cauchy", "--n", "96", "--m", "30", "--k", "4",
                  "--seed", "5", *flag, "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

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

    def test_warm_stage_cap_is_reported(self, tmp_path, capsys):
        # the warm stage stops at max_outer_iters and the ratio stage still
        # converges from its iterate: the run's status alone hides the cap
        inst, out = tmp_path / "inst.json", tmp_path / "res.json"
        main(["gen", "cauchy", "--n", "64", "--m", "24", "--k", "3",
              "--seed", "0", "--out", str(inst)])
        capsys.readouterr()
        rc = main(["solve", "--instance", str(inst), "--pipeline", "two_stage",
                   "--max-outer-iters", "50", "--warm-tol", "1e-15",
                   "--out", str(out)])
        assert rc == 0
        assert "warm stage: status=max_iters iters=50 " in capsys.readouterr().out
        doc = load_result(out)
        assert doc["status"] == "converged"
        assert doc["metrics"]["warm_status"] == "max_iters"

    def test_warm_tol_outside_two_stage_fails(self, cauchy_instance, tmp_path,
                                              capsys):
        out = tmp_path / "res.json"
        rc = main(["solve", "--instance", str(cauchy_instance), "--pipeline",
                   "mba_ratio", "--warm-tol", "1e-3", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: warm_tol applies only to")
        assert not out.exists()

    def test_every_solver_flag_reaches_run_config(self, cauchy_instance,
                                                  tmp_path):
        values = {"alpha": 0.75, "tol": 1e-5, "max_outer_iters": 300,
                  "feas_tol": 1e-11}
        assert set(values) == {f.name for f in dataclasses.fields(SolverConfig)
                               if f.type != "bool"}
        flags = [arg for name, value in values.items()
                 for arg in (f"--{name.replace('_', '-')}", str(value))]
        out = tmp_path / "result.json"
        rc = main(["solve", "--instance", str(cauchy_instance), *flags,
                   "--out", str(out)])
        assert rc == 0
        # run_config holds solve's own settings and nothing else
        assert load_result(out)["run_config"] == {
            "pipeline": "mba_ratio", "warm_tol": None, **values}

    @pytest.mark.parametrize("flag", ["--config", "--l-min", "--l-max"])
    def test_removed_setting_flag_is_usage_error(self, flag, cauchy_instance,
                                                 capsys):
        # solve takes its settings as flags, one per SolverConfig field
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--instance", str(cauchy_instance), flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_missing_instance_file(self, tmp_path, capsys):
        rc = main(["solve", "--instance", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_pipeline_is_usage_error(self, cauchy_instance):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--instance", str(cauchy_instance),
                  "--pipeline", "magic"])
        assert exc.value.code == 2


    def test_typed_run_error_exits_1_with_its_name(self, cauchy_instance,
                                                   monkeypatch, tmp_path,
                                                   capsys):
        def fail(*args, **kwargs):
            raise drivers.InfeasibleStartError("injected start failure")

        monkeypatch.setattr(cli, "run_pipeline", fail)
        out = tmp_path / "result.json"
        rc = main(["solve", "--instance", str(cauchy_instance),
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == (
            "error: InfeasibleStartError: injected start failure\n")
        assert captured.out == ""
        assert not out.exists()


class TestBench:
    def run_plan(self, tmp_path, tag, extra=()):
        rows = tmp_path / f"rows_{tag}.csv"
        agg = tmp_path / f"agg_{tag}.csv"
        plan = write_plan(tmp_path, seeds=[0, 1, 2], config={"tol": 1e-8})
        rc = main(["bench", "--plan", plan, "--quiet", "--out-rows", str(rows),
                   "--out-agg", str(agg), *extra])
        assert rc == 0
        return read_rows(rows), read_rows(agg)

    def test_grid_rows_and_header(self, tmp_path):
        rows, _ = self.run_plan(tmp_path, "a")
        assert rows[0] == ["family", "n", "m", "k", "seed", "rec_err",
                           "residual", "iters", "status", "t_gen", "t_warm",
                           "t_main", "warm_rec_err", "warm_status"]
        assert len(rows) == 4  # header + |cells| x |seeds|
        assert [r[4] for r in rows[1:]] == ["0", "1", "2"]
        assert all(r[8] == "converged" for r in rows[1:])
        assert all(r[13] == "" for r in rows[1:])  # no warm stage

    def test_aggregates_recompute_from_rows(self, tmp_path):
        rows, agg = self.run_plan(tmp_path, "b")
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
        rows1, _ = self.run_plan(tmp_path, "c")
        rows2, _ = self.run_plan(tmp_path, "d")
        assert [r[5] for r in rows1[1:]] == [r[5] for r in rows2[1:]]

    def test_parallel_jobs_match_serial(self, tmp_path):
        rows1, _ = self.run_plan(tmp_path, "e")
        rows2, _ = self.run_plan(tmp_path, "f", extra=("--jobs", "2"))
        assert [r[5] for r in rows1[1:]] == [r[5] for r in rows2[1:]]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_progress_rows_in_plan_order(self, jobs):
        plan = BenchPlan(family="cauchy",
                         cells=[{"n": 48, "m": 16, "k": 3},
                                {"n": 40, "m": 16, "k": 3}],
                         seeds=[2, 0, 1], pipeline="mba_ratio",
                         config=SolverConfig())
        seen = []
        report = run_bench_plan(plan, jobs=jobs, progress=seen.append)
        assert seen == report.rows
        assert [(row["n"], row["seed"]) for row in seen] == [
            (n, seed) for n in (48, 40) for seed in (2, 0, 1)]

    def test_cell_without_a_successful_run(self, tmp_path, monkeypatch):
        # every affine prox fails, so every run fails
        def fail(*args, **kwargs):
            raise SubsolverError("forced failure")

        monkeypatch.setattr(drivers, "prox_l1_affine", fail)
        agg = tmp_path / "agg.csv"
        plan = write_plan(tmp_path, cells=[{"n": 32, "m": 12, "k": 3}],
                          seeds=[0, 1], pipeline="algorithm1")
        rc = main(["bench", "--plan", plan, "--quiet", "--out-agg", str(agg)])
        assert rc == 1
        head, vals = read_rows(agg)
        at = dict(zip(head, vals))
        assert at["n_ok"] == "0" and at["failures"] == "2"
        stats = head[head.index("failures") + 1:]
        assert len(stats) == 8
        assert all(at[name] == "nan" for name in stats)

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
            assert at["warm_status"] == "converged"

    def test_empty_seed_list_fails(self, tmp_path, capsys):
        rc = main(["bench", "--plan", write_plan(tmp_path, seeds=[]),
                   "--quiet"])
        assert rc == 1
        assert "plan needs at least one seed" in capsys.readouterr().err

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
        {"config": {"tol": math.inf}},
        {"config": {"feas_tol": math.nan}},
        {"config": {"alpha": True}},
        {"config": {"max_outer_iters": 1.5}},
        {"config": {"max_outer_iters": 0}},
        {"config": 5},
        {"config": [1]},
        {"config": {"record_trace": True}},
        {"config": {"sub_tol": 1e-11}},
    ])
    def test_malformed_plan_cell_fails(self, bad, tmp_path, capsys):
        # bad replaces whole fields of an otherwise valid plan
        rc = main(["bench", "--plan", write_plan(tmp_path, **bad), "--quiet"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [5, [1], "plan", None])
    def test_plan_and_config_files_must_hold_objects(self, doc, tmp_path,
                                                     capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["bench", "--plan", str(path)]) == 1
        assert "plan must be a JSON object" in capsys.readouterr().err
        assert main(["bench", "--plan", write_plan(tmp_path, config=doc)]) == 1
        assert "plan config must be a JSON object" in capsys.readouterr().err

    def test_plan_with_malformed_second_cell_runs_nothing(self, tmp_path,
                                                          capsys):
        plan_path = write_plan(tmp_path, seeds=[0, 1], cells=[
            {"n": 64, "m": 24, "k": 3}, {"n": "64", "m": 24, "k": 3}])
        rows_path = tmp_path / "rows.csv"
        rc = main(["bench", "--plan", plan_path, "--out-rows", str(rows_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "n must be an integer" in captured.err
        assert "seed" not in captured.out
        assert not rows_path.exists()

    def test_repeated_cell_is_rejected_before_any_run(self, tmp_path,
                                                      capsys):
        # the aggregates match rows to cells by value, so a repeated cell
        # would count the rows of both copies twice
        cell = {"n": 48, "m": 16, "k": 3}
        with pytest.raises(ValueError, match="appears more than once"):
            BenchPlan(family="cauchy", cells=[cell, dict(cell)], seeds=[0, 1],
                      pipeline="mba_l1", config=SolverConfig())
        plan_path = write_plan(tmp_path, seeds=[0, 1], cells=[
            cell, {"n": 40, "m": 16, "k": 3}, cell])
        rows_path = tmp_path / "rows.csv"
        rc = main(["bench", "--plan", plan_path, "--out-rows", str(rows_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "appears more than once" in captured.err
        assert "seed" not in captured.out
        assert not rows_path.exists()

    def test_repeated_seed_is_rejected_before_any_run(self, tmp_path,
                                                      capsys):
        # a repeated seed would solve its instance again and weight it
        # twice in every per-cell statistic
        rows_path = tmp_path / "rows.csv"
        rc = main(["bench", "--plan", write_plan(tmp_path, seeds=[0, 1, 0]),
                   "--out-rows", str(rows_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "appears more than once" in captured.err
        assert "seed" not in captured.out
        assert not rows_path.exists()

    def test_cell_with_more_rows_than_columns_is_rejected_before_any_run(
            self, tmp_path, capsys):
        # no matrix with more rows than columns has full row rank, so the
        # whole-plan check rejects the second cell before the first runs
        cells = [{"n": 48, "m": 16, "k": 3}, {"n": 8, "m": 12, "k": 2}]
        rows_path = tmp_path / "rows.csv"
        rc = main(["bench", "--plan", write_plan(tmp_path, cells=cells,
                                                 seeds=[0, 1]),
                   "--out-rows", str(rows_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "must not exceed n = 8" in captured.err
        assert "seed" not in captured.out
        assert not rows_path.exists()

    @pytest.mark.parametrize("error, status", [
        (drivers.InfeasibleStartError, "infeasible_start"),
        (drivers.InnerLoopError, "inner_loop_failure"),
        (SubsolverError, "subsolver_failure"),
    ])
    def test_run_that_raises_gets_a_typed_row(self, monkeypatch, error,
                                              status):
        # a typed error out of the pipeline is a row with its status and
        # nan figures, not an aborted plan
        def fail(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(cli, "run_pipeline", fail)
        plan = BenchPlan(family="cauchy", cells=[{"n": 48, "m": 16, "k": 3}],
                         seeds=[0, 1], pipeline="mba_ratio",
                         config=SolverConfig())
        report = run_bench_plan(plan)
        assert [row["seed"] for row in report.rows] == [0, 1]
        for row in report.rows:
            assert row["status"] == status
            assert row["iters"] == 0 and row["warm_status"] is None
            assert row["t_gen"] > 0.0
            assert all(math.isnan(row[key]) for key in (
                "rec_err", "residual", "t_warm", "t_main", "warm_rec_err"))
        (agg,) = report.aggregates
        assert agg["n_ok"] == 0 and agg["failures"] == 2
        assert math.isnan(agg["rec_err_mean"])

    @pytest.mark.parametrize("flags", [
        ["--family", "robust-cs"],
        ["--n", "64"],
        ["--F", "5.0"],
        ["--seeds", "0:3"],
        ["--pipeline", "two_stage"],
        ["--tol", "1e-2"],
        ["--max-outer-iters", "3"],
        ["--warm-tol", "1e-3"],
        ["--config", "cfg.json"],
    ])
    def test_plan_rejects_inline_plan_flags(self, flags, tmp_path, capsys):
        # the plan file is bench's only input of what to run: a plan
        # setting given as a flag is a usage error, and nothing runs
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--plan", write_plan(tmp_path), *flags])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flags[0]}" in captured.err
        assert captured.out == ""

    def test_plan_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--quiet"])
        assert exc.value.code == 2
        assert "--plan" in capsys.readouterr().err

    def test_plan_warm_tol_outside_two_stage_runs_nothing(self, tmp_path,
                                                          capsys):
        rows_path = tmp_path / "rows.csv"
        rc = main(["bench", "--plan", write_plan(tmp_path, warm_tol=1e-3),
                   "--out-rows", str(rows_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: warm_tol applies only to")
        assert "seed" not in captured.out
        assert not rows_path.exists()

    def test_plan_keeps_jobs_quiet_and_outputs(self, tmp_path, capsys):
        plan_path = write_plan(tmp_path, seeds=[0, 1],
                               cells=[{"n": 48, "m": 16, "k": 3}])
        rows, agg = tmp_path / "rows.csv", tmp_path / "agg.csv"
        rc = main(["bench", "--plan", plan_path, "--jobs", "2",
                   "--quiet", "--out-rows", str(rows), "--out-agg", str(agg)])
        assert rc == 0
        assert "seed" not in capsys.readouterr().out
        assert len(read_rows(rows)) == 3 and len(read_rows(agg)) == 2

    def test_config_file_with_record_trace_fails(self, tmp_path, capsys):
        rc = main(["bench", "--plan",
                   write_plan(tmp_path, config={"record_trace": False})])
        assert rc == 1
        assert ("unknown plan config fields: ['record_trace']"
                in capsys.readouterr().err)


class TestBenchPlan:
    CELL = {"n": 48, "m": 16, "k": 3}

    def plan(self, **fields):
        return BenchPlan(**{"family": "cauchy", "cells": [self.CELL],
                            "seeds": [0], "pipeline": "mba_ratio",
                            "config": SolverConfig(), **fields})

    @pytest.mark.parametrize("cell", [
        {"n": "48", "m": 16, "k": 3},
        {"n": 48, "m": 16, "k": 49},
        {"n": 48, "m": 16},
        {"n": 48, "m": 16, "k": 3, "gamma": 0.02},
        [48, 16, 3],
        {"n": 8, "m": 12, "k": 2},
    ])
    def test_malformed_second_cell_raises_at_construction(self, cell):
        with pytest.raises(ValueError):
            self.plan(cells=[self.CELL, cell])

    @pytest.mark.parametrize("seeds", [[True], [0.9], 3, [-1], [0, "1"],
                                       (0, 1), [], [0, 1, 0]])
    def test_malformed_seeds_raise_at_construction(self, seeds):
        with pytest.raises(ValueError):
            self.plan(seeds=seeds)

    @pytest.mark.parametrize("warm_tol", ["1e-6", 0.0, math.inf, True])
    def test_malformed_warm_tol_raises_at_construction(self, warm_tol):
        with pytest.raises(ValueError, match="warm_tol"):
            self.plan(pipeline="two_stage", warm_tol=warm_tol)

    @pytest.mark.parametrize("pipeline", ["mba_ratio", "mba_l1",
                                          "algorithm1"])
    def test_warm_tol_outside_two_stage_raises_at_construction(self,
                                                               pipeline):
        with pytest.raises(ValueError, match="only to the two_stage"):
            self.plan(pipeline=pipeline, warm_tol=1e-3)

    def test_config_that_is_not_a_solver_config_raises_at_construction(self):
        with pytest.raises(ValueError, match="must be a SolverConfig"):
            self.plan(config={"tol": 1e-6})

    def test_valid_plan_keeps_its_fields(self):
        plan = self.plan(seeds=[np.int64(2), 0], pipeline="two_stage",
                         warm_tol=1)
        assert plan.seeds == [2, 0] and plan.cells == [self.CELL]
        assert type(plan.warm_tol) is float


# the paper's three acceptance plans, as tests/test_acceptance.py runs them
_COMMITTED_PLANS = {
    "robust_cs_ratio.json": (
        "robust_cs", {"n": 2560, "p": 720, "k": 80, "iota": 10}, "mba_ratio",
        SolverConfig(tol=1e-6, feas_tol=1e-13), None),
    "cauchy_two_stage.json": (
        "cauchy", {"n": 2560, "m": 720, "k": 80}, "two_stage",
        SolverConfig(tol=1e-6, feas_tol=1e-13), 1e-6),
    "badly_scaled_two_stage.json": (
        "badly_scaled", {"n": 1024, "m": 64, "k": 8, "F": 5.0, "D": 2.0},
        "two_stage", SolverConfig(tol=1e-8, feas_tol=1e-13), None),
}


class TestCommittedPlans:
    def test_every_plan_file_is_pinned(self):
        assert sorted(p.name for p in (ROOT / "plans").glob("*.json")) == \
            sorted(_COMMITTED_PLANS)

    @pytest.mark.parametrize("name", sorted(_COMMITTED_PLANS))
    def test_plan_loads_as_pinned(self, name):
        # load_plan checks every (cell, seed) pair without generating
        family, cell, pipeline, config, warm_tol = _COMMITTED_PLANS[name]
        plan = load_plan(ROOT / "plans" / name)
        assert (plan.family, plan.cells, plan.pipeline) == (
            family, [cell], pipeline)
        assert plan.seeds == list(range(20))
        assert plan.config == config
        assert plan.warm_tol == warm_tol


def readme_commands():
    """Every sparseratio command of README's sh blocks, continuations joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("sparseratio "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert any(argv[0] == "bench" for argv in commands)
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        if args.command == "bench":
            assert (ROOT / args.plan).is_file(), args.plan


class TestRunPipeline:
    def test_two_stage_ratio_stage_starts_at_warm_iterate(self):
        inst = generate(GenSpec(family="cauchy", n=64, m=24, k=3, seed=2))
        pres = run_pipeline(inst.model, "two_stage",
                            SolverConfig(record_iterates=True), 1e-4)
        assert pres.warm_iterations > 0
        start = pres.main_trace.iterates[0]
        assert start.tobytes() == pres.warm_x.tobytes()
        assert np.array_equal(pres.warm_trace.iterates[-1], pres.warm_x)

    def test_warm_stage_status(self):
        inst = generate(GenSpec(family="cauchy", n=64, m=24, k=3, seed=0))
        cfg = SolverConfig(max_outer_iters=50)
        pres = run_pipeline(inst.model, "two_stage", cfg, 1e-15)
        assert pres.warm_status == "max_iters"
        assert pres.warm_iterations == cfg.max_outer_iters
        assert pres.status == "converged"
        assert run_pipeline(inst.model, "mba_l1", cfg).warm_status is None

    @pytest.mark.parametrize("pipeline", ["mba_ratio", "mba_l1",
                                          "algorithm1"])
    def test_warm_tol_outside_two_stage_raises(self, pipeline):
        model = generate(GenSpec(family="cauchy", n=64, m=24, k=3,
                                 seed=0)).model
        with pytest.raises(ValueError, match="only to the two_stage"):
            run_pipeline(model, pipeline, SolverConfig(), 1e-3)


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

    @pytest.mark.parametrize("field, factor", [("sigma", 3.0), ("gamma", 2.0)])
    def test_tampered_model_parameter_fails(self, cauchy_instance, field,
                                            factor, capsys):
        # solve reads the stored model, not one regenerated from gen_spec
        doc = json.loads(cauchy_instance.read_text())
        doc["model"][field] *= factor
        cauchy_instance.write_text(json.dumps(doc))
        rc = main(["check", "--instance", str(cauchy_instance)])
        assert rc == 1
        assert "FAIL: regenerates bitwise from gen_spec" in capsys.readouterr().out

    def test_tampered_robust_cs_budget_fails(self, tmp_path, capsys):
        path = tmp_path / "robust.json"
        assert main(["gen", "robust-cs", "--n", "64", "--p", "20", "--k", "3",
                     "--iota", "2", "--seed", "1", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["model"]["r"] == 4
        doc["model"]["r"] = 5
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["check", "--instance", str(path)])
        assert rc == 1
        assert "FAIL: regenerates bitwise from gen_spec" in capsys.readouterr().out



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
    "list-variant": _edit(lambda doc: doc["model"].update(variant=["huber"])),
    "unknown-gen_spec-field": _edit(lambda doc: doc["gen_spec"].update(
        sigma_factor=1.2)),
    "list-gen_spec": _edit(lambda doc: doc.update(gen_spec=[1])),
    "list-document": lambda doc: json.dumps([doc]),
    "list-model": _edit(lambda doc: doc.update(model=[doc["model"]])),
    "list-noise_record": _edit(lambda doc: doc.update(noise_record=[1.0])),
    "list-sigma": _edit(lambda doc: doc["model"].update(sigma=[1.0])),
    "string-gamma": _edit(lambda doc: doc["model"].update(gamma="0.02")),
    "float-r": _edit(lambda doc: doc.update(model={
        "variant": "robust_cs", "sigma": doc["model"]["sigma"], "r": 2.5})),
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
