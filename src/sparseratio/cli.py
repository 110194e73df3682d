"""Command-line harness: generate instances, run solver pipelines, and
reproduce the benchmark tables over seed batches.

Subcommands:

* ``gen {robust-cs,cauchy,badly-scaled} ...`` writes an instance file and
  prints its summary.
* ``solve --instance F --pipeline P ...`` runs one pipeline on a stored
  instance, prints recovery metrics, optionally writes a result file.
  Its settings are flags: one per numeric SolverConfig field, ``--warm-tol``.
* ``bench --plan F`` runs the (cells x seeds) grid of a plan file, its only
  input of what to run (``plans/`` holds the three acceptance plans), and
  writes a per-run CSV and a per-cell aggregate CSV. A plan is checked
  whole, every (cell, seed) pair, before its first run; no cell or seed
  may repeat.
* ``check --instance F [--result F]`` re-verifies the invariants of stored
  artifacts; the instance's matrix, b, x_orig and model parameters must
  regenerate bitwise from its gen_spec.

Pipelines:

* ``mba_ratio``: ratio objective from the least-norm start.
* ``mba_l1``: plain l1 objective from the least-norm start.
* ``algorithm1``: the noiseless equality-constrained solver (ignores the
  instance's noise model; of interest on exact-measurement data).
* ``two_stage``: plain l1 warm start at ``warm_tol``, then the ratio stage
  at ``tol`` from the warm iterate. ``warm_tol`` is rejected (ValueError,
  exit 1) with any other pipeline.

A bench plan file is a JSON document::

    {"family": "robust_cs",
     "cells": [{"n": 2560, "p": 720, "k": 80, "iota": 10}],
     "seeds": [0, 1, 2],
     "pipeline": "two_stage",
     "config": {"tol": 1e-6},
     "warm_tol": 1e-6}

``config`` holds SolverConfig fields and may be partial. Exit codes:
0 success, 1 runtime or solver failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from statistics import mean, median

import numpy as np

from .drivers import (
    OBJECTIVE_PLAIN_L1,
    OBJECTIVE_RATIO,
    STATUS_CONVERGED,
    STATUS_MAX_ITERS,
    STATUS_SUBSOLVER_FAILURE,
    InfeasibleStartError,
    InnerLoopError,
    IterateTrace,
    SolverConfig,
    feasible_start,
    run_algorithm1,
    run_mba,
)
from .instances import (
    FAMILIES,
    FAMILY_BADLY_SCALED,
    FAMILY_CAUCHY,
    FAMILY_PARAMS,
    FAMILY_ROBUST_CS,
    FIELD_TYPES,
    GenSpec,
    ProblemInstance,
    _json_object,
    _model_params,
    generate,
    load_instance,
    load_result,
    rec_err,
    save_instance,
    save_result,
)
from .models import _as_number, q_value
from .subsolvers import SubsolverError, least_norm_solution

__all__ = [
    "PIPELINES",
    "BenchPlan",
    "BenchReport",
    "PipelineResult",
    "run_pipeline",
    "run_bench_plan",
    "write_rows_csv",
    "write_aggregate_csv",
    "build_parser",
    "main",
]

PIPELINE_MBA_RATIO = "mba_ratio"
PIPELINE_MBA_L1 = "mba_l1"
PIPELINE_ALGORITHM1 = "algorithm1"
PIPELINE_TWO_STAGE = "two_stage"
PIPELINES = (PIPELINE_MBA_RATIO, PIPELINE_MBA_L1, PIPELINE_ALGORITHM1,
             PIPELINE_TWO_STAGE)

_OK_STATUSES = (STATUS_CONVERGED, STATUS_MAX_ITERS)
# the typed errors a run can raise before its first accepted step, and the
# status a bench row records for each
_ERROR_STATUSES = {
    InfeasibleStartError: "infeasible_start",
    InnerLoopError: "inner_loop_failure",
    SubsolverError: STATUS_SUBSOLVER_FAILURE,
}

_ROW_TAIL = ("seed", "rec_err", "residual", "iters", "status",
             "t_gen", "t_warm", "t_main", "warm_rec_err", "warm_status")


@dataclass
class PipelineResult:
    """Everything a pipeline run produced, traces included.

    ``status`` is the last stage's; ``warm_status`` is the warm stage's own
    (a warm stage that stops at max_outer_iters still hands its iterate on),
    None without a warm stage.
    """

    x_final: np.ndarray
    status: str
    iterations: int
    warm_iterations: int
    warm_x: np.ndarray | None
    warm_status: str | None
    criticality_residual: float | None
    t_warm: float
    t_main: float
    warm_trace: IterateTrace | None
    main_trace: IterateTrace


@dataclass
class BenchPlan:
    """A (cells x seeds) grid under one pipeline and SolverConfig, checked
    whole here: every (cell, seed) pair must make a valid GenSpec and no
    cell or seed may repeat (the aggregates match rows to cells by value,
    and a repeated seed would weight its instance twice), so a malformed
    plan raises ValueError before its first run."""

    family: str
    cells: list[dict]
    seeds: list[int]
    pipeline: str
    config: SolverConfig
    warm_tol: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not (isinstance(self.cells, list) and isinstance(self.seeds, list)):
            raise ValueError("plan cells and seeds must be lists")
        if not self.cells:
            raise ValueError("plan needs at least one cell")
        if not self.seeds:
            raise ValueError("plan needs at least one seed")
        if self.pipeline not in PIPELINES:
            raise ValueError(f"unknown pipeline {self.pipeline!r}")
        if not isinstance(self.config, SolverConfig):
            raise ValueError(
                f"plan config must be a SolverConfig, got {self.config!r}")
        _check_warm_tol(self.pipeline, self.warm_tol)
        wanted = set(FAMILY_PARAMS[self.family])
        for i, cell in enumerate(self.cells):
            if not isinstance(cell, dict) or set(cell) != wanted:
                raise ValueError(
                    f"cell {cell!r} must have exactly the keys {sorted(wanted)}"
                )
            if cell in self.cells[:i]:
                raise ValueError(f"cell {cell!r} appears more than once")
            for seed in self.seeds:
                GenSpec(family=self.family, seed=seed, **cell)
        for i, seed in enumerate(self.seeds):
            if seed in self.seeds[:i]:
                raise ValueError(f"seed {seed!r} appears more than once")
        if self.warm_tol is not None:
            self.warm_tol = _as_number(self.warm_tol, False, "warm_tol")
            if not self.warm_tol > 0:
                raise ValueError("warm_tol must be positive")


def _check_warm_tol(pipeline: str, warm_tol):
    if warm_tol is not None and pipeline != PIPELINE_TWO_STAGE:
        raise ValueError(f"warm_tol applies only to the {PIPELINE_TWO_STAGE} "
                         f"pipeline, not {pipeline}")


@dataclass
class BenchReport:
    plan: BenchPlan
    rows: list[dict]
    aggregates: list[dict]
    results: list[PipelineResult | None] | None = None


def run_pipeline(model, pipeline: str, cfg: SolverConfig,
                 warm_tol: float | None = None) -> PipelineResult:
    """Run one solve pipeline on a constraint model.

    Raises InfeasibleStartError / InnerLoopError / SubsolverError if the
    run cannot produce an iterate at all; a subproblem failure after the
    first accepted step surfaces as a status instead. ``warm_tol`` is the
    two_stage warm stage's tolerance (default: cfg.tol); any other
    pipeline raises ValueError if it is given.
    """
    if pipeline not in PIPELINES:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    _check_warm_tol(pipeline, warm_tol)

    warm = None
    t_warm = 0.0
    t0 = time.perf_counter()
    if pipeline == PIPELINE_ALGORITHM1:
        x0 = least_norm_solution(model.A, model.b)
        res = run_algorithm1(model.A, model.b, x0, cfg)
    else:
        x0 = feasible_start(model, cfg.feas_tol)
        if pipeline == PIPELINE_TWO_STAGE:
            warm_cfg = dataclasses.replace(
                cfg, tol=cfg.tol if warm_tol is None else warm_tol)
            warm = run_mba(model, OBJECTIVE_PLAIN_L1, x0, warm_cfg)
            x0 = warm.x_final
            t1 = time.perf_counter()
            t_warm, t0 = t1 - t0, t1
        objective = (OBJECTIVE_PLAIN_L1 if pipeline == PIPELINE_MBA_L1
                     else OBJECTIVE_RATIO)
        res = run_mba(model, objective, x0, cfg)
    t_main = time.perf_counter() - t0
    warm_iterations = warm.iterations if warm else 0
    return PipelineResult(
        x_final=res.x_final, status=res.status,
        iterations=warm_iterations + res.iterations,
        warm_iterations=warm_iterations,
        warm_x=warm.x_final if warm else None,
        warm_status=warm.status if warm else None,
        criticality_residual=res.criticality_residual,
        t_warm=t_warm, t_main=t_main,
        warm_trace=warm.trace if warm else None, main_trace=res.trace)


def _bench_worker(plan: BenchPlan, keep_result: bool, cell: dict,
                  seed: int):
    """One (cell, seed) run. Must stay module-level for process pools."""
    t0 = time.perf_counter()
    inst = generate(GenSpec(family=plan.family, seed=seed, **cell))
    t_gen = time.perf_counter() - t0

    row = {"family": plan.family, **cell, "seed": seed, "t_gen": t_gen}
    try:
        pres = run_pipeline(inst.model, plan.pipeline, plan.config,
                            plan.warm_tol)
    except tuple(_ERROR_STATUSES) as exc:
        status = next(s for cls, s in _ERROR_STATUSES.items()
                      if isinstance(exc, cls))
        row.update(rec_err=math.nan, residual=math.nan, iters=0,
                   status=status, t_warm=math.nan,
                   t_main=math.nan, warm_rec_err=math.nan, warm_status=None)
        return row, None

    warm_re = (rec_err(pres.warm_x, inst.x_orig)
               if pres.warm_x is not None else math.nan)
    row.update(
        rec_err=rec_err(pres.x_final, inst.x_orig),
        residual=q_value(inst.model, pres.x_final),
        iters=pres.iterations, status=pres.status,
        t_warm=pres.t_warm, t_main=pres.t_main, warm_rec_err=warm_re,
        warm_status=pres.warm_status)
    return row, (pres if keep_result else None)


def run_bench_plan(plan: BenchPlan, jobs: int = 1,
                   keep_results: bool = False,
                   progress=None) -> BenchReport:
    """Run every (cell, seed) pair of a plan.

    Results come back in plan order whatever ``jobs`` is, so a rerun with
    the same plan reproduces the row list bitwise. ``progress`` is an
    optional callable fed each row in that order.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    cells = [cell for cell in plan.cells for _ in plan.seeds]
    seeds = [seed for _ in plan.cells for seed in plan.seeds]
    worker = partial(_bench_worker, plan, keep_results)
    rows, results = [], []
    if jobs > 1:
        # imported here: it loads multiprocessing, which a serial run never uses
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=jobs)
    else:
        pool = contextlib.nullcontext()
    with pool:
        outputs = (pool.map if jobs > 1 else map)(worker, cells, seeds)
        for row, pres in outputs:
            rows.append(row)
            results.append(pres)
            if progress is not None:
                progress(row)

    return BenchReport(plan=plan, rows=rows,
                       aggregates=compute_aggregates(plan, rows),
                       results=results if keep_results else None)


# aggregate column -> (row column, statistic over the successful runs)
_AGGREGATES = {
    "rec_err_mean": ("rec_err", mean),
    "rec_err_median": ("rec_err", median),
    "residual_mean": ("residual", mean),
    "t_gen_mean": ("t_gen", mean),
    "t_warm_mean": ("t_warm", mean),
    "t_main_mean": ("t_main", mean),
    "warm_rec_err_mean": ("warm_rec_err", mean),
    "warm_rec_err_median": ("warm_rec_err", median),
}


def compute_aggregates(plan: BenchPlan, rows: list[dict]) -> list[dict]:
    """Per-cell mean/median summaries over the successful runs.

    A cell without one successful run gets nan for every statistic, and so
    do the warm columns of a pipeline without a warm stage.
    """
    params = FAMILY_PARAMS[plan.family]
    aggs = []
    for cell in plan.cells:
        cell_rows = [r for r in rows
                     if all(r[p] == cell[p] for p in params)]
        ok = [r for r in cell_rows if r["status"] in _OK_STATUSES]
        agg = {"family": plan.family, **cell, "pipeline": plan.pipeline,
               "n_ok": len(ok), "failures": len(cell_rows) - len(ok)}
        for key, (column, stat) in _AGGREGATES.items():
            agg[key] = stat([r[column] for r in ok]) if ok else math.nan
        aggs.append(agg)
    return aggs


def _write_csv(path, header: list[str], records: list[dict]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for record in records:
            writer.writerow([record[col] for col in header])


def write_rows_csv(report: BenchReport, path):
    params = FAMILY_PARAMS[report.plan.family]
    _write_csv(path, ["family", *params, *_ROW_TAIL], report.rows)


def write_aggregate_csv(report: BenchReport, path):
    params = FAMILY_PARAMS[report.plan.family]
    _write_csv(path, ["family", *params, "pipeline", "n_ok", "failures",
                      *_AGGREGATES], report.aggregates)


# ---------------------------------------------------------------------------
# config / plan parsing

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(SolverConfig)}


def load_plan(path) -> BenchPlan:
    doc = _json_object(json.loads(Path(path).read_text(encoding="utf-8")),
                       "plan", {"family", "cells", "seeds", "pipeline",
                                "config", "warm_tol"})
    for key in ("family", "cells", "seeds", "pipeline"):
        if key not in doc:
            raise ValueError(f"plan is missing the {key!r} field")
    return BenchPlan(
        family=doc["family"], cells=doc["cells"],
        seeds=doc["seeds"], pipeline=doc["pipeline"],
        config=SolverConfig(**_json_object(doc.get("config", {}),
                                           "plan config", _CONFIG_FIELDS)),
        warm_tol=doc.get("warm_tol"))


# every numeric SolverConfig field is a solve flag of the same name
_SOLVER_FLAGS = {f.name: int if f.type == "int" else float
                 for f in dataclasses.fields(SolverConfig) if f.type != "bool"}
_SOLVER_FLAG_HELP = {
    "tol": "outer relative-step tolerance",
    "alpha": "proximal weight of the l1 subproblem",
}


def _config_from_args(args) -> SolverConfig:
    return SolverConfig(**{name: getattr(args, name) for name in _SOLVER_FLAGS
                           if getattr(args, name) is not None})


# ---------------------------------------------------------------------------
# subcommands

def _print_instance_summary(inst: ProblemInstance, dest: str | None):
    model = inst.model
    spec = inst.gen_spec
    line = (f"{spec.family}: A {model.A.m}x{model.A.n}, k={spec.k}, "
            f"seed={spec.seed}, sigma={model.sigma:.6g}, "
            f"q(x_orig)={q_value(model, inst.x_orig):.6g}")
    if dest:
        line += f", wrote {dest}"
    print(line)


def _cmd_gen(args) -> int:
    family = args.family.replace("-", "_")
    params = {name: getattr(args, name) for name in FAMILY_PARAMS[family]}
    inst = generate(GenSpec(family=family, seed=args.seed, **params))
    if args.out:
        save_instance(inst, args.out)
    _print_instance_summary(inst, args.out)
    return 0


def _trace_to_dict(trace: IterateTrace | None) -> dict | None:
    if trace is None:
        return None
    doc = dataclasses.asdict(trace)
    doc.pop("iterates", None)  # full iterate history stays in memory only
    return doc


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    cfg = _config_from_args(args)
    pres = run_pipeline(inst.model, args.pipeline, cfg, args.warm_tol)

    re_final = rec_err(pres.x_final, inst.x_orig)
    residual = q_value(inst.model, pres.x_final)
    crit = pres.criticality_residual
    print(f"pipeline={args.pipeline} status={pres.status} "
          f"iters={pres.iterations} rec_err={re_final:.6g} "
          f"residual={residual:.6g}"
          + (f" criticality={crit:.6g}" if crit is not None else "")
          + f" t_warm={pres.t_warm:.3f}s t_main={pres.t_main:.3f}s")
    if pres.warm_x is not None:
        print(f"warm stage: status={pres.warm_status} "
              f"iters={pres.warm_iterations} "
              f"rec_err={rec_err(pres.warm_x, inst.x_orig):.6g} "
              f"t={pres.t_warm:.3f}s")

    if args.out:
        metrics = {
            "rec_err": re_final,
            "residual": residual,
            "iterations": pres.iterations,
            "warm_iterations": pres.warm_iterations,
            "criticality_residual": crit,
            "t_warm": pres.t_warm,
            "t_main": pres.t_main,
        }
        if pres.warm_x is not None:
            metrics["warm_rec_err"] = rec_err(pres.warm_x, inst.x_orig)
            metrics["warm_status"] = pres.warm_status
        payload = {
            "run_config": {"pipeline": args.pipeline,
                           "warm_tol": args.warm_tol,
                           **{name: getattr(cfg, name)
                              for name in _SOLVER_FLAGS}},
            "status": pres.status,
            "metrics": metrics,
            "x_final": pres.x_final.tolist(),
        }
        if args.trace:
            payload["trace"] = {"warm": _trace_to_dict(pres.warm_trace),
                                "main": _trace_to_dict(pres.main_trace)}
        save_result(payload, args.out)
    return 0 if pres.status in _OK_STATUSES else 1


def _cmd_bench(args) -> int:
    plan = load_plan(args.plan)

    def progress(row: dict):
        if not args.quiet:
            print(f"  seed {row['seed']}: status={row['status']} "
                  f"rec_err={row['rec_err']:.6g} "
                  f"residual={row['residual']:.3g} iters={row['iters']}")

    report = run_bench_plan(plan, jobs=args.jobs, progress=progress)

    for agg in report.aggregates:
        cell_desc = ", ".join(
            f"{p}={agg[p]}" for p in FAMILY_PARAMS[plan.family])
        print(f"{plan.family} [{cell_desc}] {plan.pipeline}: "
              f"ok={agg['n_ok']} failures={agg['failures']} "
              f"rec_err mean={agg['rec_err_mean']:.4g} "
              f"median={agg['rec_err_median']:.4g} "
              f"residual mean={agg['residual_mean']:.3g}")

    if args.out_rows:
        write_rows_csv(report, args.out_rows)
    if args.out_agg:
        write_aggregate_csv(report, args.out_agg)
    return 0 if all(a["failures"] == 0 for a in report.aggregates) else 1


def _check_line(name: str, ok: bool, detail: str = "") -> bool:
    mark = "ok" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    print(f"{mark}: {name}{suffix}")
    return ok


def _cmd_check(args) -> int:
    inst = load_instance(args.instance)
    model = inst.model
    spec = inst.gen_spec
    all_ok = True

    nnz = int(np.count_nonzero(inst.x_orig))
    all_ok &= _check_line("x_orig has exactly k nonzeros", nnz == spec.k,
                          f"{nnz} != {spec.k}")
    q0 = q_value(model, inst.x_orig)
    all_ok &= _check_line("ground truth feasible", q0 <= 0.0, f"q={q0:.3e}")

    if spec.family in (FAMILY_ROBUST_CS, FAMILY_CAUCHY):
        col_norms = np.linalg.norm(model.A.entries, axis=0)
        dev = float(np.abs(col_norms - 1.0).max())
        all_ok &= _check_line("unit matrix columns", dev <= 1e-12,
                              f"max deviation {dev:.3e}")

    # the model's variant, sigma and own fields are what solve reads
    regen = generate(spec)
    same = (np.array_equal(regen.model.A.entries, model.A.entries)
            and np.array_equal(regen.model.b, model.b)
            and np.array_equal(regen.x_orig, inst.x_orig)
            and _model_params(regen.model) == _model_params(model))
    all_ok &= _check_line("regenerates bitwise from gen_spec", same)

    if args.result:
        doc = load_result(args.result)
        known = {*_OK_STATUSES, *_ERROR_STATUSES.values()}
        all_ok &= _check_line("result status known",
                              doc["status"] in known,
                              f"{doc['status']!r}")
        metrics = doc["metrics"]
        if "x_final" in doc:
            x_final = np.array(doc["x_final"], dtype=float)
            re_calc = rec_err(x_final, inst.x_orig)
            all_ok &= _check_line(
                "stored rec_err matches x_final",
                math.isclose(re_calc, metrics["rec_err"],
                             rel_tol=1e-9, abs_tol=1e-12),
                f"{re_calc!r} vs {metrics['rec_err']!r}")
            res_calc = q_value(model, x_final)
            all_ok &= _check_line(
                "stored residual matches x_final",
                math.isclose(res_calc, metrics["residual"],
                             rel_tol=1e-9, abs_tol=1e-12),
                f"{res_calc!r} vs {metrics['residual']!r}")
        if doc.get("trace"):
            all_ok &= _check_trace(doc)
    return 0 if all_ok else 1


def _check_trace(doc: dict) -> bool:
    """Monotonicity and feasibility of a stored trace."""
    ok = True
    pipeline = doc["run_config"].get("pipeline")
    feas_tol = doc["run_config"].get("feas_tol", SolverConfig.feas_tol)
    for stage, trace in doc["trace"].items():
        if trace is None:
            continue
        plain = (pipeline == PIPELINE_MBA_L1
                 or (pipeline == PIPELINE_TWO_STAGE and stage == "warm"))
        vals = trace["objective"] if plain else trace["omega"]
        worst = max((vals[t + 1] - vals[t] for t in range(len(vals) - 1)),
                    default=0.0)
        ok &= _check_line(f"{stage} trace objective monotone", worst <= 1e-8,
                          f"max increase {worst:.3e}")
        if trace["q_vals"]:
            q_max = max(trace["q_vals"])
            ok &= _check_line(f"{stage} trace iterates feasible",
                              q_max <= feas_tol + 1e-15,
                              f"max q {q_max:.3e}")
    return ok


# ---------------------------------------------------------------------------
# parser

_FAMILY_HELP = {
    FAMILY_ROBUST_CS: "Gaussian matrix, sparse outliers",
    FAMILY_CAUCHY: "Gaussian matrix, Cauchy noise",
    FAMILY_BADLY_SCALED: "cosine matrix, wide-dynamic-range signal",
}
_PARAM_HELP = {
    "p": "clean measurement count (rows are p + iota)",
    "iota": "outlier count; the model budget is r = 2 iota",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseratio",
        description="Sparse recovery via l1/l2-ratio minimization: "
                    "instance generators, solvers, benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen_sub = gen.add_subparsers(dest="family", required=True)

    for family, params in FAMILY_PARAMS.items():
        sp = gen_sub.add_parser(family.replace("_", "-"),
                                help=_FAMILY_HELP[family])
        for name in params:
            sp.add_argument(f"--{name}", type=FIELD_TYPES[name], required=True,
                            help=_PARAM_HELP.get(name))
        sp.add_argument("--seed", type=int, required=True)
        sp.add_argument("--out", default=None, help="instance file to write")
        sp.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="run one pipeline on an instance")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--pipeline", choices=PIPELINES,
                       default=PIPELINE_MBA_RATIO)
    solve.add_argument("--trace", action="store_true",
                       help="include the per-iteration trace in the result")
    solve.add_argument("--out", default=None, help="result file to write")
    group = solve.add_argument_group("solver options")
    for name, kind in _SOLVER_FLAGS.items():
        group.add_argument(f"--{name.replace('_', '-')}", type=kind,
                           default=None, dest=name,
                           help=_SOLVER_FLAG_HELP.get(name))
    group.add_argument("--warm-tol", type=float, default=None, dest="warm_tol",
                       help="tolerance of the two_stage warm stage, "
                            "two_stage only (default: same as --tol)")
    solve.set_defaults(func=_cmd_solve)

    bench = sub.add_parser("bench", help="run the (cells x seeds) grid of a "
                                         "plan file")
    bench.add_argument("--plan", required=True,
                       help="JSON plan file, e.g. plans/robust_cs_ratio.json")
    bench.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1, reproducible "
                            "timing)")
    bench.add_argument("--out-rows", default=None, dest="out_rows",
                       help="per-run CSV path")
    bench.add_argument("--out-agg", default=None, dest="out_agg",
                       help="per-cell aggregate CSV path")
    bench.add_argument("--quiet", action="store_true")
    bench.set_defaults(func=_cmd_bench)

    check = sub.add_parser("check",
                           help="re-verify a stored instance/result pair")
    check.add_argument("--instance", required=True)
    check.add_argument("--result", default=None)
    check.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(_ERROR_STATUSES) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
