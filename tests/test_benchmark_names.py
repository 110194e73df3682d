"""The benchmark reaches into the package by name; those names must exist.

``perfbench/tracer.py`` swaps package attributes, and ``perfbench/run.py``
and ``perfbench/workloads.py`` call ``cli.run_pipeline``, read fields of its
result and of the iterate traces, catch the typed run errors, and build each
workload's SolverConfig and GenSpec from its settings.
"""

import dataclasses
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import sparseratio
from sparseratio.cli import PipelineResult, run_pipeline
from sparseratio.drivers import (
    OBJECTIVE_PLAIN_L1,
    OBJECTIVE_RATIO,
    IterateTrace,
    SolverConfig,
    feasible_start,
)
from sparseratio.instances import GenSpec, generate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    # load the module by path: perfbench is not a package, and its run.py
    # sets environment variables on import
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body is processed
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_swaps_resolve_on_package():
    tracer = load_perfbench("tracer")
    names = [(module, attr) for module, attr, _ in tracer.SWAPS]
    for module, attr in [*names, ("subsolvers", "soft_threshold")]:
        assert hasattr(getattr(sparseratio, module), attr), f"{module}.{attr}"


def test_ball_prox_layer_counts():
    # each ball-prox call evaluates one point x(mu), and run_mba reaches the
    # layer only through the name the tracer swaps; it builds its trial
    # problems unchecked, so no BallProxProblem span opens
    tracer_module = load_perfbench("tracer")
    inst = generate(GenSpec(family="cauchy", n=128, m=48, k=6, seed=3))
    x0 = feasible_start(inst.model)
    with tracer_module.Tracer(sparseratio) as tracer:
        sparseratio.drivers.run_mba(inst.model, OBJECTIVE_RATIO, x0,
                                    SolverConfig(max_outer_iters=40))
    totals = tracer_module.layer_totals(tracer.spans)
    calls = totals["subsolvers.prox_l1_ball"]["calls"]
    assert calls > 40
    assert tracer.evals[None, "subsolvers.prox_l1_ball"] == calls
    assert "subsolvers.BallProxProblem" not in totals
    assert tracer.calls["drivers.BallProxProblem"] == 0


@pytest.mark.parametrize("spec", [
    GenSpec(family="cauchy", n=128, m=48, k=6, seed=3),
    GenSpec(family="robust_cs", n=128, p=44, iota=4, k=6, seed=3),
], ids=["cauchy", "robust_cs"])
@pytest.mark.parametrize("objective", [OBJECTIVE_RATIO, OBJECTIVE_PLAIN_L1])
def test_residual_hook_counts(spec, objective):
    # run_mba reaches each model formula only through the three names the
    # tracer swaps: q at the origin, at x0 and once per ball-prox trial;
    # grad P1 once per outer step; subgrad P2 with it where P2 is not 0. A
    # ratio run's criticality check adds one q and one Clarke element.
    tracer_module = load_perfbench("tracer")
    inst = generate(spec)
    x0 = feasible_start(inst.model)
    with tracer_module.Tracer(sparseratio) as tracer:
        res = sparseratio.drivers.run_mba(inst.model, objective, x0,
                                          SolverConfig(max_outer_iters=40))
    check = int(objective == OBJECTIVE_RATIO)
    proxes = tracer.calls["drivers.prox_l1_ball"]
    grads = tracer.calls["drivers._grad_p1_of_residual"]
    assert res.iterations > 0 and proxes >= res.iterations
    assert tracer.calls["drivers._q_of_residual"] == proxes + 2 + check
    assert grads == res.iterations + check
    assert tracer.calls["drivers._subgrad_p2_of_residual"] == (
        grads if spec.family == "robust_cs" else 0)


def test_affine_prox_layer_counts():
    # the affine twin of the test above: run_algorithm1 reaches its prox
    # through the name the tracer swaps, once per outer iteration
    tracer_module = load_perfbench("tracer")
    rng = np.random.default_rng(6)
    A = sparseratio.SensingMatrix(rng.standard_normal((8, 30)))
    x_orig = np.zeros(30)
    x_orig[[3, 11, 20]] = [2.0, -1.0, 0.5]
    b = A.entries @ x_orig
    x0 = sparseratio.subsolvers.least_norm_solution(A, b)
    with tracer_module.Tracer(sparseratio) as tracer:
        res = sparseratio.drivers.run_algorithm1(A, b, x0,
                                                 SolverConfig(tol=1e-10))
    totals = tracer_module.layer_totals(tracer.spans)
    assert res.iterations > 1
    assert totals["subsolvers.prox_l1_affine"]["calls"] == res.iterations
    assert tracer.calls["drivers.prox_l1_affine"] == res.iterations


def test_criticality_layer_counts():
    # a ratio run_mba closes with one criticality check through the name the
    # tracer swaps; a plain_l1 run has no certificate and makes none
    tracer_module = load_perfbench("tracer")
    inst = generate(GenSpec(family="cauchy", n=128, m=48, k=6, seed=3))
    x0 = feasible_start(inst.model)
    for objective, expected in [(OBJECTIVE_RATIO, 1), (OBJECTIVE_PLAIN_L1, 0)]:
        with tracer_module.Tracer(sparseratio) as tracer:
            res = sparseratio.drivers.run_mba(inst.model, objective, x0,
                                              SolverConfig(max_outer_iters=40))
        totals = tracer_module.layer_totals(tracer.spans)
        assert totals["subsolvers.prox_l1_ball"]["calls"] > 0
        assert totals.get("drivers.criticality_residual",
                          {"calls": 0})["calls"] == expected
        assert tracer.calls["drivers.criticality_residual"] == expected
        assert (res.criticality_residual is None) == (expected == 0)


def test_fields_the_benchmark_reads():
    pipeline_fields = {f.name for f in dataclasses.fields(PipelineResult)}
    assert {"x_final", "status", "iterations", "warm_iterations",
            "criticality_residual", "t_warm", "t_main", "warm_trace",
            "main_trace"} <= pipeline_fields
    trace_fields = {f.name for f in dataclasses.fields(IterateTrace)}
    assert {"omega", "objective", "x_norm", "step_norm", "q_vals",
            "inner_doublings", "wall_time"} <= trace_fields


def test_run_pipeline_positional_signature():
    # run.py calls run_pipeline(inst.model, workload.pipeline, cfg, warm_tol)
    params = list(inspect.signature(run_pipeline).parameters.values())
    assert [p.name for p in params] == ["model", "pipeline", "cfg", "warm_tol"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


def test_names_the_benchmark_calls_without_swapping():
    # run.py's except tuple evaluates all three whenever a run raises
    for module, attr in [("drivers", "InfeasibleStartError"),
                         ("drivers", "InnerLoopError"),
                         ("subsolvers", "SubsolverError")]:
        assert issubclass(getattr(getattr(sparseratio, module), attr),
                          Exception), f"{module}.{attr}"
    for module, attr in [("drivers", "SolverConfig"), ("instances", "GenSpec"),
                         ("instances", "generate"), ("instances", "rec_err"),
                         ("models", "LeastSquares"), ("models", "q_value")]:
        assert callable(getattr(getattr(sparseratio, module), attr)), \
            f"{module}.{attr}"


def test_every_workload_builds_its_settings():
    workloads = load_perfbench("workloads")
    assert workloads.WORKLOADS
    for w in workloads.WORKLOADS.values():
        SolverConfig(**w.config)
        if w.spec["family"] != workloads.NOISELESS:
            GenSpec(seed=0, **w.spec)
