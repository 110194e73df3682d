"""Micro-benchmarks of the sensing-matrix factorization, the least-norm
solve, the RobustCS hooks, one moving-balls outer step and the criticality
check.

The file name keeps it out of the default ``test_*.py`` collection; run it
explicitly with pytest-benchmark:

    PYTHONPATH=src python -m pytest tests/bench_models.py

The instance is acceptance plan 1's robust_cs cell at seed 0 (m=730,
n=2560, r=20). The residual and the start point are taken at iterate 10 of
a ratio run, where the curvature has settled, rather than at the
least-norm start, whose residual is zero.
"""

import numpy as np
import pytest

from sparseratio import (
    OBJECTIVE_PLAIN_L1,
    OBJECTIVE_RATIO,
    GenSpec,
    SolverConfig,
    criticality_residual,
    feasible_start,
    generate,
    run_mba,
)
from sparseratio.models import (
    SensingMatrix,
    _subgrad_p2_of_residual,
    project_sparse,
)
from sparseratio.subsolvers import least_norm_solution

CFG = {"tol": 1e-6, "feas_tol": 1e-13}


@pytest.fixture(scope="module")
def robust_mid_run():
    model = generate(GenSpec(family="robust_cs", n=2560, p=720, k=80,
                             iota=10, seed=0)).model
    warm = run_mba(model, OBJECTIVE_RATIO, feasible_start(model),
                   SolverConfig(max_outer_iters=10, **CFG))
    return model, warm.x_final


@pytest.mark.parametrize("writeable", [False, True],
                         ids=["adopted", "copied"])
def test_sensing_matrix_factorization(benchmark, robust_mid_run, writeable):
    # the finiteness check and dgeqrf on its one copy of A^T; a writeable
    # A is copied first. Neither R nor the explicit Q is formed
    model, _ = robust_mid_run
    entries = model.A.entries.copy() if writeable else model.A.entries
    sm = benchmark(SensingMatrix, entries)
    assert sm.r.tobytes() == model.A.r.tobytes() and sm._q is None
    assert (sm.entries is entries) != writeable


def test_least_norm_solution(benchmark, robust_mid_run):
    # the triangular solve and the reflectors applied to one vector
    model, _ = robust_mid_run
    x = benchmark(least_norm_solution, model.A, model.b)
    assert np.linalg.norm(model.A.entries @ x - model.b) <= (
        1e-12 * np.linalg.norm(model.b))


def test_subgrad_p2_robust(benchmark, robust_mid_run):
    model, x = robust_mid_run
    res = model.A.entries @ x - model.b
    g = benchmark(_subgrad_p2_of_residual, model, res)
    full = 2.0 * (model.A.entries.T @ project_sparse(res, model.r))
    assert np.linalg.norm(g - full) <= 1e-12 * max(1.0, np.linalg.norm(full))


def test_run_mba_one_outer_step(benchmark, robust_mid_run):
    # plain_l1 skips the ratio run's closing criticality check, so the
    # time is the step itself: hooks, ball prox, trial products, doublings
    model, x = robust_mid_run
    cfg = SolverConfig(max_outer_iters=1, **CFG)
    out = benchmark(run_mba, model, OBJECTIVE_PLAIN_L1, x, cfg)
    assert out.iterations == 1


def test_criticality_residual(benchmark, robust_mid_run):
    # the check a ratio run makes once on its final iterate: q and the two
    # gradient hooks (three A products) plus the exact multiplier solve
    model, x = robust_mid_run
    crit = benchmark(criticality_residual, model, x, CFG["feas_tol"])
    assert 0.0 < crit < float("inf")
