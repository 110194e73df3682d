"""Micro-benchmarks of the sensing-matrix factorization (both paths), the
least-norm solve, the RobustCS hooks, one moving-balls outer step and the
criticality check.

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


def _ill_conditioned_entries():
    # acceptance plan 3's badly_scaled cell at seed 1382: rho 2.8e-3 (the
    # estimate of 1/cond(A) that models._CHOLESKY_RTOL bounds) and cond(A)
    # 519 send it to the QR
    return generate(GenSpec(family="badly_scaled", n=1024, m=64, k=8, F=5.0,
                            D=2.0, seed=1382)).model.A.entries


@pytest.mark.parametrize("writeable", [False, True],
                         ids=["adopted", "copied"])
@pytest.mark.parametrize("path", ["cholesky", "qr"])
def test_sensing_matrix_factorization(benchmark, robust_mid_run, path,
                                      writeable):
    # cholesky: A A^T, its Cholesky factor and the one forward substitution
    # of the condition estimate on the 730 x 2560 robust_cs matrix, which
    # keeps L; the QR is not formed. qr: the same on an ill-conditioned
    # badly_scaled matrix, which then falls back to np.linalg.qr of A^T,
    # with the R of the model's own matrix. A writeable A is copied first
    if path == "cholesky":
        model_a = robust_mid_run[0].A
    else:
        model_a = SensingMatrix(_ill_conditioned_entries())
    entries = model_a.entries.copy() if writeable else model_a.entries
    sm = benchmark(SensingMatrix, entries)
    assert (sm.entries is entries) != writeable
    assert (sm.cholesky is None) == (path == "qr")
    assert (sm._qr is None) == (path == "cholesky")
    if path == "qr":
        assert sm.qr[1].tobytes() == model_a.qr[1].tobytes()


def test_least_norm_solution(benchmark, robust_mid_run):
    # four triangular solves with the Cholesky factor and three products
    # with A: the semi-normal equations and their one correction step
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
