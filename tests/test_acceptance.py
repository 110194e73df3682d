"""Acceptance checklist. One test per criterion, at the stated tolerance.

Run with `pytest tests/test_acceptance.py -v`; the -v line of each test is
the pass/fail record of its criterion, and each test also prints a one-line
verdict with the measured numbers. The three benchmark plans are run once
(module scope) and shared by the criteria that read them. The full module
takes a few minutes; nothing here is stochastic, every run is seeded.
"""

import dataclasses
import statistics
import time

import numpy as np
import pytest

from sparseratio.cli import BenchPlan, run_bench_plan
from sparseratio.drivers import SolverConfig, run_algorithm1
from sparseratio.instances import rec_err
from sparseratio.models import (
    LeastSquares,
    Lorentzian,
    RobustCS,
    SensingMatrix,
    grad_p1,
    lorentzian_grad,
    lorentzian_norm,
)
from sparseratio.subsolvers import (
    BallProxProblem,
    least_norm_solution,
    prox_l1_affine,
    prox_l1_ball,
)

from oracles import (
    central_diff_gradient,
    fit_log_linear,
    grid_prox_ball_oracle,
    projected_subgradient_affine,
)

# deselect with -m "not acceptance" for the fast tier
pytestmark = pytest.mark.acceptance

# the convergence-tail instance of criterion 7: flat sign-random spikes
_C7_SCALE = 8.0
_C7_SEED = 23


def _verdict(criterion: int, ok: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _run(plan: BenchPlan):
    return run_bench_plan(plan, jobs=1, keep_results=True)


def _robust_plan() -> BenchPlan:
    # feas_tol sits three decades under the 1e-10 descent/feasibility gates:
    # an iterate accepted with q in (0, feas_tol] lies outside the next
    # moving ball by ~2q/l, which shows up as a descent violation of order
    # |dF| q / |grad q|
    return BenchPlan(
        family="robust_cs",
        cells=[{"n": 2560, "p": 720, "k": 80, "iota": 10}],
        seeds=list(range(20)),
        pipeline="mba_ratio",
        config=SolverConfig(tol=1e-6, feas_tol=1e-13),
    )


@pytest.fixture(scope="module")
def robust_report():
    return _run(_robust_plan())


@pytest.fixture(scope="module")
def cauchy_report():
    plan = BenchPlan(
        family="cauchy",
        cells=[{"n": 2560, "m": 720, "k": 80}],
        seeds=list(range(20)),
        pipeline="two_stage",
        config=SolverConfig(tol=1e-6, feas_tol=1e-13),
        warm_tol=1e-6,
    )
    return _run(plan)


@pytest.fixture(scope="module")
def scaled_report():
    plan = BenchPlan(
        family="badly_scaled",
        cells=[{"n": 1024, "m": 64, "k": 8, "F": 5.0, "D": 2.0}],
        seeds=list(range(20)),
        pipeline="two_stage",
        config=SolverConfig(tol=1e-8, feas_tol=1e-13),
    )
    return _run(plan)


def test_criterion_1_robust_cs_recovery(robust_report):
    recs = [row["rec_err"] for row in robust_report.rows]
    med = statistics.median(recs)
    worst_resid = max(row["residual"] for row in robust_report.rows)
    ok = 0.015 <= med <= 0.055 and worst_resid <= 1e-8
    _verdict(1, ok, f"median rec_err {med:.4g} (need [0.015, 0.055]), "
                    f"max residual {worst_resid:.3g} (need <= 1e-8)")


def test_criterion_2_cauchy_two_stage_improvement(cauchy_report):
    finals = [row["rec_err"] for row in cauchy_report.rows]
    warms = [row["warm_rec_err"] for row in cauchy_report.rows]
    med_final = statistics.median(finals)
    med_warm = statistics.median(warms)
    ok = med_final <= 0.10 and med_final <= 0.8 * med_warm
    _verdict(2, ok, f"median final rec_err {med_final:.4g} (need <= 0.1), "
                    f"median warm {med_warm:.4g}, ratio "
                    f"{med_final / med_warm:.3f} (need <= 0.8)")


def test_criterion_3_badly_scaled_two_stage(scaled_report):
    finals = [row["rec_err"] for row in scaled_report.rows]
    warms = [row["warm_rec_err"] for row in scaled_report.rows]
    med_final = statistics.median(finals)
    improved = sum(f < w for f, w in zip(finals, warms))
    ok = med_final <= 1e-2 and improved >= 15
    _verdict(3, ok, f"median final rec_err {med_final:.4g} (need <= 1e-2), "
                    f"final < warm in {improved}/20 seeds (need >= 15)")


def test_criterion_4_descent_and_feasibility(robust_report, cauchy_report,
                                             scaled_report):
    checked = 0
    worst_descent = -np.inf
    worst_q = -np.inf
    for report in (robust_report, cauchy_report, scaled_report):
        alpha = report.plan.config.alpha
        for pres in report.results:
            stages = [(pres.warm_trace, False), (pres.main_trace, True)]
            for trace, is_ratio in stages:
                if trace is None:
                    continue
                vals = trace.omega if is_ratio else trace.objective
                for t, step in enumerate(trace.step_norm):
                    need = alpha * step**2 / 2.0
                    if is_ratio:
                        need /= trace.x_norm[t + 1]
                    gap = need - (vals[t] - vals[t + 1])
                    worst_descent = max(worst_descent, gap)
                worst_q = max(worst_q, max(trace.q_vals))
                checked += 1
    ok = worst_descent <= 1e-10 and worst_q <= 1e-10
    _verdict(4, ok, f"{checked} stage traces: max descent violation "
                    f"{worst_descent:.3g} (need <= 1e-10), max q "
                    f"{worst_q:.3g} (need <= 1e-10)")


def test_criterion_5_subproblem_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025)

    worst_ball = 0.0
    for n in range(1, 9):  # 125 problems per dimension, 1000 total
        batch = 125
        c = rng.standard_normal((batch, n))
        s = rng.standard_normal((batch, n))
        R = rng.uniform(0.05, 2.0, batch)
        alpha = rng.uniform(0.5, 4.0, batch)
        xs = np.stack([
            prox_l1_ball(BallProxProblem(c[i], s[i], R[i], alpha[i])).x
            for i in range(batch)
        ])
        ref = np.stack([grid_prox_ball_oracle(c[i], s[i], R[i], alpha[i])
                        for i in range(batch)])
        worst_ball = max(worst_ball,
                         float(np.linalg.norm(xs - ref, axis=1).max()))

    groups = {}
    for j in range(200):  # 25 shapes (n, m), drawn one shape at a time
        n = 3 + j % 10
        m = 1 + j % min(6, n - 1)
        groups.setdefault((n, m), []).append(j)
    # every problem zero-padded to (6, 12), so the oracle runs one batch
    A_pad = np.zeros((200, 6, 12))
    b_pad = np.zeros((200, 6))
    c_pad = np.zeros((200, 12))
    pinv_pad = np.zeros((200, 12, 6))
    alpha = np.zeros(200)
    problems = []
    for (n, m), idxs in groups.items():
        A = rng.standard_normal((len(idxs), m, n))
        b = np.einsum("bmn,bn->bm", A, rng.standard_normal((len(idxs), n)))
        c = rng.standard_normal((len(idxs), n))
        alpha[idxs] = rng.uniform(0.5, 4.0, len(idxs))
        for i, j in enumerate(idxs):
            A_pad[j, :m, :n] = A[i]
            b_pad[j, :m] = b[i]
            c_pad[j, :n] = c[i]
            pinv_pad[j, :n, :m] = np.linalg.pinv(A[i])
            problems.append((j, A[i], b[i], c[i]))
    ref = projected_subgradient_affine(A_pad, b_pad, c_pad, alpha,
                                       iters=500_000, pinv=pinv_pad)

    worst_gap = -np.inf
    for j, A, b, c in problems:
        x = prox_l1_affine(c, SensingMatrix(A), b, alpha[j])

        def obj(v):
            return float(np.abs(v).sum() + alpha[j] / 2.0 * np.sum((v - c) ** 2))

        worst_gap = max(worst_gap, obj(x) - obj(ref[j, :c.size]))

    elapsed = time.perf_counter() - t0
    ok = worst_ball <= 1e-5 and worst_gap <= 1e-6 and elapsed <= 300.0
    _verdict(5, ok, f"1000 ball problems max |x - oracle| {worst_ball:.3g} "
                    f"(need <= 1e-5); 200 affine problems max objective gap "
                    f"{worst_gap:.3g} (need <= 1e-6); {elapsed:.0f}s "
                    f"(need <= 300s)")


def test_criterion_6_gradient_checks():
    rng = np.random.default_rng(99)
    m, n = 6, 15
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m) + 3.0
    models = {
        "least_squares": LeastSquares(A, b, sigma=0.5),
        "lorentzian": Lorentzian(A, b, sigma=0.5, gamma=0.3),
        "robust_cs": RobustCS(A, b, sigma=0.5, r=2),
    }

    def p1(model, x):
        res = model.A.entries @ x - model.b
        if isinstance(model, Lorentzian):
            return lorentzian_norm(res, model.gamma) - model.sigma
        return float(res @ res) - model.sigma**2

    worst = 0.0
    for model in models.values():
        for _ in range(100):
            x = rng.standard_normal(n)
            ana = grad_p1(model, x)
            num = central_diff_gradient(lambda v: p1(model, v), x)
            rel = np.linalg.norm(ana - num) / max(1.0, np.linalg.norm(ana))
            worst = max(worst, rel)

    gamma = 0.3
    for _ in range(100):
        v = rng.standard_normal(m)
        ana = lorentzian_grad(v, gamma)
        num = central_diff_gradient(lambda u: lorentzian_norm(u, gamma), v)
        rel = np.linalg.norm(ana - num) / max(1.0, np.linalg.norm(ana))
        worst = max(worst, rel)

    ok = worst <= 1e-6
    _verdict(6, ok, f"100 points per model: max relative gradient error "
                    f"{worst:.3g} (need <= 1e-6)")


def test_criterion_7_linear_convergence_tail():
    rng = np.random.default_rng(np.random.SeedSequence([7, _C7_SEED]))
    A = rng.standard_normal((64, 256))
    A = A / np.linalg.norm(A, axis=0)
    x_orig = np.zeros(256)
    support = rng.permutation(256)[:8]
    signs = np.where(rng.standard_normal(8) < 0, -1.0, 1.0)
    x_orig[support] = signs * _C7_SCALE
    b = A @ x_orig

    matrix = SensingMatrix(A)
    x0 = least_norm_solution(matrix, b)
    cfg = SolverConfig(tol=1e-12, record_iterates=True)
    res = run_algorithm1(matrix, b, x0, cfg)

    dists = np.array([float(np.linalg.norm(it - res.x_final))
                      for it in res.trace.iterates])
    # the fit window is the final 20 iterations; distances at or below the
    # termination precision carry no signal (log of ~0), so they are left out
    floor = 1e-12 * max(float(np.linalg.norm(res.x_final)), 1.0)
    window = dists[-20:]
    t0 = len(dists) - len(window)
    ts = [t0 + i for i, d in enumerate(window) if d > floor]
    vals = [d for d in window if d > floor]
    slope, r2 = fit_log_linear(ts, vals)

    ok = (res.status == "converged" and slope < 0.0 and r2 >= 0.9)
    _verdict(7, ok, f"{res.status} in {res.iterations} iterations, "
                    f"rec_err {rec_err(res.x_final, x_orig):.2g}; tail fit "
                    f"over {len(ts)} points: slope {slope:.3f} (need < 0), "
                    f"R^2 {r2:.4f} (need >= 0.9)")


def test_criterion_8_criticality_of_benchmark_finals(robust_report,
                                                     cauchy_report,
                                                     scaled_report):
    worst = 0.0
    counted = 0
    for report in (robust_report, cauchy_report, scaled_report):
        for pres in report.results:
            assert pres.criticality_residual is not None
            worst = max(worst, pres.criticality_residual)
            counted += 1
    ok = worst <= 1e-3
    _verdict(8, ok, f"{counted} final iterates: max criticality residual "
                    f"{worst:.3g} (need <= 1e-3)")


def test_criterion_9_bitwise_determinism(robust_report):
    again = _run(_robust_plan())
    first = [row["rec_err"] for row in robust_report.rows]
    second = [row["rec_err"] for row in again.rows]
    same = all(a == b for a, b in zip(first, second))
    ok = same and len(first) == len(second) == 20
    _verdict(9, ok, f"rerun of the robust_cs plan: 20/20 per-seed rec_err "
                    f"values {'identical' if same else 'DIFFER'}")
