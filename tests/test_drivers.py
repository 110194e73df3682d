"""Outer-loop drivers: step seeding, starts, both algorithms, criticality."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sparseratio.drivers as drivers_module
import sparseratio.subsolvers as subsolvers_module
from sparseratio import (
    GenSpec,
    InfeasibleStartError,
    InnerLoopError,
    LeastSquares,
    Lorentzian,
    OBJECTIVE_PLAIN_L1,
    OBJECTIVE_RATIO,
    RobustCS,
    SensingMatrix,
    SolverConfig,
    STATUS_CONVERGED,
    STATUS_MAX_ITERS,
    STATUS_SUBSOLVER_FAILURE,
    SubsolverError,
    criticality_residual,
    dist_sq_sparse,
    feasible_start,
    generate,
    lorentzian_norm,
    q_value,
    rec_err,
    run_algorithm1,
    run_mba,
)
from sparseratio.models import (
    grad_p1,
    is_feasible,
    lorentzian_grad,
    subgrad_p2,
)
from sparseratio.subsolvers import (
    BallProxSolution,
    least_norm_solution,
    prox_l1_ball,
    soft_threshold,
)

from oracles import ratio_subdiff_distance_grid


def desk_cauchy():
    return generate(GenSpec(family="cauchy", n=128, m=48, k=6, seed=3))


def desk_robust():
    return generate(GenSpec(family="robust_cs", n=256, p=72, k=8, iota=2, seed=1))


def disk_model():
    # feasible set is the disk ||x - (1,0)|| <= 0.5
    return LeastSquares(np.eye(2), [1.0, 0.0], sigma=0.5)


def kkt_objective(x, g, q, lam):
    """dist(0, subdiff(||x||_1/||x||) + lam g)^2 + (lam q)^2, coordinatewise."""
    nx = np.linalg.norm(x)
    v = lam * g
    total = (lam * q) ** 2
    for xi, vi in zip(x, v):
        if xi != 0.0:
            total += (np.sign(xi) / nx - np.abs(x).sum() / nx**3 * xi + vi) ** 2
        else:
            total += max(abs(vi) - 1.0 / nx, 0.0) ** 2
    return total


def bb_seed(d_x, d_g, l_prev):
    return drivers_module._bb_seed(np.array(d_x), np.array(d_g), l_prev)


class TestBBInitStep:
    def test_quotient_branch(self):
        assert bb_seed([1.0], [2.0], 5.0) == 2.0

    def test_halving_branch(self):
        assert bb_seed([1.0], [-1.0], 8.0) == 4.0

    def test_clipped_at_l_max(self):
        assert bb_seed([1.0], [1e20], 1.0) == 1e8

    def test_threshold_boundary(self):
        # inner product below 1e-12 falls back to halving
        assert bb_seed([1.0], [5e-13], 6.0) == 3.0

    def test_halving_clipped_at_l_min(self):
        assert bb_seed([1.0], [-1.0], 1e-8) == 1e-8


class TestSolverConfig:
    @pytest.mark.parametrize("fields, message", [
        ({"alpha": 0.0}, "alpha must be positive"),
        ({"tol": 0.0}, "^tol must be positive"),
        ({"max_outer_iters": 0}, "max_outer_iters must be positive"),
        ({"feas_tol": -1e-12}, "feas_tol must be nonnegative"),
        ({"record_iterates": 1}, "record_iterates must be true or false"),
    ], ids=["alpha", "tol", "max_outer_iters", "feas_tol", "record_iterates"])
    def test_out_of_range_setting_raises(self, fields, message):
        with pytest.raises(ValueError, match=message):
            SolverConfig(**fields)


# each public range check is one scalar comparison that NaN fails, and
# criticality_residual checks feas_tol as is_feasible checks its tol
@pytest.mark.parametrize("call, message", [
    (lambda m, x: lorentzian_norm([1.0], math.nan), "gamma must be positive"),
    (lambda m, x: lorentzian_grad([1.0], math.nan), "gamma must be positive"),
    (lambda m, x: soft_threshold([1.0, -2.0], math.nan),
     "tau must be nonnegative"),
    (lambda m, x: is_feasible(m, x, math.nan), "tol must be nonnegative"),
    (lambda m, x: feasible_start(m, math.nan), "tol must be nonnegative"),
    (lambda m, x: criticality_residual(m, x, math.nan),
     "feas_tol must be nonnegative"),
    (lambda m, x: criticality_residual(m, x, -1.0),
     "feas_tol must be nonnegative"),
], ids=["lorentzian_norm", "lorentzian_grad", "soft_threshold", "is_feasible",
        "feasible_start", "criticality_residual_nan",
        "criticality_residual_negative"])
def test_nan_or_out_of_range_parameter_raises(call, message):
    with pytest.raises(ValueError, match=message):
        call(disk_model(), [1.0, 0.0])


class TestFeasibleStart:
    def test_no_hint_least_norm_is_feasible(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((6, 20))
        b = rng.standard_normal(6) + 2.0
        for model in (
            LeastSquares(A, b, sigma=0.4),
            Lorentzian(A, b, sigma=0.4, gamma=0.02),
            RobustCS(A, b, sigma=0.4, r=2),
        ):
            x = feasible_start(model)
            assert q_value(model, x) <= 0.0

    def test_infeasible_least_norm_point_raises(self, monkeypatch):
        # the least-norm point solves Ax = b up to round-off, so only a
        # broken solve leaves it infeasible; the origin stands in for one
        monkeypatch.setattr(drivers_module, "least_norm_solution",
                            lambda A, b: np.zeros(A.n))
        with pytest.raises(InfeasibleStartError,
                           match="could not construct a feasible start"):
            feasible_start(disk_model())


class TestRunAlgorithm1:
    def test_fixed_point_converges_in_one_iteration(self):
        res = run_algorithm1([[1.0, 1.0]], [2.0], [1.0, 1.0], SolverConfig())
        assert res.status == STATUS_CONVERGED
        assert res.iterations == 1
        np.testing.assert_allclose(res.x_final, [1.0, 1.0], atol=1e-9)

    def test_line_instance_reaches_unit_ratio(self):
        res = run_algorithm1([[1.0, 1.0]], [2.0], [1.8, 0.2], SolverConfig(tol=1e-10))
        assert res.status == STATUS_CONVERGED
        assert res.final_objective <= 1.0 + 1e-6

    def test_gaussian_exact_recovery(self):
        rng = np.random.default_rng(77)
        A = rng.standard_normal((64, 256))
        A /= np.linalg.norm(A, axis=0)
        x_orig = np.zeros(256)
        x_orig[rng.permutation(256)[:8]] = rng.standard_normal(8)
        b = A @ x_orig
        sm = SensingMatrix(A)
        x0 = least_norm_solution(sm, b)
        res = run_algorithm1(sm, b, x0, SolverConfig(tol=1e-10))
        assert res.status == STATUS_CONVERGED
        assert rec_err(res.x_final, x_orig) <= 1e-4

    def test_omega_nonincreasing_and_descent(self):
        res = run_algorithm1([[1.0, 1.0]], [2.0], [1.8, 0.2], SolverConfig(tol=1e-10))
        om = res.trace.omega
        steps = res.trace.step_norm
        norms = res.trace.x_norm
        assert all(om[t + 1] <= om[t] + 1e-12 for t in range(len(om) - 1))
        for t in range(len(steps)):
            lhs = om[t] - om[t + 1]
            rhs = 0.5 / norms[t + 1] * steps[t] ** 2
            assert lhs >= rhs - 1e-10

    def test_infeasible_start_rejected(self):
        with pytest.raises(InfeasibleStartError):
            run_algorithm1([[1.0, 1.0]], [2.0], [0.0, 0.0], SolverConfig())

    @pytest.mark.parametrize("k", [-40, 0, 40])
    def test_start_check_is_relative_to_b(self, k):
        # the noiseless 180x640 recipe with b scaled by 2^k: a start 1e-4
        # off the affine set (the least-norm point for b (1 + 1e-4)) is
        # rejected at every scale, not only where ||b|| >= 1
        rng = np.random.default_rng(np.random.SeedSequence([3, 7]))
        A = rng.standard_normal((180, 640))
        A /= np.linalg.norm(A, axis=0)
        x_orig = np.zeros(640)
        x_orig[rng.permutation(640)[:20]] = rng.standard_normal(20)
        b = (A @ x_orig) * 2.0**k
        sm = SensingMatrix(A)
        x0 = least_norm_solution(sm, b * (1.0 + 1e-4))
        with pytest.raises(InfeasibleStartError):
            run_algorithm1(sm, b, x0, SolverConfig(tol=1e-6))

    def test_zero_rhs_rejected(self):
        with pytest.raises(ValueError):
            run_algorithm1([[1.0, 1.0]], [0.0], [0.0, 0.0], SolverConfig())

    def test_subsolver_exhaustion_reported_in_status(self, monkeypatch):
        def exhausted(*args, **kwargs):
            raise SubsolverError("affine prox dual Newton did not certify")

        monkeypatch.setattr(drivers_module, "prox_l1_affine", exhausted)
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 12))
        sm = SensingMatrix(A)
        b = rng.standard_normal(4)
        x0 = least_norm_solution(sm, b)
        res = run_algorithm1(sm, b, x0, SolverConfig())
        assert res.status == STATUS_SUBSOLVER_FAILURE
        assert res.iterations == 0

    def test_noiseless_instance_that_capped_the_splitting(self):
        # 180x640 Gaussian with unit columns, k = 20, b = A x_orig exactly,
        # instance seed 7: the operator splitting ran into its 200k cap on
        # one of these affine proxes
        rng = np.random.default_rng(np.random.SeedSequence([7, 7]))
        A = rng.standard_normal((180, 640))
        A /= np.linalg.norm(A, axis=0)
        x_orig = np.zeros(640)
        x_orig[rng.permutation(640)[:20]] = rng.standard_normal(20)
        b = A @ x_orig
        sm = SensingMatrix(A)
        res = run_algorithm1(sm, b, least_norm_solution(sm, b),
                             SolverConfig(tol=1e-6))
        assert res.status == STATUS_CONVERGED
        assert rec_err(res.x_final, x_orig) <= 1e-8

    @pytest.mark.parametrize("scale", [1e-6, 1e-7])
    def test_noiseless_instance_scaled_down(self, scale):
        # the prox's x_hat is exact on its piece, so recovery stays exact
        # relative to x_orig when x_orig is far below c_t, whose size
        # omega/alpha does not scale with x
        rng = np.random.default_rng(np.random.SeedSequence([3, 7]))
        A = rng.standard_normal((180, 640))
        A /= np.linalg.norm(A, axis=0)
        x_orig = np.zeros(640)
        x_orig[rng.permutation(640)[:20]] = rng.standard_normal(20) * scale
        b = A @ x_orig
        sm = SensingMatrix(A)
        res = run_algorithm1(sm, b, least_norm_solution(sm, b),
                             SolverConfig(tol=1e-6))
        assert res.status == STATUS_CONVERGED
        assert (np.linalg.norm(res.x_final - x_orig)
                <= 1e-8 * np.linalg.norm(x_orig))

    def test_deterministic_rerun(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((8, 30))
        sm = SensingMatrix(A)
        x_orig = np.zeros(30)
        x_orig[[3, 11, 20]] = [2.0, -1.0, 0.5]
        b = A @ x_orig
        x0 = least_norm_solution(sm, b)
        r1 = run_algorithm1(sm, b, x0, SolverConfig(tol=1e-10))
        r2 = run_algorithm1(sm, b, x0, SolverConfig(tol=1e-10))
        assert np.array_equal(r1.x_final, r2.x_final)
        assert r1.trace.omega == r2.trace.omega

    def test_trace_shape(self):
        # the affine step has no curvature and no q: those lists stay empty
        rng = np.random.default_rng(6)
        sm = SensingMatrix(rng.standard_normal((8, 30)))
        b = rng.standard_normal(8)
        res = run_algorithm1(sm, b, least_norm_solution(sm, b),
                             SolverConfig(tol=1e-10, record_iterates=True))
        tr = res.trace
        assert res.iterations > 1
        assert tr.l_accepted == tr.inner_doublings == tr.q_vals == []
        assert len(tr.step_norm) == len(tr.wall_time) == res.iterations
        assert (len(tr.omega) == len(tr.objective) == len(tr.x_norm)
                == len(tr.iterates) == res.iterations + 1)
        assert tr.objective == tr.omega
        assert res.final_objective == tr.omega[-1]
        assert res.criticality_residual is None


class TestRunMBA:
    def test_disk_instance_reaches_one_sparse_limit(self):
        # the whole positive first axis has ratio 1, so only the objective
        # value and the sparsity pattern are pinned, not the final point
        model = disk_model()
        res = run_mba(model, OBJECTIVE_RATIO, model.b, SolverConfig(tol=1e-10))
        assert res.status == STATUS_CONVERGED
        assert abs(res.final_objective - 1.0) <= 1e-6
        assert abs(res.x_final[1]) <= 1e-8
        assert res.x_final[0] > 0

    def test_disk_instance_from_two_sparse_start(self):
        # a start off the axis must still find the unit-ratio limit
        model = disk_model()
        x0 = np.array([0.8, 0.3])  # strictly inside the disk
        res = run_mba(model, OBJECTIVE_RATIO, x0, SolverConfig(tol=1e-10))
        assert res.status == STATUS_CONVERGED
        assert abs(res.final_objective - 1.0) <= 1e-6
        assert abs(res.x_final[1]) <= 1e-6

    def test_fixed_point_stops_in_one_iteration(self):
        model = disk_model()
        res = run_mba(model, OBJECTIVE_RATIO, [0.5, 0.0], SolverConfig())
        assert res.status == STATUS_CONVERGED
        assert res.iterations == 1

    @pytest.mark.parametrize("objective", [OBJECTIVE_RATIO, OBJECTIVE_PLAIN_L1])
    def test_trace_invariants_on_desk_instance(self, objective):
        inst = desk_cauchy()
        x0 = feasible_start(inst.model)
        cfg = SolverConfig(tol=1e-6)
        res = run_mba(inst.model, objective, x0, cfg)
        assert res.status == STATUS_CONVERGED
        tr = res.trace
        T = res.iterations
        # per-point lists carry the start, per-step lists do not
        assert len(tr.omega) == len(tr.objective) == len(tr.x_norm) == T + 1
        assert len(tr.q_vals) == T + 1
        assert len(tr.step_norm) == len(tr.l_accepted) == T
        assert len(tr.inner_doublings) == len(tr.wall_time) == T
        assert all(q <= cfg.feas_tol for q in tr.q_vals)
        obj = tr.objective
        assert all(obj[t + 1] <= obj[t] + 1e-12 for t in range(T))
        cap = int(np.ceil(np.log2(
            drivers_module._L_MAX * 2.0 / drivers_module._L_MIN)))
        assert all(d <= cap for d in tr.inner_doublings)
        assert all(n > 0 for n in tr.x_norm)
        # sufficient descent, ratio form or plain-l1 form
        for t in range(T):
            if objective == OBJECTIVE_RATIO:
                rhs = cfg.alpha / (2.0 * tr.x_norm[t + 1]) * tr.step_norm[t] ** 2
            else:
                rhs = cfg.alpha / 2.0 * tr.step_norm[t] ** 2
            assert obj[t] - obj[t + 1] >= rhs - 1e-10

    def test_deterministic_rerun(self):
        for inst in (desk_cauchy(), desk_robust()):
            x0 = feasible_start(inst.model)
            r1 = run_mba(inst.model, OBJECTIVE_RATIO, x0, SolverConfig())
            r2 = run_mba(inst.model, OBJECTIVE_RATIO, x0, SolverConfig())
            assert np.array_equal(r1.x_final, r2.x_final)
            assert r1.trace.omega == r2.trace.omega
            assert r1.trace.l_accepted == r2.trace.l_accepted

    @pytest.mark.parametrize("make", [desk_cauchy, desk_robust])
    def test_trace_q_vals_are_q_of_iterates(self, make):
        # the driver carries q of each accepted trial forward instead of
        # re-evaluating it; the carried value must be q_value bit for bit
        model = make().model
        res = run_mba(model, OBJECTIVE_RATIO, feasible_start(model),
                      SolverConfig(record_iterates=True))
        tr = res.trace
        assert res.iterations > 1
        assert len(tr.iterates) == len(tr.q_vals) == res.iterations + 1
        for x, q in zip(tr.iterates, tr.q_vals):
            assert q == q_value(model, x)

    def test_infeasible_or_zero_start_rejected(self):
        model = disk_model()
        with pytest.raises(InfeasibleStartError):
            run_mba(model, OBJECTIVE_RATIO, [5.0, 5.0], SolverConfig())
        with pytest.raises(InfeasibleStartError):
            run_mba(model, OBJECTIVE_RATIO, [0.0, 0.0], SolverConfig())

    def test_origin_feasible_up_to_feas_tol_rejected(self):
        # q(0) = 1e-12 > 0 builds the model, but an iterate with q <= feas_tol
        # could then be x = 0, where omega = 0/0
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 6))
        b = rng.standard_normal(3)
        model = LeastSquares(A, b, sigma=np.sqrt(b @ b - 1e-12))
        assert 0 < q_value(model, np.zeros(6)) <= 1e-10
        with pytest.raises(InfeasibleStartError, match="q\\(0\\)"):
            run_mba(model, OBJECTIVE_PLAIN_L1, feasible_start(model),
                    SolverConfig(max_outer_iters=2000))

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            run_mba(disk_model(), "sparsity", [1.0, 0.0], SolverConfig())

    def test_subsolver_failure_sets_status(self, monkeypatch):
        def boom(problem):
            raise SubsolverError("forced failure")

        monkeypatch.setattr(drivers_module, "prox_l1_ball", boom)
        res = run_mba(disk_model(), OBJECTIVE_RATIO, [1.0, 0.0], SolverConfig())
        assert res.status == STATUS_SUBSOLVER_FAILURE
        assert res.iterations == 0

    @pytest.mark.parametrize("objective", [OBJECTIVE_RATIO,
                                           OBJECTIVE_PLAIN_L1])
    @pytest.mark.parametrize("bad", [1e200, math.nan])
    def test_non_finite_ball_ends_in_subsolver_failure(self, monkeypatch,
                                                       objective, bad):
        # the second step's xi gets an entry too large to square, or a NaN
        # one, which leaves its ball's squared radius infinite or NaN; the
        # driver's scalar guard on it ends the run as a typed failure before
        # that ball is solved, at the one accepted iterate
        model = desk_cauchy().model
        x0 = feasible_start(model)
        grad = drivers_module._grad_p1_of_residual
        grads, proxes = [], []

        def poisoned(model, res):
            xi = grad(model, res)
            grads.append(len(proxes))
            if len(grads) == 2:
                xi[7] = bad
            return xi

        def counted(problem):
            proxes.append(problem)
            return prox_l1_ball(problem)

        monkeypatch.setattr(drivers_module, "_grad_p1_of_residual", poisoned)
        monkeypatch.setattr(drivers_module, "prox_l1_ball", counted)
        res = run_mba(model, objective, x0, SolverConfig(record_iterates=True))
        assert res.status == STATUS_SUBSOLVER_FAILURE
        assert res.iterations == 1
        assert len(proxes) == grads[1]
        assert np.all(np.isfinite(res.x_final))
        assert np.array_equal(res.x_final, res.trace.iterates[1])
        # a ratio run closes with its certificate, from an unpoisoned xi
        assert (res.criticality_residual is None) == (
            objective == OBJECTIVE_PLAIN_L1)

    def test_subsolver_failure_after_accepted_steps(self, monkeypatch):
        # the third ball-prox call fails; the first step took two calls
        # (one doubling), and it stays in the result
        model = desk_robust().model
        x0 = feasible_start(model)
        calls = []

        def third_call_fails(problem):
            calls.append(problem)
            if len(calls) == 3:
                raise SubsolverError("forced failure")
            return prox_l1_ball(problem)

        monkeypatch.setattr(drivers_module, "prox_l1_ball", third_call_fails)
        cfg = SolverConfig(record_iterates=True)
        res = run_mba(model, OBJECTIVE_RATIO, x0, cfg)
        monkeypatch.undo()
        tr = res.trace
        assert res.status == STATUS_SUBSOLVER_FAILURE
        assert len(calls) == 3
        assert res.iterations == len(tr.step_norm) == len(tr.wall_time) == 1
        assert tr.inner_doublings == [1]
        assert len(tr.omega) == len(tr.q_vals) == res.iterations + 1
        assert np.array_equal(res.x_final, tr.iterates[-1])
        assert res.final_objective == tr.omega[-1]
        capped = run_mba(model, OBJECTIVE_RATIO, x0,
                         SolverConfig(max_outer_iters=res.iterations))
        assert np.array_equal(res.x_final, capped.x_final)
        assert res.criticality_residual == capped.criticality_residual

    def test_unrestorable_feasibility_raises_inner_loop_error(self, monkeypatch):
        # a trial point that never becomes feasible no matter how far the
        # curvature is doubled must surface as a diagnosable error; on the
        # disk q is exactly quadratic with secant curvature 2, so from l = 1
        # every failed trial moves l by one doubling, and the error comes
        # on the first trial past doubling_cap
        model = disk_model()
        sol = BallProxSolution(x=np.array([9.0, 9.0]), mu=0.0, active=False)
        calls = []

        def never_feasible(problem):
            calls.append(problem)
            return sol

        monkeypatch.setattr(drivers_module, "prox_l1_ball", never_feasible)
        cfg = SolverConfig()
        with pytest.raises(InnerLoopError):
            run_mba(model, OBJECTIVE_RATIO, [1.0, 0.0], cfg)
        cap = int(np.ceil(np.log2(
            drivers_module._L_MAX * 2.0 / drivers_module._L_MIN)))
        assert len(calls) == cap + 1


# A = diag(8, 1), so q(x0 + d) - q(x0) - <xi, d> = ||A d||^2 exactly and the
# secant curvature of a trial is the Rayleigh quotient 2 ||A d||^2 / ||d||^2,
# between 2 and 128. At x0 = (1, 0.5), q = -0.75 and xi = (0, 1).
def stretched_model():
    return LeastSquares(np.diag([8.0, 1.0]), [8.0, 0.0], sigma=1.0)


_X0 = (1.0, 0.5)


def one_scripted_step(monkeypatch, trials, model=None, x0=_X0):
    """Trace of one run_mba step whose ball prox returns each point of
    ``trials`` in turn, then x0 itself (feasible, so the step ends)."""
    points = iter([*trials, x0])

    def scripted(problem):
        return BallProxSolution(x=np.array(next(points), dtype=float),
                                mu=0.0, active=False)

    monkeypatch.setattr(drivers_module, "prox_l1_ball", scripted)
    res = run_mba(model or stretched_model(), OBJECTIVE_RATIO, x0,
                  SolverConfig(max_outer_iters=1))
    return res.trace


class TestCurvatureJump:
    # the first step starts from l = 1
    @pytest.mark.parametrize("trial, l_s, i", [
        ((2.0, 0.5), 128.0, 7),   # d = (1, 0): l_s a power of two, reached exactly
        ((2.0, 3.5), 14.6, 4),    # d = (1, 3): rounded up to 16
        ((1.5, 0.5), 128.0, 7),   # d = (1/2, 0): same direction, same l_s
    ])
    def test_jump_to_smallest_power_of_two_multiple(self, monkeypatch,
                                                    trial, l_s, i):
        d = np.subtract(trial, _X0)
        assert 2.0 * np.sum((np.array([8.0, 1.0]) * d) ** 2) / (d @ d) \
            == pytest.approx(l_s)
        assert q_value(stretched_model(), trial) > 0.0
        tr = one_scripted_step(monkeypatch, [trial])
        assert tr.l_accepted == [2.0 ** i]
        assert tr.inner_doublings == [i]
        assert 2.0 ** (i - 1) < l_s <= 2.0 ** i

    @pytest.mark.parametrize("trial", [
        (np.nan, 0.5),        # q is NaN
        (1.0 + 5e153, 0.5),   # ||d||^2 finite, q = inf: l_s/l = inf
        (1.0 + 1e160, 0.5),   # ||d||^2 = inf and q = inf: l_s/l is NaN
        (1.0, 1.5),           # d = (0, 1): l_s = 2 = 2l, one doubling covers it
    ])
    def test_no_usable_estimate_moves_one_doubling(self, monkeypatch, trial):
        # the overflowing trials overflow q itself, which numpy warns about
        with np.errstate(over="ignore", invalid="ignore"):
            tr = one_scripted_step(monkeypatch, [trial])
        assert tr.l_accepted == [2.0]
        assert tr.inner_doublings == [1]

    def test_estimate_below_l_moves_one_doubling(self, monkeypatch):
        # the first trial jumps l to 128; the second measures l_s = 2 < l
        tr = one_scripted_step(monkeypatch, [(2.0, 0.5), (1.0, 1.5)])
        assert tr.l_accepted == [256.0]
        assert tr.inner_doublings == [8]

    def test_doublings_sum_the_exponents(self, monkeypatch):
        # l_s = 2 at l = 1 (i = 1), then l_s = 65 at l = 2 (i = 6)
        tr = one_scripted_step(monkeypatch, [(1.0, 1.5), (2.0, 1.5)])
        assert tr.l_accepted == [128.0]
        assert tr.inner_doublings == [7]

    def test_round_off_gap_is_capped_by_the_residual_step(self, monkeypatch):
        # x0 = (112.5, 0) sits on the boundary (q = 0, xi = (1600, 0)) of a
        # ball with sigma = 100; at |d| ~ 1e-13 the q values differ only by
        # round-off, which reads as l_s ~ 1.8e14, while ||A d||^2 still
        # gives the true l_s = 128
        model = LeastSquares(np.diag([8.0, 1.0]), [800.0, 0.0], sigma=100.0)
        x0 = (112.5, 0.0)
        trial = (112.5 + 1e-13, 0.0)
        d = np.subtract(trial, x0)
        xi = grad_p1(model, x0)
        raw = q_value(model, trial) - q_value(model, x0) - xi @ d
        assert 2.0 * raw / (d @ d) > 1e10
        tr = one_scripted_step(monkeypatch, [trial], model=model, x0=x0)
        assert tr.l_accepted == [128.0]
        assert tr.inner_doublings == [7]

    def test_jump_past_cap_raises_before_another_solve(self, monkeypatch):
        # cap = ceil(log2(2 _L_MAX / _L_MIN)) = 2, and the first trial asks
        # for i = 7
        monkeypatch.setattr(drivers_module, "_L_MIN", 0.5)
        monkeypatch.setattr(drivers_module, "_L_MAX", 1.0)
        with pytest.raises(InnerLoopError, match="after 7 curvature doublings"):
            one_scripted_step(monkeypatch, [(2.0, 0.5)])


class TestCriticalityResidual:
    def test_one_sparse_interior_point(self):
        model = disk_model()
        assert criticality_residual(model, [1.0, 0.0]) <= 1e-12

    def test_disk_boundary_minimizer(self):
        model = disk_model()
        assert criticality_residual(model, [0.5, 0.0]) <= 1e-8

    def test_rejects_zero_and_infeasible_points(self):
        model = disk_model()
        with pytest.raises(ValueError):
            criticality_residual(model, [0.0, 0.0])
        with pytest.raises(ValueError):
            criticality_residual(model, [3.0, 3.0])

    def test_mba_final_iterate_is_near_critical(self):
        inst = generate(GenSpec(family="robust_cs", n=512, p=144, k=16, seed=0, iota=2))
        warm = run_mba(
            inst.model,
            OBJECTIVE_PLAIN_L1,
            feasible_start(inst.model),
            SolverConfig(tol=1e-6),
        )
        main = run_mba(inst.model, OBJECTIVE_RATIO, warm.x_final,
                       SolverConfig(tol=1e-6))
        assert main.status == STATUS_CONVERGED
        assert main.criticality_residual is not None
        assert main.criticality_residual <= 1e-4

    def test_tiny_scale_disk_terminates(self):
        # scaling the disk model by 1e-4 scales g and q by 1e-8 and the
        # balancing multiplier up to ~4.5e7, where a search with a fixed
        # absolute width cannot shrink its bracket below the spacing of the
        # doubles; the child process turns such a hang into a failure
        code = textwrap.dedent("""
            import json
            import numpy as np
            from sparseratio import (LeastSquares, SolverConfig,
                                     criticality_residual, feasible_start,
                                     run_mba)
            s = 1e-4
            model = LeastSquares(s * np.eye(2), s * np.array([1.9, 1.2]),
                                 sigma=s * 0.2236)
            res = run_mba(model, "ratio_l1_l2", feasible_start(model),
                          SolverConfig())
            print(json.dumps([res.status, res.criticality_residual,
                              criticality_residual(model, [2.0, 1.0])]))
        """)
        src = str(Path(drivers_module.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=60, env=env)
        assert out.returncode == 0, out.stderr
        status, crit_final, crit_point = json.loads(out.stdout)
        assert status == STATUS_CONVERGED
        assert crit_final <= 1e-10
        # [2, 1] lies outside the disk by q = 3e-14 (0.2236 < sqrt(0.05)),
        # so the complementarity term lambda q ~ 1.4e-6 is what remains
        assert crit_point <= 1e-5

    @pytest.mark.parametrize("x", [[1.2, 0.1], [1.4, 0.2], [0.8, 0.3]])
    def test_interior_non_critical_points_report_dist0(self, x):
        # g points away from the subdifferential here, so the exact solve
        # keeps lambda = 0 without any interior branch
        model = disk_model()
        x = np.array(x)
        g = grad_p1(model, x) - subgrad_p2(model, x)
        assert q_value(model, x) < -0.01
        res, lam = drivers_module._kkt_residual(x, g, q_value(model, x))
        assert lam == 0.0
        dist0 = ratio_subdiff_distance_grid(x, g, [0.0])
        assert res == criticality_residual(model, x) == pytest.approx(dist0, rel=1e-12)
        assert res > 0.5

    def test_slightly_interior_final_is_near_critical(self):
        # a converged iterate pulled 1e-8 inside the boundary is still
        # critical up to that gap: lambda stays near the boundary multiplier
        # instead of being forced to 0 by a band on q
        model = LeastSquares(np.eye(2), [1.9, 1.2], sigma=0.2236)
        x = run_mba(model, OBJECTIVE_RATIO, feasible_start(model),
                    SolverConfig(tol=1e-10)).x_final
        x = model.b + (1.0 - 1e-8) * (x - model.b)
        assert -1e-7 < q_value(model, x) < -1e-10
        assert criticality_residual(model, x) <= 1e-6


# magnitudes from a small set, so x_i ties, g_i ties and zeros are common
_ENTRY = st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -3.0])
_ANY = st.one_of(_ENTRY, st.floats(-4.0, 4.0))


@st.composite
def kkt_points(draw):
    """(x, g, q) with ||x||_inf = 1, g often 0, q <= 0."""
    n = draw(st.integers(1, 32))
    x = np.array(draw(st.lists(_ANY, min_size=n, max_size=n)))
    # the residual scales as 1/||x|| (checked below), so ||x||_inf = 1
    # keeps the test-side objective representable
    if not np.any(x):
        x[0] = 1.0
    x /= np.abs(x).max()
    g = np.array(draw(st.one_of(
        st.just([0.0] * n), st.lists(_ANY, min_size=n, max_size=n))))
    q = draw(st.one_of(st.just(0.0), st.floats(-2.0, 0.0),
                       st.floats(-1e-9, 0.0)))
    return x, g, q


class TestExactKKTSolve:
    @settings(max_examples=200, deadline=None)
    @given(case=kkt_points())
    # a subnormal g_i puts a breakpoint near 1e308, where the line search's
    # probe overflowed on the other coordinates
    @example(case=(np.array([0.0, 1.0, 0.5, 0.0, 0.0, 0.0]),
                   np.array([0.0, 0.0, -2.225073858507203e-309, 0.0, 0.0,
                             2.0]), 0.0))
    def test_matches_grid_oracle(self, case):
        x, g, q = case
        res, lam = drivers_module._kkt_residual(x, g, q)

        def f(t):
            return kkt_objective(x, g, q, t)

        assert lam >= 0.0 and np.isfinite(lam)
        f_star = f(lam)
        tol = 1e-12 * max(1.0, f(0.0))
        assert res**2 == pytest.approx(f_star, rel=1e-9, abs=1e-15)
        for other in (0.0, lam * (1 - 1e-6), lam * (1 + 1e-6), lam + 1e-6):
            assert f_star <= f(other) + tol
        # the grid oracle samples each zero coordinate's interval, so it can
        # only overestimate the distance; the exact minimum must sit below
        # every grid value and match the oracle at lambda*
        nx = np.linalg.norm(x)
        sample_err = np.sqrt(np.sum(x == 0)) * (2.0 / nx) / 2000

        def oracle(t):
            return np.hypot(ratio_subdiff_distance_grid(x, g, [t]), t * q)

        grid = np.linspace(0.0, 2.0 * max(lam, 1.0), 41)
        assert res <= min(oracle(t) for t in grid) + 1e-12
        assert abs(oracle(lam) - res) <= sample_err + 1e-9

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-5, 1e5, 1e150, 1e300])
    def test_scale_covariance(self, scale):
        # lambda* g balances a subdifferential of size 1/||x||, so
        # residual(c x) = residual(x)/c and lambda*(c x) = lambda*(x)/c
        x = np.array([0.5, 0.0, -1.0, 0.0, 0.25])
        g = np.array([0.3, -0.2, 0.0, 1.0, -0.5])
        res, lam = drivers_module._kkt_residual(x, g, -1e-3)
        res_c, lam_c = drivers_module._kkt_residual(scale * x, g, -1e-3)
        assert lam > 0.0
        assert res_c == pytest.approx(res / scale, rel=1e-12, abs=0.0)
        assert lam_c == pytest.approx(lam / scale, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("big", [1e200, 1e300])
    def test_gradient_entry_too_large_to_square(self, big):
        # the slope of the dual step's piece sums g_i^2, which overflowed
        # past about 1.3e154; the residual must read as at 1e100, and
        # lambda* shrink as 1/g_i
        rng = np.random.default_rng(0)
        x = rng.standard_normal(20)
        x[:10] = 0.0
        g = rng.standard_normal(20)
        g[13] = 1e100
        res, lam = drivers_module._kkt_residual(x, g, -0.5)
        g[13] = big
        res_big, lam_big = drivers_module._kkt_residual(x, g, -0.5)
        assert lam > 0.0
        assert res_big == res
        assert lam_big * big == pytest.approx(lam * 1e100, rel=1e-12)

    def test_exactly_critical_point(self):
        # x = e_1 puts 0 in the subdifferential at lambda = 0: its first
        # coordinate is exactly 0 and every other one an interval around 0,
        # so huge g_i and a q just below 0 must still give (0, 0)
        res, lam = drivers_module._kkt_residual(
            np.array([1.0, 0.0, 0.0, 0.0]),
            np.array([0.25, -1.6e6, -9e5, -3.7e5]), -2e-8)
        assert (res, lam) == (0.0, 0.0)

    @pytest.mark.parametrize("s", [1e-155, 1e-160, 1e-170, 1e-300])
    def test_tiny_scale_public_call(self, s):
        # the ratio's subdifferential at x = (s, 0) contains 0 (its first
        # coordinate is exactly 0, its second an interval around 0), so
        # lambda = 0 gives residual 0 at every scale s
        model = LeastSquares(np.eye(2), [1.0, 0.0], np.sqrt(1.0 - 1e-11))
        assert criticality_residual(model, [s, 0.0]) == 0.0


@st.composite
def small_models(draw):
    """A random instance of one of the three models, n <= 40, m <= n: b is
    A x_orig for a k-sparse x_orig plus noise (and, for RobustCS, iota <= r
    outliers), and sigma takes a drawn share of q(0), so the origin stays
    infeasible."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, n))
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((m, n))
    x_orig = np.zeros(n)
    x_orig[rng.permutation(n)[:k]] = rng.standard_normal(k)
    b = A @ x_orig + draw(st.sampled_from([0.0, 1e-2, 1e-1])) * rng.standard_normal(m)
    share = draw(st.floats(0.05, 0.9))
    family = draw(st.sampled_from(["least_squares", "lorentzian", "robust_cs"]))
    if family == "least_squares":
        return LeastSquares(A, b, sigma=share * np.linalg.norm(b))
    if family == "lorentzian":
        gamma = draw(st.sampled_from([0.02, 0.3, 1.0]))
        return Lorentzian(A, b, sigma=share * lorentzian_norm(b, gamma),
                          gamma=gamma)
    r = draw(st.integers(0, m - 1))
    iota = draw(st.integers(0, r))
    b[rng.permutation(m)[:iota]] += 10.0 * rng.standard_normal(iota)
    return RobustCS(A, b, sigma=share * np.sqrt(dist_sq_sparse(b, r)), r=r)


BALL_PROX_TOL = subsolvers_module._BALL_TOL


def descent_allowance(model, objective, cfg, tr, t):
    """How far the objective may rise from iterate t to t + 1.

    The step minimizes the prox objective over the ball exactly for a
    squared radius R' within tol * max(R, 1) of R (the ball prox's
    contract at its fixed tol), so with x_t at distance dist from that ball (0 for q <= 0)
    the moving-balls descent argument gives ||x+||_1 <= ||x_t||_1
    + sqrt(n) dist + alpha/2 dist^2, and for the ratio the same bound with
    sqrt(n) doubled, divided by ||x+||. An iterate accepted with q in
    (0, feas_tol] lies outside its next ball, by 2q/l / (||xi||/l + sqrt R).
    4 n eps of the objective covers evaluating it.
    """
    x = tr.iterates[t]
    n = x.size
    q, l = tr.q_vals[t], tr.l_accepted[t]
    xi = grad_p1(model, x) - subgrad_p2(model, x)
    a = float(np.linalg.norm(xi)) / l
    R = max(a * a - 2.0 * q / l, 0.0)
    dist = 2.0 * max(q, 0.0) / l / (a + np.sqrt(R))
    if R > 0.0:
        dist += BALL_PROX_TOL * max(R, 1.0) / np.sqrt(R)
    rise = np.sqrt(n) * dist + cfg.alpha / 2.0 * dist * dist
    if objective == OBJECTIVE_RATIO:
        rise = (rise + np.sqrt(n) * dist) / tr.x_norm[t + 1]
    return rise + 4.0 * n * np.finfo(float).eps * tr.objective[t]


class TestRunMBAProperties:
    @settings(max_examples=40, deadline=None)
    @given(model=small_models())
    def test_every_iterate(self, model):
        cfg = SolverConfig(max_outer_iters=500, record_iterates=True)
        x0 = feasible_start(model, cfg.feas_tol)
        # curvature bound of grad P1 = 2 A^T (Ax - b)
        lip = 2.0 * np.linalg.norm(model.A.entries, 2) ** 2
        for objective in (OBJECTIVE_RATIO, OBJECTIVE_PLAIN_L1):
            res = run_mba(model, objective, x0, cfg)
            tr = res.trace
            assert res.status in (STATUS_CONVERGED, STATUS_MAX_ITERS)
            assert len(tr.iterates) == res.iterations + 1
            for x, q in zip(tr.iterates, tr.q_vals):
                assert q == q_value(model, x) <= cfg.feas_tol
            for t in range(res.iterations):
                assert (tr.objective[t + 1] - tr.objective[t]
                        <= descent_allowance(model, objective, cfg, tr, t))
            if isinstance(model, LeastSquares):
                assert all(l < 4.0 * lip for l, i in
                           zip(tr.l_accepted, tr.inner_doublings) if i > 0)
            again = run_mba(model, objective, x0, cfg)
            assert np.array_equal(res.x_final, again.x_final)
            assert all(np.array_equal(a, b) for a, b in
                       zip(tr.iterates, again.trace.iterates))
            for name in ("omega", "objective", "x_norm", "step_norm",
                         "l_accepted", "inner_doublings", "q_vals"):
                assert getattr(tr, name) == getattr(again.trace, name)
            assert res.criticality_residual == again.criticality_residual
