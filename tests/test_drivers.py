"""Outer-loop drivers: step seeding, starts, both algorithms, criticality."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparseratio.drivers as drivers_module
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
    STATUS_SUBSOLVER_FAILURE,
    SubsolverError,
    bb_init_step,
    criticality_residual,
    feasible_start,
    generate,
    q_value,
    rec_err,
    run_algorithm1,
    run_mba,
)
from sparseratio.models import grad_p1, subgrad_p2
from sparseratio.subsolvers import BallProxSolution, least_norm_solution

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


class TestBBInitStep:
    def test_quotient_branch(self):
        assert bb_init_step([1.0], [2.0], 5.0, 1e-8, 1e8) == 2.0

    def test_halving_branch(self):
        assert bb_init_step([1.0], [-1.0], 8.0, 1e-8, 1e8) == 4.0

    def test_clipped_at_l_max(self):
        assert bb_init_step([1.0], [1e20], 1.0, 1e-8, 1e8) == 1e8

    def test_threshold_boundary(self):
        # inner product below 1e-12 falls back to halving
        assert bb_init_step([1.0], [5e-13], 6.0, 1e-8, 1e8) == 3.0

    def test_halving_clipped_at_l_min(self):
        assert bb_init_step([1.0], [-1.0], 1e-8, 1e-8, 1e8) == 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            bb_init_step([1.0], [1.0], 0.0, 1e-8, 1e8)
        with pytest.raises(ValueError):
            bb_init_step([1.0], [1.0], 1.0, 1e8, 1e-8)


class TestFeasibleStart:
    def test_feasible_hint_returned_unchanged(self):
        model = disk_model()
        hint = np.array([1.1, 0.2])  # residual norm ~0.22 < sigma
        out = feasible_start(model, hint)
        np.testing.assert_array_equal(out, hint)

    def test_infeasible_hint_blended_to_boundary(self):
        model = disk_model()
        hint = np.array([2.0, 0.0])  # residual norm 1.0 = 2 sigma
        out = feasible_start(model, hint)
        x_ln = least_norm_solution(model.A, model.b)
        expected = x_ln + model.sigma * (hint - x_ln) / 1.0
        np.testing.assert_allclose(out, expected, rtol=1e-14)
        assert abs(q_value(model, out)) <= 1e-12

    def test_no_hint_least_norm_is_feasible(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((6, 20))
        b = rng.standard_normal(6) + 2.0
        for model in (
            LeastSquares(A, b, sigma=0.4),
            Lorentzian(A, b, sigma=0.4, gamma=0.02),
            RobustCS(A, b, sigma=0.4, r=2),
        ):
            x = feasible_start(model, None)
            assert q_value(model, x) <= 0.0

    def test_non_ls_infeasible_hint_falls_back_to_least_norm(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((5, 12))
        b = rng.standard_normal(5) + 2.0
        model = RobustCS(A, b, sigma=0.4, r=1)
        bad_hint = rng.standard_normal(12) * 50.0
        out = feasible_start(model, bad_hint)
        np.testing.assert_allclose(out, least_norm_solution(model.A, model.b))


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

    def test_zero_rhs_rejected(self):
        with pytest.raises(ValueError):
            run_algorithm1([[1.0, 1.0]], [0.0], [0.0, 0.0], SolverConfig())

    def test_subsolver_exhaustion_reported_in_status(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 12))
        sm = SensingMatrix(A)
        b = rng.standard_normal(4)
        x0 = least_norm_solution(sm, b)
        res = run_algorithm1(sm, b, x0, SolverConfig(sub_max_iter=1))
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
        x0 = feasible_start(inst.model, None)
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
        cap = int(np.ceil(np.log2(cfg.l_max * 2.0 / cfg.l_min)))
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
            x0 = feasible_start(inst.model, None)
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
        res = run_mba(model, OBJECTIVE_RATIO, feasible_start(model, None),
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

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            run_mba(disk_model(), "sparsity", [1.0, 0.0], SolverConfig())

    def test_subsolver_failure_sets_status(self, monkeypatch):
        def boom(problem, tol):
            raise SubsolverError("forced failure")

        monkeypatch.setattr(drivers_module, "prox_l1_ball", boom)
        res = run_mba(disk_model(), OBJECTIVE_RATIO, [1.0, 0.0], SolverConfig())
        assert res.status == STATUS_SUBSOLVER_FAILURE
        assert res.iterations == 0

    def test_unrestorable_feasibility_raises_inner_loop_error(self, monkeypatch):
        # a trial point that never becomes feasible no matter how far the
        # curvature is doubled must surface as a diagnosable error
        model = disk_model()
        sol = BallProxSolution(x=np.array([9.0, 9.0]), mu=0.0, active=False)
        monkeypatch.setattr(drivers_module, "prox_l1_ball", lambda p, tol: sol)
        with pytest.raises(InnerLoopError):
            run_mba(model, OBJECTIVE_RATIO, [1.0, 0.0], SolverConfig())


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
            feasible_start(inst.model, None),
            SolverConfig(tol=1e-6),
        )
        main = run_mba(
            inst.model,
            OBJECTIVE_RATIO,
            feasible_start(inst.model, warm.x_final),
            SolverConfig(tol=1e-6),
        )
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


class TestExactKKTSolve:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_grid_oracle(self, data):
        n = data.draw(st.integers(1, 32))
        x = np.array(data.draw(st.lists(_ANY, min_size=n, max_size=n)))
        # the residual scales as 1/||x|| (checked below), so ||x||_inf = 1
        # keeps the test-side objective representable
        if not np.any(x):
            x[0] = 1.0
        x /= np.abs(x).max()
        g = np.array(data.draw(st.one_of(
            st.just([0.0] * n), st.lists(_ANY, min_size=n, max_size=n))))
        q = data.draw(st.one_of(st.just(0.0), st.floats(-2.0, 0.0),
                                st.floats(-1e-9, 0.0)))
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

    @pytest.mark.parametrize("s", [1e-155, 1e-160, 1e-170, 1e-300])
    def test_tiny_scale_public_call(self, s):
        # the ratio's subdifferential at x = (s, 0) contains 0 (its first
        # coordinate is exactly 0, its second an interval around 0), so
        # lambda = 0 gives residual 0 at every scale s
        model = LeastSquares(np.eye(2), [1.0, 0.0], np.sqrt(1.0 - 1e-11))
        assert criticality_residual(model, [s, 0.0]) == 0.0
