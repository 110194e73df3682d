"""Ball and affine l1-prox subsolvers against oracles and hand KKT cases."""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from sparseratio.models import SensingMatrix
from sparseratio.subsolvers import (
    _dual_step,
    BallProxProblem,
    BallProxSolution,
    SubsolverError,
    least_norm_solution,
    prox_l1_affine,
    prox_l1_ball,
    soft_threshold,
)

from oracles import (
    ball_point_oracle,
    bisection_prox_ball,
    grid_min_scalar,
    projected_subgradient_affine,
    projected_subgradient_ball,
    prox_ball_oracle_1d,
    soft_threshold_oracle,
    splitting_prox_affine,
    stationarity_residual,
)


def ball_objective(x, c, alpha):
    return float(np.abs(x).sum() + 0.5 * alpha * np.sum((x - c) ** 2))


class TestSoftThreshold:
    def test_hand_case(self):
        np.testing.assert_array_equal(
            soft_threshold([3.0, -0.5, 0.0], 1.0), [2.0, 0.0, 0.0]
        )

    def test_tau_zero_is_identity(self):
        v = np.random.default_rng(0).standard_normal(6)
        np.testing.assert_array_equal(soft_threshold(v, 0.0), v)

    def test_matches_per_coordinate_grid(self):
        v = np.random.default_rng(1).standard_normal(8)
        out = soft_threshold(v, 0.3)
        for vi, oi in zip(v, out):
            assert abs(oi - soft_threshold_oracle(float(vi), 0.3)) <= 1e-8

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            soft_threshold([1.0], -0.1)

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=8),
        st.floats(0.01, 5),
        st.floats(0.01, 100),
    )
    def test_scaling_covariance(self, v, tau, t):
        v = np.asarray(v)
        left = soft_threshold(t * v, t * tau)
        right = t * soft_threshold(v, tau)
        np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-12)


class TestProxL1Ball:
    def test_inactive_hand_case(self):
        sol = prox_l1_ball(BallProxProblem(c=[0.5], s=[0.0], R=4.0, alpha=1.0))
        assert isinstance(sol, BallProxSolution)
        np.testing.assert_array_equal(sol.x, [0.0])
        assert sol.mu == 0.0
        assert not sol.active

    def test_active_hand_case(self):
        # KKT by hand: x(mu) = (3 - 1)/(1 + mu) = 1 at mu = 1
        sol = prox_l1_ball(BallProxProblem(c=[3.0], s=[0.0], R=1.0, alpha=1.0))
        assert sol.active
        np.testing.assert_allclose(sol.x, [1.0], atol=1e-10)
        assert sol.mu == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_ball_returns_center(self):
        s = np.array([0.3, -0.7])
        sol = prox_l1_ball(BallProxProblem(c=[5.0, 5.0], s=s, R=0.0, alpha=2.0))
        np.testing.assert_array_equal(sol.x, s)
        assert sol.active and sol.mu == 0.0

    def test_matches_subgradient_oracle_n5(self):
        rng = np.random.default_rng(5)
        batch = 4
        c = rng.standard_normal((batch, 5)) * 2.0
        s = rng.standard_normal((batch, 5))
        R = rng.uniform(0.5, 3.0, batch)
        ref = projected_subgradient_ball(c, s, R, np.ones(batch), iters=500_000)
        for i in range(batch):
            sol = prox_l1_ball(BallProxProblem(c=c[i], s=s[i], R=R[i], alpha=1.0))
            assert np.linalg.norm(sol.x - ref[i]) <= 1e-5

    def test_feasibility_and_kkt_invariants(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            n = rng.integers(1, 9)
            p = BallProxProblem(
                c=rng.standard_normal(n) * 3.0,
                s=rng.standard_normal(n),
                R=float(rng.uniform(0.01, 4.0)),
                alpha=float(rng.uniform(0.2, 5.0)),
            )
            sol = prox_l1_ball(p, tol=1e-12)
            gap = float(np.sum((sol.x - p.s) ** 2)) - p.R
            assert gap <= 1e-12 * max(p.R, 1.0)
            kkt = stationarity_residual(sol.x, p.c, p.s, p.alpha, sol.mu)
            assert kkt <= 1e-6
            # complementary slackness
            assert abs(sol.mu * gap) <= 1e-10 * (1.0 + sol.mu)
            if not sol.active:
                assert sol.mu == 0.0

    def test_phi_monotone_in_mu(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = rng.integers(1, 7)
            c = rng.standard_normal(n) * 2.0
            s = rng.standard_normal(n)
            alpha = float(rng.uniform(0.3, 3.0))
            mus = np.linspace(0.0, 50.0, 100)
            vals = []
            for mu in mus:
                x = soft_threshold((alpha * c + mu * s) / (alpha + mu), 1.0 / (alpha + mu))
                vals.append(float(np.sum((x - s) ** 2)))
            diffs = np.diff(vals)
            assert np.all(diffs <= 1e-12)

    def test_exact_on_1d_grid_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            c = float(rng.uniform(-4, 4))
            s = float(rng.uniform(-2, 2))
            R = float(rng.uniform(0.01, 5.0))
            alpha = float(rng.uniform(0.1, 4.0))
            sol = prox_l1_ball(BallProxProblem(c=[c], s=[s], R=R, alpha=alpha))
            ref = prox_ball_oracle_1d(c, s, R, alpha)
            assert abs(float(sol.x[0]) - ref) <= 1e-6

    def test_input_validation(self):
        with pytest.raises(ValueError):
            BallProxProblem(c=[1.0], s=[0.0], R=-1.0, alpha=1.0)
        with pytest.raises(ValueError):
            BallProxProblem(c=[np.inf], s=[0.0], R=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            BallProxProblem(c=[1.0], s=[0.0, 1.0], R=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            BallProxProblem(c=[1.0], s=[0.0], R=1.0, alpha=0.0)
        with pytest.raises(ValueError):
            prox_l1_ball(BallProxProblem(c=[1.0], s=[0.0], R=1.0, alpha=1.0), tol=0.0)

    def test_vanishing_radius_solved_exactly(self):
        # with s = 0 the gap is (alpha c - 1)/(alpha + mu) = 1/(1 + mu), so
        # the exact solution is x = 1e-20 at mu = 1e20 - 1
        p = BallProxProblem(c=[2.0], s=[0.0], R=1e-40, alpha=1.0)
        sol = prox_l1_ball(p)
        assert sol.active
        assert abs(ball_gap(sol, p)) <= 1e-12 * max(p.R, 1.0)
        assert abs(sol.mu - (1e20 - 1.0)) <= 1e-12 * 1e20
        assert float(sol.x[0]) == pytest.approx(1e-20, rel=1e-12)

    def test_pathological_scaling_raises(self):
        # the multiplier sqrt(N/R) - alpha = 1e150/1e-160 overflows; a NaN
        # point must never come back
        p = BallProxProblem(c=[1e150], s=[0.0], R=1e-320, alpha=1.0)
        with pytest.raises(SubsolverError):
            prox_l1_ball(p)


def ball_gap(sol, p):
    return float(np.sum((sol.x - p.s) ** 2)) - p.R


def breakpoints(p):
    """The positive multipliers at which a coordinate of x(mu) turns zero
    or nonzero."""
    a = p.alpha * p.c
    nz = p.s != 0.0
    bps = np.concatenate(((1.0 - a[nz]) / p.s[nz], (-1.0 - a[nz]) / p.s[nz]))
    return np.sort(bps[bps > 0.0])


def assert_matches_bisection(p, sol, kkt_tol=1e-10):
    x_ref, mu_ref = bisection_prox_ball(p.c, p.s, p.R, p.alpha)
    assert np.linalg.norm(sol.x - x_ref) <= 1e-10 * max(1.0, np.linalg.norm(sol.x))
    gap = ball_gap(sol, p)
    assert gap <= 1e-12 * max(p.R, 1.0)
    # a degenerate ball (R = 0) pins x = s; its multiplier is not meaningful
    if p.R > 0.0:
        kkt = stationarity_residual(sol.x, p.c, p.s, p.alpha, sol.mu)
        assert kkt <= kkt_tol
    assert abs(sol.mu * gap) <= 1e-10 * (1.0 + sol.mu)
    if mu_ref > 0.0:
        assert sol.active
    if not sol.active:
        assert sol.mu == 0.0


def problem_with_root_at(c, s, alpha, mu):
    """A ball prox problem whose exact multiplier is mu: the radius is
    ||x(mu) - s||^2."""
    d = ball_point_oracle(c, s, alpha, mu) - np.asarray(s, dtype=float)
    return BallProxProblem(c=c, s=s, R=float(d @ d), alpha=alpha)


ball_entries = st.floats(-6.0, 6.0)


@st.composite
def ball_problems(draw):
    n = draw(st.integers(1, 64))
    c = draw(arrays(float, n, elements=ball_entries))
    # zeros give coordinates without breakpoints, repeats give ties
    s = draw(arrays(float, n, elements=st.one_of(
        st.just(0.0), st.sampled_from([-1.5, 0.5, 2.0]), ball_entries)))
    alpha = draw(st.floats(0.1, 10.0))
    d0 = ball_point_oracle(c, s, alpha, 0.0) - s
    # R spans from far inside the unconstrained prox's distance to beyond it
    R = float(d0 @ d0) * draw(st.floats(1e-8, 1.5)) + draw(
        st.sampled_from([0.0, 1e-6, 0.5]))
    return BallProxProblem(c=c, s=s, R=R, alpha=alpha)


class TestExactBallSolve:
    """Edge cases of the breakpoint sweep behind prox_l1_ball."""

    def test_zero_centre_coordinates(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            c = rng.standard_normal(n) * 3.0
            s = rng.standard_normal(n)
            s[rng.random(n) < 0.5] = 0.0
            d0 = ball_point_oracle(c, s, 1.0, 0.0) - s
            p = BallProxProblem(c=c, s=s, R=0.2 * float(d0 @ d0), alpha=1.0)
            sol = prox_l1_ball(p)
            assert sol.active
            assert_matches_bisection(p, sol)

    def test_all_centre_coordinates_zero(self):
        # no breakpoints: one segment, x = soft(alpha c, 1)/(alpha + mu)
        c = np.array([3.0, -0.5, -2.0])
        p = BallProxProblem(c=c, s=np.zeros(3), R=0.25, alpha=1.0)
        sol = prox_l1_ball(p)
        # ||soft(c, 1)|| = sqrt(5) so 1 + mu = sqrt(5)/0.5
        assert sol.mu == pytest.approx(2.0 * np.sqrt(5.0) - 1.0, rel=1e-14)
        assert_matches_bisection(p, sol)

    def test_tied_breakpoints(self):
        c = np.tile([1.7, -0.4, 2.5, 0.9], 4)
        s = np.tile([0.8, -1.1, 0.3, -0.6], 4)
        p0 = BallProxProblem(c=c, s=s, R=1.0, alpha=1.3)
        bps = breakpoints(p0)
        assert np.any(np.diff(bps) == 0.0)
        for mu in (0.5 * bps[0], bps[3], 0.5 * (bps[3] + bps[4]), bps[-1]):
            p = problem_with_root_at(c, s, 1.3, mu)
            sol = prox_l1_ball(p)
            assert sol.mu == pytest.approx(mu, rel=1e-12)
            np.testing.assert_array_equal(sol.x[:4], sol.x[4:8])
            assert_matches_bisection(p, sol)

    def test_root_in_first_segment(self):
        rng = np.random.default_rng(21)
        c = rng.standard_normal(12) * 2.0
        s = rng.standard_normal(12)
        first = breakpoints(BallProxProblem(c=c, s=s, R=1.0, alpha=0.7))[0]
        p = problem_with_root_at(c, s, 0.7, 0.5 * first)
        sol = prox_l1_ball(p)
        assert sol.mu == pytest.approx(0.5 * first, rel=1e-12)
        assert_matches_bisection(p, sol)

    def test_root_past_last_breakpoint(self):
        rng = np.random.default_rng(22)
        c = rng.standard_normal(12) * 2.0
        s = rng.standard_normal(12)
        last = breakpoints(BallProxProblem(c=c, s=s, R=1.0, alpha=0.7))[-1]
        p = problem_with_root_at(c, s, 0.7, 3.0 * last)
        sol = prox_l1_ball(p)
        assert sol.mu == pytest.approx(3.0 * last, rel=1e-12)
        assert np.all(sol.x != 0.0)
        assert_matches_bisection(p, sol)

    def test_radius_tiny_relative_to_swept_mass(self):
        # every coordinate starts inactive, so the sweep starts from
        # S = ||s||^2, about 3e7, and ends past the breakpoints of the large
        # entries, where S is 1e-19 and R = 1e-10: R - S read off a running
        # sum would be lost to cancellation
        rng = np.random.default_rng(23)
        s = rng.standard_normal(40) * 1e3
        s[:10] = 1e-10
        c = rng.uniform(-0.2, 0.2, 40)
        p = BallProxProblem(c=c, s=s, R=1e-10, alpha=2.0)
        sol = prox_l1_ball(p)
        assert sol.active
        assert np.all(sol.x[:10] == 0.0) and np.all(sol.x[10:] != 0.0)
        # mu (x - s) carries the rounding of x - s at the scale of s
        ulp_s = np.finfo(float).eps * float(np.abs(s).max())
        assert_matches_bisection(p, sol, kkt_tol=8.0 * sol.mu * ulp_s)

    @pytest.mark.parametrize("c, s, R, N", [
        (0.0, 3.68340926e-161, 6.8e-322, (1.0 + 3.68340926e-161) ** 2),
        (1e150, 0.0, 1e-300, (1e150 - 1.0) ** 2),
    ])
    def test_root_past_overflowing_quotient(self, c, s, R, N):
        # one coordinate, active on the root's segment, where
        # phi(mu) = N/(1 + mu)^2 - R: N/R overflows, but the root
        # mu = sqrt(N)/sqrt(R) - 1 (about 3.8e160 and 1e300) does not
        p = BallProxProblem(c=[c], s=[s], R=R, alpha=1.0)
        sol = prox_l1_ball(p)
        assert sol.active
        assert sol.mu == pytest.approx(np.sqrt(N) / np.sqrt(R) - 1.0, rel=1e-12)
        x_ref, _ = bisection_prox_ball(p.c, p.s, p.R, p.alpha)
        assert sol.x[0] == pytest.approx(x_ref[0], rel=1e-10)
        assert abs(ball_gap(sol, p)) <= 1e-12 * max(p.R, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(ball_problems())
    def test_matches_reference_bisection(self, p):
        assert_matches_bisection(p, prox_l1_ball(p))


class TestLeastNormSolution:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(least_norm_solution(SensingMatrix(np.eye(3)), b), b)

    def test_line_case(self):
        x = least_norm_solution(SensingMatrix([[1.0, 1.0]]), [2.0])
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)

    def test_random_wide_system(self):
        rng = np.random.default_rng(9)
        A = SensingMatrix(rng.standard_normal((8, 32)))
        b = rng.standard_normal(8)
        x = least_norm_solution(A, b)
        assert np.linalg.norm(A.entries @ x - b) <= 1e-10 * np.linalg.norm(b)
        # x must be orthogonal to ker A; build a null basis from the full QR
        q_full, _ = np.linalg.qr(A.entries.T, mode="complete")
        null = q_full[:, 8:]
        rng2 = np.random.default_rng(10)
        for _ in range(10):
            v = null @ rng2.standard_normal(null.shape[1])
            assert abs(float(x @ v)) <= 1e-10 * max(1.0, np.linalg.norm(v))

    def test_rank_deficient_raises(self):
        with pytest.raises(SubsolverError):
            least_norm_solution(SensingMatrix(np.ones((2, 5))), [1.0, 1.0])

    def test_wrong_length_b(self):
        with pytest.raises(ValueError):
            least_norm_solution(SensingMatrix(np.eye(3)), [1.0, 2.0])


@st.composite
def affine_problems(draw):
    """(A, b, c, alpha) with 1 <= m <= n <= 12, m = 1 and m = n drawn often,
    b = 0 in about a quarter of the draws, and A, b, c and alpha spread over
    several decades (the columns of A over two more)."""
    n = draw(st.integers(1, 12))
    m = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def decades():
        return 10.0 ** draw(st.integers(-3, 3))

    A = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-1.0, 1.0, n) * decades()
    b = A @ rng.standard_normal(n) * decades()
    if draw(st.integers(0, 3)) == 0:
        b = np.zeros(m)
    c = rng.standard_normal(n) * decades()
    alpha = 10.0 ** draw(st.floats(-1.0, 2.0))
    return A, b, c, alpha


class TestProxL1Affine:
    def test_symmetric_line_case(self):
        A = SensingMatrix([[1.0, 1.0]])
        x = prox_l1_affine([0.0, 0.0], A, [2.0], alpha=1.0)
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-9)
        # grid cross-check along the feasible line x = (t, 2 - t)
        t_star, _ = grid_min_scalar(
            lambda t: np.abs(t) + np.abs(2.0 - t) + 0.5 * (t**2 + (2.0 - t) ** 2),
            -3.0,
            5.0,
        )
        np.testing.assert_allclose(x[0], t_star, atol=1e-6)

    def test_zero_rhs(self):
        A = SensingMatrix([[1.0, 1.0]])
        np.testing.assert_allclose(
            prox_l1_affine([0.0, 0.0], A, [0.0], alpha=1.0), [0.0, 0.0], atol=1e-12
        )

    def test_objective_matches_subgradient_oracle(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((4, 10))
        b = rng.standard_normal(4)
        c = rng.standard_normal(10)
        x = prox_l1_affine(c, SensingMatrix(A), b, alpha=1.0)
        ref = projected_subgradient_affine(A[None], b[None], c[None], [1.0])[0]
        assert ball_objective(x, c, 1.0) <= ball_objective(ref, c, 1.0) + 1e-6

    def test_constraint_holds_to_machine_precision(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((5, 14))
        b = rng.standard_normal(5)
        x = prox_l1_affine(rng.standard_normal(14), SensingMatrix(A), b, alpha=0.7)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * max(1.0, np.linalg.norm(b))

    def test_max_iter_exhaustion_raises_with_residuals(self):
        rng = np.random.default_rng(13)
        A = SensingMatrix(rng.standard_normal((3, 9)))
        b = rng.standard_normal(3)
        with pytest.raises(SubsolverError, match=r"in 1 steps \(duality gap "):
            prox_l1_affine(np.zeros(9), A, b, alpha=1.0, max_iter=1)
        # the same problem certifies once it is allowed a few steps
        x = prox_l1_affine(np.zeros(9), A, b, alpha=1.0, max_iter=20)
        np.testing.assert_allclose(A.entries @ x, b, rtol=0.0, atol=1e-12)

    def test_input_validation(self):
        A = SensingMatrix([[1.0, 1.0]])
        with pytest.raises(ValueError):
            prox_l1_affine([0.0, 0.0], A, [1.0], alpha=0.0)
        with pytest.raises(ValueError):
            prox_l1_affine([0.0], A, [1.0], alpha=1.0)  # wrong c length
        with pytest.raises(ValueError):
            prox_l1_affine([0.0, 0.0], A, [1.0], alpha=1.0, tol=0.0)
        with pytest.raises(ValueError):
            prox_l1_affine([0.0, 0.0], A, [1.0], alpha=1.0, max_iter=0)
        with pytest.raises(ValueError):
            prox_l1_affine([np.nan, 0.0], A, [1.0], alpha=1.0)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("scale", [1e-6, 1e-10, 1e-14])
    def test_small_scale_matches_basis_pursuit(self, scale, seed):
        # with b and c at scale s the problem is s times the unit-scale one
        # with alpha s, and for alpha s this small its solution is the basis
        # pursuit solution min ||x||_1 over Ax = b/s; the error is measured
        # against x itself, so a stop that is absolute below P = 1 would
        # return a point of the right size but the wrong support
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((30, 90))
        b = A @ rng.standard_normal(90)
        c = rng.standard_normal(90)
        x = prox_l1_affine(c * scale, SensingMatrix(A), b * scale, 1.0)
        lp = linprog(np.ones(180), A_eq=np.hstack([A, -A]), b_eq=b,
                     bounds=(0, None), method="highs",
                     options={"primal_feasibility_tolerance": 1e-10,
                              "dual_feasibility_tolerance": 1e-10})
        x_bp = lp.x[:90] - lp.x[90:]
        assert np.linalg.norm(x / scale - x_bp) <= 1e-9 * np.linalg.norm(x_bp)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("scale", [1e-150, 1e-250])
    def test_tiny_scale_raises_typed(self, scale, seed):
        # x(y) = soft_threshold(v, 1/alpha) carries round-off of about
        # eps/alpha, far above an x* of this scale, so the gap cannot reach
        # tol * P(x_hat): the solve must end in SubsolverError, not in an
        # uncertified point, and not in numpy's untyped LinAlgError: at
        # 1e-250 the Newton matrix at x(0) = 0 is ||F|| I, and
        # np.linalg.norm(F) underflows to 0 there
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((4, 9))
        b = A @ rng.standard_normal(9) * scale
        c = rng.standard_normal(9) * scale
        with pytest.raises(SubsolverError):
            prox_l1_affine(c, SensingMatrix(A), b, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(affine_problems())
    def test_matches_reference_splitting(self, problem):
        A, b, c, alpha = problem
        tol = 1e-12
        x = prox_l1_affine(c, SensingMatrix(A), b, alpha, tol=tol)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * (
            np.linalg.norm(A) * max(np.linalg.norm(x), np.linalg.norm(c))
            + np.linalg.norm(b))
        x_ln = np.linalg.lstsq(A, b, rcond=None)[0]
        scale = max(1.0, np.linalg.norm(c), np.linalg.norm(x_ln))
        try:
            ref = splitting_prox_affine(c, A, b, alpha, tol=1e-13 * scale)
        except RuntimeError:
            # the splitting crawls when a coordinate of the solution is
            # tiny but nonzero against 1/alpha; no reference, no comparison
            reject()
        assert np.linalg.norm(x - ref) <= 1e-9 * max(1.0, np.linalg.norm(ref))
        # the certificate: P(x) - min P <= tol P(x), and the feasible
        # reference bounds min P from above
        p_x = ball_objective(x, c, alpha)
        assert p_x - ball_objective(ref, c, alpha) <= tol * p_x


def dual_slope(v, w, tau, k, t):
    """(g(t), scale): g(t) = w . soft(v + t w, tau) - k evaluated directly,
    and the magnitude of the terms summed into it."""
    u = v + t * w
    x = np.sign(u) * np.maximum(np.abs(u) - tau, 0.0)
    terms = np.abs(w) * (np.abs(u) + tau) * (x != 0.0)
    return float(w @ x) - k, float(terms.sum()) + abs(k)


@st.composite
def dual_lines(draw):
    """(v, w, tau, k) with ties at the thresholds, zero directions and
    g(0) < 0; at least one w_i is nonzero, so g has a root."""
    n = draw(st.integers(1, 16))
    tau = draw(st.sampled_from([0.5, 1.0, 2.0]))
    v = draw(arrays(float, n, elements=st.one_of(
        st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]).map(lambda a: a * tau),
        st.floats(-5.0, 5.0))))
    # |w_i| >= 1e-6 or 0 keeps every breakpoint far below the overflow
    # threshold of v + t w
    w = draw(arrays(float, n, elements=st.one_of(
        st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]),
        st.floats(1e-6, 3.0), st.floats(-3.0, -1e-6))))
    w[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-1.0, 1.0]))
    x0 = np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)
    k = float(w @ x0) + draw(st.floats(1e-3, 10.0))
    return v, w, tau, k


class TestExactDualStep:
    def test_tie_at_zero_turns_nonzero(self):
        # |v_0| = tau and w_0 pushes it outward: x_0 = t from t = 0 on
        t = _dual_step(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1.0, 0.5)
        assert t == 0.5

    def test_root_between_leaving_and_reentering(self):
        # coordinate 0 (w_0 = -1e8) is zero only on (1e-8, 3e-8), where the
        # root of g(t) = 4 + t - k lies; its 1e16 slope must not swamp the
        # unit slope of coordinate 1 there
        t = _dual_step(np.array([2.0, 5.0]), np.array([-1e8, 1.0]), 1.0,
                       4.0 + 2e-8)
        assert t == pytest.approx(2e-8, rel=1e-7)

    @settings(max_examples=300, deadline=None)
    @given(dual_lines())
    def test_step_is_a_root(self, line):
        v, w, tau, k = line
        t = _dual_step(v, w, tau, k)
        assert t > 0.0
        g, scale = dual_slope(v, w, tau, k, t)
        assert abs(g) <= 1e-12 * scale
