"""Ball and affine l1-prox subsolvers against oracles and hand KKT cases."""

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_triangular
from scipy.optimize import linprog

from sparseratio import subsolvers
from sparseratio.models import SensingMatrix, _full_norm
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
    full_sweep_prox_ball,
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

    @settings(max_examples=300, deadline=None)
    @given(
        arrays(np.float64, st.integers(1, 12), elements=st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e300,
                             1.7976931348623157e308]),
            st.floats(-1e-300, 1e-300),
            st.floats(1e290, 1.7976931348623157e308),
            st.floats(-1.7976931348623157e308, -1e290),
            st.floats(allow_nan=False, allow_infinity=False))),
        st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(0.0, 1e-300),
                  st.floats(0.0, 1e300)),
    )
    @example(np.array([-0.0, 0.0, -5e-324, 5e-324]), 0.0)
    @example(np.array([-0.0, 0.0, -5e-324, 1e300]), 5e-324)
    def test_formula_bit_for_bit(self, v, tau):
        # written in place, it keeps every bit of the formula, the sign of
        # each zero included
        expected = np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)
        assert soft_threshold(v, tau).tobytes() == expected.tobytes()
        assert soft_threshold(v[0], tau) == expected[0]


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
            sol = prox_l1_ball(p)
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
    """The positive finite multipliers at which a coordinate of x(mu) turns
    zero or nonzero."""
    a = p.alpha * p.c
    nz = p.s != 0.0
    with np.errstate(over="ignore"):
        bps = np.concatenate(((1.0 - a[nz]) / p.s[nz],
                              (-1.0 - a[nz]) / p.s[nz]))
    return np.sort(bps[(bps > 0.0) & (bps < np.inf)])


def assert_matches_bisection(p, sol, kkt_tol=1e-10, comp_tol=1e-10,
                             x_tol=1e-10):
    x_ref, mu_ref = bisection_prox_ball(p.c, p.s, p.R, p.alpha)
    assert np.linalg.norm(sol.x - x_ref) <= x_tol * max(1.0, np.linalg.norm(sol.x))
    gap = ball_gap(sol, p)
    assert gap <= 1e-12 * max(p.R, 1.0)
    # a degenerate ball (R = 0) pins x = s; its multiplier is not meaningful
    if p.R > 0.0:
        kkt = stationarity_residual(sol.x, p.c, p.s, p.alpha, sol.mu)
        assert kkt <= kkt_tol
    assert abs(sol.mu * gap) <= comp_tol * (1.0 + sol.mu)
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
    kind = draw(st.sampled_from(["plain", "turn_off", "s_scaled"]))
    if kind == "turn_off":
        # a coordinate with |alpha c_i| > 1 and s_i of the other sign starts
        # active, turns inactive and then active again with the other sign
        big = np.abs(alpha * c) > 1.0
        s = np.where(big, -np.sign(c) * np.where(s == 0.0, 0.5, np.abs(s)), s)
    elif kind == "s_scaled":
        # subnormal s overflows the breakpoints (+-1 - alpha c_i)/s_i; huge s
        # puts ||s||^2 and the swept sums near overflow
        s = s * draw(st.sampled_from([2.0 ** -1050, 2.0 ** 300, 2.0 ** 490]))
    d0 = ball_point_oracle(c, s, alpha, 0.0) - s
    # R spans from far inside the unconstrained prox's distance to beyond it
    R = float(d0 @ d0) * draw(st.floats(1e-8, 1.5)) + draw(
        st.sampled_from([0.0, 1e-6, 0.5]))
    return BallProxProblem(c=c, s=s, R=R, alpha=alpha)


def beyond_sphere_accuracy(p):
    """Whether prox_l1_ball may miss its sphere check on p by rounding alone.

    Each x_i - s_i carries a rounding of about eps |s_i|, so the computed
    ||x - s||^2 can miss R by about 2 eps ||s|| sqrt(R) (64 eps here, for
    n <= 64). The check allows tol * max(R, 1), and the absolute 1 in it
    is not scale-free: with ||s|| far above max(R, 1)/sqrt(R), a huge s
    with a comparatively tiny ball, no representable x passes.
    """
    return (64.0 * np.finfo(float).eps * float(np.linalg.norm(p.s))
            * np.sqrt(p.R) > 1e-12 * max(p.R, 1.0))


def solve_or_miss(p):
    """prox_l1_ball(p), or None where it raises SubsolverError, which only
    a draw beyond_sphere_accuracy may do."""
    try:
        return prox_l1_ball(p)
    except SubsolverError:
        assert beyond_sphere_accuracy(p)
        return None


def rounding_tols(p, sol):
    """The tolerances of assert_matches_bisection, widened only where the
    rounding of x - s at the scale of s exceeds them.

    x_i - s_i carries about eps |s_i|, so mu (x - s) carries 8 mu eps max|s|
    (above 1e-10 at mu > ~1e4 even for |s_i| <= 6), and ||x - s||^2 - R
    carries band = 64 eps ||s|| sqrt(R), as in beyond_sphere_accuracy. For
    draws with |s_i| <= 6 the band stays below 1e-10 and the complementarity
    and point checks are unchanged. Above it, whether the ball is active and
    where phi crosses 0 are known only to the band: along x(mu) the point
    moves by 1/(2 ||x - s||_active) per unit of phi, so any two multipliers
    whose phi lie within the band give points up to band/(2 ||x - s||_active)
    apart, about 32 eps ||s|| where R is near ||s||^2. With s near 1e148 a
    crossing one ulp of R to either side moves mu by 1e-148 and so
    alpha c + mu s by O(1).
    """
    eps = np.finfo(float).eps
    tols = {"kkt_tol": max(1e-10, 8.0 * sol.mu * eps * float(np.abs(p.s).max()))}
    band = 64.0 * eps * float(np.linalg.norm(p.s)) * np.sqrt(p.R)
    if band > 1e-10:
        x_ref, _ = bisection_prox_ball(p.c, p.s, p.R, p.alpha)
        reach = min(float(np.linalg.norm((x - p.s)[x != 0.0]))
                    for x in (sol.x, x_ref))
        tols["comp_tol"] = band
        tols["x_tol"] = max(1e-10, band / (2.0 * reach)) if reach > 0.0 else np.inf
    return tols


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

    @pytest.mark.parametrize("c0, s1, R", [
        # R = s_1^2: phi(0) = 1 + s_1^2 - R is 0 in floating point, read off
        # the sums as from ||x(0) - s||^2, so the ball is inactive
        (2.0, -3.055553964501729e+90, 9.336410029982234e+180),
        # R an ulp below s_1^2: the root sits at the breakpoint 1/|s_1|, and
        # || |u| + 1 ||/sqrt(R) - alpha exceeds it by less than the rounding
        # of that quotient
        (1.6024338098404867, -6.732655185893088e+86, 4.532864585213309e+173),
    ])
    def test_radius_at_the_rounding_of_a_huge_centre(self, c0, s1, R):
        p = BallProxProblem(c=[c0, 0.0], s=[0.0, s1], R=R, alpha=1.0)
        sol = prox_l1_ball(p)
        x_ref, mu_ref, active_ref = full_sweep_prox_ball(p.c, p.s, p.R, p.alpha)
        assert sol.x.tobytes() == x_ref.tobytes()
        assert sol.mu == mu_ref and sol.active == active_ref

    def test_inactive_by_a_hair(self):
        # phi(0) comes from the sums N0 and S0, not from x(0), so with R
        # within a few ulps of ||x(0) - s||^2 it may round to either side of
        # 0; either side must keep the contract
        c = np.array([3.0, -0.5, 1.7, 0.0])
        s = np.array([0.1, 0.2, -0.3, 0.7])
        x0 = soft_threshold(c, 1.0)
        d0 = x0 - s
        R0 = float(d0 @ d0)
        radii = [R0, np.nextafter(R0, 0.0), np.nextafter(R0, np.inf)]
        for R in [*radii, R0 * (1.0 + 1e-9), R0 * (1.0 - 1e-9)]:
            p = BallProxProblem(c=c, s=s, R=R, alpha=1.0)
            sol = prox_l1_ball(p)
            assert 0.0 <= sol.mu <= 1e-8
            if sol.active:
                assert abs(ball_gap(sol, p)) <= 1e-12 * max(R, 1.0)
            else:
                assert sol.mu == 0.0
                np.testing.assert_array_equal(sol.x, x0)
            assert stationarity_residual(sol.x, c, s, 1.0, sol.mu) <= 1e-10
            np.testing.assert_allclose(sol.x, x0, rtol=0.0, atol=1e-8)
        assert not prox_l1_ball(BallProxProblem(c=c, s=s, R=R0 * (1.0 + 1e-9),
                                                alpha=1.0)).active
        inside = prox_l1_ball(BallProxProblem(c=c, s=s, R=R0 * (1.0 - 1e-9),
                                              alpha=1.0))
        assert inside.active and inside.mu > 0.0

    @settings(max_examples=300, deadline=None)
    @example(BallProxProblem(c=[2.0], s=[2.2e-313], R=0.5, alpha=1.0))
    # mu ~ 9e4 with |s_i| = 6: the KKT residual is 1.06e-10, all rounding
    @example(BallProxProblem(c=[0.0, 0.0, 2.140625] + [1.0] * 13, s=[6.0] * 16,
                             R=5.261670469225119e-06, alpha=9.75))
    @given(ball_problems())
    def test_matches_reference_bisection(self, p):
        sol = solve_or_miss(p)
        if sol is not None:
            assert_matches_bisection(p, sol, **rounding_tols(p, sol))

    @settings(max_examples=300, deadline=None)
    @example(BallProxProblem(c=[2.0], s=[2.2e-313], R=0.5, alpha=1.0))
    @given(ball_problems())
    def test_same_bits_as_the_full_sweep(self, p):
        # the bounded sweep crosses the same breakpoints in the same order as
        # a sweep over all of them, unless two tie; the activity test from
        # the sums agrees with the direct one unless R is within rounding of
        # ||x(0) - s||^2
        sol = solve_or_miss(p)
        if sol is None:
            return
        x_ref, mu_ref, active_ref = full_sweep_prox_ball(p.c, p.s, p.R,
                                                         p.alpha)
        d0 = ball_point_oracle(p.c, p.s, p.alpha, 0.0) - p.s
        phi0_scale = float(d0 @ d0) + p.R
        if (np.any(np.diff(breakpoints(p)) == 0.0)
                or abs(float(d0 @ d0) - p.R) <= 1e-12 * phi0_scale):
            assert_matches_bisection(p, sol, **rounding_tols(p, sol))
        else:
            assert sol.x.tobytes() == x_ref.tobytes()
            assert sol.mu == mu_ref and sol.active == active_ref


@st.composite
def column_scaled_systems(draw):
    """(A, b) with 1 <= m <= n <= 40 and A's column scales spread over up to
    8 decades."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, n))
    decades = draw(st.floats(0.0, 8.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** rng.uniform(-decades / 2, decades / 2, n)
    return rng.standard_normal((m, n)) * scales, rng.standard_normal(m)


def forward_substitution_on_r(sm, b):
    """The QR path's least-norm x, by forward substitution on R and one
    product with Q, both from np.linalg.qr of A^T."""
    q, r = np.linalg.qr(sm.entries.T)
    y = np.empty(sm.m)
    for i in range(sm.m):
        y[i] = (b[i] - r[:i, i] @ y[:i]) / r[i, i]
    return q @ y


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

    def test_overflowing_solution_raises(self):
        # 1e-300 I has full row rank, but x = b / 1e-300 overflows
        with pytest.raises(SubsolverError, match="non-finite"):
            least_norm_solution(SensingMatrix(1e-300 * np.eye(2)),
                                [1e300, 1.0])

    def test_rank_deficient_raises(self):
        # rank is the constructor's to decide; a raw rank-deficient matrix
        # is rejected there
        with pytest.raises(ValueError, match="full row rank"):
            least_norm_solution(np.ones((2, 5)), [1.0, 1.0])

    @pytest.mark.parametrize("shape", [(730, 2560), (180, 640), (64, 300),
                                       (6, 6), (2, 7)])
    def test_bitwise_equal_to_forward_substitution_on_a_copy_of_r(self, shape):
        # A's last row lies within 1e-6 of its first, so cond(A) is about
        # 1e6 and A keeps the QR. Its factors are np.linalg.qr's bitwise,
        # and the solve substitutes on R and multiplies by Q as written out
        # here, so x keeps those bits
        rng = np.random.default_rng(shape[0] * shape[1])
        A = rng.standard_normal(shape)
        A[-1] = A[0] + 1e-6 * A[-1]
        sm = SensingMatrix(A)
        assert sm.cholesky is None
        b = rng.standard_normal(shape[0])
        assert (least_norm_solution(sm, b).tobytes()
                == forward_substitution_on_r(sm, b).tobytes())

    @pytest.mark.parametrize("shape", [(730, 2560), (180, 640), (64, 300),
                                       (20, 60), (1, 7)])
    def test_cholesky_path_residual_no_worse_than_the_qr_solve(self, shape):
        # on a well-conditioned A the corrected semi-normal equations leave
        # a residual no larger than the QR solve's, up to one rounding of
        # b, and x in range(A^T) = range(Q) up to round-off
        rng = np.random.default_rng(shape[0] + shape[1])
        sm = SensingMatrix(rng.standard_normal(shape))
        assert sm.cholesky is not None
        b = rng.standard_normal(shape[0])
        x = least_norm_solution(sm, b)
        x_qr = forward_substitution_on_r(sm, b)
        A = sm.entries
        assert np.linalg.norm(A @ x - b) <= (
            np.linalg.norm(A @ x_qr - b)
            + np.finfo(float).eps * np.linalg.norm(b))
        q = sm.qr[0]
        assert np.linalg.norm(x - q @ (q.T @ x)) <= 1e-14 * np.linalg.norm(x)

    @pytest.mark.parametrize("scale, b_scale", [(1e-140, 1e40),
                                                (1e140, 1e-60)])
    def test_cholesky_path_solves_far_from_unit_scale(self, scale, b_scale):
        # (L L^T)^{-1} b lies at b_scale / scale^2 (1e320 and 1e-340 here),
        # beyond the float range, while x lies at b_scale / scale; the solve
        # scales its middle vector by a power of two and matches the QR's x
        rng = np.random.default_rng(4)
        sm = SensingMatrix(scale * rng.standard_normal((20, 60)))
        assert sm.cholesky is not None
        b = b_scale * rng.standard_normal(20)
        x = least_norm_solution(sm, b)
        x_qr = forward_substitution_on_r(sm, b)
        assert _full_norm(x - x_qr) <= 1e-14 * _full_norm(x_qr)

    @settings(max_examples=300, deadline=None)
    @given(column_scaled_systems())
    def test_matches_pseudoinverse(self, system):
        A, b = system
        try:
            sm = SensingMatrix(A)
        except ValueError:
            reject()
        x = least_norm_solution(sm, b)
        nx = np.linalg.norm(x)
        # x is Q R^{-T} b up to round-off, however the columns are scaled,
        # and lies in range(A^T) = range(Q)
        q, r = sm.qr
        y = solve_triangular(r, b, trans="T")
        assert np.linalg.norm(x - q @ y) <= 1e-12 * nx
        assert np.linalg.norm(x - q @ (q.T @ x)) <= 1e-12 * nx
        # no backward-stable solve can match pinv closer than about
        # cond(A) eps: with columns spread over 8 decades cond(A) reaches
        # 1e9, and pinv itself then misses the exact solution by about 1e-9
        x_pinv = np.linalg.pinv(A) @ b
        bound = max(1e-12, 100.0 * np.finfo(float).eps * np.linalg.cond(A))
        assert np.linalg.norm(x - x_pinv) <= bound * np.linalg.norm(x_pinv)

    def test_wrong_length_b(self):
        with pytest.raises(ValueError):
            least_norm_solution(SensingMatrix(np.eye(3)), [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("scale", [1.0, 1e-300], ids=["cholesky", "qr"])
    def test_non_finite_b_rejected(self, bad, scale):
        # a non-finite b is the caller's error, on either path, not a
        # failed solve
        sm = SensingMatrix(scale * np.eye(2))
        with pytest.raises(ValueError, match="b must be finite"):
            least_norm_solution(sm, [bad, 1.0])


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

    def test_max_iter_exhaustion_raises_with_residuals(self, monkeypatch):
        rng = np.random.default_rng(13)
        A = SensingMatrix(rng.standard_normal((3, 9)))
        b = rng.standard_normal(3)
        monkeypatch.setattr(subsolvers, "_AFFINE_MAX_ITER", 1)
        with pytest.raises(SubsolverError, match=r"in 1 steps \(duality gap "):
            prox_l1_affine(np.zeros(9), A, b, alpha=1.0)
        # the same problem certifies once it is allowed a few steps
        monkeypatch.setattr(subsolvers, "_AFFINE_MAX_ITER", 20)
        x = prox_l1_affine(np.zeros(9), A, b, alpha=1.0)
        np.testing.assert_allclose(A.entries @ x, b, rtol=0.0, atol=1e-12)

    def test_entries_whose_squares_overflow(self):
        # A A^T overflows, so A takes the QR without a warning
        A = SensingMatrix([[1e301, 1.0]])
        assert A.cholesky is None
        np.testing.assert_allclose(
            prox_l1_affine([0.0, 0.0], A, [1e301], alpha=1.0), [1.0, 0.0],
            rtol=1e-15, atol=1e-290)

    def test_input_validation(self):
        A = SensingMatrix([[1.0, 1.0]])
        with pytest.raises(ValueError):
            prox_l1_affine([0.0, 0.0], A, [1.0], alpha=0.0)
        with pytest.raises(ValueError):
            prox_l1_affine([0.0], A, [1.0], alpha=1.0)  # wrong c length
        with pytest.raises(ValueError):
            prox_l1_affine([np.nan, 0.0], A, [1.0], alpha=1.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="b must be finite"):
                prox_l1_affine([0.0, 0.0], A, [bad], alpha=1.0)

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

    @pytest.mark.parametrize("scale, seed", [(2e-14, 35), (3e-15, 32),
                                             (1e-15, 6)])
    def test_rows_on_the_threshold_join_the_newton_set(self, scale, seed):
        # c is a few ulps of 1/alpha here, so some v_i round exactly onto
        # the threshold; a Newton matrix without those rows stalls these
        # solves until max_iter
        self.test_small_scale_matches_basis_pursuit(scale, seed)

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
        tol = subsolvers._AFFINE_TOL
        x = prox_l1_affine(c, SensingMatrix(A), b, alpha)
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
    g(0) < 0; at least one w_i is nonzero, so g has a root. tau is a scalar
    (the affine prox) or per coordinate with zeros among its entries (the
    criticality residual's intervals and points)."""
    n = draw(st.integers(1, 16))
    tau = draw(st.one_of(
        st.sampled_from([0.5, 1.0, 2.0]),
        arrays(float, n, elements=st.sampled_from([0.0, 0.5, 1.0, 2.0]))))
    multiple = draw(arrays(float, n, elements=st.sampled_from(
        [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])))
    v = draw(arrays(float, n, elements=st.floats(-5.0, 5.0)))
    # ties at +-tau_i, and other v_i on multiples of tau_i
    tied = draw(arrays(bool, n))
    v = np.where(tied, multiple * tau, v)
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
