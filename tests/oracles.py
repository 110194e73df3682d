"""Independent reference computations used to check the library.

Everything here is deliberately dumb and slow: dense grids, exhaustive
enumeration, central finite differences, and projected subgradient descent.
None of it shares code paths with the package under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.linalg import solve_triangular


def grid_min_scalar(f, lo: float, hi: float, points: int = 4001, refinements: int = 4):
    """Coarse-to-fine grid minimization of a scalar function on [lo, hi].

    Each refinement zooms into a +/- 2-cell window around the incumbent, so
    the final resolution is roughly (hi - lo) * (4 / points) ** refinements.
    Returns (argmin, min).
    """
    lo0, hi0 = lo, hi
    best_x, best_v = None, np.inf
    for _ in range(refinements + 1):
        xs = np.linspace(lo, hi, points)
        vals = f(xs)
        i = int(np.argmin(vals))
        if vals[i] < best_v:
            best_x, best_v = float(xs[i]), float(vals[i])
        h = (hi - lo) / (points - 1)
        # keep the zoom window inside the original domain so constrained
        # problems never sample infeasible points
        lo, hi = max(lo0, best_x - 2 * h), min(hi0, best_x + 2 * h)
    return best_x, best_v


def soft_threshold_oracle(v: float, tau: float) -> float:
    """Grid minimizer of tau*|x| + 0.5*(x - v)^2 over one coordinate."""
    span = abs(v) + tau + 1.0
    x, _ = grid_min_scalar(lambda xs: tau * np.abs(xs) + 0.5 * (xs - v) ** 2,
                           -span, span)
    return x


def prox_ball_oracle_1d(c: float, s: float, R: float, alpha: float) -> float:
    """Grid minimizer of |x| + alpha/2 (x-c)^2 over the interval |x-s|^2 <= R."""
    rad = np.sqrt(R)
    lo, hi = s - rad, s + rad
    x, _ = grid_min_scalar(lambda xs: np.abs(xs) + 0.5 * alpha * (xs - c) ** 2,
                           lo, hi)
    # the kink at 0 and the interval ends are candidate minimizers the grid
    # may straddle; check them exactly
    cands = [x, lo, hi]
    if lo <= 0.0 <= hi:
        cands.append(0.0)
    f = lambda y: abs(y) + 0.5 * alpha * (y - c) ** 2
    return min(cands, key=f)


def ball_point_oracle(c, s, alpha: float, mu: float):
    """x(mu) = soft((alpha c + mu s)/(alpha + mu), 1/(alpha + mu)), the
    minimizer of the ball prox Lagrangian at multiplier mu."""
    t = 1.0 / (alpha + mu)
    z = (alpha * np.asarray(c, dtype=float) + mu * np.asarray(s, dtype=float)) * t
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def stationarity_residual(x, c, s, alpha: float, mu: float) -> float:
    """Largest violation of 0 in subdiff||x||_1 + alpha (x - c) + mu (x - s),
    the stationarity condition of the ball prox at multiplier mu."""
    # a zero coordinate may take any subgradient in [-1, 1]
    per_coord = (np.abs(alpha * (x - c) + mu * (x - s) + np.sign(x))
                 - (x == 0.0))
    return max(float(per_coord.max()), 0.0)


def bisection_prox_ball(c, s, R: float, alpha: float):
    """Ball-constrained l1 prox by bisection on the multiplier.

    Solves min ||x||_1 + alpha/2 ||x - c||^2 s.t. ||x - s||^2 <= R. The
    root of the nonincreasing phi(mu) = ||x(mu) - s||^2 - R is bracketed by
    doubling and bisected until the bracket collapses to rounding; the
    midpoint with the smallest |phi| wins. Returns (x, mu), with mu = 0
    when the unconstrained prox already lies in the ball.
    """
    c = np.asarray(c, dtype=float)
    s = np.asarray(s, dtype=float)
    if R == 0.0:
        return s.copy(), 0.0

    def phi(mu):
        d = ball_point_oracle(c, s, alpha, mu) - s
        return float(d @ d) - R

    if phi(0.0) <= 0.0:
        return ball_point_oracle(c, s, alpha, 0.0), 0.0
    lo, hi = 0.0, alpha
    while phi(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    best_val, best_mu = np.inf, hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        val = phi(mid)
        if abs(val) < best_val:
            best_val, best_mu = abs(val), mid
        if val > 0.0:
            lo = mid
        else:
            hi = mid
    return ball_point_oracle(c, s, alpha, best_mu), best_mu


def full_sweep_prox_ball(c, s, R: float, alpha: float):
    """Ball-constrained l1 prox by a sort and sweep over all 2n breakpoints.

    A frozen copy of the library's earlier exact solve, kept so that its
    bounded sweep can be checked bit for bit. phi(mu) = ||x(mu) - s||^2 - R
    is evaluated directly at mu = 0 to test whether the ball is active;
    otherwise every positive breakpoint (+-1 - alpha c_i)/s_i is sorted,
    phi at each is read off cumulative sums of the changes to
    N = sum over active i of (u_i - sigma_i)^2 (u = alpha (c - s)) and
    S = sum over inactive i of s_i^2, and the root of
    N/(alpha + mu)^2 + S - R on the first segment whose right end has
    phi <= 0 is taken, with N and S of that segment summed directly.
    Returns (x, mu, active).
    """
    c = np.asarray(c, dtype=float)
    s = np.asarray(s, dtype=float)

    def point(mu):
        v = (alpha * c + mu * s) / (alpha + mu)
        return np.sign(v) * np.maximum(np.abs(v) - 1.0 / (alpha + mu), 0.0)

    def sums(active, sigma, u):
        w = np.where(active, u - sigma, 0.0)
        z = np.where(active, 0.0, s)
        return float(w @ w), float(z @ z)

    if R == 0.0:
        return s.copy(), 0.0, True
    x0 = point(0.0)
    d = x0 - s
    if float(d @ d) - R <= 0.0:
        return x0, 0.0, False

    n = c.size
    a = alpha * c
    u = a - alpha * s
    sgn = np.sign(s)
    sigma0 = np.sign(a)
    abs_a = np.abs(a)
    active0 = (abs_a > 1.0) | ((abs_a == 1.0) & (sigma0 == sgn))
    # events 0..n-1 cross alpha c_i + mu s_i = +1, events n..2n-1 cross -1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bps = ((np.array([[1.0], [-1.0]]) - a) / s).ravel()
    events = np.flatnonzero((bps > 0.0) & (bps < np.inf))
    order = events[np.argsort(bps[events])]
    signed_sq = sgn * s * s
    d_N = np.concatenate((sgn * (u - 1.0) ** 2, -sgn * (u + 1.0) ** 2))[order]
    d_S = np.concatenate((-signed_sq, signed_sq))[order]
    N0, S0 = sums(active0, sigma0, u)
    scale = alpha + bps[order]
    phi_right = ((N0 + (np.cumsum(d_N) - d_N)) / scale / scale
                 + (np.cumsum(d_S) - d_S) + (S0 - R))
    hits = np.flatnonzero(phi_right <= 0.0)
    k = int(hits[0]) if hits.size else order.size
    lo = float(bps[order[k - 1]]) if k > 0 else 0.0
    hi = float(bps[order[k]]) if k < order.size else math.inf
    crossed = np.zeros(2 * n, dtype=bool)
    crossed[order[:k]] = True
    plus, minus = crossed[:n], crossed[n:]
    N, S = sums(active0 ^ plus ^ minus, np.where(plus | minus, sgn, sigma0), u)
    if not R - S > 0.0:
        raise ArithmeticError("the root was lost to cancellation")
    ratio = N / (R - S)
    root = (math.sqrt(ratio) if ratio < math.inf
            else math.sqrt(N) / math.sqrt(R - S))
    mu = min(max(root - alpha, lo), hi)
    return point(mu), mu, True


def grid_prox_ball_oracle(c, s, R, alpha, levels: int = 40, pts: int = 12):
    """Ball-constrained l1 prox by multiplier grid refinement.

    Solves min ||x||_1 + alpha/2 ||x - c||^2 s.t. ||x - s||^2 <= R (R is the
    squared radius). Stationarity at multiplier mu >= 0 decouples to
    x_i(mu) = soft((alpha c_i + mu s_i)/(alpha + mu), 1/(alpha + mu)), and
    phi(mu) = ||x(mu) - s||^2 - R is nonincreasing, so mu is located by
    bracketing the sign change of phi on successively finer grids.
    """
    c = np.asarray(c, dtype=float)
    s = np.asarray(s, dtype=float)
    if R == 0.0:
        return s.copy()

    def phi(mu):
        d = ball_point_oracle(c, s, alpha, mu) - s
        return float(d @ d) - R

    if phi(0.0) <= 0.0:
        return ball_point_oracle(c, s, alpha, 0.0)
    lo, hi = 0.0, 1.0
    while phi(hi) > 0.0:
        lo, hi = hi, 4.0 * hi
    for _ in range(levels):
        grid = np.linspace(lo, hi, pts)
        j = next(i for i in range(1, pts) if phi(grid[i]) <= 0.0)
        lo, hi = grid[j - 1], grid[j]
        if hi - lo <= 1e-15 * max(hi, 1.0):
            break
    return ball_point_oracle(c, s, alpha, 0.5 * (lo + hi))


def projected_subgradient_ball(c, s, R, alpha, iters: int = 500_000):
    """Projected subgradient descent for min ||x||_1 + alpha/2 ||x-c||^2
    over the ball ||x-s||^2 <= R.

    Batched: c, s are (batch, n), R and alpha are (batch,). Diminishing
    steps 2/(alpha (k+k0)) with a weighted tail average, which is where the
    strongly convex rate actually shows up. Returns (batch, n).
    """
    c = np.asarray(c, dtype=float)
    s = np.asarray(s, dtype=float)
    R = np.asarray(R, dtype=float)[:, None]
    alpha = np.asarray(alpha, dtype=float)[:, None]
    rad = np.sqrt(R)

    x = s.copy()
    k0 = 10.0
    tail_start = iters - iters // 4
    avg = np.zeros_like(x)
    wsum = 0.0
    for k in range(iters):
        g = np.sign(x) + alpha * (x - c)
        step = 2.0 / (alpha * (k + k0))
        x = x - step * g
        d = x - s
        nrm = np.sqrt(np.sum(d * d, axis=1, keepdims=True))
        scale = np.where(nrm > rad, rad / np.maximum(nrm, 1e-300), 1.0)
        x = s + d * scale
        if k >= tail_start:
            w = float(k - tail_start + 1)
            avg += w * x
            wsum += w
    return avg / wsum


def projected_subgradient_affine(A_list, b_list, c, alpha, iters: int = 500_000,
                                 pinv=None):
    """Projected subgradient descent for min ||x||_1 + alpha/2 ||x-c||^2
    over {x : A x = b}, batched over problems of equal shapes.

    A_list: (batch, m, n); b_list: (batch, m); c: (batch, n); alpha: (batch,).
    Projection uses numpy's pinv directly (independent of the library's QR
    route); pinv, (batch, n, m), defaults to np.linalg.pinv of each A.
    Problems of different shapes share one batch when zero-padded: with
    zero rows and columns in A, zeros in b and c, and each problem's own
    pinv embedded in the padded pinv, a padded coordinate starts at 0 and
    stays there. Returns the weighted tail average, (batch, n).
    """
    A = np.asarray(A_list, dtype=float)
    b = np.asarray(b_list, dtype=float)
    c = np.asarray(c, dtype=float)
    alpha = np.asarray(alpha, dtype=float)[:, None]

    if pinv is None:
        pinv = np.stack([np.linalg.pinv(Ai) for Ai in A])

    def project(v):
        resid = np.einsum("bmn,bn->bm", A, v) - b
        return v - np.einsum("bnm,bm->bn", pinv, resid)

    x = project(c)
    k0 = 10.0
    tail_start = iters - iters // 4
    avg = np.zeros_like(x)
    wsum = 0.0
    for k in range(iters):
        g = np.sign(x) + alpha * (x - c)
        step = 2.0 / (alpha * (k + k0))
        x = project(x - step * g)
        if k >= tail_start:
            w = float(k - tail_start + 1)
            avg += w * x
            wsum += w
    return avg / wsum


def splitting_prox_affine(c, A, b, alpha: float, tol: float = 1e-12,
                          max_iter: int = 200_000):
    """Affine-constrained l1 prox by operator splitting on x = z.

    Solves min ||x||_1 + alpha/2 ||x - c||^2 s.t. Ax = b with penalty
    rho = alpha:

      x-update: soft((alpha c + rho z - u) / (alpha + rho), 1 / (alpha + rho))
      z-update: orthogonal projection of x + u/rho onto {z : Az = b}
      u-update: u += rho (x - z)

    Stops when the primal residual ||x - z|| and the dual residual
    rho ||z - z_prev|| both fall below tol * sqrt(n), and returns the exact
    affine projection of the final x; raises RuntimeError after max_iter
    iterations.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    Q, R = np.linalg.qr(A.T)
    x_ln = Q @ solve_triangular(R, np.asarray(b, dtype=float), trans="T",
                                lower=False)

    def project(v):
        # (I - Q Q^T) v + A^+ b
        return v - Q @ (Q.T @ v) + x_ln

    rho = alpha
    z = project(c)
    u = np.zeros(c.size)
    thresh = tol * np.sqrt(c.size)
    inv_tau = 1.0 / (alpha + rho)

    for _ in range(max_iter):
        v = (alpha * c + rho * z - u) * inv_tau
        x = np.sign(v) * np.maximum(np.abs(v) - inv_tau, 0.0)
        z_new = project(x + u / rho)
        u = u + rho * (x - z_new)
        primal = float(np.linalg.norm(x - z_new))
        dual = rho * float(np.linalg.norm(z_new - z))
        z = z_new
        if primal <= thresh and dual <= thresh:
            return project(x)
    raise RuntimeError(
        f"splitting did not converge in {max_iter} iterations "
        f"(primal={primal:.3e}, dual={dual:.3e}, threshold={thresh:.3e})"
    )


def central_diff_gradient(f, x, h: float = 1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        hi = h * max(1.0, abs(x[i]))
        e[i] = hi
        g[i] = (f(x + e) - f(x - e)) / (2 * hi)
    return g


def best_sparse_dist_sq(y, r: int) -> float:
    """Exhaustive min over all supports of size r of ||y - z||^2 with
    supp(z) inside the chosen support (so z equals y there)."""
    y = np.asarray(y, dtype=float)
    m = y.size
    if r >= m:
        return 0.0
    sq = y * y
    total = float(sq.sum())
    best = np.inf
    for supp in itertools.combinations(range(m), r):
        kept = sq[list(supp)].sum() if r else 0.0
        best = min(best, total - kept)
    return float(best)


def l1_ratio(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.abs(x).sum() / np.linalg.norm(x))


def ratio_subdiff_distance_grid(x, g, lam_grid, box_samples: int = 2001):
    """Brute-force min over lam in lam_grid of dist(0, D(x) + lam*g) where
    D(x) is the subdifferential of ||x||_1/||x|| at x != 0.

    Coordinates with x_i != 0 contribute a fixed point; zero coordinates an
    interval [-1/||x||, 1/||x||] sampled densely. Intended for tiny n only.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    nx = np.linalg.norm(x)
    n1 = np.abs(x).sum()
    fixed = np.sign(x) / nx - (n1 / nx**3) * x
    zero_idx = np.flatnonzero(x == 0)
    nz_idx = np.flatnonzero(x != 0)
    ts = np.linspace(-1.0 / nx, 1.0 / nx, box_samples)
    best = np.inf
    for lam in lam_grid:
        d_sq = float(np.sum((fixed[nz_idx] + lam * g[nz_idx]) ** 2))
        for i in zero_idx:
            d_sq += float(np.min((ts + lam * g[i]) ** 2))
        best = min(best, d_sq)
    return float(np.sqrt(best))


def fit_log_linear(t, vals):
    """Least-squares fit of log(vals) vs t. Returns (slope, r_squared)."""
    t = np.asarray(t, dtype=float)
    y = np.log(np.asarray(vals, dtype=float))
    A = np.vstack([t, np.ones_like(t)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2


def power_iteration_opnorm(A, iters: int = 200, seed: int = 0) -> float:
    """Largest singular value of A estimated by power iteration on A^T A."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = A.T @ (A @ v)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return float(np.sqrt(np.linalg.norm(A.T @ (A @ v))))
