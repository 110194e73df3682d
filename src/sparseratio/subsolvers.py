"""Structured subproblem solvers shared by the outer algorithms.

Both outer loops repeatedly minimize ``||x||_1 + alpha/2 ||x - c||^2`` over a
simple set: a Euclidean ball for the moving-balls iterations, an affine set
{x : Ax = b} for the noiseless basis-pursuit style iterations. The ball case
is solved exactly: the multiplier is the root of a piecewise closed-form
scalar equation, located by one sort of its breakpoints and a cumulative-sum
sweep. The affine case is solved by semismooth Newton on its dual, with the
exact step along each direction found by one sort of its breakpoints and a
bisection over them, and stops on a duality-gap certificate for an exactly
feasible point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve, solve_triangular

from .models import SensingMatrix, _full_norm

__all__ = [
    "BallProxProblem",
    "BallProxSolution",
    "SubsolverError",
    "soft_threshold",
    "prox_l1_ball",
    "prox_l1_affine",
    "least_norm_solution",
]

class SubsolverError(RuntimeError):
    """A subproblem solver failed to reach its tolerance."""


def soft_threshold(v, tau: float) -> np.ndarray:
    """Componentwise sign(v_i) * max(|v_i| - tau, 0).

    This is the proximal map of tau * ||.||_1 at v.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


@dataclass(frozen=True, eq=False)
class BallProxProblem:
    """min ||x||_1 + alpha/2 ||x - c||^2  subject to  ||x - s||^2 <= R.

    R is the squared radius. The feasible set must be nonempty (R >= 0).
    """

    c: np.ndarray
    s: np.ndarray
    R: float
    alpha: float

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        s = np.asarray(self.s, dtype=float)
        if c.ndim != 1 or s.shape != c.shape or c.size == 0:
            raise ValueError("c and s must be 1-D vectors of equal length")
        if not (np.isfinite(c).all() and np.isfinite(s).all()
                and math.isfinite(self.R) and math.isfinite(self.alpha)):
            raise ValueError("ball prox inputs must be finite")
        if self.R < 0:
            raise ValueError("R must be nonnegative")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "R", float(self.R))
        object.__setattr__(self, "alpha", float(self.alpha))


@dataclass(frozen=True, eq=False)
class BallProxSolution:
    """Solution of a BallProxProblem.

    mu is the ball multiplier in the scaling where stationarity reads
    0 in subdiff||x||_1 + alpha (x - c) + mu (x - s). active records whether
    the ball constraint is tight at the solution.
    """

    x: np.ndarray
    mu: float
    active: bool


_UNIT_PAIR = np.array([[1.0], [-1.0]])


def _ball_x_of_mu(c, s, alpha, mu):
    return soft_threshold((alpha * c + mu * s) / (alpha + mu), 1.0 / (alpha + mu))


def _segment_sums(active, sigma, u, s) -> tuple[float, float]:
    """N = sum of (u_i - sigma_i)^2 over active i, S = sum of s_i^2 over
    the rest."""
    w = np.where(active, u - sigma, 0.0)
    z = np.where(active, 0.0, s)
    return float(w @ w), float(z @ z)


def _ball_multiplier(c, s, R, alpha) -> float:
    """Root of phi(mu) = ||x(mu) - s||^2 - R on mu > 0, given phi(0) > 0.

    Coordinate i of x(mu) is nonzero (active) exactly when
    |alpha c_i + mu s_i| > 1, and then x_i - s_i = (u_i - sigma_i)/(alpha + mu)
    with u = alpha (c - s) and sigma_i the sign of alpha c_i + mu s_i. The
    active set changes only at the breakpoints mu = (+-1 - alpha c_i)/s_i,
    so between two consecutive ones phi(mu) = N/(alpha + mu)^2 + S - R,
    with N summing (u_i - sigma_i)^2 over active coordinates and S summing
    s_i^2 over the others. One sort of the positive breakpoints and a
    cumulative sum of the changes to N and S give phi at every breakpoint;
    the root lies on the first segment whose right end has phi <= 0.
    """
    n = c.size
    a = alpha * c
    u = a - alpha * s
    sgn = np.sign(s)
    sigma0 = np.sign(a)
    # the state just right of mu = 0: a coordinate with |alpha c_i| = 1
    # turns active at once if alpha c_i + mu s_i grows in magnitude
    abs_a = np.abs(a)
    active0 = (abs_a > 1.0) | ((abs_a == 1.0) & (sigma0 == sgn))

    # events 0..n-1 cross alpha c_i + mu s_i = +1, events n..2n-1 cross -1;
    # s_i = 0 gives no breakpoint
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bps = ((_UNIT_PAIR - a) / s).ravel()
    events = np.flatnonzero((bps > 0.0) & (bps < np.inf))
    order = events[np.argsort(bps[events])]
    # crossing +1 turns a coordinate active when s_i > 0, crossing -1 when
    # s_i < 0. Turning active adds (u_i -+ 1)^2 to N and takes s_i^2 out of
    # S; turning inactive does the reverse.
    signed_sq = sgn * s * s
    d_N = np.concatenate((sgn * (u - 1.0) ** 2, -sgn * (u + 1.0) ** 2))[order]
    d_S = np.concatenate((-signed_sq, signed_sq))[order]
    N0, S0 = _segment_sums(active0, sigma0, u, s)
    # phi at each breakpoint, from the state before that crossing; dividing
    # twice lets N/(alpha + mu)^2 underflow to 0 where the square overflows
    scale = alpha + bps[order]
    phi_right = ((N0 + (np.cumsum(d_N) - d_N)) / scale / scale
                 + (np.cumsum(d_S) - d_S) + (S0 - R))
    hits = np.flatnonzero(phi_right <= 0.0)
    k = int(hits[0]) if hits.size else order.size
    lo = float(bps[order[k - 1]]) if k > 0 else 0.0
    hi = float(bps[order[k]]) if k < order.size else math.inf

    # N and S of segment k summed directly rather than read off the running
    # sums, whose cancellation error would swamp a radius R far below S.
    # A coordinate crossed once has toggled; after any crossing its sign is
    # the direction alpha c_i + mu s_i moves in, the sign of s_i.
    crossed = np.zeros(2 * n, dtype=bool)
    crossed[order[:k]] = True
    plus, minus = crossed[:n], crossed[n:]
    N, S = _segment_sums(active0 ^ plus ^ minus,
                         np.where(plus | minus, sgn, sigma0), u, s)
    if not R - S > 0.0:
        raise SubsolverError(
            f"ball prox root lost to cancellation: R = {R:.3e} does not "
            f"exceed the inactive mass S = {S:.3e} on its segment"
        )
    ratio = N / (R - S)
    # the quotient overflows for R far below N (a subnormal R, say) while
    # its root is still finite
    root = (math.sqrt(ratio) if ratio < math.inf
            else math.sqrt(N) / math.sqrt(R - S))
    return min(max(root - alpha, lo), hi)


def prox_l1_ball(p: BallProxProblem, tol: float = 1e-12) -> BallProxSolution:
    """Solve a BallProxProblem exactly.

    The minimizer is x(mu) = soft_threshold((alpha c + mu s)/(alpha + mu),
    1/(alpha + mu)) for the unique multiplier mu >= 0 at which either the
    unconstrained prox (mu = 0) already lies in the ball, or
    phi(mu) = ||x(mu) - s||^2 - R vanishes. phi is piecewise of the form
    N/(alpha + mu)^2 + S - R between the breakpoints where a coordinate of
    x(mu) becomes zero or nonzero, so one sort of the breakpoints and a
    cumulative-sum sweep find the segment holding the root, and the root
    there is mu = sqrt(N/(R - S)) - alpha in closed form. x(mu) is then
    evaluated once.

    tol bounds the constraint error of the returned point:
    | ||x - s||^2 - R | <= tol * max(R, 1). A point that misses it, or a
    non-finite multiplier or point (the data overflow at the scale of R),
    raises SubsolverError.

    A degenerate ball (R = 0) pins the solution at x = s; the multiplier is
    not meaningful there and is reported as 0.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    c, s, R, alpha = p.c, p.s, p.R, p.alpha
    if R == 0.0:
        return BallProxSolution(x=s.copy(), mu=0.0, active=True)

    x0 = _ball_x_of_mu(c, s, alpha, 0.0)
    d = x0 - s
    phi0 = float(d @ d) - R
    if phi0 <= 0.0:
        return BallProxSolution(x=x0, mu=0.0, active=False)

    mu = _ball_multiplier(c, s, R, alpha)
    if not math.isfinite(mu):
        raise SubsolverError(
            "ball multiplier overflowed; R is vanishingly small relative "
            "to the data"
        )
    x = _ball_x_of_mu(c, s, alpha, mu)
    d = x - s
    phi = float(d @ d) - R
    if not math.isfinite(phi):
        raise SubsolverError(f"ball prox point overflowed at mu = {mu:.6e}")
    tol_phi = tol * max(R, 1.0)
    if not abs(phi) <= tol_phi:
        raise SubsolverError(
            f"ball prox missed the sphere: |phi| = {abs(phi):.3e} > "
            f"{tol_phi:.3e} at mu = {mu:.6e}"
        )
    return BallProxSolution(x=x, mu=mu, active=True)


def least_norm_solution(A: SensingMatrix, b) -> np.ndarray:
    """Minimum-Euclidean-norm solution of Ax = b.

    Uses the cached thin QR of A^T: with A^T = QR, the solution is
    Q (R^T)^{-1} b. The result is orthogonal to ker A.
    """
    if not isinstance(A, SensingMatrix):
        A = SensingMatrix(A)
    if not A.has_full_row_rank:
        raise SubsolverError("matrix is rank deficient; least-norm solve aborted")
    b = np.asarray(b, dtype=float)
    if b.shape != (A.m,):
        raise ValueError(f"b must have length {A.m}, got shape {b.shape}")
    y = solve_triangular(A.r, b, trans="T", lower=False)
    x = A.q @ y
    if not np.all(np.isfinite(x)):
        raise SubsolverError("triangular solve produced non-finite values")
    return x


def _objective(x, c, alpha) -> float:
    d = x - c
    return float(np.abs(x).sum() + 0.5 * alpha * (d @ d))


def _dual_step(v, w, tau, k) -> float:
    """The step t >= 0 that maximizes the dual along a Newton direction.

    Up to the factor -alpha, the dual's derivative along the direction is
    g(t) = w . soft_threshold(v + t w, tau) - k: continuous, nondecreasing
    and piecewise linear in t. Coordinate i is nonzero exactly when
    |v_i + t w_i| > tau, so the pieces change only at the breakpoints
    t = (+-tau - v_i)/w_i, and on each piece g(t) = t S - C, with S summing
    w_i^2 and C = k - sum w_i (v_i - sigma_i tau) over the nonzero
    coordinates (sigma_i their signs). One sort of the positive breakpoints
    and a bisection over them find the piece where g turns nonnegative, and
    the maximizer is C/S on it. Each probe evaluates g directly: cumulative
    sums of the changes to S and C across the breakpoints cancel when a
    coordinate with a huge w_i turns zero and nonzero again, and can then
    pick the wrong piece.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bps = ((np.array([[tau], [-tau]]) - v) / w).ravel()
    bps = np.sort(bps[(bps > 0.0) & (bps < np.inf)])

    lo_i, hi_i = 0, bps.size
    while lo_i < hi_i:
        mid = (lo_i + hi_i) // 2
        u = v + bps[mid] * w
        if float(w @ (np.sign(u) * np.maximum(np.abs(u) - tau, 0.0))) >= k:
            hi_i = mid
        else:
            lo_i = mid + 1
    lo = float(bps[lo_i - 1]) if lo_i > 0 else 0.0
    hi = float(bps[lo_i]) if lo_i < bps.size else math.inf
    # the nonzero set of the piece is read off a point inside it, so a tie
    # |v_i| = tau at t = 0 needs no special case
    u = v + (0.5 * (lo + hi) if hi < math.inf else 2.0 * lo + 1.0) * w
    ww = np.where(np.abs(u) > tau, w, 0.0)
    S = float(ww @ w)
    C = k - float(ww @ (v - np.sign(u) * tau))
    return min(max(C / S, lo), hi) if S > 0.0 else lo


def _piece_correction(lu, Q_J, z, F, rho) -> np.ndarray:
    """Q_J z for a solution z of (Q_J^T Q_J / alpha) z = -F in least squares.

    lu factors H = Q_J^T Q_J / alpha + rho I and z enters as the ridged
    solution H^{-1}(-F). Each pass z <- H^{-1}(rho z - F) (iterated
    Tikhonov) multiplies the error of Q_J z along an eigenvector of
    Q_J^T Q_J / alpha with eigenvalue g by rho / (g + rho), and Q_J maps the
    null-space part of z to 0, so Q_J z converges to alpha times the
    minimum-norm least-squares solution of Q_J^T delta = -F. Passes stop
    once one no longer halves the change: the contraction is slow (rho is
    large next to g, early in the solve) or round-off has been reached.
    """
    u = Q_J @ z
    change = math.inf
    while True:
        z = lu_solve(lu, rho * z - F)
        u_next = Q_J @ z
        last, change = change, float(np.abs(u_next - u).max(initial=0.0))
        u = u_next
        if not change < 0.5 * last:
            return u


def prox_l1_affine(c, A: SensingMatrix, b, alpha: float,
                   tol: float = 1e-12, max_iter: int = 500) -> np.ndarray:
    """min P(x) = ||x||_1 + alpha/2 ||x - c||^2  subject to  Ax = b.

    With the cached thin QR A^T = QR, Ax = b reads Q^T x = Q^T x_ln
    (x_ln the least-norm solution). For a multiplier y of that form the
    Lagrangian is minimized by x(y) = soft_threshold(v, 1/alpha),
    v = c + Q y / alpha, and the dual theta(y) = P(x(y)) - y . F(y) is
    concave and C^1 with gradient -F(y), F(y) = Q^T (x(y) - x_ln), whose
    norm is the distance of x(y) to the affine set. Each step is semismooth
    Newton on the dual with a Levenberg-Marquardt ridge ||F||: it solves
    (Q_J^T Q_J / alpha + ||F|| I) d = -F over the rows J where x(y) is
    nonzero, then takes the exact maximizing step along d (one sort of the
    breakpoints, see _dual_step).

    The stop is a certificate built from the same factorization. x_hat is
    x(y) corrected on the rows J by the minimum-norm least-squares solution
    of Q_J^T delta = -F (the exact solution on the piece where x(y) keeps
    its support and signs), zero elsewhere, and projected onto Ax = b
    exactly. The correction comes from the ridged factor by iterated
    Tikhonov passes (see _piece_correction), so no second matrix is
    factored. x_hat is feasible, so the duality gap P(x_hat) - theta(y)
    bounds P(x_hat) - min P, and by alpha-strong convexity
    ||x_hat - x*||^2 <= 2 gap / alpha. x_hat is returned once
    gap <= tol * P(x_hat), a bound relative to the problem's own scale;
    SubsolverError is raised if max_iter steps pass first. x(y) carries
    round-off of about eps / alpha in absolute terms, so a problem whose
    solution lies far below that (b and c below about 1e-15 / alpha)
    cannot certify and ends in SubsolverError. ||F|| is taken as
    max|F_i| ||F / max|F_i|||, which neither underflows nor overflows, so
    the ridge stays positive while F != 0; at F = 0, x(y) is feasible and
    d = 0.
    """
    if not isinstance(A, SensingMatrix):
        A = SensingMatrix(A)
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    c = np.asarray(c, dtype=float)
    if c.shape != (A.n,):
        raise ValueError(f"c must have length {A.n}, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("c must be finite")

    x_ln = least_norm_solution(A, b)
    Q = A.q
    qx_ln = Q.T @ x_ln
    tau = 1.0 / alpha
    y = np.zeros(A.m)
    for _ in range(max_iter):
        v = c + (Q @ y) * tau
        x = soft_threshold(v, tau)
        F = Q.T @ x - qx_ln
        nonzero = x != 0.0
        d = np.zeros(A.m)
        x_hat = x.copy()
        nf = _full_norm(F)
        if nf > 0.0:
            Q_J = Q[nonzero]
            H = (Q_J.T @ Q_J) * tau
            H[np.diag_indices_from(H)] += nf
            lu = lu_factor(H)
            d = lu_solve(lu, -F)
            x_hat[nonzero] += _piece_correction(lu, Q_J, d, F, nf) * tau
        w = (Q @ d) * tau
        x_hat = x_hat - Q @ (Q.T @ x_hat) + x_ln
        p_hat = _objective(x_hat, c, alpha)
        gap = p_hat - (_objective(x, c, alpha) - float(y @ F))
        if gap <= tol * p_hat:
            return x_hat
        y = y + _dual_step(v, w, tau, float(w @ x_ln)) * d
    raise SubsolverError(
        f"affine prox dual Newton did not certify in {max_iter} steps "
        f"(duality gap {gap:.3e} > {tol * p_hat:.3e})"
    )
