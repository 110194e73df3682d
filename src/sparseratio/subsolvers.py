"""Structured subproblem solvers shared by the outer algorithms.

Both outer loops repeatedly minimize ``||x||_1 + alpha/2 ||x - c||^2`` over a
simple set: a Euclidean ball for the moving-balls iterations, an affine set
{x : Ax = b} for the noiseless basis-pursuit style iterations. The ball case
is solved exactly: the multiplier is the root of a piecewise closed-form
scalar equation. The sums that define it at 0 decide whether the ball is
active; if so, the root is located by one sort of the breakpoints below a
closed-form bound on it and a cumulative-sum sweep. Either way the point is
evaluated once. The affine case is solved by semismooth Newton on its dual,
with the exact step along each direction found by one sort of its
breakpoints and a bisection over them (``_dual_step``, which also solves
the criticality multiplier of ``drivers``), and stops on a duality-gap
certificate for an exactly feasible point. The affine case alone needs
scipy (an LU factorization), and imports scipy.linalg on its first call;
the ball prox and the least-norm start run on numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import SensingMatrix, _as_vector, _full_norm

__all__ = [
    "BallProxProblem",
    "BallProxSolution",
    "SubsolverError",
    "soft_threshold",
    "prox_l1_ball",
    "prox_l1_affine",
    "least_norm_solution",
]

_FLOAT_MAX = float(np.finfo(float).max)
_EPS = float(np.finfo(float).eps)

# the ball prox's bound on the constraint error of its point, relative to
# max(R, 1)
_BALL_TOL = 1e-12
# the affine prox's bound on its duality gap, relative to P(x_hat)
_AFFINE_TOL = 1e-12
# The most Newton steps one affine prox has needed were 90 on noiseless
# 180x640 instances (100 of them) and 132 at 720x2560 (10), 63 on the noisy
# families at n = 512 and 1024, and 244 on random problems whose column
# scales span 12 decades. A cap of 500 leaves twice that and still ends a
# prox that cannot certify within about a second at 180x640 (about 15 s at
# 720x2560), so a stall surfaces as an error, not a hang.
_AFFINE_MAX_ITER = 500


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


def _ball_x_of_mu(c, s, alpha, mu):
    return soft_threshold((alpha * c + mu * s) / (alpha + mu), 1.0 / (alpha + mu))


def _segment_sums(active, sigma, u, s) -> tuple[float, float]:
    """N = sum of (u_i - sigma_i)^2 over active i, S = sum of s_i^2 over
    the rest."""
    w = (u - sigma) * active
    z = s * ~active
    return float(w @ w), float(z @ z)


def _ball_multiplier(c, s, R, alpha) -> float | None:
    """Root of phi(mu) = ||x(mu) - s||^2 - R on mu > 0, or None when
    phi(0) <= 0 (the ball is inactive).

    Coordinate i of x(mu) is nonzero (active) exactly when
    |alpha c_i + mu s_i| > 1, and then x_i - s_i = (u_i - sigma_i)/(alpha + mu)
    with u = alpha (c - s) and sigma_i the sign of alpha c_i + mu s_i. The
    active set changes only at breakpoints, so between two consecutive ones
    phi(mu) = N/(alpha + mu)^2 + S - R, with N summing (u_i - sigma_i)^2
    over active coordinates and S summing s_i^2 over the others. phi(0)
    comes from the sums N0, S0 of the state just right of mu = 0, so no
    point is evaluated to test whether the ball is active. R is subtracted
    last, as from ||x(0) - s||^2: where N0/alpha^2 is lost in the rounding
    of S0, both read phi(0) = S0 - R.

    For s_i != 0, alpha c_i + mu s_i moves toward sign(s_i). With
    t_i = sign(s_i) alpha c_i, a coordinate with t_i < 1 turns active at
    (sign(s_i) - alpha c_i)/s_i;
    one with t_i < -1 starts active on the other side and first turns
    inactive at (-sign(s_i) - alpha c_i)/s_i. Each coordinate obeys
    |x_i(mu) - s_i| <= (|u_i| + 1)/(alpha + mu), whether active or not, so
    the root is at most ub = || |u| + 1 || / sqrt(R) - alpha. The
    breakpoints above ub, rounded up past the rounding of the quotient, are
    dropped before the sort. A cumulative sum of the changes to N and S over
    the sorted rest gives phi at each of them; the root lies on the first
    segment whose right end has phi <= 0, or on the last one, which then
    ends at the first dropped breakpoint.
    """
    a = alpha * c
    u = a - alpha * s
    sgn = np.sign(s)
    sigma0 = np.sign(a)
    t = sgn * a
    # the state just right of mu = 0: a coordinate with |alpha c_i| = 1
    # turns active at once if alpha c_i + mu s_i grows in magnitude
    active0 = (np.abs(a) > 1.0) | (t == 1.0)
    N0, S0 = _segment_sums(active0, sigma0, u, s)
    # dividing twice lets N/alpha^2 underflow to 0 where the square overflows;
    # R comes off last, as it does from ||x(0) - s||^2
    if N0 / alpha / alpha + S0 - R <= 0.0:
        return None

    deact = (t < -1.0).nonzero()[0]
    w = np.abs(u) + 1.0
    # s_i = 0 gives no breakpoint: its quotient is infinite or NaN
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # rounded up past the rounding of w @ w and of the quotient, so no
        # breakpoint below the exact bound is dropped
        q = math.sqrt(float(w @ w)) / math.sqrt(R)
        ub = q * (1.0 + (w.size + 4) * _EPS) - alpha
        on = (sgn - a) / s
        off = (-sgn[deact] - a[deact]) / s[deact]
    # an infinite bound keeps every finite breakpoint and no infinite one
    ub = min(max(ub, 0.0), _FLOAT_MAX)
    # turning active adds (u_i - sign(s_i))^2 to N and takes s_i^2 out of
    # S; turning inactive, from sigma_i = -sign(s_i), does the reverse
    coord = ((on > 0.0) & (on <= ub)).nonzero()[0]
    n_on = coord.size
    bps = on[coord]
    d_N = (u[coord] - sgn[coord]) ** 2
    s_ev = s[coord]
    d_S = -(s_ev * s_ev)
    if deact.size:
        kept = (off > 0.0) & (off <= ub)
        j = deact[kept]
        coord = np.concatenate((coord, j))
        bps = np.concatenate((bps, off[kept]))
        d_N = np.concatenate((d_N, -(u[j] + sgn[j]) ** 2))
        d_S = np.concatenate((d_S, s[j] * s[j]))
    order = bps.argsort()
    bps, d_N, d_S = bps[order], d_N[order], d_S[order]
    # phi at each breakpoint, from the state before that crossing
    scale = alpha + bps
    phi_right = ((N0 + (d_N.cumsum() - d_N)) / scale / scale
                 + (d_S.cumsum() - d_S) + (S0 - R))
    hits = (phi_right <= 0.0).nonzero()[0]
    k = int(hits[0]) if hits.size else bps.size
    lo = float(bps[k - 1]) if k > 0 else 0.0
    # past the kept breakpoints the segment ends at the first dropped one,
    # not at ub: where the bound is tight (one coordinate with
    # sigma_i = -sign(u_i), say) the root rounds to either side of ub
    hi = (float(bps[k]) if k < bps.size
          else min(float(np.min(on, where=(on > ub) & (on < math.inf),
                                initial=math.inf)),
                   float(np.min(off, where=off > ub, initial=math.inf))))

    # N and S of segment k summed directly rather than read off the running
    # sums, whose cancellation error would swamp a radius R far below S.
    # A coordinate that turns inactive turns active again at a later
    # breakpoint; after any crossing its sign is sign(s_i).
    crossed = order[:k]
    flipped = coord[crossed]
    active = active0.copy()
    active[flipped] = False
    active[coord[crossed[crossed < n_on]]] = True
    sigma = sigma0.copy()
    sigma[flipped] = sgn[flipped]
    N, S = _segment_sums(active, sigma, u, s)
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


def prox_l1_ball(p: BallProxProblem) -> BallProxSolution:
    """Solve a BallProxProblem exactly.

    The minimizer is x(mu) = soft_threshold((alpha c + mu s)/(alpha + mu),
    1/(alpha + mu)) for the unique multiplier mu >= 0 at which either the
    unconstrained prox (mu = 0) already lies in the ball, or
    phi(mu) = ||x(mu) - s||^2 - R vanishes. phi is piecewise of the form
    N/(alpha + mu)^2 + S - R between the breakpoints where a coordinate of
    x(mu) becomes zero or nonzero (see _ball_multiplier). The sums N and S
    at mu = 0 decide whether the ball is active; if it is, one sort of the
    breakpoints below the closed-form bound
    mu <= || |alpha (c - s)| + 1 || / sqrt(R) - alpha and a cumulative-sum
    sweep find the segment holding the root, and the root there is
    mu = sqrt(N/(R - S)) - alpha in closed form. Either way x(mu) is
    evaluated once.

    The constraint error of the returned point is bounded by
    | ||x - s||^2 - R | <= _BALL_TOL * max(R, 1), _BALL_TOL = 1e-12. A
    point that misses it, or a non-finite multiplier or point (the data
    overflow at the scale of R), raises SubsolverError.

    A degenerate ball (R = 0) pins the solution at x = s; the multiplier is
    not meaningful there and is reported as 0.
    """
    c, s, R, alpha = p.c, p.s, p.R, p.alpha
    if R == 0.0:
        return BallProxSolution(x=s.copy(), mu=0.0, active=True)

    mu = _ball_multiplier(c, s, R, alpha)
    if mu is None:
        return BallProxSolution(x=_ball_x_of_mu(c, s, alpha, 0.0), mu=0.0,
                                active=False)
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
    tol_phi = _BALL_TOL * max(R, 1.0)
    if not abs(phi) <= tol_phi:
        raise SubsolverError(
            f"ball prox missed the sphere: |phi| = {abs(phi):.3e} > "
            f"{tol_phi:.3e} at mu = {mu:.6e}"
        )
    return BallProxSolution(x=x, mu=mu, active=True)


def _gram_solve(A: SensingMatrix, r: np.ndarray) -> np.ndarray:
    """A^T (L L^T)^{-1} r for the Cholesky factor L of A A^T.

    Forward substitution on L, then back substitution on L^T, one row at
    a time in numpy, then one product with A^T. (L L^T)^{-1} r lies at
    1/sigma^2 the scale of r, where the result lies at 1/sigma; so L^{-1} r
    is scaled by 2^e, with 2^(e-1) <= max L_ii < 2^e, before the back
    substitution and the product is scaled back by 2^-e. Scaling by a power
    of two is exact, so this changes no bits, only keeps the middle vector
    from under- or overflowing where the result does not.
    """
    L = A.cholesky
    e = math.frexp(float(np.diagonal(L).max()))[1]
    z = np.empty(A.m)
    for i in range(A.m):
        z[i] = (r[i] - L[i, :i] @ z[:i]) / L[i, i]
    z = np.ldexp(z, e)
    for i in range(A.m - 1, -1, -1):
        z[i] = (z[i] - L[i + 1:, i] @ z[i + 1:]) / L[i, i]
    return np.ldexp(A.entries.T @ z, -e)


def least_norm_solution(A: SensingMatrix, b) -> np.ndarray:
    """Minimum-Euclidean-norm solution of Ax = b, orthogonal to ker A.

    On a well-conditioned A (one that keeps SensingMatrix.cholesky, L L^T
    = A A^T) it solves the corrected semi-normal equations: x = A^T y with
    L L^T y = b, then one correction step x += A^T (L L^T)^{-1} (b - Ax),
    which brings x to the accuracy of a QR solve (see
    models._CHOLESKY_RTOL). Only vectors are allocated.

    Elsewhere it uses the QR of A^T (SensingMatrix.qr): with A^T = QR, the
    solution is Q y with R^T y = b, y by forward substitution on the
    lower-triangular R^T, one row at a time in numpy. The affine prox,
    which forms the QR on every A, takes x_ln from this solve.

    A has full row rank (SensingMatrix checks it), so both systems are
    nonsingular. b must be a finite vector of length m (ValueError
    otherwise); a solution that overflows raises SubsolverError.
    """
    if not isinstance(A, SensingMatrix):
        A = SensingMatrix(A)
    b = _as_vector(b, A.m, "b")
    if A.cholesky is None:
        return _least_norm_qr(A, b)
    with np.errstate(over="ignore", invalid="ignore"):
        x = _gram_solve(A, b)
        x += _gram_solve(A, b - A.entries @ x)
    return _finite_solution(x)


def _finite_solution(x: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise SubsolverError("triangular solve produced non-finite values")
    return x


def _least_norm_qr(A: SensingMatrix, b: np.ndarray) -> np.ndarray:
    """The least-norm solution of Ax = b by the QR of A^T, formed if A has
    not formed it yet (see least_norm_solution)."""
    q, r = A.qr
    y = np.empty(A.m)
    with np.errstate(over="ignore", invalid="ignore"):
        # row i of R^T is column i of R; its entries above the diagonal
        # multiply the y_j already found
        for i in range(A.m):
            y[i] = (b[i] - r[:i, i] @ y[:i]) / r[i, i]
        return _finite_solution(q @ y)


def _objective(x, c, alpha) -> float:
    d = x - c
    return float(np.abs(x).sum() + 0.5 * alpha * (d @ d))


def _dual_step(v, w, tau, k) -> float:
    """The root t >= 0 of g(t) = sum_i w_i soft(v_i + t w_i, tau_i) - k.

    tau is a scalar or one threshold per coordinate. g is continuous,
    nondecreasing and piecewise linear in t; t = 0 is returned where
    g(0) >= 0. prox_l1_affine calls it with a scalar tau: up to the factor
    -alpha, g is the dual's derivative along a Newton direction, and t the
    step that maximizes the dual. drivers._kkt_residual calls it with a
    per-coordinate tau: there g is half the derivative of the squared KKT
    residual in the scaled multiplier. Coordinate i is nonzero exactly when
    |v_i + t w_i| > tau_i, so the pieces change only at the breakpoints
    t = (+-tau_i - v_i)/w_i, and on each piece g(t) = t S - C, with S
    summing w_i^2 and C = k - sum w_i (v_i - sigma_i tau_i) over the
    nonzero coordinates (sigma_i their signs). One sort of the positive
    breakpoints and a bisection over them find the piece where g turns
    nonnegative, and the root is C/S on it. Each probe evaluates g
    directly: cumulative sums of the changes to S and C across the
    breakpoints cancel when a coordinate with a huge w_i turns zero and
    nonzero again, and can then pick the wrong piece.

    A tiny w_i (a subnormal one, say) puts a breakpoint near the top of
    the float range, where v + t w overflows on the coordinates with a
    larger w_i. Each such coordinate reads +-inf with the sign of w_i, so
    its term of g, and g itself, read +inf: g exceeds every float there,
    and the probe is still decided right.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bps = ((np.array([[tau], [-tau]]) - v) / w).ravel()
    bps = np.sort(bps[(bps > 0.0) & (bps < np.inf)])

    lo_i, hi_i = 0, bps.size
    with np.errstate(over="ignore"):
        while lo_i < hi_i:
            mid = (lo_i + hi_i) // 2
            u = v + bps[mid] * w
            if float(w @ (np.sign(u) * np.maximum(np.abs(u) - tau, 0.0))) >= k:
                hi_i = mid
            else:
                lo_i = mid + 1
        lo = float(bps[lo_i - 1]) if lo_i > 0 else 0.0
        hi = float(bps[lo_i]) if lo_i < bps.size else math.inf
        # the nonzero set of the piece is read off a point inside it, so a
        # tie |v_i| = tau at t = 0 needs no special case; halving each end
        # first keeps the midpoint finite, and a finite point past the last
        # breakpoint keeps t w_i = 0 where w_i = 0
        inner = (0.5 * lo + 0.5 * hi if hi < math.inf
                 else min(2.0 * lo + 1.0, _FLOAT_MAX))
        u = v + inner * w
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
    from scipy.linalg import lu_solve  # imported on first use, as in the caller

    u = Q_J @ z
    change = math.inf
    while True:
        z = lu_solve(lu, rho * z - F)
        u_next = Q_J @ z
        last, change = change, float(np.abs(u_next - u).max(initial=0.0))
        u = u_next
        if not change < 0.5 * last:
            return u


def prox_l1_affine(c, A: SensingMatrix, b, alpha: float) -> np.ndarray:
    """min P(x) = ||x||_1 + alpha/2 ||x - c||^2  subject to  Ax = b.

    With A^T = QR and the explicit Q (SensingMatrix.qr, formed once per
    matrix), Ax = b reads Q^T x = Q^T x_ln (x_ln the least-norm solution,
    taken from the same QR also where A keeps its Cholesky factor).
    For a multiplier y of that form the Lagrangian is minimized by
    x(y) = soft_threshold(v, 1/alpha), v = c + Q y / alpha, and the dual
    theta(y) = P(x(y)) - y . F(y) is concave and C^1 with gradient -F(y),
    F(y) = Q^T (x(y) - x_ln), whose norm is the distance of x(y) to the
    affine set. Each step is semismooth Newton on the dual with a
    Levenberg-Marquardt ridge ||F||: it solves
    (Q_J^T Q_J / alpha + ||F|| I) d = -F over the rows J where
    |v_i| >= 1/alpha, then takes the exact maximizing step along d (one
    sort of the breakpoints, see _dual_step). At |v_i| = 1/alpha the soft
    threshold has a kink, where any slope in [0, 1] is a valid generalized
    Jacobian; J takes slope 1 there. A row whose v_i rounds exactly onto
    the threshold, common far below unit scale where c is a few ulps of
    1/alpha, then stays in the Newton matrix: without it the direction is
    blind to that row and the iteration can stall until the step cap.

    The stop is a certificate built from the same factorization. x_hat is
    x(y) corrected on the rows J by the minimum-norm least-squares solution
    of Q_J^T delta = -F (the exact solution on the piece where x(y) keeps
    its support and signs), zero elsewhere, and projected onto Ax = b
    exactly. The correction comes from the ridged factor by iterated
    Tikhonov passes (see _piece_correction), so no second matrix is
    factored. x_hat is feasible, so the duality gap P(x_hat) - theta(y)
    bounds P(x_hat) - min P, and by alpha-strong convexity
    ||x_hat - x*||^2 <= 2 gap / alpha. x_hat is returned once
    gap <= _AFFINE_TOL * P(x_hat), _AFFINE_TOL = 1e-12, a bound relative to
    the problem's own scale; SubsolverError is raised if _AFFINE_MAX_ITER
    (500) steps pass first (see that constant for why 500). x(y) carries
    round-off of about eps / alpha in absolute terms, so a problem whose
    solution lies far below that (b and c below about 1e-16 / alpha)
    cannot certify and ends in SubsolverError. ||F|| is taken as
    max|F_i| ||F / max|F_i|||, which neither underflows nor overflows, so
    the ridge stays positive while F != 0; at F = 0, x(y) is feasible and
    d = 0. A ridge below the round-off of Q_J^T Q_J / alpha can still leave
    the Newton matrix exactly singular when Q_J has fewer than m rows; that
    happens only in the same below-round-off regime, and it raises
    SubsolverError as well.

    c and b must be finite vectors of length n and m and alpha positive;
    ValueError otherwise.
    """
    if not isinstance(A, SensingMatrix):
        A = SensingMatrix(A)
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    c = _as_vector(c, A.n, "c")
    b = _as_vector(b, A.m, "b")

    # scipy.linalg is imported here, not with the module: only this solver
    # needs it, and loading it adds a second BLAS and about 27 MiB of
    # resident memory to every moving-balls run
    from scipy.linalg import lu_solve
    from scipy.linalg.lapack import dgetrf

    x_ln = _least_norm_qr(A, b)
    Q = A.qr[0]
    qx_ln = Q.T @ x_ln
    tau = 1.0 / alpha
    y = np.zeros(A.m)
    for _ in range(_AFFINE_MAX_ITER):
        v = c + (Q @ y) * tau
        x = soft_threshold(v, tau)
        F = Q.T @ x - qx_ln
        active = np.abs(v) >= tau
        d = np.zeros(A.m)
        x_hat = x.copy()
        nf = _full_norm(F)
        if nf > 0.0:
            Q_J = Q[active]
            H = (Q_J.T @ Q_J) * tau
            H[np.diag_indices_from(H)] += nf
            lu, piv, info = dgetrf(H, overwrite_a=1)
            if info > 0:
                raise SubsolverError(
                    f"affine prox Newton matrix singular to working precision "
                    f"(ridge ||F|| = {nf:.3e})")
            d = lu_solve((lu, piv), -F)
            x_hat[active] += _piece_correction((lu, piv), Q_J, d, F, nf) * tau
        w = (Q @ d) * tau
        x_hat = x_hat - Q @ (Q.T @ x_hat) + x_ln
        p_hat = _objective(x_hat, c, alpha)
        gap = p_hat - (_objective(x, c, alpha) - float(y @ F))
        if gap <= _AFFINE_TOL * p_hat:
            return x_hat
        y = y + _dual_step(v, w, tau, float(w @ x_ln)) * d
    raise SubsolverError(
        f"affine prox dual Newton did not certify in {_AFFINE_MAX_ITER} "
        f"steps (duality gap {gap:.3e} > {_AFFINE_TOL * p_hat:.3e})"
    )
