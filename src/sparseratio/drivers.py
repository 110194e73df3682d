"""Outer solver loops for l1/l2-ratio sparse recovery.

Two drivers share the same subproblem shape, min ||x||_1 + alpha/2 ||x-c||^2
over a simple set:

* ``run_algorithm1`` handles the noiseless problem min ||x||_1/||x|| subject
  to Ax = b by linearizing the concave -||x|| term and solving an
  affine-constrained prox each iteration.
* ``run_mba`` handles the noisy problem min ||x||_1/||x|| (or plain ||x||_1)
  subject to q(x) <= 0 by replacing the constraint with a quadratic majorant
  whose level set is a Euclidean ball (a moving-balls step), with the
  curvature seeded by a safeguarded Barzilai-Borwein estimate and doubled
  until the trial point is feasible.

Both stop when ||x_t - x_{t-1}|| <= tol * max(||x_t||, 1).

A ratio run of ``run_mba`` closes with ``criticality_residual``: the
distance of its final iterate to the KKT system 0 in subdiff(||x||_1/||x||)
+ lambda (grad P1 - subgrad P2), lambda >= 0, lambda q(x) = 0, minimized
over lambda in closed form (no cap on lambda, no interior/boundary branch).
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .models import (
    ConstraintModel,
    LeastSquares,
    SensingMatrix,
    _as_vector,
    _full_norm,
    _grad_p1_of_residual,
    _q_of_residual,
    _subgrad_p2_of_residual,
    grad_p1,
    is_feasible,
    q_value,
    subgrad_p2,
)
from .subsolvers import (
    BallProxProblem,
    SubsolverError,
    least_norm_solution,
    prox_l1_affine,
    prox_l1_ball,
)

__all__ = [
    "SolverConfig",
    "IterateTrace",
    "RunResult",
    "InfeasibleStartError",
    "InnerLoopError",
    "OBJECTIVE_RATIO",
    "OBJECTIVE_PLAIN_L1",
    "bb_init_step",
    "feasible_start",
    "run_algorithm1",
    "run_mba",
    "criticality_residual",
]

OBJECTIVE_RATIO = "ratio_l1_l2"
OBJECTIVE_PLAIN_L1 = "plain_l1"

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_SUBSOLVER_FAILURE = "subsolver_failure"

_BB_INNER_THRESHOLD = 1e-12


class InfeasibleStartError(ValueError):
    """The provided or constructed starting point violates the constraint."""


class InnerLoopError(RuntimeError):
    """The feasibility-restoring doubling loop exceeded its certified bound.

    With a correct gradient this loop terminates once the curvature
    estimate dominates the true Lipschitz constant, so overflowing the
    bound almost always points at a model/gradient inconsistency.
    """


@dataclass
class SolverConfig:
    """Tunables shared by both drivers.

    tol drives the relative-step termination rule. feas_tol is the absolute
    slack allowed on q at accepted iterates (the subproblems are solved to
    finite accuracy, so exact q <= 0 cannot be insisted on).

    sub_tol and sub_max_iter go to the inner prox solvers. The ball prox is
    solved in closed form and reads sub_tol as the allowed constraint error
    of its point. The affine prox of run_algorithm1 is a dual Newton solve:
    sub_tol is its relative duality-gap tolerance and sub_max_iter caps its
    Newton iterations; at the cap it raises SubsolverError and the run ends
    with status subsolver_failure. The most iterations one prox has needed
    were 90 on noiseless 180x640 instances (100 of them) and 132 at
    720x2560 (10), 63 on the noisy families at n = 512 and 1024, and 244 on
    random problems whose column scales span 12 decades. The default cap of
    500 leaves twice that and still ends a prox that cannot certify within
    about a second at 180x640 (about 15 s at 720x2560), so a stall surfaces
    as a status, not a hang.
    """

    alpha: float = 1.0
    l_min: float = 1e-8
    l_max: float = 1e8
    tol: float = 1e-6
    max_outer_iters: int = 20_000
    sub_tol: float = 1e-12
    sub_max_iter: int = 500
    feas_tol: float = 1e-10
    record_trace: bool = True
    record_iterates: bool = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "bool":
                if not isinstance(value, bool):
                    raise ValueError(f"{f.name} must be true or false, got {value!r}")
                continue
            integral = f.type == "int"
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral if integral
                                      else numbers.Real)
                    or not (integral or math.isfinite(value))):
                wanted = "an integer" if integral else "a finite real number"
                raise ValueError(f"{f.name} must be {wanted}, got {value!r}")
            setattr(self, f.name, int(value) if integral else float(value))
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not (0 < self.l_min < self.l_max):
            raise ValueError("need 0 < l_min < l_max")
        if not math.isfinite(self.l_max * 2.0 / self.l_min):
            raise ValueError("2 * l_max / l_min must be finite")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be positive")
        if not self.sub_tol > 0:
            raise ValueError("sub_tol must be positive")
        if self.sub_max_iter < 1:
            raise ValueError("sub_max_iter must be positive")
        if self.feas_tol < 0:
            raise ValueError("feas_tol must be nonnegative")


@dataclass
class IterateTrace:
    """Per-iteration history of a run.

    omega has one entry per iterate (length iterations + 1, starting at the
    initial point); the remaining lists have one entry per accepted step.
    l_accepted, inner_doublings and q_vals stay empty for the affine driver,
    which has no moving-ball machinery. q_vals[t] is q at iterate t (so it
    leads omega by nothing: both start at the initial point).
    """

    omega: list[float] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    x_norm: list[float] = field(default_factory=list)
    step_norm: list[float] = field(default_factory=list)
    l_accepted: list[float] = field(default_factory=list)
    inner_doublings: list[int] = field(default_factory=list)
    q_vals: list[float] = field(default_factory=list)
    wall_time: list[float] = field(default_factory=list)
    iterates: list[np.ndarray] | None = None


@dataclass
class RunResult:
    x_final: np.ndarray
    status: str
    iterations: int
    final_objective: float
    criticality_residual: float | None
    trace: IterateTrace | None


def _ratio(x: np.ndarray) -> float:
    return float(np.abs(x).sum() / np.linalg.norm(x))


def bb_init_step(d_x, d_g, l_prev: float, l_min: float, l_max: float) -> float:
    """Safeguarded Barzilai-Borwein curvature seed.

    Returns clip(<d_x, d_g> / ||d_x||^2) when the inner product clears a
    small positive threshold, otherwise clip(l_prev / 2); clip is to
    [l_min, l_max]. l_prev may exceed l_max (the accepted curvature can
    outgrow the clip range); the result is always inside it.
    """
    if not (0 < l_min < l_max):
        raise ValueError("need 0 < l_min < l_max")
    if not l_prev > 0:
        raise ValueError("l_prev must be positive")
    d_x = np.asarray(d_x, dtype=float)
    d_g = np.asarray(d_g, dtype=float)
    inner = float(d_x @ d_g)
    if inner >= _BB_INNER_THRESHOLD:
        return max(l_min, min(inner / float(d_x @ d_x), l_max))
    return max(l_min, min(l_prev / 2.0, l_max))


def feasible_start(model: ConstraintModel, hint=None,
                   feas_tol: float = 1e-10) -> np.ndarray:
    """A feasible starting point for the given model.

    Without a hint this is the least-norm solution of Ax = b, whose residual
    is zero and therefore feasible for every constraint family here. A
    feasible hint is returned unchanged. An infeasible hint on a
    least-squares model is pulled radially toward the least-norm point just
    far enough to sit on the constraint boundary; for the other families the
    hint is discarded in favor of the least-norm point. The returned point
    is always verified.
    """
    x_ln = least_norm_solution(model.A, model.b)
    if hint is None:
        x = x_ln
    else:
        hint = _as_vector(hint, model.A.n, "hint")
        if is_feasible(model, hint, feas_tol):
            x = hint
        elif isinstance(model, LeastSquares):
            resid = float(np.linalg.norm(model.A.entries @ hint - model.b))
            x = x_ln + model.sigma * (hint - x_ln) / resid
        else:
            x = x_ln
    if not is_feasible(model, x, feas_tol):
        raise InfeasibleStartError(
            f"could not construct a feasible start: q = {q_value(model, x):.3e} "
            f"exceeds feas_tol = {feas_tol:.3e}"
        )
    return x


def _new_trace(cfg: SolverConfig) -> IterateTrace | None:
    if not cfg.record_trace:
        return None
    tr = IterateTrace()
    if cfg.record_iterates:
        tr.iterates = []
    return tr


def run_algorithm1(A: SensingMatrix, b, x0, cfg: SolverConfig) -> RunResult:
    """Ratio minimization over the affine set {x : Ax = b}, b != 0.

    Iterates x_{t+1} = argmin ||x||_1 + alpha/2 ||x - c_t||^2 over Ax = b
    with c_t = (1 + omega_t / (alpha ||x_t||)) x_t, which is the completed
    square of the linearized ratio objective. omega is nonincreasing along
    the run.
    """
    if not isinstance(A, SensingMatrix):
        A = SensingMatrix(A)
    b = _as_vector(b, A.m, "b")
    if not np.any(b):
        raise ValueError("b must be nonzero (otherwise x = 0 is optimal)")
    x = _as_vector(x0, A.n, "x0").copy()
    if float(np.linalg.norm(A.entries @ x - b)) > 1e-8 * max(1.0, float(np.linalg.norm(b))):
        raise InfeasibleStartError("x0 does not satisfy Ax = b to 1e-8")

    alpha = cfg.alpha
    omega = _ratio(x)
    trace = _new_trace(cfg)
    if trace is not None:
        trace.omega.append(omega)
        trace.objective.append(omega)
        trace.x_norm.append(float(np.linalg.norm(x)))
        if trace.iterates is not None:
            trace.iterates.append(x.copy())

    status = STATUS_MAX_ITERS
    iterations = 0
    for t in range(cfg.max_outer_iters):
        t_start = time.perf_counter()
        c = (1.0 + omega / (alpha * float(np.linalg.norm(x)))) * x
        try:
            x_new = prox_l1_affine(c, A, b, alpha, cfg.sub_tol, cfg.sub_max_iter)
        except SubsolverError:
            status = STATUS_SUBSOLVER_FAILURE
            iterations = t
            break
        step = float(np.linalg.norm(x_new - x))
        x = x_new
        omega = _ratio(x)
        iterations = t + 1
        if trace is not None:
            trace.omega.append(omega)
            trace.objective.append(omega)
            trace.x_norm.append(float(np.linalg.norm(x)))
            trace.step_norm.append(step)
            trace.wall_time.append(time.perf_counter() - t_start)
            if trace.iterates is not None:
                trace.iterates.append(x.copy())
        if step <= cfg.tol * max(float(np.linalg.norm(x)), 1.0):
            status = STATUS_CONVERGED
            break

    return RunResult(
        x_final=x,
        status=status,
        iterations=iterations,
        final_objective=omega,
        criticality_residual=None,
        trace=trace,
    )


def run_mba(model: ConstraintModel, objective: str, x0,
            cfg: SolverConfig) -> RunResult:
    """Moving-balls minimization of the chosen objective over q(x) <= 0.

    objective is "ratio_l1_l2" (quadratic center folds in the linearized
    -omega ||x|| term) or "plain_l1" (center is the current iterate). Each
    outer iteration majorizes the constraint at x_t by
    q(x_t) + <grad P1 - zeta, x - x_t> + l/2 ||x - x_t||^2 <= 0, a ball
    centered at s = x_t - xi/l with squared radius ||xi||^2/l^2 - 2 q(x_t)/l
    (xi = grad P1 - zeta). If the trial point leaves the true feasible set
    by more than feas_tol, l is doubled and the ball rebuilt. Every accepted
    iterate satisfies q <= feas_tol.
    """
    if objective not in (OBJECTIVE_RATIO, OBJECTIVE_PLAIN_L1):
        raise ValueError(f"unknown objective {objective!r}")
    x = _as_vector(x0, model.A.n, "x0").copy()
    if not np.any(x):
        raise InfeasibleStartError("x0 must be nonzero")
    A = model.A.entries
    res = A @ x - model.b
    qx = _q_of_residual(model, res)
    if qx > cfg.feas_tol:
        raise InfeasibleStartError(
            f"x0 is infeasible: q(x0) = {qx:.3e} > feas_tol = {cfg.feas_tol:.3e}"
        )

    alpha = cfg.alpha
    ratio_objective = objective == OBJECTIVE_RATIO
    # doublings certified to restore feasibility before l can sweep the
    # whole [l_min, 2*l_max] range
    doubling_cap = math.ceil(math.log2(cfg.l_max * 2.0 / cfg.l_min))

    omega = _ratio(x)
    obj_val = omega if ratio_objective else float(np.abs(x).sum())

    trace = _new_trace(cfg)
    if trace is not None:
        trace.omega.append(omega)
        trace.objective.append(obj_val)
        trace.x_norm.append(float(np.linalg.norm(x)))
        trace.q_vals.append(qx)
        if trace.iterates is not None:
            trace.iterates.append(x.copy())

    x_prev = None
    xi_prev = None
    l_prev = 1.0
    status = STATUS_MAX_ITERS
    iterations = 0

    for t in range(cfg.max_outer_iters):
        t_start = time.perf_counter()
        xi = _grad_p1_of_residual(model, res) - _subgrad_p2_of_residual(model, res)

        if t == 0:
            l = 1.0
        else:
            l = bb_init_step(x - x_prev, xi - xi_prev, l_prev, cfg.l_min, cfg.l_max)

        if ratio_objective:
            c = (1.0 + omega / (alpha * float(np.linalg.norm(x)))) * x
        else:
            c = x

        xi_sq = float(xi @ xi)
        doublings = 0
        while True:
            s = x - xi / l
            # q(x) can sit in (0, feas_tol], pushing the exact radius a hair
            # below zero; the ball is then the single point s
            R = max(xi_sq / (l * l) - 2.0 * qx / l, 0.0)
            try:
                sol = prox_l1_ball(BallProxProblem(c=c, s=s, R=R, alpha=alpha),
                                   cfg.sub_tol)
            except SubsolverError:
                status = STATUS_SUBSOLVER_FAILURE
                break
            res_new = A @ sol.x - model.b
            q_new = _q_of_residual(model, res_new)
            if q_new <= cfg.feas_tol:
                break
            l *= 2.0
            doublings += 1
            if doublings > doubling_cap:
                raise InnerLoopError(
                    f"feasibility not restored after {doublings} curvature "
                    f"doublings (q = {q_new:.3e}); the model's gradient and "
                    "value are likely inconsistent"
                )
        if status == STATUS_SUBSOLVER_FAILURE:
            iterations = t
            break

        x_prev = x
        xi_prev = xi
        l_prev = l
        x = sol.x
        res = res_new
        qx = q_new
        step = float(np.linalg.norm(x - x_prev))
        omega = _ratio(x)
        obj_val = omega if ratio_objective else float(np.abs(x).sum())
        iterations = t + 1

        if trace is not None:
            trace.omega.append(omega)
            trace.objective.append(obj_val)
            trace.x_norm.append(float(np.linalg.norm(x)))
            trace.step_norm.append(step)
            trace.l_accepted.append(l)
            trace.inner_doublings.append(doublings)
            trace.q_vals.append(q_new)
            trace.wall_time.append(time.perf_counter() - t_start)
            if trace.iterates is not None:
                trace.iterates.append(x.copy())

        if step <= cfg.tol * max(float(np.linalg.norm(x)), 1.0):
            status = STATUS_CONVERGED
            break

    crit = None
    if ratio_objective:
        crit = criticality_residual(model, x, cfg.feas_tol)
    return RunResult(
        x_final=x,
        status=status,
        iterations=iterations,
        final_objective=obj_val,
        criticality_residual=crit,
        trace=trace,
    )


def _kkt_residual(x: np.ndarray, g: np.ndarray, q: float) -> tuple[float, float]:
    """(residual, lambda*) of the KKT system at x != 0 (see criticality_residual).

    Scaled by ||x||, the subdifferential is the coordinate product of points
    sign(x_i) - ||u||_1 u_i (x_i != 0, u = x/||x||) and intervals [-1, 1]
    (x_i = 0); with mu = ||x|| lambda and t = -g the squared residual is
    f(mu)/||x||^2, f(mu) = sum_i dist(mu t_i, [lo_i, hi_i])^2 + (mu q)^2.
    Half of f' is h(mu) = sum_i t_i^2 (min(mu - a_i, 0) + max(mu - b_i, 0))
    + mu q^2, with [a_i, b_i] the mu-interval that puts mu t_i inside
    [lo_i, hi_i]: nondecreasing and piecewise linear, h = S mu - C on each
    segment. One sort of the a_i, b_i and a cumulative sweep of S and C find
    the segment where h turns nonnegative, and mu* = C/S on it.
    """
    nx = _full_norm(x)
    u = x / nx
    lo, hi = np.where(x != 0.0, np.sign(x) - float(np.abs(u).sum()) * u,
                      [[-1.0], [1.0]])
    t = -g
    moving = t * t > 0.0
    w = t[moving] ** 2
    a, b = np.sort(np.stack([lo[moving], hi[moving]]) / t[moving], axis=0)
    # crossing a_i ends the below-interval term, crossing b_i starts the
    # above-interval one; S[j], C[j] hold on the segment left of bp[j]
    bp = np.concatenate([a, b])
    order = np.argsort(bp)
    bp = np.append(bp[order], np.inf)
    S = np.cumsum(np.concatenate([[q * q + w.sum()], np.concatenate([-w, w])[order]]))
    C = np.cumsum(np.concatenate([[w @ a], np.concatenate([-w * a, w * b])[order]]))
    k = int(np.searchsorted(bp, 0.0, side="right"))
    mu = 0.0
    if C[k] > 0.0:  # h(0) = -C[k] < 0
        j = k + int(np.argmax(S[k:] * bp[k:] - C[k:] >= 0.0))
        low = 0.0 if j == k else bp[j - 1]
        mu = min(max(C[j] / S[j], low), bp[j]) if S[j] > 0.0 else low
    d = mu * t - np.clip(mu * t, lo, hi)
    return math.sqrt(float(d @ d) + (mu * q) ** 2) / nx, mu / nx


def criticality_residual(model: ConstraintModel, x,
                         feas_tol: float = 1e-10) -> float:
    """Distance of x to the KKT system of min ||x||_1/||x|| s.t. q(x) <= 0.

    At a critical point 0 lies in subdiff(||x||_1/||x||) + lambda g for some
    lambda >= 0 with lambda q(x) = 0, where g is the Clarke element
    grad P1 - subgrad P2. The residual is the square root of
    min over lambda >= 0 of dist(0, subdiff + lambda g)^2 + (lambda q(x))^2,
    solved exactly: lambda is not capped, and no interior/boundary branch is
    taken, because the complementarity term itself keeps lambda near 0
    where q(x) is far below 0.
    """
    x = _as_vector(x, model.A.n, "x")
    if not np.any(x):
        raise ValueError("criticality residual is undefined at x = 0")
    qx = q_value(model, x)
    if qx > feas_tol:
        raise ValueError(f"x is infeasible: q(x) = {qx:.3e} > {feas_tol:.3e}")
    return _kkt_residual(x, grad_p1(model, x) - subgrad_p2(model, x), qx)[0]
