"""Outer solver loops for l1/l2-ratio sparse recovery.

Both drivers run one outer loop, ``_prox_loop``. At x_t it forms the prox
center c_t = (1 + omega_t / (alpha ||x_t||)) x_t, omega_t = ||x_t||_1/||x_t||,
which completes the square of the ratio with -||x|| linearized (c_t = x_t
for plain ||x||_1), and takes x_{t+1} = argmin ||x||_1 + alpha/2 ||x - c_t||^2
over a simple set. Each driver supplies only that step:

* ``run_algorithm1`` handles the noiseless problem min ||x||_1/||x|| subject
  to Ax = b; its set is the affine set itself.
* ``run_mba`` handles the noisy problem min ||x||_1/||x|| (or plain ||x||_1)
  subject to q(x) <= 0; its set is the level set of a quadratic majorant of
  q at x_t, a Euclidean ball (a moving-balls step), with the curvature
  seeded by a safeguarded Barzilai-Borwein estimate. A trial point that is
  not feasible raises the curvature by the power of two that covers the
  secant curvature it measured, and the ball is rebuilt until a trial is
  feasible.

A run is converged once ||x_{t+1} - x_t|| <= tol * max(||x_{t+1}||, 1). It
ends as max_iters after max_outer_iters steps, and as subsolver_failure when
a step's prox raises SubsolverError.

Inputs are checked where a run starts (SolverConfig, the start point, the
model), not on each trial. ``run_mba`` hands the ball prox unchecked
problems (subsolvers._ball_problem) instead of public BallProxProblems, whose
constructor checks every array; in place of those checks it tests scalars.
The ratio center's coefficient 1 + omega_t/(alpha ||x_t||) is tested once
per step (its product with ||x_t|| must be finite, which bounds c_t), and
each trial's squared radius R once per trial (finite, which bounds
s = x_t - xi/l). A failed test raises SubsolverError, so such a run ends
as subsolver_failure at its last accepted iterate.

A ratio run of ``run_mba`` closes with ``criticality_residual``: the
distance of its final iterate to the KKT system 0 in subdiff(||x||_1/||x||)
+ lambda (grad P1 - subgrad P2), lambda >= 0, lambda q(x) = 0, minimized
over lambda in closed form (no cap on lambda, no interior/boundary branch).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .models import (
    _FEAS_TOL,
    ConstraintModel,
    SensingMatrix,
    _as_number,
    _as_vector,
    _full_norm,
    _grad_p1_of_residual,
    _q_of_residual,
    _residual,
    _subgrad_p2_of_residual,
    grad_p1,  # unused here; perfbench/tracer.py swaps drivers.grad_p1
    is_feasible,
    q_value,
    subgrad_p2,  # unused here; perfbench/tracer.py swaps drivers.subgrad_p2
)
from .subsolvers import (
    BallProxProblem,  # unused here; perfbench/tracer.py swaps it
    SubsolverError,
    _ball_problem,
    _dual_step,
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
# the clip range of the Barzilai-Borwein curvature seed
_L_MIN = 1e-8
_L_MAX = 1e8


class InfeasibleStartError(ValueError):
    """The provided or constructed starting point violates the constraint."""


class InnerLoopError(RuntimeError):
    """The feasibility-restoring curvature loop exceeded its certified bound.

    Each failed trial multiplies the curvature by 2^i, i >= 1, and the loop
    gives up once the exponents sum past log2(2 _L_MAX / _L_MIN), with
    [_L_MIN, _L_MAX] the curvature seed's clip range. With a correct
    gradient it terminates once the curvature estimate dominates the true
    Lipschitz constant, so overflowing the bound almost always points at a
    model/gradient inconsistency.
    """


@dataclass
class SolverConfig:
    """Tunables shared by both drivers.

    alpha is the proximal weight of each step's l1 subproblem. tol drives
    the relative-step termination rule, which ends a run as converged, and
    max_outer_iters caps its steps. feas_tol is the absolute slack allowed
    on q at accepted iterates (the subproblems are solved to finite
    accuracy, so exact q <= 0 cannot be insisted on). The curvature seed of
    run_mba has no setting: it is clipped to the module constants
    [_L_MIN, _L_MAX]. There is no inner accuracy setting, here or on the
    proxes: the ball prox is exact and the affine prox certifies its point,
    each to a fixed tolerance of its module (see prox_l1_ball and
    prox_l1_affine); a prox that fails ends the run with status
    subsolver_failure.

    Every run returns an IterateTrace; record_iterates also keeps a copy of
    each iterate in it. Each field is checked here for its type (the numeric
    ones by models._as_number) and its range, so a malformed setting raises
    ValueError before any run starts.
    """

    alpha: float = 1.0
    tol: float = 1e-6
    max_outer_iters: int = 20_000
    feas_tol: float = _FEAS_TOL
    record_iterates: bool = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type != "bool":
                setattr(self, f.name, _as_number(value, f.type == "int", f.name))
            elif not isinstance(value, bool):
                raise ValueError(f"{f.name} must be true or false, got {value!r}")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be positive")
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
    inner_doublings[t] is log2(l_accepted[t] / l_seed), with l_seed the
    Barzilai-Borwein seed of step t: the summed exponents of its curvature
    jumps. It is not the number of extra ball-prox calls, since one failed
    trial can raise l by several doublings.
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

    def record(self, x: np.ndarray, omega: float, objective: float,
               x_norm: float, q: float | None = None):
        """Append the per-point entries of iterate x (q only for run_mba)."""
        self.omega.append(omega)
        self.objective.append(objective)
        self.x_norm.append(x_norm)
        if q is not None:
            self.q_vals.append(q)
        if self.iterates is not None:
            self.iterates.append(x.copy())


@dataclass
class RunResult:
    x_final: np.ndarray
    status: str
    iterations: int
    final_objective: float
    criticality_residual: float | None
    trace: IterateTrace


def _norm(v: np.ndarray) -> float:
    """||v||_2 of a 1-D float64 vector, as np.linalg.norm computes it (the
    square root of v @ v), without its dispatch."""
    return math.sqrt(float(v @ v))


def _clarke_element(model: ConstraintModel, res: np.ndarray) -> np.ndarray:
    """grad P1 - subgrad P2 at the residual res = Ax - b.

    Where P2 = 0 (model.p2_is_zero) the zero subgradient is neither formed
    nor subtracted: xi - 0 is xi bit for bit.
    """
    xi = _grad_p1_of_residual(model, res)
    if not model.p2_is_zero:
        xi -= _subgrad_p2_of_residual(model, res)
    return xi


def _bb_seed(d_x: np.ndarray, d_g: np.ndarray, l_prev: float) -> float:
    """Safeguarded Barzilai-Borwein curvature seed.

    Returns clip(<d_x, d_g> / ||d_x||^2) when the inner product clears a
    small positive threshold, otherwise clip(l_prev / 2); clip is to
    [_L_MIN, _L_MAX]. l_prev may exceed _L_MAX (the accepted curvature can
    outgrow the clip range); the result is always inside it.
    """
    inner = float(d_x @ d_g)
    if inner >= _BB_INNER_THRESHOLD:
        return max(_L_MIN, min(inner / float(d_x @ d_x), _L_MAX))
    return max(_L_MIN, min(l_prev / 2.0, _L_MAX))


def feasible_start(model: ConstraintModel,
                   feas_tol: float = _FEAS_TOL) -> np.ndarray:
    """The least-norm solution of Ax = b, verified to satisfy q <= feas_tol.

    Its residual is zero up to round-off, so it lies inside the feasible set
    of every constraint family here; InfeasibleStartError is raised if the
    computed point still has q > feas_tol.
    """
    x = least_norm_solution(model.A, model.b)
    if not is_feasible(model, x, feas_tol):
        raise InfeasibleStartError(
            f"could not construct a feasible start: q = {q_value(model, x):.3e} "
            f"exceeds feas_tol = {feas_tol:.3e}"
        )
    return x


def _prox_loop(x: np.ndarray, ratio_objective: bool, cfg: SolverConfig,
               step, q0: float | None = None) -> RunResult:
    """The outer loop of both drivers (see the module docstring), from x != 0.

    step(x_t, c_t, trace) returns x_{t+1} and q(x_{t+1}), or None for q where
    the set has no q (q0 is then None too, and q_vals stay empty); it may
    append its own per-step entries to trace. criticality_residual is None.
    """
    nx = _norm(x)
    l1 = float(np.abs(x).sum())
    omega = l1 / nx
    obj_val = omega if ratio_objective else l1
    trace = IterateTrace(iterates=[] if cfg.record_iterates else None)
    trace.record(x, omega, obj_val, nx, q0)

    status = STATUS_MAX_ITERS
    iterations = 0
    for t in range(cfg.max_outer_iters):
        t_start = time.perf_counter()
        try:
            c = x
            if ratio_objective:
                coef = 1.0 + omega / (cfg.alpha * nx)
                # every |c_i| is at most coef * nx, so c is finite with it
                if not math.isfinite(coef * nx):
                    raise SubsolverError(
                        f"prox center overflowed: coefficient {coef:.3e} "
                        f"at ||x|| = {nx:.3e}")
                c = coef * x
            x_new, q = step(x, c, trace)
        except SubsolverError:
            status = STATUS_SUBSOLVER_FAILURE
            break
        step_norm = _norm(x_new - x)
        x = x_new
        nx = _norm(x)
        l1 = float(np.abs(x).sum())
        omega = l1 / nx
        obj_val = omega if ratio_objective else l1
        iterations = t + 1
        trace.record(x, omega, obj_val, nx, q)
        trace.step_norm.append(step_norm)
        trace.wall_time.append(time.perf_counter() - t_start)
        if step_norm <= cfg.tol * max(nx, 1.0):
            status = STATUS_CONVERGED
            break

    return RunResult(x_final=x, status=status, iterations=iterations,
                     final_objective=obj_val, criticality_residual=None,
                     trace=trace)


def run_algorithm1(A: SensingMatrix, b, x0, cfg: SolverConfig) -> RunResult:
    """Ratio minimization over the affine set {x : Ax = b}, b != 0.

    x0 must satisfy ||A x0 - b|| <= 1e-8 ||b||. Each step is the ratio prox
    of the module docstring over Ax = b, solved by prox_l1_affine. omega is
    nonincreasing along the run.
    """
    if not isinstance(A, SensingMatrix):
        A = SensingMatrix(A)
    b = _as_vector(b, A.m, "b")
    if not np.any(b):
        raise ValueError("b must be nonzero (otherwise x = 0 is optimal)")
    x = _as_vector(x0, A.n, "x0").copy()
    if _full_norm(A.entries @ x - b) > 1e-8 * _full_norm(b):
        raise InfeasibleStartError("x0 does not satisfy Ax = b to 1e-8 ||b||")

    def step(x, c, trace):
        return prox_l1_affine(c, A, b, cfg.alpha), None

    return _prox_loop(x, True, cfg, step)


def run_mba(model: ConstraintModel, objective: str, x0,
            cfg: SolverConfig) -> RunResult:
    """Moving-balls minimization of the chosen objective over q(x) <= 0.

    objective is "ratio_l1_l2" (quadratic center folds in the linearized
    -omega ||x|| term) or "plain_l1" (center is the current iterate). Each
    outer iteration majorizes the constraint at x_t by
    q(x_t) + <grad P1 - zeta, x - x_t> + l/2 ||x - x_t||^2 <= 0, a ball
    centered at s = x_t - xi/l with squared radius ||xi||^2/l^2 - 2 q(x_t)/l
    (xi = grad P1 - zeta). If the trial point leaves the true feasible set
    by more than feas_tol, the trial has measured the secant curvature
    l_s = 2(q(x_trial) - q(x_t) - <xi, d>)/||d||^2, d = x_trial - x_t, at
    which the majorant is exact along d. l then becomes the smallest l 2^i
    >= l_s with i >= 1 (i = 1 when l_s / l is not finite or not above 1)
    and the ball is rebuilt, so the accepted l is the seed times a power of
    two. P2 is convex, so l_s <= L_P1 (the Lipschitz constant of grad P1)
    and a trial fails only while l < l_s; an l accepted after a failed trial
    therefore stays below 2 L_P1, as with plain doubling. That holds in
    floating point too because l_s is taken no larger than P1's own bound
    2 c ||A d||^2/||d||^2 (c = model.curvature), which A d = res_new - res
    resolves even when the q values differ only by round-off.
    Every accepted iterate satisfies q <= feas_tol. The origin must be
    infeasible by more than feas_tol, so no accepted iterate is 0.
    """
    if objective not in (OBJECTIVE_RATIO, OBJECTIVE_PLAIN_L1):
        raise ValueError(f"unknown objective {objective!r}")
    x = _as_vector(x0, model.A.n, "x0").copy()
    q_origin = _q_of_residual(model, -model.b)
    if not q_origin > cfg.feas_tol:
        raise InfeasibleStartError(
            f"the origin is feasible up to feas_tol: q(0) = {q_origin:.3e} "
            f"<= feas_tol = {cfg.feas_tol:.3e}, so an iterate could reach x = 0"
        )
    A = model.A.entries
    res = A @ x - model.b
    qx = _q_of_residual(model, res)
    if qx > cfg.feas_tol:
        raise InfeasibleStartError(
            f"x0 is infeasible: q(x0) = {qx:.3e} > feas_tol = {cfg.feas_tol:.3e}"
        )

    # doublings (summed jump exponents) certified to restore feasibility
    # before l can sweep the whole [_L_MIN, 2 _L_MAX] range
    doubling_cap = math.ceil(math.log2(_L_MAX * 2.0 / _L_MIN))
    curvature = model.curvature
    x_prev = xi_prev = None
    l = 1.0

    def step(x, c, trace):
        nonlocal res, qx, x_prev, xi_prev, l
        xi = _clarke_element(model, res)
        # an xi too large to square overflows these products quietly: the
        # seed clips, and the radius guard below ends the run
        with np.errstate(over="ignore"):
            # the previous accepted curvature seeds the Barzilai-Borwein
            # fallback
            if x_prev is not None:
                l = _bb_seed(x - x_prev, xi - xi_prev, l)
            xi_sq = float(xi @ xi)
        doublings = 0
        while True:
            # q(x) can sit in (0, feas_tol], pushing the exact radius a
            # hair below zero; the ball is then the single point s
            R = max(xi_sq / (l * l) - 2.0 * qx / l, 0.0)
            # a finite R bounds ||xi / l||, so s is finite too (x is);
            # a NaN or infinite xi leaves R NaN or infinite
            if not math.isfinite(R):
                raise SubsolverError(
                    f"moving ball overflowed: squared radius {R!r} at "
                    f"l = {l:.3e}")
            s = x - xi / l
            sol = prox_l1_ball(_ball_problem(c, s, R, cfg.alpha))
            res_new = A @ sol.x
            res_new -= model.b
            q_new = _q_of_residual(model, res_new)
            if q_new <= cfg.feas_tol:
                break
            # jump to the smallest l 2^i >= l_s = 2 gap/||d||^2, i >= 1
            # (see the docstring); gap is capped by P1's bound because
            # for a tiny d the q values differ only by round-off
            d = sol.x - x
            e = res_new - res
            gap = min(q_new - qx - float(xi @ d), curvature * float(e @ e))
            denom = l * float(d @ d)
            growth = 2.0 * gap / denom if denom > 0.0 else math.nan
            i = 1
            if 1.0 < growth < math.inf:
                # growth = mantissa 2^exponent with mantissa in [1/2, 1)
                mantissa, exponent = math.frexp(growth)
                i = exponent - 1 if mantissa == 0.5 else exponent
            doublings += i
            if doublings > doubling_cap:
                raise InnerLoopError(
                    f"feasibility not restored after {doublings} curvature "
                    f"doublings (q = {q_new:.3e}); the model's gradient "
                    "and value are likely inconsistent"
                )
            l *= 2.0 ** i
        x_prev, xi_prev, res, qx = x, xi, res_new, q_new
        trace.l_accepted.append(l)
        trace.inner_doublings.append(doublings)
        return sol.x, q_new

    ratio_objective = objective == OBJECTIVE_RATIO
    result = _prox_loop(x, ratio_objective, cfg, step, qx)
    if ratio_objective:
        result.criticality_residual = criticality_residual(
            model, result.x_final, cfg.feas_tol)
    return result


def _kkt_residual(x: np.ndarray, g: np.ndarray, q: float) -> tuple[float, float]:
    """(residual, lambda*) of the KKT system at x != 0 (see criticality_residual).

    Scaled by ||x||, the subdifferential is the coordinate product of points
    sign(x_i) - ||u||_1 u_i (x_i != 0, u = x/||x||) and intervals [-1, 1]
    (x_i = 0); with mu = ||x|| lambda and t = -g the squared residual is
    f(mu)/||x||^2, f(mu) = sum_i dist(mu t_i, [lo_i, hi_i])^2 + (mu q)^2.
    The (mu q)^2 term is one more coordinate, t = q with the interval
    [0, 0]. With m_i and r_i the midpoint and half-width of each interval
    (both exact here), dist(y, [lo_i, hi_i]) = |soft(y - m_i, r_i)|, so
    half of f' is sum_i t_i soft(mu t_i - m_i, r_i), nondecreasing and
    piecewise linear; subsolvers._dual_step finds its root mu* >= 0 exactly.
    """
    nx = _full_norm(x)
    u = x / nx
    lo, hi = np.where(x != 0.0, np.sign(x) - float(np.abs(u).sum()) * u,
                      [[-1.0], [1.0]])
    t = -g
    mu = _dual_step(-np.append((lo + hi) / 2.0, 0.0), np.append(t, q),
                    np.append((hi - lo) / 2.0, 0.0), 0.0)
    d = mu * t - np.clip(mu * t, lo, hi)
    return math.sqrt(float(d @ d) + (mu * q) ** 2) / nx, mu / nx


def criticality_residual(model: ConstraintModel, x,
                         feas_tol: float = _FEAS_TOL) -> float:
    """Distance of x to the KKT system of min ||x||_1/||x|| s.t. q(x) <= 0.

    At a critical point 0 lies in subdiff(||x||_1/||x||) + lambda g for some
    lambda >= 0 with lambda q(x) = 0, where g is the Clarke element
    grad P1 - subgrad P2. The residual is the square root of
    min over lambda >= 0 of dist(0, subdiff + lambda g)^2 + (lambda q(x))^2,
    solved exactly: lambda is not capped, and no interior/boundary branch is
    taken, because the complementarity term itself keeps lambda near 0
    where q(x) is far below 0. feas_tol is is_feasible's slack on q(x), and
    a negative or NaN feas_tol raises ValueError as it does there.
    """
    if not feas_tol >= 0:
        raise ValueError("feas_tol must be nonnegative")
    x = _as_vector(x, model.A.n, "x")
    if not np.any(x):
        raise ValueError("criticality residual is undefined at x = 0")
    res = _residual(model, x)
    qx = _q_of_residual(model, res)
    if qx > feas_tol:
        raise ValueError(f"x is infeasible: q(x) = {qx:.3e} > {feas_tol:.3e}")
    g = _clarke_element(model, res)
    return _kkt_residual(x, g, qx)[0]
