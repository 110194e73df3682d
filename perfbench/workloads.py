"""Workload definitions, instance generation and the per-instance gate.

A workload fixes an instance recipe, a pipeline, its solver settings and
the size of its panel. One benchmark run solves a panel of instances whose
seeds follow from the run's ``--seed`` (instance seeds ``seed * 1000 + j``),
so ``--seed 0`` starts with the seed-0 instance of the acceptance plans.
The inputs of a run depend only on ``--seed``; ``--seconds`` sets how many
times the panel is solved, through the workload's nominal per-instance wall
time on the reference machine, never through how fast the code under test
is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SEED_STRIDE = 1000
NOISELESS = "noiseless"

DESCENT_TOL = 1e-10      # acceptance criterion 4
CRITICALITY_MAX = 1e-3   # acceptance criterion 8
NOISELESS_REC_ERR_MAX = 1e-8
# algorithm1's own test for a point on {x : Ax = b}
AFFINE_RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pipeline: str
    config: dict                 # SolverConfig fields
    warm_tol: float | None
    spec: dict                   # GenSpec fields except seed, or NOISELESS
    panel: int                   # instances per run
    nominal_s: float             # per-instance wall time on the reference
    seed0: dict | None = None    # counts the traced seed-0 instance must show

    def instance_seeds(self, seed: int) -> list[int]:
        return [seed * SEED_STRIDE + j for j in range(self.panel)]

    def passes(self, seconds: float) -> int:
        """How many times the panel fits into ``seconds`` (at least one)."""
        return max(1, math.floor(seconds / (self.panel * self.nominal_s)))


WORKLOADS = {w.name: w for w in (
    # --- measured by default (BENCHMARK.json) ---
    Workload(
        name="robust_cs_ratio",
        why="largest matrix, fewest iterations: QR set-up and the RobustCS "
            "A^T hooks weigh most here, the ball prox least",
        pipeline="mba_ratio",
        config={"tol": 1e-6, "feas_tol": 1e-13},
        warm_tol=None,
        spec={"family": "robust_cs", "n": 2560, "p": 720, "k": 80,
              "iota": 10},
        panel=4,
        nominal_s=1.1,
        seed0={"iterations": 91, "prox_calls": 184},
    ),
    Workload(
        name="cauchy_two_stage_n640",
        why="quarter-size cauchy through the Lorentzian hook and the "
            "l1-to-ratio blend: small matvecs, so the ball prox dominates",
        pipeline="two_stage",
        config={"tol": 1e-6, "feas_tol": 1e-13},
        warm_tol=1e-6,
        spec={"family": "cauchy", "n": 640, "m": 180, "k": 20},
        panel=4,
        nominal_s=1.2,
    ),
    # --- run by hand (see README.md): the acceptance-plan sizes take
    # seconds to tens of seconds per instance, and algorithm1 fails on
    # some noiseless instances ---
    Workload(
        name="cauchy_two_stage",
        why="acceptance plan 2: same matrix size as robust_cs_ratio through "
            "the Lorentzian hook and the blend; prox and A^T matvec both weigh",
        pipeline="two_stage",
        config={"tol": 1e-6, "feas_tol": 1e-13},
        warm_tol=1e-6,
        spec={"family": "cauchy", "n": 2560, "m": 720, "k": 80},
        panel=1,
        nominal_s=9.0,
        seed0={"iterations": 901, "prox_calls": 2208},
    ),
    Workload(
        name="badly_scaled_two_stage",
        why="acceptance plan 3: tiny matrix, thousands of iterations; the "
            "ball prox is almost all of the solve",
        pipeline="two_stage",
        config={"tol": 1e-8, "feas_tol": 1e-13},
        warm_tol=None,
        spec={"family": "badly_scaled", "n": 1024, "m": 64, "k": 8,
              "F": 5.0, "D": 2.0},
        panel=1,
        nominal_s=15.0,
        seed0={"iterations": 4713, "prox_calls": 11883,
               "evals_per_call": 59.5},
    ),
    Workload(
        name="noiseless_algorithm1",
        why="exact measurements through algorithm1, the only workload on the "
            "affine prox; its 200k splitting cap is hit on some instances",
        pipeline="algorithm1",
        config={"tol": 1e-6},
        warm_tol=None,
        spec={"family": NOISELESS, "m": 180, "n": 640, "k": 20},
        panel=20,
        nominal_s=1.5,
    ),
)}


class NoiselessInstance:
    """b = A x_orig exactly; A Gaussian with unit columns.

    ``algorithm1`` reads only A and b, so the least-squares model around
    them is a carrier whose sigma (half of ||b||) is never used.
    """

    def __init__(self, spec: dict, seed: int, instances, models):
        m, n, k = spec["m"], spec["n"], spec["k"]
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
        A = rng.standard_normal((m, n))
        A /= np.linalg.norm(A, axis=0)
        x_orig = np.zeros(n)
        x_orig[rng.permutation(n)[:k]] = rng.standard_normal(k)
        b = A @ x_orig
        # the same constructor name the instance families go through, so
        # the tracer times this QR as models.SensingMatrix too
        matrix = instances.SensingMatrix(A)
        self.model = models.LeastSquares(matrix, b, 0.5 * np.linalg.norm(b))
        self.x_orig = x_orig


def gate(workload: Workload, model, x_orig, pres, pkg) -> list[str]:
    """Reasons the solution fails the correctness gate; empty if it passes.

    Checked from outside, through the returned traces and the public
    ``models.q_value``: converged status, q <= feas_tol on every iterate of
    a moving-balls stage, sufficient descent on every step (criterion 4),
    final criticality residual (criterion 8), and on noiseless instances
    Ax = b and a recovery error at round-off level.
    """
    problems = []
    if pres.status != "converged":
        problems.append(f"status {pres.status}")
    cfg = pkg.drivers.SolverConfig(**workload.config)
    alpha = cfg.alpha
    for trace, is_ratio in ((pres.warm_trace, False), (pres.main_trace, True)):
        if trace is None:
            continue
        vals = trace.omega if is_ratio else trace.objective
        worst = -math.inf
        for t, step in enumerate(trace.step_norm):
            need = alpha * step * step / 2.0
            if is_ratio:
                need /= trace.x_norm[t + 1]
            worst = max(worst, need - (vals[t] - vals[t + 1]))
        if worst > DESCENT_TOL:
            problems.append(f"descent violated by {worst:.3g}")
        if trace.q_vals and max(trace.q_vals) > cfg.feas_tol:
            problems.append(f"trace q {max(trace.q_vals):.3g} > feas_tol")
    if workload.spec["family"] == NOISELESS:
        A, b = model.A.entries, model.b
        resid = float(np.linalg.norm(A @ pres.x_final - b))
        if resid > AFFINE_RESIDUAL_RTOL * max(1.0, float(np.linalg.norm(b))):
            problems.append(f"||Ax - b|| = {resid:.3g}")
        err = pkg.instances.rec_err(pres.x_final, x_orig)
        if err > NOISELESS_REC_ERR_MAX:
            problems.append(f"rec_err {err:.3g} > {NOISELESS_REC_ERR_MAX:g}")
    else:
        q_final = pkg.models.q_value(model, pres.x_final)
        if q_final > cfg.feas_tol:
            problems.append(f"final q {q_final:.3g} > feas_tol")
        crit = pres.criticality_residual
        if crit is None or not crit <= CRITICALITY_MAX:
            problems.append(f"criticality residual {crit} > {CRITICALITY_MAX:g}")
    return problems
