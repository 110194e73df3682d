"""Micro-benchmarks of the ball and affine l1 proxes at the solver's sizes.

The file name keeps it out of the default ``test_*.py`` collection; run it
explicitly with pytest-benchmark:

    PYTHONPATH=src python -m pytest tests/bench_prox.py

Each ball case is one moving-balls step's subproblem with alpha = 1: a
sparse prox centre c and a dense ball centre s near it. The active case
takes a radius a quarter of the unconstrained prox's squared distance to s,
the inactive case four times that distance, so its prox returns at mu = 0.
The turn-off case flips s against c on the support, where then
sign(s_i) alpha c_i < -1: each support coordinate turns inactive and then
active again as mu grows, and with a radius of a hundredth of that distance
the sweep crosses both breakpoints of most of them.

The trial case times the first 200 trial problems of the
cauchy_two_stage_n640 workload's seed-0 instance (cauchy n=640, m=180,
k=20; perfbench/workloads.py), recorded from its two_stage solve as
run_mba builds them; one round solves all 200. These are early
warm-stage calls: the median one keeps 326 breakpoints below its bound and
crosses 266 of them before its root, which the synthetic cases do not
resemble.

Each affine case is the first prox of run_algorithm1 (alpha = 1, fixed
tolerance and cap) from the least-norm start on a noiseless instance: a
Gaussian A with unit columns, a k-sparse x_orig and b = A x_orig, drawn as
perfbench's noiseless_algorithm1 draws its instance seed 3.
"""

import numpy as np
import pytest

from sparseratio import cli, drivers
from sparseratio.drivers import SolverConfig
from sparseratio.instances import GenSpec, generate
from sparseratio.models import SensingMatrix
from sparseratio.subsolvers import (
    BallProxProblem,
    _ball_problem,
    least_norm_solution,
    prox_l1_affine,
    prox_l1_ball,
    soft_threshold,
)


def ball_problem(n: int, radius_factor: float = 0.25,
                 turn_off: bool = False) -> BallProxProblem:
    rng = np.random.default_rng(n)
    c = np.zeros(n)
    support = rng.permutation(n)[: n // 32]
    c[support] = 3.0 * rng.standard_normal(support.size)
    s = c + 0.2 * rng.standard_normal(n)
    if turn_off:
        s[support] = -0.5 * c[support]
    d0 = soft_threshold(c, 1.0) - s
    return BallProxProblem(c=c, s=s, R=radius_factor * float(d0 @ d0),
                           alpha=1.0)


@pytest.mark.parametrize("n", [640, 2560])
def test_prox_l1_ball_active(benchmark, n):
    sol = benchmark(prox_l1_ball, ball_problem(n))
    assert sol.active


@pytest.mark.parametrize("n", [640, 2560])
def test_prox_l1_ball_inactive(benchmark, n):
    sol = benchmark(prox_l1_ball, ball_problem(n, radius_factor=4.0))
    assert not sol.active


@pytest.mark.parametrize("n", [640, 2560])
def test_prox_l1_ball_turn_off(benchmark, n):
    problem = ball_problem(n, radius_factor=0.01, turn_off=True)
    sol = benchmark(prox_l1_ball, problem)
    assert sol.active
    # some support coordinate has crossed both its breakpoints
    flipped = np.sign(sol.x) == np.sign(problem.s)
    assert np.any(flipped & (np.sign(problem.s) * problem.c < -1.0))


class _Recorded(Exception):
    """Ends the recording solve once it has enough trial problems."""


@pytest.fixture(scope="module")
def workload_trials():
    """The first 200 trial problems of cauchy_two_stage_n640, seed 0."""
    inst = generate(GenSpec(family="cauchy", n=640, m=180, k=20, seed=0))
    trials = []

    def recording_prox(p):
        trials.append(_ball_problem(p.c.copy(), p.s.copy(), p.R, p.alpha))
        if len(trials) == 200:
            raise _Recorded
        return prox_l1_ball(p)

    drivers.prox_l1_ball = recording_prox
    try:
        cli.run_pipeline(inst.model, "two_stage",
                         SolverConfig(tol=1e-6, feas_tol=1e-13), 1e-6)
    except _Recorded:
        pass
    finally:
        drivers.prox_l1_ball = prox_l1_ball
    assert len(trials) == 200
    return trials


def solve_all(problems):
    return [prox_l1_ball(p) for p in problems]


def test_prox_l1_ball_workload_trials(benchmark, workload_trials):
    sols = benchmark(solve_all, workload_trials)
    assert sum(sol.active for sol in sols) > 100


def first_affine_prox(m: int, n: int, k: int):
    """(c, A, b) of run_algorithm1's first prox, alpha = 1."""
    rng = np.random.default_rng(np.random.SeedSequence([3, 7]))
    A = rng.standard_normal((m, n))
    A /= np.linalg.norm(A, axis=0)
    x_orig = np.zeros(n)
    x_orig[rng.permutation(n)[:k]] = rng.standard_normal(k)
    sm = SensingMatrix(A)
    b = A @ x_orig
    x = least_norm_solution(sm, b)
    norm = float(np.linalg.norm(x))
    omega = float(np.abs(x).sum()) / norm
    c = (1.0 + omega / norm) * x
    return c, sm, b


@pytest.mark.parametrize("m, n, k, rounds", [(180, 640, 20, None),
                                              (720, 2560, 80, 3)])
def test_prox_l1_affine(benchmark, m, n, k, rounds):
    c, sm, b = first_affine_prox(m, n, k)
    if rounds is None:
        x = benchmark(prox_l1_affine, c, sm, b, 1.0)
    else:
        # a few seconds per call at this size
        x = benchmark.pedantic(prox_l1_affine, args=(c, sm, b, 1.0),
                               rounds=rounds, iterations=1)
    assert np.linalg.norm(sm.entries @ x - b) <= 1e-10 * np.linalg.norm(b)
