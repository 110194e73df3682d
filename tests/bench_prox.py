"""Micro-benchmark of the exact ball prox at the solver's problem sizes.

The file name keeps it out of the default ``test_*.py`` collection; run it
explicitly with pytest-benchmark:

    PYTHONPATH=src python -m pytest tests/bench_prox.py

Each case is one moving-balls step's subproblem with an active ball and
alpha = 1: a sparse prox centre c, a dense ball centre s near it, and a
radius a quarter of the unconstrained prox's squared distance to s.
"""

import numpy as np
import pytest

from sparseratio.subsolvers import BallProxProblem, prox_l1_ball, soft_threshold


def active_ball_problem(n: int) -> BallProxProblem:
    rng = np.random.default_rng(n)
    c = np.zeros(n)
    support = rng.permutation(n)[: n // 32]
    c[support] = 3.0 * rng.standard_normal(support.size)
    s = c + 0.2 * rng.standard_normal(n)
    d0 = soft_threshold(c, 1.0) - s
    return BallProxProblem(c=c, s=s, R=0.25 * float(d0 @ d0), alpha=1.0)


@pytest.mark.parametrize("n", [640, 2560])
def test_prox_l1_ball_active(benchmark, n):
    problem = active_ball_problem(n)
    sol = benchmark(prox_l1_ball, problem)
    assert sol.active
