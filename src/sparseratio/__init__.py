"""Sparse recovery by minimizing the l1/l2 norm ratio.

Solvers for the noiseless equality-constrained problem and for three noisy
constraint families (least squares, Lorentzian, sparse-outlier robust),
plus seeded benchmark instance generators and a CLI harness.
"""

from .models import (
    ConstraintModel,
    LeastSquares,
    Lorentzian,
    RobustCS,
    SensingMatrix,
    dist_sq_sparse,
    grad_p1,
    is_feasible,
    lorentzian_grad,
    lorentzian_norm,
    project_sparse,
    q_value,
    subgrad_p2,
)
from .subsolvers import (
    BallProxProblem,
    BallProxSolution,
    SubsolverError,
    least_norm_solution,
    prox_l1_affine,
    prox_l1_ball,
    soft_threshold,
)
from .drivers import (
    OBJECTIVE_PLAIN_L1,
    OBJECTIVE_RATIO,
    STATUS_CONVERGED,
    STATUS_MAX_ITERS,
    STATUS_SUBSOLVER_FAILURE,
    InfeasibleStartError,
    InnerLoopError,
    IterateTrace,
    RunResult,
    SolverConfig,
    bb_init_step,
    criticality_residual,
    feasible_start,
    run_algorithm1,
    run_mba,
)
from .instances import (
    GenSpec,
    ProblemInstance,
    generate,
    load_instance,
    load_result,
    rec_err,
    save_instance,
    save_result,
)
from .cli import (
    PIPELINES,
    BenchPlan,
    BenchReport,
    PipelineResult,
    main,
    run_bench_plan,
    run_pipeline,
)

__version__ = "0.1.0"
