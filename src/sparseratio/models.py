"""Constraint models for noise-aware sparse recovery.

Every model describes a feasible set {x : q(x) <= 0} with q = P1 - P2,
where P1 is smooth with Lipschitz gradient and P2 is convex and continuous:

* ``LeastSquares``:  q(x) = ||Ax - b||^2 - sigma^2                  (P2 = 0)
* ``Lorentzian``:    q(x) = sum_i log(1 + (Ax - b)_i^2 / gamma^2) - sigma
                     (P2 = 0; the log-sum is a robust loss for heavy tails)
* ``RobustCS``:      q(x) = dist^2(Ax - b, S) - sigma^2 with
                     S = {z : ||z||_0 <= r}, split as
                     P1(x) = ||Ax - b||^2 - sigma^2,
                     P2(x) = ||Ax - b||^2 - dist^2(Ax - b, S).

Each model class holds its own formulas (see ``_ModelBase``), reached by
the drivers through the hooks ``_q_of_residual``, ``_grad_p1_of_residual``
and ``_subgrad_p2_of_residual``. Its constructor checks every input and
requires q(0) > 0 (the origin must be infeasible, otherwise zero is a
trivial sparsest solution). The sensing matrix has full row rank
by construction: ``SensingMatrix`` is the one place that decides it, and
raises ValueError on a matrix without it, so every model, prox and start
point built on one may rely on it. ``SensingMatrix`` adopts a frozen
float64 matrix that owns its data as its entries, forms A A^T and takes
its Cholesky factor L with ``np.linalg.cholesky``. On a well-conditioned A
it keeps L, which settles rank and serves the least-norm start, so a run
holds the entries plus one m-by-m factor. On an ill-conditioned A, where
the Gram matrix squares too much of the condition number away, it factors
A^T = Q R by ``np.linalg.qr`` instead; that run holds the entries, the
n-by-m Q and the m-by-m R. The QR of a well-conditioned A is formed only
for the affine prox. Both factorizations are public numpy API, so the
module needs numpy only: importing scipy.linalg would load a second BLAS
and cost about 27 MiB of resident memory.

All operations are pure functions of immutable inputs and safe to share
across threads. The one cached value is the QR of ``SensingMatrix``,
formed on first use: forming it twice gives the same bits, so a race
between threads only repeats the work.
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import Union

import numpy as np

__all__ = [
    "SensingMatrix",
    "LeastSquares",
    "Lorentzian",
    "RobustCS",
    "ConstraintModel",
    "lorentzian_norm",
    "lorentzian_grad",
    "project_sparse",
    "dist_sq_sparse",
    "q_value",
    "grad_p1",
    "subgrad_p2",
    "is_feasible",
]

# relative threshold on the R diagonal of the thin QR of A^T
_RANK_RTOL = 1e-10
# The least rho (an estimate of 1/cond(A), see _well_conditioned_cholesky)
# at which A keeps the Cholesky factor L of A A^T instead of the QR of A^T.
# The semi-normal equations solved with L leave x off by about
# eps cond(A)^2 relative, and one correction step brings x to about
# eps cond(A), the QR's own accuracy, while eps cond(A)^2 << 1 (Bjorck,
# Linear Algebra Appl. 88/89, 1987). Over 14,000 column-scaled Gaussian
# draws (m <= n <= 40, column scales over up to 10 decades) cond(A) stayed
# below 184 / rho. So rho >= 1e-2 keeps cond(A) below about 2e4 (5e3 was
# the most measured) and eps cond(A)^2 below 1e-7; there x lay within
# 1.4e-13 relative of the QR's solution (7,505 draws). Draws with rho in
# [3e-4, 1e-3) missed it by up to 1.4e-12, beyond the 1e-12 the least-norm
# tests allow. The Gaussian families read rho of about 0.3. The bound
# also settles rank: L_ii = |R_ii| in exact arithmetic, and
# min L_ii >= rho max L_ii puts R's diagonal ratio eight decades above
# _RANK_RTOL.
_CHOLESKY_RTOL = 1e-2
# the least pivot L_ii^2 kept: tiny / eps, see _well_conditioned_cholesky
_MIN_PIVOT_SQ = float(np.finfo(float).tiny / np.finfo(float).eps)
# default slack on q at a feasible point, read by is_feasible and by
# drivers' SolverConfig.feas_tol, feasible_start and criticality_residual
_FEAS_TOL = 1e-10


def _as_vector(v, length: int | None, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {v.shape}")
    if length is not None and v.shape[0] != length:
        raise ValueError(f"{name} must have length {length}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def _as_number(value, integral: bool, name: str) -> int | float:
    """value as an int (integral) or a finite float; bools (an int
    subclass), strings, floats such as JSON's 7.0 for an integer, and
    non-finite reals raise ValueError."""
    if (isinstance(value, bool)
            or not isinstance(value, numbers.Integral if integral
                              else numbers.Real)
            or not (integral or math.isfinite(value))):
        wanted = "an integer" if integral else "a finite real number"
        raise ValueError(f"{name} must be {wanted}, got {value!r}")
    return int(value) if integral else float(value)


def _full_norm(v) -> float:
    """||v||_2 as max|v_i| * ||v / max|v_i|||, 0 for v = 0.

    np.linalg.norm squares the entries, so it reads 0 below a scale of
    about 1e-154 and inf above 1e154; this form holds over the whole range.
    """
    big = float(np.abs(v).max())
    return big * float(np.linalg.norm(v / big)) if big > 0.0 else 0.0


def _well_conditioned_cholesky(entries: np.ndarray) -> np.ndarray | None:
    """The frozen lower Cholesky factor L of A A^T, or None where A is too
    ill-conditioned for it, where the Gram matrix is not positive definite
    in floating point, or where a pivot is subnormal-scale.

    The test is rho >= _CHOLESKY_RTOL with rho = 1 / (max_i L_ii ||y||_inf)
    and y the solution of L y = e for the signs e_i = +-1 that LINPACK's
    condition estimator picks, each growing |y_i| as far as it can. Each
    |y_i| >= 1 / L_ii, so the test implies min L_ii >= rho max L_ii; the
    diagonal alone does not suffice: a 40-row matrix whose L_ii stay above
    half their largest has cond(A) 8e8 (tests/test_models.py). A pivot
    L_ii^2 below tiny / eps would leave the rounding of the underflowed
    products in A A^T above eps of it, so such a factor is not kept either.
    """
    # entries above about 1e154 overflow the Gram matrix; its factor then
    # fails the test below, and the QR takes A as before
    with np.errstate(over="ignore", invalid="ignore"):
        gram = entries @ entries.T
        try:
            factor = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return None
    del gram
    y = np.empty(factor.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(y.size):
            s = factor[i, :i] @ y[:i]
            y[i] = (math.copysign(1.0, -s) - s) / factor[i, i]
        growth = np.diagonal(factor).max() * np.abs(y).max()
        smallest = np.diagonal(factor).min()
    if not (growth * _CHOLESKY_RTOL <= 1.0
            and smallest * smallest >= _MIN_PIVOT_SQ):
        return None
    factor.flags.writeable = False
    return factor


class SensingMatrix:
    """Dense m-by-n sensing matrix of full row rank, with the one
    factorization a solve needs.

    The constructor forms the Gram matrix G = A A^T and its Cholesky factor
    L (m-by-m, lower triangular, G = L L^T). Where A is well conditioned
    (see _CHOLESKY_RTOL) it keeps L as ``cholesky``, and full row rank is
    settled: no QR is run. The least-norm start then solves the
    semi-normal equations A^T (L L^T)^{-1} b with one correction step,
    which is as accurate as the QR only while cond(A) is moderate.
    Elsewhere, also where the Cholesky factorization fails, ``cholesky`` is
    None and A^T is factored by its QR, which also decides rank.

    A^T = Q R is factored by ``np.linalg.qr`` and kept as ``qr``, the pair
    of the explicit n-by-m Q with orthonormal columns and the m-by-m upper
    triangular R, both row-major. On a matrix that kept L the pair is formed
    only when first read, which only the affine prox does, with the same
    bits. So an instance holds its entries plus either the m-by-m L or the
    n-by-m Q and the m-by-m R.

    The matrix must have full row rank, and the constructor is the one
    place that checks it: it raises ValueError when m > n, before
    factoring, or, on the QR path, when the smallest |R_ii| is not above
    _RANK_RTOL times the largest. A matrix that keeps L passes that test
    by a wide margin (see _CHOLESKY_RTOL), so both paths accept and reject
    the same matrices.

    Entries and factors are frozen. A read-only float64 array that owns
    its data is adopted as ``entries`` without a copy. Any other input, a
    writeable array or a view included, is copied first, so writing into
    it later leaves the matrix unchanged. A caller that hands an array
    over must not re-enable writes on it, nor write through a writeable
    view of it taken before it was frozen.
    """

    __slots__ = ("entries", "m", "n", "cholesky", "_qr")

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=float)
        # adopt a frozen array that owns its data; copy anything a caller
        # could still write to, through the array itself or through its base
        if entries.flags.writeable or entries.base is not None:
            entries = np.array(entries)
        if entries.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {entries.shape}")
        if entries.size == 0:
            raise ValueError("matrix must be nonempty")
        if not np.all(np.isfinite(entries)):
            raise ValueError("matrix entries must be finite")
        self.m, self.n = entries.shape
        if self.m > self.n:
            raise ValueError("sensing matrix must have full row rank")
        entries.flags.writeable = False
        self.entries = entries
        self._qr = None
        self.cholesky = _well_conditioned_cholesky(entries)
        if self.cholesky is None:
            diag = np.abs(np.diagonal(self.qr[1]))
            if not diag.min() > _RANK_RTOL * diag.max():
                raise ValueError("sensing matrix must have full row rank")

    @property
    def qr(self) -> tuple[np.ndarray, np.ndarray]:
        """(Q, R) of A^T = Q R, factored on first use, then cached."""
        if self._qr is None:
            q, r = np.linalg.qr(self.entries.T)
            q.flags.writeable = False
            r.flags.writeable = False
            self._qr = (q, r)
        return self._qr

    def __repr__(self) -> str:
        return f"SensingMatrix(m={self.m}, n={self.n})"


def lorentzian_norm(y, gamma: float) -> float:
    """sum_i log(1 + y_i^2 / gamma^2); zero iff y = 0. Not a true norm."""
    if not gamma > 0:  # a NaN gamma fails too
        raise ValueError("gamma must be positive")
    return _lorentzian_log_sum(np.asarray(y, dtype=float), gamma)


def lorentzian_grad(y, gamma: float) -> np.ndarray:
    """Gradient of lorentzian_norm: component i is 2 y_i / (gamma^2 + y_i^2)."""
    if not gamma > 0:  # a NaN gamma fails too
        raise ValueError("gamma must be positive")
    return _lorentzian_grad(np.asarray(y, dtype=float), gamma)


# The unchecked forms of the two functions above, for a float64 array y and
# a gamma > 0 already checked (Lorentzian checks it once, at construction).
# Each applies the same ufuncs in the same order, with fewer temporaries.

def _lorentzian_log_sum(y: np.ndarray, gamma: float) -> float:
    t = y / gamma
    t *= t
    return float(np.log1p(t).sum())


def _lorentzian_grad(y: np.ndarray, gamma: float) -> np.ndarray:
    den = y * y
    den += gamma * gamma
    g = 2.0 * y
    g /= den
    return g


def _sparse_keep(y: np.ndarray, r: int) -> np.ndarray:
    """Indices of the r largest |y_i|; magnitude ties keep the lowest index.

    These are the entries every sparse projection below keeps.
    """
    r = operator.index(r)
    if r < 0 or r > y.size:
        raise ValueError(f"r must be in [0, {y.size}], got {r}")
    return np.argsort(-np.abs(y), kind="stable")[:r]


def project_sparse(y, r: int) -> np.ndarray:
    """One nearest point to y in {z : ||z||_0 <= r}.

    Keeps the r largest-magnitude entries; magnitude ties are broken by
    keeping the lowest index so the output is deterministic.
    """
    y = np.asarray(y, dtype=float)
    keep = _sparse_keep(y, r)
    out = np.zeros_like(y)
    out[keep] = y[keep]
    return out


def dist_sq_sparse(y, r: int) -> float:
    """Squared distance from y to {z : ||z||_0 <= r}."""
    y = np.asarray(y, dtype=float)
    # y - project_sparse(y, r) entry for entry
    resid = y.copy()
    resid[_sparse_keep(y, r)] = 0.0
    return float(resid @ resid)


class _ModelBase:
    """A, b, sigma, the one constructor and repr, and P2 = 0.

    A subclass lists the fields it adds in ``__slots__``, in constructor
    order, each annotated with its type. sigma and the fields are read by
    _as_number (bools, strings, lists, non-finite values and floats for an
    int raise ValueError); a float must be positive, an int (a count of
    residual entries) lie in [0, m]. Each subclass holds its formulas of
    the unchecked residual res = Ax - b, ``_q``, ``_grad_p1`` and, where
    P2 is not 0, ``_subgrad_p2``; its ``curvature`` c, with
    P1(x + d) - P1(x) - <grad P1(x), d> <= c ||A d||^2 (half the largest
    second derivative of one residual term of P1); and the ``variant``
    name of instance files.
    """

    __slots__ = ("A", "b", "sigma")
    # q = P1 where P2 = 0, and the drivers neither form nor subtract the
    # zero subgradient
    p2_is_zero = True

    def __init__(self, A, b, sigma: float, *fields):
        if not isinstance(A, SensingMatrix):
            A = SensingMatrix(A)
        b = _as_vector(b, A.m, "b").copy()
        b.flags.writeable = False
        self.A = A
        self.b = b
        for name, value in zip(("sigma", *self.__slots__), (sigma, *fields)):
            integral = type(self).__annotations__.get(name) == "int"
            value = _as_number(value, integral, name)
            if integral and not 0 <= value <= A.m:
                raise ValueError(f"{name} must be in [0, {A.m}], got {value}")
            if not (integral or value > 0):
                raise ValueError(f"{name} must be positive")
            setattr(self, name, value)
        q0 = self._q(-b)
        if not q0 > 0:  # a NaN q(0) fails too
            raise ValueError(
                f"the origin must be strictly infeasible, got q(0) = {q0!r}: "
                "the noise budget sigma is too large for this b, or b and "
                "sigma overflow q"
            )

    def _subgrad_p2(self, res: np.ndarray) -> np.ndarray:
        return np.zeros(self.A.n)

    def __repr__(self) -> str:
        fields = "".join(f", {name}={getattr(self, name)!r}"
                         for name in ("sigma", *self.__slots__))
        return f"{type(self).__name__}(m={self.A.m}, n={self.A.n}{fields})"


class LeastSquares(_ModelBase):
    """Feasible set ||Ax - b||^2 <= sigma^2. Requires ||b|| > sigma."""

    __slots__ = ()
    variant = "least_squares"
    # exact: the gap of ||Ax - b||^2 is ||A d||^2
    curvature = 1.0

    def __init__(self, A, b, sigma: float):
        super().__init__(A, b, sigma)

    def _q(self, res: np.ndarray) -> float:
        return float(res @ res - self.sigma * self.sigma)

    def _grad_p1(self, res: np.ndarray) -> np.ndarray:
        g = self.A.entries.T @ res
        g *= 2.0
        return g


class Lorentzian(_ModelBase):
    """Feasible set lorentzian_norm(Ax - b, gamma) <= sigma."""

    __slots__ = ("gamma",)
    gamma: float
    variant = "lorentzian"

    def __init__(self, A, b, sigma: float, gamma: float):
        super().__init__(A, b, sigma, gamma)

    @property
    def curvature(self) -> float:
        # each log-sum term curves at most 2/gamma^2, at zero residual
        return 1.0 / (self.gamma * self.gamma)

    def _q(self, res: np.ndarray) -> float:
        return _lorentzian_log_sum(res, self.gamma) - self.sigma

    def _grad_p1(self, res: np.ndarray) -> np.ndarray:
        return self.A.entries.T @ _lorentzian_grad(res, self.gamma)


class RobustCS(_ModelBase):
    """Feasible set dist^2(Ax - b, S) <= sigma^2 with S the r-sparse vectors.

    The r budget absorbs up to r arbitrarily large residual entries
    (outliers); the remaining residual must fit in the sigma budget.
    """

    __slots__ = ("r",)
    r: int
    variant = "robust_cs"
    p2_is_zero = False
    # P1 and its gradient are LeastSquares' (no subclassing, so isinstance
    # keeps the models apart)
    curvature = 1.0
    _grad_p1 = LeastSquares._grad_p1

    def __init__(self, A, b, sigma: float, r: int):
        super().__init__(A, b, sigma, r)

    def _q(self, res: np.ndarray) -> float:
        return dist_sq_sparse(res, self.r) - self.sigma * self.sigma

    def _subgrad_p2(self, res: np.ndarray) -> np.ndarray:
        """2 A^T P_S(res): P2(x) = max over r-sparse z of
        2<z, Ax - b> - ||z||^2 is attained at any sparse projection of the
        residual, so this is a subgradient by the max-formula, made
        reproducible by the projection's tie-break. P_S(res) has at most r
        nonzeros, so only those rows of A enter."""
        keep = _sparse_keep(res, self.r)
        return 2.0 * (res[keep] @ self.A.entries[keep])


ConstraintModel = Union[LeastSquares, Lorentzian, RobustCS]


def _residual(model: ConstraintModel, x: np.ndarray) -> np.ndarray:
    res = model.A.entries @ x
    res -= model.b
    return res


# Residual-space hooks, one dispatch each. The drivers call these to avoid
# recomputing A x - b for every quantity at the same iterate, and only
# through these names.

def _q_of_residual(model: ConstraintModel, res: np.ndarray) -> float:
    return model._q(res)


def _grad_p1_of_residual(model: ConstraintModel, res: np.ndarray) -> np.ndarray:
    return model._grad_p1(res)


def _subgrad_p2_of_residual(model: ConstraintModel, res: np.ndarray) -> np.ndarray:
    return model._subgrad_p2(res)


def q_value(model: ConstraintModel, x) -> float:
    """Constraint value q(x); the point x is feasible iff q(x) <= 0."""
    x = _as_vector(x, model.A.n, "x")
    return _q_of_residual(model, _residual(model, x))


def grad_p1(model: ConstraintModel, x) -> np.ndarray:
    """Gradient of the smooth part P1 at x."""
    x = _as_vector(x, model.A.n, "x")
    return _grad_p1_of_residual(model, _residual(model, x))


def subgrad_p2(model: ConstraintModel, x) -> np.ndarray:
    """One subgradient of the convex part P2 at x (zero where P2 = 0)."""
    x = _as_vector(x, model.A.n, "x")
    return _subgrad_p2_of_residual(model, _residual(model, x))


def is_feasible(model: ConstraintModel, x, tol: float = _FEAS_TOL) -> bool:
    """True iff q(x) <= tol. Boundary points (q = tol) count as feasible."""
    if not tol >= 0:  # a NaN tol fails too
        raise ValueError("tol must be nonnegative")
    return q_value(model, x) <= tol
