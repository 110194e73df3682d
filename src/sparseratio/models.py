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

All constructors require q(0) > 0 (the origin must be infeasible, otherwise
zero is a trivial sparsest solution) and a full-row-rank sensing matrix.
All operations are pure functions of immutable inputs and safe to share
across threads.
"""

from __future__ import annotations

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


def _as_vector(v, length: int | None, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {v.shape}")
    if length is not None and v.shape[0] != length:
        raise ValueError(f"{name} must have length {length}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def _full_norm(v) -> float:
    """||v||_2 as max|v_i| * ||v / max|v_i|||, 0 for v = 0.

    np.linalg.norm squares the entries, so it reads 0 below a scale of
    about 1e-154 and inf above 1e154; this form holds over the whole range.
    """
    big = float(np.abs(v).max())
    return big * float(np.linalg.norm(v / big)) if big > 0.0 else 0.0


class SensingMatrix:
    """Dense m-by-n sensing matrix with a cached thin QR of its transpose.

    The factorization A^T = Q R (Q: n-by-m with orthonormal columns, R:
    m-by-m upper triangular) is computed once at construction and backs the
    least-norm solves and affine projections downstream. Entries are frozen.
    """

    __slots__ = ("entries", "m", "n", "q", "r", "_diag_min", "_diag_max")

    def __init__(self, entries):
        entries = np.array(entries, dtype=float)
        if entries.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {entries.shape}")
        if entries.size == 0:
            raise ValueError("matrix must be nonempty")
        if not np.all(np.isfinite(entries)):
            raise ValueError("matrix entries must be finite")
        self.m, self.n = entries.shape
        q, r = np.linalg.qr(entries.T)
        diag = np.abs(np.diag(r))
        self._diag_min = float(diag.min())
        self._diag_max = float(diag.max())
        for arr in (entries, q, r):
            arr.flags.writeable = False
        self.entries = entries
        self.q = q
        self.r = r

    @property
    def has_full_row_rank(self) -> bool:
        # the diagonal test certifies rank only when the factor is square
        return self.m <= self.n and self._diag_min > _RANK_RTOL * self._diag_max

    def __repr__(self) -> str:
        return f"SensingMatrix(m={self.m}, n={self.n})"


def lorentzian_norm(y, gamma: float) -> float:
    """sum_i log(1 + y_i^2 / gamma^2); zero iff y = 0. Not a true norm."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    y = np.asarray(y, dtype=float)
    return float(np.log1p((y / gamma) ** 2).sum())


def lorentzian_grad(y, gamma: float) -> np.ndarray:
    """Gradient of lorentzian_norm: component i is 2 y_i / (gamma^2 + y_i^2)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    y = np.asarray(y, dtype=float)
    return 2.0 * y / (gamma * gamma + y * y)


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
    __slots__ = ("A", "b", "sigma")

    def __init__(self, A, b, sigma: float):
        if not isinstance(A, SensingMatrix):
            A = SensingMatrix(A)
        if not A.has_full_row_rank:
            raise ValueError("sensing matrix must have full row rank")
        b = _as_vector(b, A.m, "b")
        sigma = float(sigma)
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        b = b.copy()
        b.flags.writeable = False
        self.A = A
        self.b = b
        self.sigma = sigma

    def _require_origin_infeasible(self):
        if q_value(self, np.zeros(self.A.n)) <= 0:
            raise ValueError(
                "the origin must be strictly infeasible: the noise budget "
                "sigma is too large for this b"
            )


class LeastSquares(_ModelBase):
    """Feasible set ||Ax - b||^2 <= sigma^2. Requires ||b|| > sigma."""

    __slots__ = ()

    def __init__(self, A, b, sigma: float):
        super().__init__(A, b, sigma)
        self._require_origin_infeasible()

    def __repr__(self) -> str:
        return f"LeastSquares(m={self.A.m}, n={self.A.n}, sigma={self.sigma!r})"


class Lorentzian(_ModelBase):
    """Feasible set lorentzian_norm(Ax - b, gamma) <= sigma."""

    __slots__ = ("gamma",)

    def __init__(self, A, b, sigma: float, gamma: float):
        super().__init__(A, b, sigma)
        gamma = float(gamma)
        if not gamma > 0:
            raise ValueError("gamma must be positive")
        self.gamma = gamma
        self._require_origin_infeasible()

    def __repr__(self) -> str:
        return (f"Lorentzian(m={self.A.m}, n={self.A.n}, "
                f"sigma={self.sigma!r}, gamma={self.gamma!r})")


class RobustCS(_ModelBase):
    """Feasible set dist^2(Ax - b, S) <= sigma^2 with S the r-sparse vectors.

    The r budget absorbs up to r arbitrarily large residual entries
    (outliers); the remaining residual must fit in the sigma budget.
    """

    __slots__ = ("r",)

    def __init__(self, A, b, sigma: float, r: int):
        super().__init__(A, b, sigma)
        r = operator.index(r)
        if r < 0 or r > self.A.m:
            raise ValueError(f"r must be in [0, {self.A.m}], got {r}")
        self.r = r
        self._require_origin_infeasible()

    def __repr__(self) -> str:
        return (f"RobustCS(m={self.A.m}, n={self.A.n}, "
                f"sigma={self.sigma!r}, r={self.r})")


ConstraintModel = Union[LeastSquares, Lorentzian, RobustCS]


def _check_x(model: ConstraintModel, x) -> np.ndarray:
    return _as_vector(x, model.A.n, "x")


def _residual(model: ConstraintModel, x: np.ndarray) -> np.ndarray:
    return model.A.entries @ x - model.b


# Residual-space helpers. The drivers call these to avoid recomputing
# A x - b for every quantity at the same iterate.

def _q_of_residual(model: ConstraintModel, res: np.ndarray) -> float:
    if isinstance(model, LeastSquares):
        return float(res @ res - model.sigma * model.sigma)
    if isinstance(model, Lorentzian):
        return lorentzian_norm(res, model.gamma) - model.sigma
    if isinstance(model, RobustCS):
        return dist_sq_sparse(res, model.r) - model.sigma * model.sigma
    raise TypeError(f"unknown constraint model {type(model).__name__}")


def _grad_p1_of_residual(model: ConstraintModel, res: np.ndarray) -> np.ndarray:
    if isinstance(model, (LeastSquares, RobustCS)):
        return 2.0 * (model.A.entries.T @ res)
    if isinstance(model, Lorentzian):
        return model.A.entries.T @ lorentzian_grad(res, model.gamma)
    raise TypeError(f"unknown constraint model {type(model).__name__}")


def _subgrad_p2_of_residual(model: ConstraintModel, res: np.ndarray) -> np.ndarray:
    if isinstance(model, RobustCS):
        # P_S(res) has at most r nonzeros, so only those rows of A enter
        keep = _sparse_keep(res, model.r)
        return 2.0 * (res[keep] @ model.A.entries[keep])
    if isinstance(model, (LeastSquares, Lorentzian)):
        return np.zeros(model.A.n)
    raise TypeError(f"unknown constraint model {type(model).__name__}")


def q_value(model: ConstraintModel, x) -> float:
    """Constraint value q(x); the point x is feasible iff q(x) <= 0."""
    x = _check_x(model, x)
    return _q_of_residual(model, _residual(model, x))


def grad_p1(model: ConstraintModel, x) -> np.ndarray:
    """Gradient of the smooth part P1 at x.

    LeastSquares and RobustCS share P1(x) = ||Ax - b||^2 - sigma^2 with
    gradient 2 A^T (Ax - b); Lorentzian chains the log-sum derivative
    through A.
    """
    x = _check_x(model, x)
    return _grad_p1_of_residual(model, _residual(model, x))


def subgrad_p2(model: ConstraintModel, x) -> np.ndarray:
    """One subgradient of the convex part P2 at x.

    Zero for LeastSquares and Lorentzian (P2 = 0 there). For RobustCS,
    P2(x) = max over r-sparse z of (2<z, Ax-b> - ||z||^2), attained at any
    sparse projection of the residual, so 2 A^T proj(Ax - b) is a valid
    subgradient by the max-formula. The projection's deterministic
    tie-break makes the returned element reproducible.
    """
    x = _check_x(model, x)
    return _subgrad_p2_of_residual(model, _residual(model, x))


def is_feasible(model: ConstraintModel, x, tol: float = 1e-10) -> bool:
    """True iff q(x) <= tol. Boundary points (q = tol) count as feasible."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return q_value(model, x) <= tol
