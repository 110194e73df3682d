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
zero is a trivial sparsest solution). The sensing matrix has full row rank
by construction: ``SensingMatrix`` is the one place that decides it, and
raises ValueError on a matrix without it, so every model, prox and start
point built on one may rely on it. ``SensingMatrix`` factors A^T with one
call to LAPACK's dgeqrf, which writes the Householder reflectors into the
one copy it makes of A^T, with R in its upper triangle. It adopts a frozen
float64 matrix that owns its data as its entries, so a run holds two
matrix-sized arrays, the entries and the reflectors, and no copy of R.

The factorization calls dgeqrf and dorgqr through
``numpy.linalg.lapack_lite``, numpy's wrapper of the LAPACK it ships with,
so the module needs numpy only: importing scipy.linalg would load a second
BLAS and cost about 27 MiB of resident memory. numpy types lapack_lite in
its stubs but counts it as private, not public, API.

All operations are pure functions of immutable inputs and safe to share
across threads. The one cached value is ``SensingMatrix.q``, formed on
first use: forming it twice gives the same bits, so a race between threads
only repeats the work.
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import Union

import numpy as np
from numpy.linalg import lapack_lite

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


def _at_optimal_workspace(routine, *args) -> None:
    """Call a lapack_lite routine whose last arguments are (work, lwork,
    info) at the workspace its lwork = -1 query returns; RuntimeError if
    LAPACK reports a nonzero info."""
    work = np.empty(1)
    info = routine(*args, work, -1, 0)["info"]
    if info == 0:
        work = np.empty(int(work[0]))
        info = routine(*args, work, work.size, 0)["info"]
    if info != 0:
        raise RuntimeError(f"{routine.__name__} failed with info = {info}")


class SensingMatrix:
    """Dense m-by-n sensing matrix of full row rank, with a cached QR
    factorization of A^T.

    A^T = Q R is factored once at construction by one call to LAPACK's
    dgeqrf at its optimal workspace, as np.linalg.qr calls it, and kept in
    its compact form: ``reflectors`` (n-by-m, column-major, the copy of
    A^T that dgeqrf overwrites) holds the Householder vectors below its
    diagonal and R (m-by-m, upper triangular) on and above it, and ``tau``
    their m scalar factors. Those two and the entries are all an instance
    holds; the least-norm solve reads R in place. ``apply_q`` multiplies
    one vector by Q, applying the reflectors in numpy. The explicit n-by-m
    Q with orthonormal columns is formed by dorgqr only when ``q`` is first
    read, which only the affine prox does.

    The matrix must have full row rank, and the constructor is the one
    place that checks it: it raises ValueError when m > n, before
    factoring, or when the smallest |R_ii| is not above _RANK_RTOL times
    the largest.

    Entries and factors are frozen. A read-only float64 array that owns
    its data is adopted as ``entries`` without a copy. Any other input, a
    writeable array or a view included, is copied first, so writing into
    it later leaves the matrix unchanged. A caller that hands an array
    over must not re-enable writes on it, nor write through a writeable
    view of it taken before it was frozen.
    """

    __slots__ = ("entries", "m", "n", "reflectors", "tau", "_q")

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
        # a row-major copy of A is A^T in column-major storage: dgeqrf
        # overwrites that one copy with the reflectors. The optimal
        # (blocked) workspace, which np.linalg.qr also queries, gives its
        # bits; the default one differs from them in the last bits.
        at = np.array(entries, order="C")
        tau = np.empty(self.m)
        _at_optimal_workspace(lapack_lite.dgeqrf, self.n, self.m, at, self.n,
                              tau)
        diag = np.abs(np.diagonal(at.T))
        if not diag.min() > _RANK_RTOL * diag.max():
            raise ValueError("sensing matrix must have full row rank")
        for arr in (entries, at, tau):
            arr.flags.writeable = False
        self.entries = entries
        self.reflectors = at.T
        self.tau = tau
        self._q = None

    @property
    def q(self) -> np.ndarray:
        """The explicit Q of A^T = Q R, formed from the reflectors by dorgqr
        on first use, then cached. dorgqr runs at its optimal (blocked)
        workspace, the faster path and the one that reproduces
        np.linalg.qr's Q bit for bit; the minimal workspace differs from it
        in the last bits."""
        if self._q is None:
            # the transposed copy of the reflectors is column-major n-by-m
            # storage, which dorgqr overwrites with Q
            qt = np.array(self.reflectors.T, order="C")
            _at_optimal_workspace(lapack_lite.dorgqr, self.n, self.m, self.m,
                                  qt, self.n, self.tau)
            # row-major, so the affine prox's row selections stay contiguous
            q = np.ascontiguousarray(qt.T)
            q.flags.writeable = False
            self._q = q
        return self._q

    def apply_q(self, y) -> np.ndarray:
        """Q y for a vector y of length m; the explicit Q is not formed.

        Q = H_0 H_1 ... H_{m-1} with H_i = I - tau_i v_i v_i^T, where v_i is
        1 at row i, column i of ``reflectors`` below it and 0 above, so the
        m reflectors are applied last to first to y padded with zeros to
        length n. Each touches only rows i and below.
        """
        x = np.zeros(self.n)
        x[:self.m] = y
        for i in range(self.m - 1, -1, -1):
            v = self.reflectors[i + 1:, i]
            xi = x[i:]
            step = self.tau[i] * (xi[0] + v @ xi[1:])
            xi[0] -= step
            xi[1:] -= step * v
        return x

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
        q0 = q_value(self, np.zeros(self.A.n))
        if not q0 > 0:  # a NaN q(0) fails too
            raise ValueError(
                f"the origin must be strictly infeasible, got q(0) = {q0!r}: "
                "the noise budget sigma is too large for this b, or b and "
                "sigma overflow q"
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


def _p1_curvature(model: ConstraintModel) -> float:
    """The c with P1(x + d) - P1(x) - <grad P1(x), d> <= c ||A d||^2.

    P1 is a sum over residual entries, so the bound is half the largest
    second derivative of one term: 1 for ||Ax - b||^2 (exact there), and
    1/gamma^2 for the Lorentzian log-sum, whose terms curve at most
    2/gamma^2, at zero residual.
    """
    if isinstance(model, (LeastSquares, RobustCS)):
        return 1.0
    if isinstance(model, Lorentzian):
        return 1.0 / (model.gamma * model.gamma)
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


def is_feasible(model: ConstraintModel, x, tol: float = _FEAS_TOL) -> bool:
    """True iff q(x) <= tol. Boundary points (q = tol) count as feasible."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return q_value(model, x) <= tol
