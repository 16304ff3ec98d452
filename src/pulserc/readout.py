"""Linear readout layer: ridge training, prediction, and eval metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scipy import _flapack
from .errors import DegenerateVarianceError, DimensionError, ParameterError, SingularSystemError

dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs


@dataclass(frozen=True)
class ReadoutWeights:
    """Trained output weights (bias weight included) and the ridge
    strength they were fitted with."""

    weights: np.ndarray
    ridge_lambda: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1:
            raise ParameterError("weights must be a 1-d vector")
        if not np.all(np.isfinite(w)):
            raise ParameterError("weights must be finite")


@dataclass(frozen=True)
class EvalReport:
    pearson: float
    nrmse: float
    n_samples: int


_STRIP = 64  # rows of the Gram whose factor operands one step rebuilds
_STRICT_LOWER = np.tri(_STRIP, k=-1, dtype=bool)


class NormalEquations:
    """``R.T @ R`` of one state matrix, and ``R.T @ y`` of each target as
    one row of ``rhs``.

    Formed once by :func:`normal_equations`, which hands over the Gram.
    Each ridge strength costs one Cholesky factor, which solves for every
    target, so a lambda grid or several targets of one state matrix share
    one Gram. A strength is factored on its first solve, and its factor is
    kept until a solve at another one. Each factor is formed in the Gram's
    own storage, so a fit holds one (V+1)² array: the factor overwrites the
    lower triangle, and the strict upper one and a copy of the diagonal
    keep the Gram.
    """

    def __init__(self, gram: np.ndarray, rhs: np.ndarray, n_rows: int) -> None:
        self._a, self._diagonal = gram, gram.diagonal().copy()
        self.rhs, self.n_rows, self._lambda = rhs, n_rows, None

    @property
    def gram(self) -> np.ndarray:
        """The Gram, exactly: a new array, rebuilt from what no factor overwrites."""
        g = np.where(np.tri(len(self._a), k=-1, dtype=bool), self._a.T, self._a)
        np.fill_diagonal(g, self._diagonal)
        return g

    def solve(self, ridge_lambda: float, target: int = 0) -> ReadoutWeights:
        """Solve ``(R.T R + lambda I) w = R.T y`` for row ``target`` of
        ``rhs``, on its own: a multi-column solve need not give the same
        bits. With ``ridge_lambda = 0`` the state matrix must have full
        column rank."""
        a, n_cols = self._a, len(self._a)
        if ridge_lambda != self._lambda:
            if not (math.isfinite(ridge_lambda) and ridge_lambda >= 0.0):
                raise ParameterError(f"ridge_lambda must be >= 0, got {ridge_lambda!r}")
            if ridge_lambda == 0.0 and self.n_rows < n_cols:
                raise SingularSystemError(
                    f"{self.n_rows} rows cannot determine {n_cols} weights; "
                    "set ridge_lambda > 0")
            self._lambda = None  # a failed factor is tried again by the next solve
            # the operands of ``gram + lambda * eye`` (+ 0.0 off the diagonal)
            # where potrf reads them, in the lower triangle: ``r.T @ r`` is
            # exactly symmetric, so they mirror the upper one. Strip by strip,
            # so that NumPy buffers a diagonal block, not a transposed triangle
            for j in range(0, n_cols, _STRIP):
                k = min(_STRIP, n_cols - j)
                np.add(a[:j, j:j + k].T, 0.0, out=a[j:j + k, :j])
                block = a[j:j + k, j:j + k]
                np.add(block.T, 0.0, out=block, where=_STRICT_LOWER[:k, :k])
            a.flat[:: n_cols + 1] = self._diagonal + 0.0 + ridge_lambda
            # the calls cho_factor(a, overwrite_a=True) and cho_solve make
            self._factor, info = dpotrf(a.T, lower=0, clean=0, overwrite_a=1)
            if info > 0:
                raise SingularSystemError(
                    "normal equations are singular; set ridge_lambda > 0 "
                    f"(currently {ridge_lambda!r})")
            self._lambda = ridge_lambda
        return ReadoutWeights(dpotrs(self._factor, self.rhs[target], lower=0)[0],
                              float(ridge_lambda))


def normal_equations(states: np.ndarray, targets: np.ndarray) -> NormalEquations:
    """Check a state matrix against its targets, one vector or a 2-d stack
    of one target per row, and form the normal equations of the ridge fit
    between them: one Gram, and ``R.T @ y`` for each target on its own."""
    r = np.asarray(states, dtype=float)
    ys = np.atleast_2d(np.asarray(targets, dtype=float))
    if r.ndim != 2:
        raise DimensionError(f"states must be 2-d, got shape {r.shape}")
    if r.shape[0] != ys.shape[1]:
        raise DimensionError(
            f"states have {r.shape[0]} rows but targets have {ys.shape[1]} entries")
    # an overflow is not a warning here: it is the ParameterError below
    with np.errstate(over="ignore", invalid="ignore"):
        gram = r.T @ r
        rhs = np.stack([r.T @ row for row in ys])
    # a non-finite state or target reaches the Gram's diagonal or R.T @ y,
    # and so their max or min: NaN propagates, +-inf is the max or the min
    if not all(map(math.isfinite, (gram.max(), gram.min(), rhs.max(), rhs.min()))):
        raise ParameterError(
            "normal equations are not finite: states and targets must be finite")
    return NormalEquations(gram, rhs, r.shape[0])


def fit_ridge(states: np.ndarray, targets: np.ndarray,
              ridge_lambda: float = 1e-6) -> ReadoutWeights:
    """Solve ``min_w ||R w - y||^2 + lambda ||w||^2``.

    Uses the regularized normal equations with a Cholesky factorization;
    every column, the bias one included, is penalized alike. With
    ``ridge_lambda = 0`` the state matrix must have full column rank.
    """
    return normal_equations(states, np.ravel(targets)).solve(ridge_lambda)


def predict(states: np.ndarray, w: ReadoutWeights) -> np.ndarray:
    """Apply the readout: one predicted value per state row.

    A single 1-d state vector yields a scalar.
    """
    r = np.asarray(states, dtype=float)
    single = r.ndim == 1
    r = np.atleast_2d(r)
    if r.shape[1] != w.weights.size:
        raise DimensionError(
            f"states have {r.shape[1]} columns but readout has "
            f"{w.weights.size} weights")
    out = r @ w.weights
    return float(out[0]) if single else out


def pearson(y: np.ndarray, yhat: np.ndarray) -> float:
    """Sample Pearson correlation between two equal-length sequences."""
    a, b = _paired(y, yhat)
    a = a - a.mean()
    b = b - b.mean()
    va = float(a @ a)
    vb = float(b @ b)
    if va == 0.0 or vb == 0.0:
        raise DegenerateVarianceError("pearson is undefined for a constant sequence")
    r = float(a @ b) / math.sqrt(va * vb)
    # guard against rounding spilling just outside [-1, 1]
    return max(-1.0, min(1.0, r))


def nrmse(y: np.ndarray, yhat: np.ndarray) -> float:
    """Root mean squared error normalized by the target's standard
    deviation, so predicting the target mean scores exactly 1."""
    a, b = _paired(y, yhat)
    sd = float(a.std())
    if sd == 0.0:
        raise DegenerateVarianceError("nrmse is undefined for a constant target")
    return math.sqrt(float(np.mean((a - b) ** 2))) / sd


def evaluate(y: np.ndarray, yhat: np.ndarray) -> EvalReport:
    """Both benchmark metrics over one target/prediction pair."""
    a, _ = _paired(y, yhat)
    return EvalReport(pearson=pearson(y, yhat), nrmse=nrmse(y, yhat),
                      n_samples=int(a.size))


def _paired(y, yhat) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(y, dtype=float).ravel()
    b = np.asarray(yhat, dtype=float).ravel()
    if a.size != b.size:
        raise DimensionError(f"sequence lengths differ: {a.size} vs {b.size}")
    if a.size < 2:
        raise DimensionError("need at least 2 samples")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ParameterError("sequences must be finite")
    return a, b
