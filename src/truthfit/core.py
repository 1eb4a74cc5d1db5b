"""Data sets, hyperplanes, residuals, and order-statistic primitives.

Every mechanism in this package maps a data set of n agents, each
contributing a point (x_i, y_i) with public x_i in R^d and private
y_i in R, to a hyperplane y = beta1 . x + beta0.  Medians here are
always order statistics of finite multisets: for an even count the
caller chooses the lower ("left") or upper ("right") middle element,
so no averaging ever happens and outputs stay inside the input set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ContractViolation

#: A batched solve is chunked so that one pass forms at most this many
#: float64 cells in one array (8 MB), and never less than one row.
BLOCK_CELLS = 1 << 20


class MedianSide(Enum):
    """Which middle element an even-length median selects."""

    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class DataSet:
    """n agents with public positions xs (n x d) and reported values ys (n,).

    d = 0 is allowed and means every agent sits at the empty position, so
    hyperplanes degenerate to constants.  All entries must be finite.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.xs, dtype=float))
        ys = np.asarray(self.ys, dtype=float).ravel()
        if xs.size == 0:
            # Accept [] / [[]]*n for d = 0 data.
            xs = np.zeros((len(ys), 0))
        if xs.ndim != 2:
            raise ContractViolation("xs must be a 2-d array of agent positions")
        if xs.shape[0] != ys.shape[0]:
            raise ContractViolation(
                f"xs has {xs.shape[0]} rows but ys has {ys.shape[0]} entries"
            )
        if ys.shape[0] == 0:
            raise ContractViolation("a data set needs at least one agent")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ContractViolation("data coordinates must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def d(self) -> int:
        return self.xs.shape[1]

    def xbar(self) -> np.ndarray:
        """Design matrix with a trailing column of ones, shape (n, d+1)."""
        return np.hstack([self.xs, np.ones((self.n, 1))])

    def with_reports(self, reports: dict[int, float]) -> "DataSet":
        """Copy of the data set where the given agents report new values."""
        ys = self.ys.copy()
        for idx, value in reports.items():
            if not 0 <= idx < self.n:
                raise ContractViolation(f"agent index {idx} out of range")
            ys[idx] = float(value)
        return DataSet(self.xs, ys)

    def is_admissible(self) -> bool:
        """True when all x_i are pairwise distinct (exact comparison, so
        0.0 equals -0.0); with d = 0 every agent sits at the empty position."""
        if self.d == 0:
            return self.n <= 1
        rows = self.xs[np.lexsort(self.xs.T[::-1])]
        return not np.any(np.all(rows[1:] == rows[:-1], axis=1))


@dataclass(frozen=True)
class Hyperplane:
    """y = beta1 . x + beta0 with finite coefficients; beta1 has length d."""

    beta1: np.ndarray
    beta0: float

    def __post_init__(self):
        beta1 = np.asarray(self.beta1, dtype=float).ravel()
        beta0 = float(self.beta0)
        if not (np.isfinite(beta1).all() and math.isfinite(beta0)):
            raise ContractViolation("hyperplane coefficients must be finite")
        object.__setattr__(self, "beta1", beta1)
        object.__setattr__(self, "beta0", beta0)

    @property
    def d(self) -> int:
        return self.beta1.shape[0]

    def coefficients(self) -> np.ndarray:
        """(beta1, beta0) stacked into one vector of length d+1."""
        return np.append(self.beta1, self.beta0)

    def close_to(self, other: "Hyperplane", tol: float = 1e-9) -> bool:
        if self.d != other.d:
            return False
        return bool(np.max(np.abs(self.coefficients() - other.coefficients())) <= tol)


@dataclass(frozen=True)
class OutcomeRecord:
    """Predictions and residuals of one hyperplane on one data set."""

    predictions: np.ndarray
    residuals: np.ndarray  # residual_i = y_i - prediction_i

    def __post_init__(self):
        object.__setattr__(self, "predictions", np.asarray(self.predictions, dtype=float))
        object.__setattr__(self, "residuals", np.asarray(self.residuals, dtype=float))


def predict(h: Hyperplane, x) -> float:
    """Value of the hyperplane at one position x (length d)."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != h.d:
        raise ContractViolation(f"position has dimension {x.shape[0]}, hyperplane {h.d}")
    return float(h.beta1 @ x + h.beta0)


def predict_all(h: Hyperplane, data: DataSet) -> np.ndarray:
    if data.d != h.d:
        raise ContractViolation(f"data dimension {data.d} != hyperplane dimension {h.d}")
    return data.xs @ h.beta1 + h.beta0


def outcomes(h: Hyperplane, data: DataSet) -> OutcomeRecord:
    """Predictions and signed residuals y_i - f(x_i) for every agent."""
    preds = predict_all(h, data)
    return OutcomeRecord(preds, data.ys - preds)


def rss(data: DataSet, h: Hyperplane) -> float:
    """Residual sum of squares of the hyperplane on the data."""
    r = data.ys - predict_all(h, data)
    return float(r @ r)


def order_statistic(values, j: int) -> float:
    """j-th smallest element (1-based).  Accepts +-inf entries.

    >>> order_statistic([3.0, 1.0, 2.0], 2)
    2.0
    """
    arr = np.sort(np.asarray(values, dtype=float).ravel())
    if arr.size == 0:
        raise ContractViolation("order statistic of an empty collection")
    if not 1 <= j <= arr.size:
        raise ContractViolation(f"rank {j} outside 1..{arr.size}")
    if np.isnan(arr).any():
        raise ContractViolation("NaN is not an extended real")
    return float(arr[j - 1])


def median_rank(size: int, side: MedianSide = MedianSide.LEFT) -> int:
    """1-based rank of the side-resolved median among ``size`` items."""
    if size <= 0:
        raise ContractViolation("rank of an empty set")
    if size % 2 == 1:
        return (size + 1) // 2
    return size // 2 if side is MedianSide.LEFT else size // 2 + 1


def median_with_side(values, side: MedianSide = MedianSide.LEFT) -> float:
    """Median as an order statistic; ``side`` picks the middle for even counts.

    Odd count k returns the (k+1)/2-th smallest regardless of side.  Entries
    may be +-inf; they are ordered, never averaged.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ContractViolation("median of an empty collection")
    return order_statistic(arr, median_rank(arr.size, side))


def residual_zero_tol(data: DataSet, h: Hyperplane) -> float:
    """Absolute tolerance used when a residual of h on the data must be zero:
    solver noise, 1e-9 of max |y|, plus a few ulps of |beta0| + max |x . beta1|
    for the rounding of y - (x . beta1 + beta0), whose terms cancel far from
    x = 0.  Both scale with y."""
    terms = abs(h.beta0) + float(np.max(np.abs(data.xs @ h.beta1)))
    return (1e-9 * float(np.max(np.abs(data.ys)))
            + 8.0 * np.finfo(float).eps * terms)
