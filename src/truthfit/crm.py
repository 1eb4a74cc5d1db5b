"""Clockwise repeated median line fitting (d = 1).

Every ordered pair of points gets a clockwise angle measured from north:
a pair pointing left lands in (0, pi), a pair pointing right in (pi, 2pi),
and within each half-turn the angle is monotone in the pair's slope.  The
mechanism takes, for each base point i in S, the median angle toward the
points of S' (excluding i), then the median of those medians over S.  The
pair (i*, j*) realizing that median-of-medians directs the output: the
fitted line passes through i* and j*, so its slope comes from the two
points directly rather than through any trigonometric round trip.

Median side choices (outer over S, inner over S', and the intercept
median of the diagnostic form) default to the lower middle element.
Angle ties are broken toward the smaller agent index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DataSet, Hyperplane, MedianSide, median_rank, median_with_side
from .errors import AdmissibilityError, ContractViolation


@dataclass(frozen=True)
class CrmConfig:
    """Index sets S (bases) and S' (targets) plus the three median sides."""

    s: tuple[int, ...]
    sprime: tuple[int, ...]
    outer_side: MedianSide = MedianSide.LEFT
    inner_side: MedianSide = MedianSide.LEFT
    intercept_side: MedianSide = MedianSide.LEFT

    def __post_init__(self):
        s = tuple(int(i) for i in self.s)
        sprime = tuple(int(i) for i in self.sprime)
        if not s or not sprime:
            raise ContractViolation("S and S' must be nonempty")
        if len(set(s)) != len(s) or len(set(sprime)) != len(sprime):
            raise ContractViolation("index sets must not repeat agents")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "sprime", sprime)


def cwa(p_i, p_j) -> float:
    """Clockwise angle from north at p_i toward p_j.

    cwa = pi + sign(dx) * pi/2 + sign(slope) * |arctan(slope)| with
    dx = x_j - x_i.  Requires dx != 0.
    """
    xi, yi = float(p_i[0]), float(p_i[1])
    xj, yj = float(p_j[0]), float(p_j[1])
    dx = xj - xi
    if dx == 0.0:
        raise AdmissibilityError("clockwise angle undefined for equal x's")
    slope = (yj - yi) / dx
    return math.pi + math.copysign(math.pi / 2, dx) + _sgn(slope) * abs(math.atan(slope))


def _sgn(v: float) -> float:
    return float(np.sign(v))


@dataclass(frozen=True)
class _Directing:
    angle: float
    i_star: int
    j_star: int
    slope: float


def _directing(data: DataSet, cfg: CrmConfig) -> _Directing:
    if data.d != 1:
        raise ContractViolation("clockwise repeated medians require d = 1")
    s = np.fromiter(cfg.s, dtype=int)
    sp = np.fromiter(cfg.sprime, dtype=int)
    if s.max(initial=-1) >= data.n or sp.max(initial=-1) >= data.n:
        raise ContractViolation("index sets reference agents beyond the data set")
    x, y = data.xs[:, 0], data.ys

    dx = x[sp][None, :] - x[s][:, None]
    dy = y[sp][None, :] - y[s][:, None]
    same = sp[None, :] == s[:, None]
    if np.any((dx == 0.0) & ~same):
        raise AdmissibilityError("distinct agents share an x-coordinate")
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(same, np.nan, dy / dx)
    angles = np.pi + np.sign(dx) * (np.pi / 2) + np.sign(slope) * np.abs(np.arctan(slope))

    inner_vals = np.empty(s.size)
    inner_js = np.empty(s.size, dtype=int)
    for row in range(s.size):
        valid = ~same[row]
        if not valid.any():
            raise ContractViolation(f"S' minus agent {int(s[row])} is empty")
        vals = angles[row, valid]
        js = sp[valid]
        rank = median_rank(vals.size, cfg.inner_side)
        value = np.partition(vals, rank - 1)[rank - 1]
        inner_vals[row] = value
        inner_js[row] = js[vals == value].min()  # angle tie: smaller agent index

    rank = median_rank(s.size, cfg.outer_side)
    da = np.partition(inner_vals, rank - 1)[rank - 1]
    tie_rows = np.flatnonzero(inner_vals == da)
    row_star = int(tie_rows[np.argmin(s[tie_rows])])
    i_star = int(s[row_star])
    j_star = int(inner_js[row_star])
    pair_slope = (y[j_star] - y[i_star]) / (x[j_star] - x[i_star])
    return _Directing(float(da), i_star, j_star, float(pair_slope))


def directing_angle(data: DataSet, cfg: CrmConfig) -> float:
    """The median over S of the median clockwise angle toward S'."""
    return _directing(data, cfg).angle


def directing_pair(data: DataSet, cfg: CrmConfig) -> tuple[int, int]:
    """(i*, j*) realizing the directing angle, ties toward smaller indices."""
    sel = _directing(data, cfg)
    return sel.i_star, sel.j_star


def fit_crm(data: DataSet, cfg: CrmConfig) -> Hyperplane:
    """Line through the directing pair (i*, j*).

    The slope equals the directing pair's coordinate slope exactly and the
    line interpolates i*, so the output always passes through one point of
    S and one of S'.
    """
    sel = _directing(data, cfg)
    x, y = data.xs[:, 0], data.ys
    beta1 = sel.slope + 0.0  # turn -0.0 into 0.0
    beta0 = float(y[sel.i_star] - beta1 * x[sel.i_star])
    return Hyperplane(np.array([beta1]), beta0)


def equation_form_line(data: DataSet, cfg: CrmConfig) -> Hyperplane:
    """Diagnostic cross-check path computed from the closed formulas.

    Slope is recovered from the directing angle by inverting the angle map
    (tan of the angle recentered to its half-turn); the intercept is the
    sided median over S of y_i - beta1 * x_i.  The slope must agree with
    ``fit_crm`` to rounding; the median intercept agrees whenever the
    directing point also carries the median intercept, which holds in the
    separable case but can fail otherwise.
    """
    sel = _directing(data, cfg)
    da = sel.angle
    beta1 = math.tan(da - math.pi - (math.pi / 2) * _sgn(da - math.pi))
    intercepts = data.ys[list(cfg.s)] - beta1 * data.xs[list(cfg.s), 0]
    beta0 = median_with_side(intercepts, cfg.intercept_side)
    return Hyperplane(np.array([beta1]), float(beta0))
