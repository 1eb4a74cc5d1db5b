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

from . import core
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


def _directing(data: DataSet, cfg: CrmConfig, ys=None):
    """The directing angle, i*, j* and line coefficients (beta1, beta0) of
    each row of a (K, n) block of reports (default: the data's own, one row),
    as of that row alone; in chunks of at most ``core.BLOCK_CELLS`` angles."""
    if data.d != 1:
        raise ContractViolation("clockwise repeated medians require d = 1")
    s = np.fromiter(cfg.s, dtype=int)
    sp = np.fromiter(cfg.sprime, dtype=int)
    if s.max(initial=-1) >= data.n or sp.max(initial=-1) >= data.n:
        raise ContractViolation("index sets reference agents beyond the data set")
    x = data.xs[:, 0]
    ys = data.ys[None, :] if ys is None else ys
    dx = x[sp][None, :] - x[s][:, None]
    same = sp[None, :] == s[:, None]
    if np.any((dx == 0.0) & ~same):
        raise AdmissibilityError("distinct agents share an x-coordinate")
    counts = np.count_nonzero(~same, axis=1)
    if not counts.all():
        raise ContractViolation(f"S' minus agent {int(s[np.argmin(counts)])} is empty")
    inner = np.array([median_rank(c, cfg.inner_side) for c in counts]) - 1
    outer = median_rank(s.size, cfg.outer_side) - 1
    half_turn = np.pi + np.sign(dx) * (np.pi / 2)
    step = max(1, core.BLOCK_CELLS // same.size)
    chunks = []
    for start in range(0, len(ys), step):
        y = ys[start:start + step]
        rows = np.arange(len(y))
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(same, np.nan, (y[:, None, sp] - y[:, s, None]) / dx)
        angles = half_turn + np.sign(slope) * np.abs(np.arctan(slope))
        # the inner median toward S' per base (i = j is NaN and sorts last),
        # then the outer median over S; angle ties go to the smaller agent
        inner_vals = np.sort(angles, axis=2)[:, np.arange(s.size), inner]
        inner_js = np.where(angles == inner_vals[..., None], sp, data.n).min(axis=2)
        da = np.sort(inner_vals, axis=1)[:, outer]
        row_star = np.where(inner_vals == da[:, None], s, data.n).argmin(axis=1)
        i_star, j_star = s[row_star], inner_js[rows, row_star]
        # the line through the pair; + 0.0 turns a slope of -0.0 into 0.0
        beta1 = (y[rows, j_star] - y[rows, i_star]) / (x[j_star] - x[i_star]) + 0.0
        beta0 = y[rows, i_star] - beta1 * x[i_star]
        chunks.append((da, i_star, j_star, np.column_stack([beta1, beta0])))
    return tuple(map(np.concatenate, zip(*chunks)))


def directing_angle(data: DataSet, cfg: CrmConfig) -> float:
    """The median over S of the median clockwise angle toward S'."""
    return float(_directing(data, cfg)[0][0])


def directing_pair(data: DataSet, cfg: CrmConfig) -> tuple[int, int]:
    """(i*, j*) realizing the directing angle, ties toward smaller indices."""
    _, i_star, j_star, _ = _directing(data, cfg)
    return int(i_star[0]), int(j_star[0])


def fit_crm(data: DataSet, cfg: CrmConfig) -> Hyperplane:
    """Line through the directing pair (i*, j*).

    The slope equals the directing pair's coordinate slope exactly and the
    line interpolates i*, so the output always passes through one point of
    S and one of S'.
    """
    beta1, beta0 = _directing(data, cfg)[3][0]
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
    da = directing_angle(data, cfg)
    beta1 = math.tan(da - math.pi - (math.pi / 2) * _sgn(da - math.pi))
    intercepts = data.ys[list(cfg.s)] - beta1 * data.xs[list(cfg.s), 0]
    beta0 = median_with_side(intercepts, cfg.intercept_side)
    return Hyperplane(np.array([beta1]), float(beta0))
