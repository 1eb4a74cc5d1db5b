"""Generalized resistant hyperplane mechanisms.

Given a publicly separable partition of agents into d+1 sets with one
rank k_t per set, there is exactly one hyperplane whose k_t-th smallest
residual inside every set is zero.

In d = 1 this is a resistant line, and the solver finds it without
enumerating candidates.  The gap g(b) between the k-th smallest residual
y - b*x over the left set and the k'-th smallest over the right set is
strictly increasing and piecewise linear in the slope b.  Its root is the
slope of the line through one point of each set, and Newton steps kept
inside a bisection bracket reach it in O(n) memory.  The classical
resistant lines are the styled cases: Brown-Mood uses the two x-halves
with median ranks, Tukey the outer x-thirds.

In any other dimension the solver enumerates all transversal hyperplanes
(interpolating one agent per set), keeps those passing the rank conditions
with a tie-robust count, and insists on uniqueness after coefficientwise
deduplication.  That holds a residual matrix of candidates times n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import DataSet, Hyperplane, MedianSide, median_rank, residual_zero_tol
from .errors import (
    AdmissibilityError,
    ContractViolation,
    InternalInconsistency,
    NotPubliclySeparable,
    UniquenessViolation,
)
from .separability import AgentPartition, is_publicly_separable

#: Interpolation systems with condition estimates above this are singular.
CONDITION_LIMIT = 1e12

#: Hyperplanes equal coefficientwise within this many times
#: 1 + max |beta| over the satisfying candidates are the same candidate.
DEDUP_TOL = 1e-12


@dataclass(frozen=True)
class GrhResult:
    """Unique satisfying hyperplane plus which transversal produced it."""

    hyperplane: Hyperplane
    traversal: tuple[int, ...]
    candidates_examined: int


def preset_partition(data: DataSet, scheme: str,
                     side: MedianSide = MedianSide.LEFT) -> AgentPartition:
    """Brown-Mood halves or Tukey outer thirds over x, with median ranks.

    Requires d = 1, n >= 2, and pairwise distinct x's so the x-order is
    unambiguous.
    """
    if data.d != 1:
        raise ContractViolation("preset partitions are defined for d = 1 only")
    if data.n < 2:
        raise ContractViolation("preset partitions need at least two agents")
    if not data.is_admissible():
        raise AdmissibilityError("preset partitions need pairwise distinct x's")
    order = np.argsort(data.xs[:, 0], kind="stable")
    if scheme == "brown-mood":
        cut = data.n // 2
        left, right = order[:cut], order[cut:]
    elif scheme == "tukey":
        third = -(-data.n // 3)  # ceil(n/3)
        left, right = order[:third], order[-third:]
        if 2 * third > data.n:
            raise ContractViolation("outer thirds overlap; need n >= 2 with room")
    else:
        raise ContractViolation(f"unknown preset scheme {scheme!r}")
    sets = (tuple(int(i) for i in left), tuple(int(i) for i in right))
    ranks = (median_rank(len(sets[0]), side), median_rank(len(sets[1]), side))
    return AgentPartition(sets, ranks)


@dataclass(frozen=True)
class _LineSplit:
    """The two sets of a d = 1 partition, oriented left to right in x.

    ``left`` and ``right`` hold agent indices in set order; ``flipped`` says
    that the partition's first set is the right one.
    """

    left: np.ndarray
    right: np.ndarray
    k_left: int
    k_right: int
    flipped: bool


def _vertical_split(xs: np.ndarray, part: AgentPartition) -> _LineSplit:
    """Check that a vertical line separates the two sets and orient them.

    Raises NotPubliclySeparable when the x-ranges of the sets touch or
    interleave.
    """
    first, second = (np.fromiter(s, dtype=int) for s in part.sets)
    x = xs[:, 0]
    if x[first].max() < x[second].min():
        return _LineSplit(first, second, part.ranks[0], part.ranks[1], False)
    if x[second].max() < x[first].min():
        return _LineSplit(second, first, part.ranks[1], part.ranks[0], True)
    raise NotPubliclySeparable("S and S' are not separated by a vertical line")


def _require_transversal_shape(d: int, part: AgentPartition) -> None:
    if part.t != d + 1:
        raise ContractViolation(
            f"a resistant hyperplane in R^{d} needs exactly {d + 1} sets, got {part.t}"
        )


def _centred(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions moved so that their mean is the origin, and that mean.

    An [x | 1] system far from x = 0 is ill conditioned by its offset
    alone; centred, its condition reflects only the points' spread.
    """
    centre = xs.mean(axis=0)
    return xs - centre, centre


def _uncentred(betas: np.ndarray, centre: np.ndarray) -> np.ndarray:
    """Coefficient rows (beta1, beta0) over x from rows over x - centre."""
    out = betas.copy()
    out[..., -1] -= betas[..., :-1] @ centre
    return out


def _interpolation_systems(xs: np.ndarray, subsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stacked [x | 1] interpolation system of each row of point indices,
    and which of them are nonsingular (condition at most CONDITION_LIMIT).

    Pass centred positions (see :func:`_centred`): the gate judges the
    systems as given.
    """
    d = xs.shape[1]
    mats = np.ones((subsets.shape[0], d + 1, d + 1))
    mats[:, :, :d] = xs[subsets]
    with np.errstate(all="ignore"):
        conds = np.linalg.cond(mats)
    return mats, np.isfinite(conds) & (conds <= CONDITION_LIMIT)


def _transversal_systems(xs: np.ndarray, part: AgentPartition) -> tuple[np.ndarray, np.ndarray]:
    """Every transversal in product order, and its inverted interpolation system."""
    traversals = np.array(list(itertools.product(*part.sets)), dtype=int)
    mats, good = _interpolation_systems(xs, traversals)
    if not good.all():
        raise NotPubliclySeparable(
            "singular transversal interpolation system; positions of the "
            "partition sets are not in separable position"
        )
    return traversals, np.linalg.inv(mats)


def _meets_rank(resid: np.ndarray, k: int, tol: float) -> bool:
    """Tie-robust check that the k-th smallest of ``resid`` is zero."""
    return (np.count_nonzero(resid < -tol) <= k - 1
            and np.count_nonzero(resid <= tol) >= k)


class _GrhSolver:
    """Repeated solves on fresh reports over fixed public information.

    Everything that depends only on positions and the partition is set up
    once.  In d = 1 that is the oriented vertical split, in O(n) memory;
    in any other dimension it is the inverted interpolation system of every
    transversal, in x centred on its mean.  ``candidate_count`` is the product of the set sizes in
    both cases: the transversals the enumeration examines, or the
    transversal space the d = 1 root search covers.
    """

    def __init__(self, xs: np.ndarray, part: AgentPartition):
        d = xs.shape[1]
        _require_transversal_shape(d, part)
        self.part = part
        self._count = math.prod(len(s) for s in part.sets)
        self._split = None
        if d == 1:
            self._split = _vertical_split(xs, part)
            self._x_left = xs[self._split.left, 0]
            x_right = xs[self._split.right, 0]
            # g is the same function of the slope in any x-origin; one in
            # the gap keeps y - b*x free of cancellation far from x = 0
            mid = 0.5 * (self._x_left.max() + x_right.min())
            self._xc_left, self._xc_right = self._x_left - mid, x_right - mid
            return
        xc, self.centre = _centred(xs)
        self.traversals, self.inv = _transversal_systems(xc, part)
        self.xbar_t = np.hstack([xc, np.ones((xs.shape[0], 1))]).T
        self.set_idx = [np.fromiter(s, dtype=int) for s in part.sets]

    def candidate_count(self) -> int:
        return self._count

    def solve(self, ys: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        if self._split is not None:
            return self._solve_line(ys)
        betas = np.einsum("cij,cj->ci", self.inv, ys[self.traversals])
        resid = ys[None, :] - betas @ self.xbar_t
        tol = 1e-9 * (1.0 + float(np.max(np.abs(ys))))
        ok = np.ones(betas.shape[0], dtype=bool)
        for idx, k in zip(self.set_idx, self.part.ranks):
            block = resid[:, idx]
            strictly_neg = (block < -tol).sum(axis=1)
            nonpos = (block <= tol).sum(axis=1)
            ok &= (strictly_neg <= k - 1) & (nonpos >= k)
        hits = np.where(ok)[0]
        if hits.size == 0:
            raise InternalInconsistency(
                "no transversal hyperplane satisfies the rank conditions"
            )
        first = _uncentred(betas[hits[0]], self.centre)
        if hits.size > 1:
            found = _uncentred(betas[hits], self.centre)
            same = DEDUP_TOL * (1.0 + float(np.max(np.abs(found))))
            distinct = np.max(np.abs(found - first), axis=1) > same
            if np.any(distinct):
                raise UniquenessViolation(
                    f"{int(distinct.sum()) + 1} coefficientwise distinct hyperplanes "
                    "satisfy the rank conditions"
                )
        return first, tuple(int(i) for i in self.traversals[hits[0]])

    def _solve_line(self, ys: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        """Root of the rank gap g(b) by Newton steps kept inside a bracket.

        For a slope b, g(b) is the k-th smallest of y - b*x over the left
        set minus the k'-th smallest over the right set.  Two argpartitions
        evaluate it and name the active pair (i, j) holding those ranks.
        On the piece of g through b, g = (y_i - y_j) + b*(x_j - x_i), so
        the Newton step goes to the slope of the line through i and j.
        Every piece has slope x_j - x_i > 0, because the split puts each
        left x below each right x: g is strictly increasing, its root is
        unique, and it is the slope of the line through one point of each
        set.  That line is the resistant line; uniqueness comes from this
        monotonicity, which the vertical split checked at bind time, and
        not from enumerating and deduplicating candidates.

        Each evaluation first checks the active pair's line with the
        tie-robust rank count and returns it when it passes.  Otherwise
        the sign of g(b) moves one end of the bracket [lo, hi] to b, and
        the search goes to the Newton step if it lies strictly inside the
        bracket, else to the bracket's midpoint.

        Termination: the bracket always holds the root and every evaluated
        slope is an end of it or outside it.  A Newton step lands on a
        slope between a left and a right point that has not been evaluated,
        so there are at most |S|*|S'| of them; each bisection halves the
        bracket.  g has finitely many pieces, and on either piece that ends
        at the root the active pair is a pair whose line is the resistant
        line, so the search stops once it evaluates a slope there.  In
        floating point, a bracket that can no longer be halved, or a step
        that leaves an unbounded bracket, raises InternalInconsistency.

        The traversal reported is the one enumeration would report: the
        first member of each set, in set order, that lies on the line.
        """
        split = self._split
        xl, xr = self._xc_left, self._xc_right
        yl, yr = ys[split.left], ys[split.right]
        kl, kr = split.k_left - 1, split.k_right - 1
        tol = 1e-9 * (1.0 + float(np.max(np.abs(ys))))
        lo, hi = -math.inf, math.inf
        b = 0.0
        while True:
            ul, ur = yl - b * xl, yr - b * xr
            i = np.argpartition(ul, kl)[kl]
            j = np.argpartition(ur, kr)[kr]
            slope = (yr[j] - yl[i]) / (xr[j] - xl[i])
            rl = (yl - yl[i]) - slope * (xl - xl[i])
            rr = (yr - yl[i]) - slope * (xr - xl[i])
            if _meets_rank(rl, kl + 1, tol) and _meets_rank(rr, kr + 1, tol):
                break
            gap = ul[i] - ur[j]
            if gap < 0.0:
                lo = b
            elif gap > 0.0:
                hi = b
            else:
                raise InternalInconsistency(
                    "the rank gap vanishes on a line that fails the rank conditions"
                )
            if lo < slope < hi:
                b = slope
                continue
            b = lo + 0.5 * (hi - lo)
            if not lo < b < hi:
                raise InternalInconsistency(
                    "the rank-gap root search found no line meeting the rank conditions"
                )
        first_left = int(split.left[np.flatnonzero(np.abs(rl) <= tol)[0]])
        first_right = int(split.right[np.flatnonzero(np.abs(rr) <= tol)[0]])
        traversal = (first_right, first_left) if split.flipped else (first_left, first_right)
        return np.array([slope, yl[i] - slope * self._x_left[i]]), traversal


def traversal_hyperplanes(data: DataSet, part: AgentPartition) -> list[tuple[tuple[int, ...], Hyperplane]]:
    """All hyperplanes interpolating one agent from each set, in set order."""
    part.validate_against(data)
    _require_transversal_shape(data.d, part)
    xc, centre = _centred(data.xs)
    traversals, inv = _transversal_systems(xc, part)
    betas = _uncentred(np.einsum("cij,cj->ci", inv, data.ys[traversals]), centre)
    return [
        (tuple(int(i) for i in trav), Hyperplane(beta[:-1], beta[-1]))
        for trav, beta in zip(traversals, betas)
    ]


def fit_grh(data: DataSet, part: AgentPartition) -> GrhResult:
    """The unique hyperplane with zero k_t-th smallest residual in every set.

    Residual-sign counts use the tolerance 1e-9 * (1 + max |y|): a residual
    counts as negative below -tol and as nonpositive up to +tol, so exact
    ties cannot disqualify the true solution.
    """
    part.validate_against(data)
    if not is_publicly_separable(data, part):
        raise NotPubliclySeparable(
            "partition is not publicly separable; rejected before solving"
        )
    solver = _GrhSolver(data.xs, part)
    beta, traversal = solver.solve(data.ys)
    return GrhResult(Hyperplane(beta[:-1], beta[-1]), traversal, solver.candidate_count())


def _grl_solver(data: DataSet, s, sprime, k: int, kprime: int) -> _GrhSolver:
    """Solver for the resistant line of S and S' (d = 1, vertically split)."""
    if data.d != 1:
        raise ContractViolation("resistant lines require d = 1")
    part = AgentPartition((s, sprime), (k, kprime))
    part.validate_against(data)
    return _GrhSolver(data.xs, part)


def fit_grl(data: DataSet, s, sprime, k: int, kprime: int) -> Hyperplane:
    """Resistant line: k-th smallest residual in S and k'-th in S' are zero.

    S and S' must be separated by a vertical line (d = 1).
    """
    beta, _ = _grl_solver(data, s, sprime, k, kprime).solve(data.ys)
    return Hyperplane(beta[:-1], beta[-1])


def in_weak_general_position(data: DataSet, part: AgentPartition) -> bool:
    """Diagnostic: graph points (x_i, y_i) of the partition sets are in weak
    general position (every transversal spans a full hyperplane holding no
    other graph point).  Fitting never assumes this."""
    from .separability import has_weak_general_position

    part.validate_against(data)
    graph = np.hstack([data.xs, data.ys.reshape(-1, 1)])
    return has_weak_general_position([graph[list(s)] for s in part.sets])


def satisfies_rank_conditions(data: DataSet, part: AgentPartition,
                              h: Hyperplane, tol: float | None = None) -> bool:
    """Tie-robust check that h meets every set's rank condition on data."""
    part.validate_against(data)
    if tol is None:
        tol = residual_zero_tol(data, h)
    resid = data.ys - (data.xs @ h.beta1 + h.beta0)
    return all(_meets_rank(resid[list(members)], k, tol)
               for members, k in zip(part.sets, part.ranks))
