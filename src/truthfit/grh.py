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
with a tie-robust count, and insists that they predict the same at the
set members, within 1e-12 of the largest |y|.  That holds residuals for
rows times candidates times n, in chunks of rows capped by
``core.BLOCK_CELLS`` (one row at least).

Both solvers take a block of report vectors, one per row, and solve every
row in the same numpy calls; an audit judges a coalition's joint reports
this way.  Residual signs are judged against 1e-9 of each row's largest
|y|, so a fit of s*y is s times the fit of y.  A solver returns
coefficients only: ``fit_grh`` reads the transversal off the plane, in
every dimension by one rule, as the first on-plane member of each set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import core
from .core import DataSet, Hyperplane, MedianSide, median_rank, residual_zero_tol
from .errors import (
    AdmissibilityError,
    ContractViolation,
    InternalInconsistency,
    NotPubliclySeparable,
    UniquenessViolation,
)
from .separability import AgentPartition, is_publicly_separable, vertical_split

#: Interpolation systems with condition estimates above this are singular.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class GrhResult:
    """Unique satisfying hyperplane and its first satisfying transversal in
    product order.  ``candidates_examined`` is the product of the set sizes:
    the transversals the enumeration examines, or the transversal space the
    d = 1 root search covers."""

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


def _require_transversal_shape(d: int, part: AgentPartition) -> None:
    if part.t != d + 1:
        raise ContractViolation(
            f"a resistant hyperplane in R^{d} needs exactly {d + 1} sets, got {part.t}"
        )


def _centred(xs: np.ndarray, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """The positions moved so that the mean of ``rows`` of them is the
    origin, and that mean.

    An [x | 1] system far from x = 0 is ill conditioned by its offset
    alone; centred, its condition reflects only the points' spread.  A
    transversal solve centres on the members of its partition's sets, so
    that an agent in no set, however far, does not move the centre; sorted,
    as all the agents they have the bits of the mean of all agents.
    """
    centre = xs[rows].mean(axis=0)
    return xs - centre, centre


def _uncentred(betas: np.ndarray, centre: np.ndarray) -> np.ndarray:
    """Coefficient rows (beta1, beta0) over x from rows over x - centre.

    The shift beta1 . centre is summed elementwise in a fixed order, so a
    row gets the same bits in any stack of rows.
    """
    out = betas.copy()
    if centre.size:
        shift = betas[..., 0] * centre[0]
        for j in range(1, centre.size):
            shift += betas[..., j] * centre[j]
        out[..., -1] -= shift
    return out


def _interpolation_systems(xs: np.ndarray, subsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stacked [x | 1] interpolation system of each row of point indices,
    and which of them are nonsingular (condition at most CONDITION_LIMIT).

    Pass centred positions (see :func:`_centred`).  The gate judges each
    system with every nonzero column divided by its largest |entry|, so
    that the units of no coordinate decide it: the points x = 1e300 and
    x = 0 still pin a line.  A zero column, such as a constant coordinate
    once centred, stays zero, and its system is singular.
    """
    d = xs.shape[1]
    mats = np.ones((subsets.shape[0], d + 1, d + 1))
    mats[:, :, :d] = xs[subsets]
    scale = np.abs(mats).max(axis=1, keepdims=True)
    with np.errstate(all="ignore"):
        conds = np.linalg.cond(mats / np.where(scale > 0.0, scale, 1.0))
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


def _meets_ranks(resid: np.ndarray, sets: np.ndarray, ranks: np.ndarray, tol) -> np.ndarray:
    """Tie-robust check that the ranks[t]-th smallest residual of every set
    t is zero.  The last axis of ``resid`` runs over the set members, and
    column t of ``sets`` marks the members of set t (see :func:`_set_layout`);
    ``tol`` broadcasts against the other axes.  Each sign is counted for
    all rows of the block in one 2-D product; the counts are exact small
    integers, so a row decides the same in any block, alone included."""
    shape = resid.shape[:-1] + sets.shape[1:]
    members = resid.shape[-1]
    neg = ((resid < -tol).reshape(-1, members) @ sets).reshape(shape)
    nonpos = ((resid <= tol).reshape(-1, members) @ sets).reshape(shape)
    # an "all" set by set, as numpy reduces a short last axis slowly
    return reduce(np.logical_and, np.moveaxis((neg < ranks) & (nonpos >= ranks), -1, 0))


def _set_layout(sets) -> tuple[np.ndarray, np.ndarray]:
    """The agents of the sets one after another, and the 0/1 matrix whose
    column t marks the members of set t.  It is float32, so that its
    product with a boolean matrix of sign tests (one row per residual
    vector) counts exactly, below 2**24 per set, and casts the booleans to
    half the bytes that float64 would take."""
    sizes = [len(s) for s in sets]
    members = np.concatenate([np.asarray(s, dtype=int) for s in sets])
    marks = np.zeros((members.size, len(sets)), dtype=np.float32)
    marks[np.arange(members.size), np.repeat(np.arange(len(sets)), sizes)] = 1.0
    return members, marks


class _GrhSolver:
    """Repeated solves on fresh reports over fixed public information.

    Everything that depends only on positions and the partition is set up
    once.  In d = 1 that is the vertical split, its left set first, in O(n)
    memory; in any other dimension it is the inverted interpolation system
    of every transversal, in x centred on the mean of the set members.

    A solve returns coefficients only; which transversal a plane
    interpolates is read off the plane (see :func:`fit_grh`).
    :meth:`solve_many` solves a block of report vectors, one per row, in
    the same numpy calls.  Coefficients are summed elementwise in a fixed
    order, and each row's residuals come from a matrix product of its own,
    so a row gets the same bits in any block, alone included.
    """

    def __init__(self, xs: np.ndarray, part: AgentPartition):
        d = xs.shape[1]
        _require_transversal_shape(d, part)
        self._left = None                        # the left set's size in d = 1
        if d == 1:
            sets, ranks = vertical_split(xs, part)
            self._members, self._sets = _set_layout(sets)
            self._ranks = np.array(ranks)
            self._x = xs[self._members, 0]
            # g is the same function of the slope in any x-origin; one in
            # the gap keeps y - b*x free of cancellation far from x = 0
            nl = self._left = len(sets[0])
            self._xc = self._x - 0.5 * (self._x[:nl].max() + self._x[nl:].min())
            return
        xc, self.centre = _centred(xs, np.sort(np.concatenate(part.sets)))
        self.traversals, self.inv = _transversal_systems(xc, part)
        self._members, self._sets = _set_layout(part.sets)
        self._ranks = np.array(part.ranks)
        self.xbar_t = np.hstack([xc, np.ones((xs.shape[0], 1))]).T[:, self._members]

    def solve(self, ys: np.ndarray) -> np.ndarray:
        """The coefficients (beta1, beta0) for one report vector: row 0 of
        :meth:`solve_many` on the one-row block, raising that row's error."""
        betas, failed = self.solve_many(ys[None, :])
        if failed:
            raise failed[0]
        return betas[0]

    def solve_many(self, ys: np.ndarray) -> tuple[np.ndarray, dict[int, InternalInconsistency]]:
        """Solve each row of a (K, n) block of report vectors.

        Returns the (K, d+1) coefficients and the error of each row on
        which the method fails (``InternalInconsistency`` or
        ``UniquenessViolation``, with NaN coefficients).
        """
        tol = 1e-9 * np.max(np.abs(ys), axis=-1)
        if self._left is not None:
            return self._solve_lines(ys, tol)
        step = max(1, core.BLOCK_CELLS // (self.traversals.shape[0] * self._members.size))
        betas, failed = [], {}
        for start in range(0, ys.shape[0], step):
            chunk, errors = self._solve_planes(ys[start:start + step], tol[start:start + step])
            betas.append(chunk)
            failed.update((start + k, exc) for k, exc in errors.items())
        return np.concatenate(betas), failed

    def _solve_planes(self, ys: np.ndarray, tol: np.ndarray):
        """Every transversal's hyperplane for every row of a chunk, one
        (rows, transversals, set members) tie-robust rank count, and each row's
        first hit, whose residuals its other hits must match to 1e-12 max |y|."""
        d = self.xbar_t.shape[0] - 1
        yt = ys[:, self.traversals]                      # (K, C, d+1)
        betas = self.inv[:, :, 0] * yt[:, :, None, 0]    # over x - centre, (K, C, d+1)
        for j in range(1, d + 1):
            betas += self.inv[:, :, j] * yt[:, :, None, j]
        del yt
        # one matrix product per row, all of the same shape: a row's
        # residuals do not depend on the block around it
        resid = np.matmul(betas, self.xbar_t)
        np.subtract(ys[:, None, self._members], resid, out=resid)
        ok = _meets_ranks(resid, self._sets, self._ranks, tol[:, None, None])
        first = np.argmax(ok, axis=1)
        hits = np.count_nonzero(ok, axis=1)
        failed = {int(k): InternalInconsistency(
                      "no transversal hyperplane satisfies the rank conditions")
                  for k in np.flatnonzero(hits == 0)}
        multi = np.flatnonzero(hits > 1)
        if multi.size:
            theirs = resid[multi]
            apart = np.max(np.abs(theirs - theirs[np.arange(multi.size), first[multi], None]), axis=2)
            same = 1e-12 * np.max(np.abs(ys[multi]), axis=1)
            distinct = np.count_nonzero(ok[multi] & (apart > same[:, None]), axis=1)
            failed.update((int(k), UniquenessViolation(
                               f"{count + 1} hyperplanes that predict differently at the "
                               "set members satisfy the rank conditions"))
                          for k, count in zip(multi, distinct) if count)
        del resid
        chosen = _uncentred(betas[np.arange(ys.shape[0]), first], self.centre)
        chosen[list(failed)] = np.nan
        return chosen, failed

    # reports near the float limit overflow slopes and residuals: an
    # infinite slope is never a Newton step, and a NaN gap fails its row
    @np.errstate(over="ignore", invalid="ignore")
    def _solve_lines(self, ys: np.ndarray, tol: np.ndarray):
        """Root of the rank gap g(b), per row, by Newton steps kept inside a bracket.

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
        tie-robust rank count and accepts it when it passes.  Otherwise
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
        that leaves an unbounded bracket, fails the row with
        InternalInconsistency.

        The rows search together, one evaluation of every searching row per
        step; a row leaves when its line passes the rank count or it fails.
        """
        nl = self._left
        kl, kr = self._ranks - 1
        x = self._xc
        count = ys.shape[0]
        betas = np.full((count, 2), np.nan)
        failed: dict[int, InternalInconsistency] = {}
        live = rows = np.arange(count)           # live: the original row of each searching row
        y, tol = ys[:, self._members], tol[:, None]
        lo, hi, b = np.full(count, -np.inf), np.full(count, np.inf), np.zeros(count)
        while live.size:
            u = y - b[:, None] * x
            i = u[:, :nl].argpartition(kl, axis=1)[:, kl]
            j = u[:, nl:].argpartition(kr, axis=1)[:, kr] + nl
            y_i, x_i = y[rows, i], x[i]
            slope = (y[rows, j] - y_i) / (x[j] - x_i)
            # the active pair's line, in an order of operations that gives
            # a point on the line through its own report exactly zero
            resid = (y - y_i[:, None]) - slope[:, None] * (x - x_i[:, None])
            done = _meets_ranks(resid, self._sets, self._ranks, tol)
            gap = u[rows, i] - u[rows, j]
            below, above = gap < 0.0, gap > 0.0
            lo = np.where(below, b, lo)
            hi = np.where(above, b, hi)
            newton = (lo < slope) & (slope < hi)
            b = np.where(newton, slope, b)
            flat = ~(below | above)              # g(b) is zero, or NaN on infinite reports
            leave = done | flat
            halve = ~(leave | newton)
            if halve.any():                      # -inf + inf on an unbounded bracket: NaN
                b[halve] = lo[halve] + 0.5 * (hi[halve] - lo[halve])
                leave |= halve & ~((lo < b) & (b < hi))
            if not leave.any():
                continue
            for k in np.flatnonzero(leave & ~done):
                failed[int(live[k])] = InternalInconsistency(
                    "the rank gap vanishes on a line that fails the rank conditions"
                    if flat[k] else
                    "the rank-gap root search found no line meeting the rank conditions")
            found = live[done]
            betas[found, 0] = slope[done]
            betas[found, 1] = y_i[done] - slope[done] * self._x[i[done]]
            keep = ~leave
            live, y, tol, lo, hi, b = live[keep], y[keep], tol[keep], lo[keep], hi[keep], b[keep]
            rows = np.arange(live.size)
        return betas, failed


def traversal_hyperplanes(data: DataSet, part: AgentPartition) -> list[tuple[tuple[int, ...], Hyperplane]]:
    """All hyperplanes interpolating one agent from each set, in set order."""
    part.validate_against(data)
    _require_transversal_shape(data.d, part)
    xc, centre = _centred(data.xs, np.sort(np.concatenate(part.sets)))
    traversals, inv = _transversal_systems(xc, part)
    betas = _uncentred(np.einsum("cij,cj->ci", inv, data.ys[traversals]), centre)
    return [
        (tuple(int(i) for i in trav), Hyperplane(beta[:-1], beta[-1]))
        for trav, beta in zip(traversals, betas)
    ]


def fit_grh(data: DataSet, part: AgentPartition) -> GrhResult:
    """The unique hyperplane with zero k_t-th smallest residual in every set.

    Residual-sign counts use the tolerance 1e-9 * max |y|: a residual
    counts as negative below -tol and as nonpositive up to +tol, so exact
    ties cannot disqualify the true solution.  The tolerance scales with
    y, and so does the fit.  In d = 1 the solver's vertical split decides
    public separability exactly, from the x-ranges of the two sets.

    The reported traversal is the first satisfying one in product order:
    in each set, in set order, the first member whose residual on the
    fitted plane is within ``core.residual_zero_tol`` of the set members.
    """
    part.validate_against(data)
    if data.d != 1 and not is_publicly_separable(data, part):
        raise NotPubliclySeparable(
            "partition is not publicly separable; rejected before solving"
        )
    beta = _GrhSolver(data.xs, part).solve(data.ys)
    h = Hyperplane(beta[:-1], beta[-1])
    on = np.abs(data.ys - (data.xs @ h.beta1 + h.beta0)) <= _members_zero_tol(data, part, h)
    traversal = tuple(next((i for i in s if on[i]), None) for s in part.sets)
    if None in traversal:
        raise InternalInconsistency("the fitted hyperplane passes through no member of a set")
    return GrhResult(h, traversal, math.prod(len(s) for s in part.sets))


def _grl_partition(data: DataSet, s, sprime, k: int, kprime: int) -> AgentPartition:
    """The two-set partition of the resistant line of S and S' (d = 1)."""
    if data.d != 1:
        raise ContractViolation("resistant lines require d = 1")
    return AgentPartition((s, sprime), (k, kprime))


def fit_grl(data: DataSet, s, sprime, k: int, kprime: int) -> Hyperplane:
    """Resistant line: k-th smallest residual in S and k'-th in S' are zero.

    S and S' must be separated by a vertical line (d = 1).
    """
    return fit_grh(data, _grl_partition(data, s, sprime, k, kprime)).hyperplane


def in_weak_general_position(data: DataSet, part: AgentPartition) -> bool:
    """Diagnostic: graph points (x_i, y_i) of the partition sets are in weak
    general position (every transversal spans a full hyperplane holding no
    other graph point).  Fitting never assumes this."""
    from .separability import has_weak_general_position

    part.validate_against(data)
    graph = np.hstack([data.xs, data.ys.reshape(-1, 1)])
    return has_weak_general_position([graph[list(s)] for s in part.sets])


def satisfies_rank_conditions(data: DataSet, part: AgentPartition, h: Hyperplane) -> bool:
    """Tie-robust check that h meets every set's rank condition on data,
    with residuals within ``core.residual_zero_tol`` of the set members
    counted as zero."""
    part.validate_against(data)
    resid = data.ys - (data.xs @ h.beta1 + h.beta0)
    members, sets = _set_layout(part.sets)
    return bool(_meets_ranks(resid[members], sets, np.array(part.ranks),
                             _members_zero_tol(data, part, h)))


def _members_zero_tol(data: DataSet, part: AgentPartition, h: Hyperplane) -> float:
    """``core.residual_zero_tol`` at the members of the partition's sets
    only, so that an agent in no set, however far, does not widen it."""
    members = np.sort(np.concatenate(part.sets))
    return residual_zero_tol(DataSet(data.xs[members], data.ys[members]), h)
