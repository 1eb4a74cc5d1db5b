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
deduplication.  That holds residuals for rows times candidates times n,
in chunks of rows capped by ``core.BLOCK_CELLS`` (one row at least).

Both solvers take a block of report vectors, one per row, and solve every
row in the same numpy calls; an audit judges a coalition's joint reports
this way.  Residual signs are judged against 1e-9 of each row's largest
|y|, so a fit of s*y is s times the fit of y.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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
from .separability import AgentPartition, is_publicly_separable

#: Interpolation systems with condition estimates above this are singular.
CONDITION_LIMIT = 1e12

#: Hyperplanes equal coefficientwise within this many times
#: max |beta| over the satisfying candidates are the same candidate.
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


def _meets_ranks(resid: np.ndarray, sets: np.ndarray, ranks: np.ndarray, tol) -> np.ndarray:
    """Tie-robust check that the ranks[t]-th smallest residual of every set
    t is zero.  The last axis of ``resid`` runs over the set members, and
    column t of ``sets`` marks the members of set t (see :func:`_set_layout`);
    ``tol`` broadcasts against the other axes."""
    neg = np.matmul(resid < -tol, sets)
    nonpos = np.matmul(resid <= tol, sets)
    return ((neg < ranks) & (nonpos >= ranks)).all(axis=-1)


def _set_layout(sets) -> tuple[np.ndarray, np.ndarray]:
    """The agents of the sets one after another, and the 0/1 matrix whose
    column t marks the members of set t.  It is float32, so that a
    product with a boolean matrix counts exactly (below 2**24 per set) and
    casts the booleans to half the bytes that float64 would take."""
    sizes = [len(s) for s in sets]
    members = np.concatenate([np.asarray(s, dtype=int) for s in sets])
    marks = np.zeros((members.size, len(sets)), dtype=np.float32)
    marks[np.arange(members.size), np.repeat(np.arange(len(sets)), sizes)] = 1.0
    return members, marks


def _line_residuals(y, x, y_i, x_i, slope) -> np.ndarray:
    """Residuals over x of the line through (x_i, y_i) with the given slope,
    one line per row of y, in this order of operations so that a point on
    the line through its own report gets exactly zero."""
    return (y - y_i[:, None]) - slope[:, None] * (x - x_i[:, None])


def _rank_tolerance(ys: np.ndarray) -> np.ndarray:
    """The residual-sign tolerance of each row of reports: 1e-9 of its
    largest |y|, so that a fit of s*y is s times the fit of y."""
    return 1e-9 * np.max(np.abs(ys), axis=-1)


class _GrhSolver:
    """Repeated solves on fresh reports over fixed public information.

    Everything that depends only on positions and the partition is set up
    once.  In d = 1 that is the oriented vertical split, in O(n) memory;
    in any other dimension it is the inverted interpolation system of every
    transversal, in x centred on its mean.  ``candidate_count`` is the product of the set sizes in
    both cases: the transversals the enumeration examines, or the
    transversal space the d = 1 root search covers.

    :meth:`solve_many` solves a block of report vectors, one per row, in
    the same numpy calls.  Coefficients are summed elementwise in a fixed
    order, and each row's residuals come from a matrix product of its own,
    so a row gets the same bits in any block, alone included.
    """

    def __init__(self, xs: np.ndarray, part: AgentPartition):
        d = xs.shape[1]
        _require_transversal_shape(d, part)
        self._count = math.prod(len(s) for s in part.sets)
        self._split = None
        if d == 1:
            split = self._split = _vertical_split(xs, part)
            self._members, self._sets = _set_layout((split.left, split.right))
            self._ranks = np.array([split.k_left, split.k_right])
            self._x = xs[self._members, 0]
            # g is the same function of the slope in any x-origin; one in
            # the gap keeps y - b*x free of cancellation far from x = 0
            nl = split.left.size
            self._xc = self._x - 0.5 * (self._x[:nl].max() + self._x[nl:].min())
            return
        xc, self.centre = _centred(xs)
        self.traversals, self.inv = _transversal_systems(xc, part)
        self._members, self._sets = _set_layout(part.sets)
        self._ranks = np.array(part.ranks)
        self.xbar_t = np.hstack([xc, np.ones((xs.shape[0], 1))]).T[:, self._members]

    def candidate_count(self) -> int:
        return self._count

    def solve(self, ys: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        """The coefficients (beta1, beta0) for one report vector, and the
        first satisfying transversal in product order."""
        ys = ys[None, :]
        betas, failed, witness = self.solve_many(ys)
        if failed:
            raise failed[0]
        if self._split is None:
            return betas[0], tuple(int(i) for i in self.traversals[witness[0]])
        # as enumeration reports it: the first member of each set, in set
        # order, that lies on the line
        split = self._split
        nl = split.left.size
        y, i = ys[:, self._members], witness
        on = np.abs(_line_residuals(y, self._xc, y[0, i], self._xc[i], betas[:, 0])[0]) \
            <= _rank_tolerance(ys[0])
        first_left = int(split.left[np.argmax(on[:nl])])
        first_right = int(split.right[np.argmax(on[nl:])])
        traversal = (first_right, first_left) if split.flipped else (first_left, first_right)
        return betas[0], traversal

    def solve_many(self, ys: np.ndarray) -> tuple[np.ndarray, dict[int, InternalInconsistency],
                                                 np.ndarray]:
        """Solve each row of a (K, n) block of report vectors.

        Returns the (K, d+1) coefficients, the error of each row on which
        the method fails (``InternalInconsistency`` or
        ``UniquenessViolation``, with NaN coefficients), and each row's
        witness: the index of its first satisfying transversal (d >= 2) or
        the left agent its line passes through, in split order (d = 1).
        """
        tol = _rank_tolerance(ys)
        if self._split is not None:
            return self._solve_lines(ys, tol)
        step = max(1, core.BLOCK_CELLS // (self.traversals.shape[0] * self._members.size))
        betas, failed, witness = [], {}, []
        for start in range(0, ys.shape[0], step):
            chunk = self._solve_planes(ys[start:start + step], tol[start:start + step])
            betas.append(chunk[0])
            failed.update((start + k, exc) for k, exc in chunk[1].items())
            witness.append(chunk[2])
        return np.concatenate(betas), failed, np.concatenate(witness)

    def _solve_planes(self, ys: np.ndarray, tol: np.ndarray):
        """Every transversal's hyperplane for every row of a chunk, one
        (rows, transversals, set members) tie-robust rank count, each row's
        first hit, and coefficientwise deduplication of its hits."""
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
        del resid
        first = np.argmax(ok, axis=1)
        chosen = self._over_x(betas[np.arange(ys.shape[0]), first])
        hits = np.count_nonzero(ok, axis=1)
        failed = {int(k): InternalInconsistency(
                      "no transversal hyperplane satisfies the rank conditions")
                  for k in np.flatnonzero(hits == 0)}
        multi = np.flatnonzero(hits > 1)
        if multi.size:
            found, ok = self._over_x(betas[multi]), ok[multi]
            same = DEDUP_TOL * np.max(np.abs(np.where(ok[..., None], found, 0.0)), axis=(1, 2))
            distinct = np.count_nonzero(
                ok & (np.max(np.abs(found - chosen[multi, None]), axis=2) > same[:, None]), axis=1)
            failed.update((int(k), UniquenessViolation(
                               f"{count + 1} coefficientwise distinct hyperplanes "
                               "satisfy the rank conditions"))
                          for k, count in zip(multi, distinct) if count)
        chosen[list(failed)] = np.nan
        return chosen, failed, first

    def _over_x(self, betas: np.ndarray) -> np.ndarray:
        """Coefficient rows over x from rows over x - centre, as
        :func:`_uncentred` computes them but summed elementwise in a fixed
        order, so that a row gets the same bits in any block."""
        shift = betas[..., 0] * self.centre[0]
        for j in range(1, self.centre.size):
            shift += betas[..., j] * self.centre[j]
        out = betas.copy()
        out[..., -1] -= shift
        return out

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
        nl = self._split.left.size
        kl, kr = self._ranks - 1
        x = self._xc
        count = ys.shape[0]
        betas = np.full((count, 2), np.nan)
        anchor = np.zeros(count, dtype=int)
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
            done = _meets_ranks(_line_residuals(y, x, y_i, x_i, slope),
                                self._sets, self._ranks, tol)
            gap = u[rows, i] - u[rows, j]
            below, above = gap < 0.0, gap > 0.0
            lo = np.where(below, b, lo)
            hi = np.where(above, b, hi)
            newton = (lo < slope) & (slope < hi)
            b = np.where(newton, slope, b)
            flat = ~(below | above)              # g(b) is zero, or NaN on infinite reports
            leave = done | flat
            halve = ~(leave | newton)
            if halve.any():
                with np.errstate(invalid="ignore"):   # -inf + inf on an unbounded bracket
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
            anchor[found] = i[done]
            keep = ~leave
            live, y, tol, lo, hi, b = live[keep], y[keep], tol[keep], lo[keep], hi[keep], b[keep]
            rows = np.arange(live.size)
        return betas, failed, anchor


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

    Residual-sign counts use the tolerance 1e-9 * max |y|: a residual
    counts as negative below -tol and as nonpositive up to +tol, so exact
    ties cannot disqualify the true solution.  The tolerance scales with
    y, and so does the fit.
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
    members, sets = _set_layout(part.sets)
    return bool(_meets_ranks(resid[members], sets, np.array(part.ranks), tol))
