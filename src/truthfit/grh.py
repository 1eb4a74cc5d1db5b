"""Generalized resistant hyperplane mechanisms.

Given a publicly separable partition of agents into d+1 sets with one
rank k_t per set, there is exactly one hyperplane whose k_t-th smallest
residual inside every set is zero.  The solver enumerates all transversal
hyperplanes (interpolating one agent per set), keeps those passing the
rank conditions with a tie-robust count, and insists on uniqueness after
coefficientwise deduplication.  The classical resistant lines are the styled
d = 1 cases: Brown-Mood uses the two x-halves with median ranks, Tukey
the outer x-thirds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import DataSet, Hyperplane, MedianSide, residual_zero_tol
from .errors import (
    AdmissibilityError,
    ContractViolation,
    InternalInconsistency,
    NotPubliclySeparable,
    UniquenessViolation,
)
from .separability import AgentPartition, is_publicly_separable

#: Transversal systems with condition estimates above this are singular.
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


def median_rank(size: int, side: MedianSide = MedianSide.LEFT) -> int:
    """1-based rank of the side-resolved median among ``size`` items."""
    if size <= 0:
        raise ContractViolation("rank of an empty set")
    if size % 2 == 1:
        return (size + 1) // 2
    return size // 2 if side is MedianSide.LEFT else size // 2 + 1


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


class _GrhSolver:
    """Prefactored transversal systems for repeated solves on fresh reports.

    Everything that depends only on public information (positions and the
    partition) is computed once: the inverted interpolation systems, the
    per-set index arrays, and the full design matrix.
    """

    def __init__(self, xs: np.ndarray, part: AgentPartition):
        d = xs.shape[1]
        if part.t != d + 1:
            raise ContractViolation(
                f"a resistant hyperplane in R^{d} needs exactly {d + 1} sets, got {part.t}"
            )
        self.part = part
        self.traversals = np.array(list(itertools.product(*part.sets)), dtype=int)
        n_cand = self.traversals.shape[0]
        mats = np.ones((n_cand, d + 1, d + 1))
        mats[:, :, :d] = xs[self.traversals]
        conds = np.linalg.cond(mats)
        if np.any(~np.isfinite(conds)) or np.any(conds > CONDITION_LIMIT):
            raise NotPubliclySeparable(
                "singular transversal interpolation system; positions of the "
                "partition sets are not in separable position"
            )
        self.inv = np.linalg.inv(mats)
        self.xbar_t = np.hstack([xs, np.ones((xs.shape[0], 1))]).T
        self.set_idx = [np.fromiter(s, dtype=int) for s in part.sets]

    def candidate_count(self) -> int:
        return int(self.traversals.shape[0])

    def solve(self, ys: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
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
        first = betas[hits[0]]
        if hits.size > 1:
            found = betas[hits]
            same = DEDUP_TOL * (1.0 + float(np.max(np.abs(found))))
            distinct = np.max(np.abs(found - first), axis=1) > same
            if np.any(distinct):
                raise UniquenessViolation(
                    f"{int(distinct.sum()) + 1} coefficientwise distinct hyperplanes "
                    "satisfy the rank conditions"
                )
        return first, tuple(int(i) for i in self.traversals[hits[0]])


def traversal_hyperplanes(data: DataSet, part: AgentPartition) -> list[tuple[tuple[int, ...], Hyperplane]]:
    """All hyperplanes interpolating one agent from each set, in set order."""
    part.validate_against(data)
    solver = _GrhSolver(data.xs, part)
    betas = np.einsum("cij,cj->ci", solver.inv, data.ys[solver.traversals])
    return [
        (tuple(int(i) for i in trav), Hyperplane(beta[:-1], beta[-1]))
        for trav, beta in zip(solver.traversals, betas)
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


def fit_grl(data: DataSet, s, sprime, k: int, kprime: int) -> Hyperplane:
    """Resistant line: k-th smallest residual in S and k'-th in S' are zero.

    S and S' must be separated by a vertical line (d = 1).
    """
    if data.d != 1:
        raise ContractViolation("resistant lines require d = 1")
    s = tuple(int(i) for i in s)
    sprime = tuple(int(i) for i in sprime)
    part = AgentPartition((s, sprime), (k, kprime))
    part.validate_against(data)
    xs_s = data.xs[list(s), 0]
    xs_sp = data.xs[list(sprime), 0]
    if not (xs_s.max() < xs_sp.min() or xs_sp.max() < xs_s.min()):
        raise ContractViolation("S and S' are not separated by a vertical line")
    solver = _GrhSolver(data.xs, part)
    beta, _ = solver.solve(data.ys)
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
        tol = residual_zero_tol(data)
    resid = data.ys - (data.xs @ h.beta1 + h.beta0)
    for members, k in zip(part.sets, part.ranks):
        r = resid[list(members)]
        if (r < -tol).sum() > k - 1 or (r <= tol).sum() < k:
            return False
    return True
