"""Separability structure on agent positions.

An agent partition groups agents into disjoint index sets with one
target rank per set.  The structural property the resistant-hyperplane
mechanisms need is *well separability* of the x-projections: every two
disjoint groups of whole sets can be split by a hyperplane with all
named sets strictly on their assigned sides.  Strict separation of two
point clouds is decided by a small margin-maximization LP, in closed form
when the points lie on a line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import DataSet, Hyperplane, predict_all
from .errors import ContractViolation, InternalInconsistency, NotPubliclySeparable
from .simplex import solve_lp

#: Margins below this are treated as failure to separate strictly.
SEPARATION_MARGIN = 1e-9


class Ordering(Enum):
    """How one hyperplane sits relative to another over a point set."""

    ALL_BELOW = "all_below"
    ALL_ABOVE = "all_above"


@dataclass(frozen=True)
class SeparatorWitness:
    """Hyperplane a . x = b with a . x > b on side A and < b on side B."""

    normal: np.ndarray
    offset: float
    margin: float

    def __post_init__(self):
        object.__setattr__(self, "normal", np.asarray(self.normal, dtype=float).ravel())


@dataclass(frozen=True)
class AgentPartition:
    """Disjoint nonempty agent index sets with one rank k_t per set.

    Ranks are 1-based order-statistic positions: 1 <= ranks[t] <= len(sets[t]).
    The sets need not cover all agents.
    """

    sets: tuple[tuple[int, ...], ...]
    ranks: tuple[int, ...]

    def __post_init__(self):
        sets = tuple(tuple(int(i) for i in s) for s in self.sets)
        ranks = tuple(int(k) for k in self.ranks)
        if len(sets) == 0:
            raise ContractViolation("partition needs at least one set")
        if len(sets) != len(ranks):
            raise ContractViolation("one rank per set is required")
        seen: set[int] = set()
        for t, s in enumerate(sets):
            if len(s) == 0:
                raise ContractViolation(f"set {t} is empty")
            if any(i < 0 for i in s):
                raise ContractViolation("agent indices must be non-negative")
            if len(set(s)) != len(s) or seen & set(s):
                raise ContractViolation("agent sets must be disjoint")
            seen |= set(s)
            if not 1 <= ranks[t] <= len(s):
                raise ContractViolation(
                    f"rank {ranks[t]} outside 1..{len(s)} for set {t}"
                )
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "ranks", ranks)

    @property
    def t(self) -> int:
        return len(self.sets)

    def max_index(self) -> int:
        return max(max(s) for s in self.sets)

    def validate_against(self, data: DataSet) -> None:
        if self.max_index() >= data.n:
            raise ContractViolation("partition references agents beyond the data set")


def is_admissible(data: DataSet) -> bool:
    """True iff all x-coordinates are pairwise distinct (exact comparison).

    Only defined for lines (d = 1): distinct x-coordinates are what the
    clockwise-angle and resistant-line constructions require.
    """
    if data.d != 1:
        raise ContractViolation("admissibility is a d = 1 notion")
    return data.is_admissible()


def strictly_separates(a_points, b_points) -> SeparatorWitness | None:
    """Witness hyperplane strictly separating two nonempty point clouds.

    Solves  max m  s.t.  a . x >= b + m (x in A),  a . x <= b - m (x in B),
    |a_k| <= 1,  and accepts only margins above ``SEPARATION_MARGIN``.
    Returns None when no such hyperplane exists.  In d = 1 the optimum is
    read off directly: normal +1 or -1 and half the gap as margin.
    """
    a_points = np.atleast_2d(np.asarray(a_points, dtype=float))
    b_points = np.atleast_2d(np.asarray(b_points, dtype=float))
    if a_points.shape[0] == 0 or b_points.shape[0] == 0:
        raise ContractViolation("both point clouds must be nonempty")
    d = a_points.shape[1]
    if b_points.shape[1] != d:
        raise ContractViolation("point clouds live in different dimensions")
    if d == 0:
        return None
    if d == 1:
        return _separate_on_line(a_points[:, 0], b_points[:, 0])

    # The LP runs on the union centred at its mean and scaled to unit size:
    # with b free and m scaling with the cloud, the optimal normal is the
    # same, and the simplex's tolerances meet numbers of order one.
    union = np.vstack([a_points, b_points])
    centre = union.mean(axis=0)
    scale = float(np.max(np.abs(union - centre))) or 1.0
    # variables: (a_1..a_d, b, m); maximize m
    na, nb = a_points.shape[0], b_points.shape[0]
    a_ub = np.zeros((na + nb, d + 2))
    a_ub[:na, :d] = -(a_points - centre) / scale
    a_ub[:na, d] = 1.0
    a_ub[:na, d + 1] = 1.0
    a_ub[na:, :d] = (b_points - centre) / scale
    a_ub[na:, d] = -1.0
    a_ub[na:, d + 1] = 1.0
    b_ub = np.zeros(na + nb)
    c = np.zeros(d + 2)
    c[d + 1] = -1.0
    bounds = [(-1.0, 1.0)] * d + [(None, None), (None, None)]
    res = solve_lp(c, a_ub=a_ub, b_ub=b_ub, bounds=bounds)
    if not res.ok:
        raise InternalInconsistency(f"separation LP ended with status {res.status}")
    # Recompute offset and margin exactly for the returned normal, in the
    # original units: the LP satisfies its constraints only to solver
    # tolerance, while a witness must certify its own claim.
    normal = res.x[:d]
    lo = float(np.min(a_points @ normal))
    hi = float(np.max(b_points @ normal))
    margin = (lo - hi) / 2.0
    if margin <= SEPARATION_MARGIN:
        return None
    return SeparatorWitness(normal, (lo + hi) / 2.0, margin)


def _separate_on_line(a_values: np.ndarray, b_values: np.ndarray) -> SeparatorWitness | None:
    """The separation LP's optimum in d = 1: under |a| <= 1 the best normal
    is +1 or -1, with the midpoint of the gap as offset."""
    normal = 1.0 if a_values.min() > b_values.max() else -1.0
    lo = float(np.min(normal * a_values))
    hi = float(np.max(normal * b_values))
    margin = (lo - hi) / 2.0
    if margin <= SEPARATION_MARGIN:
        return None
    return SeparatorWitness(np.array([normal]), (lo + hi) / 2.0, margin)


def _group_pairs(t: int):
    """Unordered pairs (I, J) of disjoint nonempty subsets of range(t)."""
    for assignment in itertools.product((0, 1, 2), repeat=t):
        left = tuple(i for i, a in enumerate(assignment) if a == 1)
        right = tuple(i for i, a in enumerate(assignment) if a == 2)
        if not left or not right:
            continue
        if min(left) > min(right):  # keep one orientation of each pair
            continue
        yield left, right


def is_well_separable(point_sets) -> bool:
    """Every two disjoint groups of sets must be strictly separable.

    ``point_sets`` is a sequence of nonempty arrays in a common R^k with
    at most k+1 sets; more sets than k+1 cannot be well separable and is
    rejected loudly.
    """
    point_sets = [np.atleast_2d(np.asarray(s, dtype=float)) for s in point_sets]
    t = len(point_sets)
    if t == 0:
        raise ContractViolation("no point sets given")
    k = point_sets[0].shape[1]
    for s in point_sets:
        if s.shape[1] != k:
            raise ContractViolation("point sets live in different dimensions")
        if s.shape[0] == 0:
            raise ContractViolation("point sets must be nonempty")
    if t > k + 1:
        raise ContractViolation(
            f"{t} sets in R^{k} can never be well separable (need t <= k+1)"
        )
    for left, right in _group_pairs(t):
        a_cloud = np.vstack([point_sets[i] for i in left])
        b_cloud = np.vstack([point_sets[j] for j in right])
        if strictly_separates(a_cloud, b_cloud) is None:
            return False
    return True


def is_publicly_separable(data: DataSet, part: AgentPartition) -> bool:
    """Well separability of the partition's x-projections."""
    part.validate_against(data)
    return is_well_separable([data.xs[list(s)] for s in part.sets])


def has_weak_general_position(point_sets) -> bool:
    """Every transversal spans a (t-1)-flat containing no other point.

    A transversal picks one point from each of the t sets.  The property
    fails when some transversal is affinely dependent or its affine hull
    catches an extra point of the union.  Used as a diagnostic: rank-based
    fitting below never assumes it.
    """
    point_sets = [np.atleast_2d(np.asarray(s, dtype=float)) for s in point_sets]
    t = len(point_sets)
    if t == 0:
        raise ContractViolation("no point sets given")
    union = np.vstack(point_sets)
    scale = 1.0 + float(np.max(np.abs(union))) if union.size else 1.0
    tol = 1e-9 * scale
    for picks in itertools.product(*[range(len(s)) for s in point_sets]):
        pts = np.vstack([point_sets[i][k] for i, k in enumerate(picks)])
        base, rest = pts[0], pts[1:] - pts[0]
        if t > 1 and np.linalg.matrix_rank(rest, tol=tol) < t - 1:
            return False
        chosen = {tuple(p) for p in pts}
        for q in union:
            if tuple(q) in chosen:
                continue
            if t == 1:
                in_flat = np.max(np.abs(q - base)) <= tol
            else:
                sol, *_ = np.linalg.lstsq(rest.T, q - base, rcond=None)
                in_flat = np.max(np.abs(rest.T @ sol - (q - base))) <= tol
            if in_flat:
                return False
    return True


def compare_hyperplanes(data: DataSet, part: AgentPartition,
                        h1: Hyperplane, h2: Hyperplane) -> tuple[int, Ordering]:
    """First set whose members all lie strictly on one side of h1 vs h2.

    Returns ``(t, ALL_BELOW)`` when h1 predicts strictly below h2 on every
    member of set t, or ``(t, ALL_ABOVE)`` for strictly above.  For distinct
    hyperplanes over a publicly separable partition such a set must exist.
    """
    part.validate_against(data)
    c1, c2 = h1.coefficients(), h2.coefficients()
    if np.max(np.abs(c1 - c2)) <= 1e-12 * max(np.max(np.abs(c1)), np.max(np.abs(c2))):
        raise ContractViolation("hyperplanes are equal to 1e-12 relative")
    diff = predict_all(h1, data) - predict_all(h2, data)
    for t, members in enumerate(part.sets):
        g = diff[list(members)]
        if np.all(g < 0.0):
            return t, Ordering.ALL_BELOW
        if np.all(g > 0.0):
            return t, Ordering.ALL_ABOVE
    if not is_publicly_separable(data, part):
        raise NotPubliclySeparable(
            "no set is uniformly on one side; the partition is not publicly separable"
        )
    raise InternalInconsistency(
        "publicly separable partition but no set lies strictly on one side"
    )
