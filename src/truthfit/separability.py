"""Separability structure on agent positions.

An agent partition groups agents into disjoint index sets with one
target rank per set.  The structural property the resistant-hyperplane
mechanisms need is *well separability* of the x-projections: every two
disjoint groups of whole sets can be split by a hyperplane with all
named sets strictly on their assigned sides.  Strict separation of two
point clouds maximizes the margin over normals in the box |a_k| <= 1: in
closed form on a line, exactly among the box's corners and the normals of
the clouds' hull edges in the plane, and by a small LP in higher
dimensions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from . import core
from .core import DataSet, Hyperplane, predict_all
from .errors import ContractViolation, InternalInconsistency, NotPubliclySeparable
from .simplex import solve_lp

#: Margins at or below this, relative to half the largest coordinate range
#: of the points, are treated as failure to separate strictly.
SEPARATION_MARGIN = 1e-9

#: Relative error bound of a float orientation test (Shewchuk's orient2d
#: filter): a float cross product larger than this times the sum of its two
#: products' magnitudes has the sign of the exact one.
_ORIENT_ERR = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53

#: Relative tolerance of the separation LP.  Its optimum is judged against
#: ``SEPARATION_MARGIN``, so it must be found to well below that: at the
#: simplex's default tolerance of the same size, a margin a few times the
#: threshold could read as none.
SEPARATION_LP_TOL = 1e-12


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

    Maximizes the margin m  s.t.  a . x >= b + m (x in A),  a . x <= b - m
    (x in B),  |a_k| <= 1,  and accepts only margins above
    ``SEPARATION_MARGIN`` times half the union's largest coordinate range,
    so the answer does not depend on the units of the points.  Returns None
    when no such hyperplane exists.  The optimum is read off directly in
    d = 1 (normal +1 or -1, half the gap as margin), found exactly among a
    few candidate normals in d = 2 (see :func:`_separate_in_plane`), and
    solved as an LP in higher dimensions.
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
    if d == 2:
        return _separate_in_plane(a_points, b_points)
    return _separation_lp(a_points, b_points)


def _separation_lp(a_points: np.ndarray, b_points: np.ndarray) -> SeparatorWitness | None:
    """The separation optimum in any dimension, by the LP."""
    d = a_points.shape[1]
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
    res = solve_lp(c, a_ub=a_ub, b_ub=b_ub, bounds=bounds, tol=SEPARATION_LP_TOL)
    if not res.ok:
        raise InternalInconsistency(f"separation LP ended with status {res.status}")
    # Recompute offset and margin exactly for the returned normal, in the
    # original units: the LP satisfies its constraints only to solver
    # tolerance, while a witness must certify its own claim.
    normal = res.x[:d]
    return _witness(normal, float(np.min(a_points @ normal)),
                    float(np.max(b_points @ normal)), union)


def _witness(normal, lo: float, hi: float, union: np.ndarray) -> SeparatorWitness | None:
    """The witness of a normal under which A lies at or above ``lo`` and B
    at or below ``hi``, or None when its margin is too small to count."""
    margin = (lo - hi) / 2.0
    if margin <= SEPARATION_MARGIN * _margin_unit(union):
        return None
    return SeparatorWitness(normal, (lo + hi) / 2.0, margin)


def _margin_unit(union: np.ndarray) -> float:
    """Half the largest coordinate range of the points: the unit a
    separation margin is judged in.  It cannot grow when points are
    removed, so a split that is separated leaves every pair of groups
    within it separated (``is_well_separable`` relies on this)."""
    return float(np.ptp(union, axis=0).max()) / 2.0


def _separate_on_line(a_values: np.ndarray, b_values: np.ndarray) -> SeparatorWitness | None:
    """The separation optimum in d = 1: under |a| <= 1 the best normal is
    +1 or -1, with the midpoint of the gap as offset."""
    normal = 1.0 if a_values.min() > b_values.max() else -1.0
    return _witness(np.array([normal]), float(np.min(normal * a_values)),
                    float(np.max(normal * b_values)), np.concatenate([a_values, b_values]))


def _separate_in_plane(a_points: np.ndarray, b_points: np.ndarray) -> SeparatorWitness | None:
    """The separation optimum in d = 2, found exactly.

    The best margin of a normal a is f(a) = (min_A a . x - max_B a . x) / 2,
    a concave and positively homogeneous function.  A positive maximum over
    the box |a_k| <= 1 therefore lies on the box's boundary, where f is
    piecewise linear: it is attained at a corner of the box or at a kink of
    f, a normal perpendicular to an edge of the convex hull of A or of B
    (two points of one cloud tie for the min or the max there).  The
    corners and every such normal, scaled to max |a_k| = 1 and taken with
    both signs, are evaluated on all the points, and the best is the
    witness.  Swapping A and B negates every candidate exactly, so the
    margin does not depend on the order of the clouds.
    """
    edges = np.vstack([_hull_edges(a_points), _hull_edges(b_points)])
    kinks = edges[:, ::-1] * [-1.0, 1.0]
    kinks /= np.abs(kinks).max(axis=1, keepdims=True)
    corners = [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]
    normals = np.vstack([corners, kinks, -kinks])
    union, na = np.vstack([a_points, b_points]), len(a_points)
    lo, hi = np.empty(len(normals)), np.empty(len(normals))
    step = max(1, core.BLOCK_CELLS // len(union))
    for start in range(0, len(normals), step):
        chunk = normals[start:start + step]
        # elementwise, so that a negated normal gives exactly negated values
        values = union[:, :1] * chunk[:, 0] + union[:, 1:] * chunk[:, 1]
        lo[start:start + step] = values[:na].min(axis=0)
        hi[start:start + step] = values[na:].max(axis=0)
    best = int(np.argmax(lo - hi))
    return _witness(normals[best], float(lo[best]), float(hi[best]), union)


def _hull_edges(points: np.ndarray) -> np.ndarray:
    """The nonzero edge vectors of the convex hull of points in the plane,
    by Andrew's monotone chain with collinear boundary points kept (an edge
    may come in parts).  A cloud of at most three points is its own hull."""
    if len(points) > 3:
        ordered = points[np.lexsort((points[:, 1], points[:, 0]))].tolist()
        points = np.array(_chain(ordered) + _chain(ordered[::-1])).reshape(-1, 2)
    edges = np.concatenate([points[1:], points[:1]]) - points
    return edges[np.any(edges != 0.0, axis=1)]


def _chain(ordered: list) -> list:
    """One half of the monotone chain over points in sorted order, without
    its last point: it drops a point only where the boundary turns
    clockwise, and a point equal to the one before it."""
    out: list = []
    for p in ordered:
        if out and p == out[-1]:
            continue
        while len(out) >= 2 and _clockwise(out[-2], out[-1], p):
            out.pop()
        out.append(p)
    return out[:-1]


def _clockwise(o, a, b) -> bool:
    """Whether the path o -> a -> b turns clockwise, decided exactly: in
    floats where their error bound settles the sign, else in rationals.  A
    rounded test keeps a point a hair inside the hull, and so loses the
    hull edge that passes it."""
    left = (a[0] - o[0]) * (b[1] - o[1])
    right = (a[1] - o[1]) * (b[0] - o[0])
    size = abs(left) + abs(right)
    # the bound assumes no underflow, and inf or nan fail the comparison
    if size > 1e-280 and abs(left - right) > _ORIENT_ERR * size:
        return left < right
    o, a, b = ([Fraction(v) for v in q] for q in (o, a, b))
    return (a[0] - o[0]) * (b[1] - o[1]) < (a[1] - o[1]) * (b[0] - o[0])


def _splits(t: int):
    """The 2**(t-1) - 1 splits (I, J) of range(t) into two nonempty groups,
    each once: I holds set 0."""
    for size in range(1, t):
        for right in itertools.combinations(range(1, t), size):
            yield tuple(i for i in range(t) if i not in right), right


def is_well_separable(point_sets) -> bool:
    """Every two disjoint groups of sets must be strictly separable.

    Only the 2**(t-1) - 1 splits into two groups are tested (3 for t = 3,
    7 for t = 4): a hyperplane that separates a group from the union of the
    other sets separates it from any part of that union, by at least the
    same margin, and the unit that margin is judged in only shrinks.

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
    for left, right in _splits(t):
        a_cloud = np.vstack([point_sets[i] for i in left])
        b_cloud = np.vstack([point_sets[j] for j in right])
        if strictly_separates(a_cloud, b_cloud) is None:
            return False
    return True


def vertical_split(xs: np.ndarray, part: AgentPartition) -> tuple[tuple, tuple]:
    """The sets and ranks of two sets on a line, the left set first in x.

    Raises NotPubliclySeparable when their x-ranges touch or interleave;
    disjoint ranges are separated however small their gap.
    """
    first, second = (xs[list(s), 0] for s in part.sets)
    if first.max() < second.min():
        return part.sets, part.ranks
    if second.max() < first.min():
        return part.sets[::-1], part.ranks[::-1]
    raise NotPubliclySeparable("S and S' are not separated by a vertical line")


def is_publicly_separable(data: DataSet, part: AgentPartition) -> bool:
    """Well separability of the partition's x-projections; two sets on a
    line by the x-range rule of :func:`vertical_split`."""
    part.validate_against(data)
    if data.d == 1 and part.t == 2:
        try:
            vertical_split(data.xs, part)
        except NotPubliclySeparable:
            return False
        return True
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
    # each coordinate in exact power-of-two units of its largest |value|, as in grh
    exponent = np.frexp(np.abs(np.vstack(point_sets)).max(axis=0, initial=0.0))[1]
    point_sets = [np.ldexp(s, -exponent) for s in point_sets]
    union, tol = np.vstack(point_sets), 1e-9
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
    member of set t, or ``(t, ALL_ABOVE)`` for strictly above.  Such a set
    must exist over a publicly separable partition for distinct hyperplanes:
    ones whose predictions differ by more than 1e-12 of the largest |one|.
    """
    part.validate_against(data)
    p1, p2 = predict_all(h1, data), predict_all(h2, data)
    diff = p1 - p2
    if np.max(np.abs(diff)) <= 1e-12 * core.scale(p1, p2):
        raise ContractViolation("hyperplanes predict the same to 1e-12 relative")
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
