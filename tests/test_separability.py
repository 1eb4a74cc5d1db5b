"""Strict separation, well separability, and hyperplane comparison."""

import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import truthfit.separability as separability
from truthfit import core

from truthfit import (
    AgentPartition,
    ContractViolation,
    DataSet,
    Hyperplane,
    MechanismKind,
    MechanismSpec,
    Ordering,
    compare_hyperplanes,
    fit_grh,
    has_weak_general_position,
    is_admissible,
    is_publicly_separable,
    is_well_separable,
    strictly_separates,
)
from truthfit.random_instances import random_separable_instance
from truthfit.separability import SEPARATION_MARGIN


def check_witness(w, a_points, b_points):
    """A returned witness must actually separate with its claimed margin,
    which must exceed SEPARATION_MARGIN times half the points' largest
    coordinate range."""
    a_points = np.atleast_2d(a_points)
    b_points = np.atleast_2d(b_points)
    union = np.vstack([a_points, b_points])
    assert w.margin > SEPARATION_MARGIN * np.ptp(union, axis=0).max() / 2
    npt.assert_array_less(w.offset + w.margin - 1e-9, a_points @ w.normal)
    npt.assert_array_less(b_points @ w.normal, w.offset - w.margin + 1e-9)


# -- strictly_separates ------------------------------------------------------


def test_separates_two_clusters_1d():
    a = np.array([[0.0], [1.0]])
    b = np.array([[5.0], [6.0]])
    w = strictly_separates(a, b)
    assert w is not None
    check_witness(w, a, b)


def test_separates_returns_none_on_overlap():
    a = np.array([[0.0], [2.0]])
    b = np.array([[1.0]])  # inside the hull of a
    assert strictly_separates(a, b) is None


def test_separates_shared_point_is_not_strict():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 0.0], [0.0, 1.0]])
    assert strictly_separates(a, b) is None


def test_separates_2d_diagonal():
    a = np.array([[0.0, 0.0], [1.0, 0.5]])
    b = np.array([[3.0, 4.0], [4.0, 3.0]])
    w = strictly_separates(a, b)
    assert w is not None
    check_witness(w, a, b)


def test_separates_rejects_empty_and_mismatched():
    with pytest.raises(ContractViolation):
        strictly_separates(np.empty((0, 1)), np.array([[1.0]]))
    with pytest.raises(ContractViolation):
        strictly_separates(np.array([[1.0]]), np.array([[1.0, 2.0]]))


def test_separates_d0_is_never_strict():
    assert strictly_separates(np.empty((1, 0)), np.empty((2, 0))) is None


@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=6),
    st.lists(st.floats(-100, 100), min_size=1, max_size=6),
    st.floats(min_value=0.1, max_value=50.0),
)
@settings(max_examples=150, deadline=None)
def test_separates_1d_iff_intervals_disjoint(a_vals, b_vals, gap):
    # shift B to the right of A by `gap` so the answer is known by construction
    b_shifted = [max(a_vals) + gap + (v - min(b_vals)) for v in b_vals]
    a = np.array(a_vals).reshape(-1, 1)
    b = np.array(b_shifted).reshape(-1, 1)
    w = strictly_separates(a, b)
    assert w is not None
    check_witness(w, a, b)
    # and any orientation of overlapping intervals fails
    assert strictly_separates(a, np.vstack([a, b])) is None


@given(
    st.lists(
        st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
        min_size=2,
        max_size=8,
    ).flatmap(lambda pts: st.tuples(st.just(pts), st.integers(1, len(pts) - 1)))
)
# a badly scaled pair the LP once solved to different margins each way
@example(([(0.0, 0.0)] * 4 + [(4.967199463050512e-08, 1e-10)], 4))
@settings(max_examples=60, deadline=None)
def test_separates_swap_symmetry(cloud):
    # swapping the clouds negates every candidate normal exactly
    pts, cut = cloud
    a, b = np.array(pts[:cut]), np.array(pts[cut:])
    w_ab = strictly_separates(a, b)
    w_ba = strictly_separates(b, a)
    assert (w_ab is None) == (w_ba is None)
    if w_ab is not None:
        assert w_ab.margin == w_ba.margin


def scipy_line_margin(a_vals, b_vals):
    """Optimal margin of the separation LP for points on a line, by HiGHS:
    max m  s.t.  a*x >= b + m on A,  a*x <= b - m on B,  |a| <= 1.

    HiGHS drops constraint entries below 1e-9 and counts points within its
    feasibility tolerance as tied, so it solves for the points centred on
    their midrange and scaled to unit half-range, at its tightest
    tolerances, and the margin of its normal is taken on the points
    themselves."""
    a_vals, b_vals = np.asarray(a_vals, float), np.asarray(b_vals, float)
    union = np.concatenate([a_vals, b_vals])
    centre = (union.max() + union.min()) / 2
    scale = (union.max() - union.min()) / 2 or 1.0
    a_unit, b_unit = (a_vals - centre) / scale, (b_vals - centre) / scale
    rows = [[-x, 1.0, 1.0] for x in a_unit] + [[x, -1.0, 1.0] for x in b_unit]
    res = linprog([0.0, 0.0, -1.0], A_ub=rows, b_ub=np.zeros(len(rows)),
                  bounds=[(-1.0, 1.0), (None, None), (None, None)], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0
    normal = res.x[0]
    return (np.min(normal * a_vals) - np.max(normal * b_vals)) / 2


def on_a_plane(vals):
    """The same points as (x, 0) in R^2."""
    vals = np.asarray(vals, float)
    return np.column_stack([vals, np.zeros_like(vals)])


def simplex_lp(a_vals, b_vals):
    """The separation LP on the simplex, for points on a line set in R^2."""
    return separability._separation_lp(on_a_plane(a_vals), on_a_plane(b_vals))


@pytest.mark.parametrize("a_vals, b_vals, margin", [
    ([0.0, 2.0], [1.0], None),                   # overlapping
    ([0.0, 2.0], [-1.0, 1.0, 3.0], None),        # B straddles A
    ([0.0, 1.0], [1.0, 3.0], None),              # touching
    ([-1.0, 0.0], [2e-9, 1.0], None),            # margin exactly SEPARATION_MARGIN
    ([-1.0, 0.0], [3e-9, 1.0], 1.5e-9),          # just above it
    ([0.0, 1.0], [5.0, 6.0], 2.0),               # A on the left
    ([5.0, 6.0], [0.0, 1.0], 2.0),               # A on the right
])
def test_separation_on_a_line_is_the_lp_optimum(a_vals, b_vals, margin):
    a, b = np.reshape(a_vals, (-1, 1)), np.reshape(b_vals, (-1, 1))
    w = strictly_separates(a, b)
    lp = simplex_lp(a_vals, b_vals)
    plane = strictly_separates(on_a_plane(a_vals), on_a_plane(b_vals))
    optimum = scipy_line_margin(a_vals, b_vals)
    if margin is None:
        assert w is None and lp is None and plane is None
        assert optimum <= SEPARATION_MARGIN + 1e-15
        return
    assert w.margin == plane.margin == margin
    assert optimum == pytest.approx(margin, rel=1e-9)
    assert lp.margin == pytest.approx(margin, rel=1e-9)
    assert w.normal[0] == lp.normal[0] == (1.0 if min(a_vals) > max(b_vals) else -1.0)
    assert w.offset == pytest.approx(lp.offset, abs=1e-12)
    check_witness(w, a, b)


@pytest.mark.parametrize("scale", [1e-6, 1e6])
@pytest.mark.parametrize("b_vals, separated", [([2e-9, 1.0], False), ([3e-9, 1.0], True)])
def test_separation_margin_is_judged_relative_to_the_range(scale, b_vals, separated):
    # at 1e6 the first pair's margin is 1e-3, which an absolute 1e-9 accepted
    a_vals = scale * np.array([-1.0, 0.0])
    b_vals = scale * np.array(b_vals)
    w = strictly_separates(a_vals[:, None], b_vals[:, None])
    lp = simplex_lp(a_vals, b_vals)
    plane = strictly_separates(on_a_plane(a_vals), on_a_plane(b_vals))
    assert (w is not None) == (lp is not None) == (plane is not None) == separated
    if separated:
        assert w.margin == plane.margin == 1.5e-9 * scale
        assert lp.margin == pytest.approx(w.margin, rel=1e-9)


@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=6),
    st.lists(st.floats(-100, 100), min_size=1, max_size=6),
)
# badly scaled pairs the LP once called not separable
@example([15.0, 5.960464477539063e-08], [0.0])
@example([60.0, 1.192092896e-07], [0.0])
# a gap below HiGHS's smallest constraint entry
@example([0.0], [1e-10])
# a gap within HiGHS's default feasibility tolerance once scaled
@example([3.0], [1.192092896e-07, 0.0])
@settings(max_examples=150, deadline=None)
def test_separation_on_a_line_agrees_with_the_simplex_lp(a_vals, b_vals):
    w = strictly_separates(np.reshape(a_vals, (-1, 1)), np.reshape(b_vals, (-1, 1)))
    lp = simplex_lp(a_vals, b_vals)
    assert (w is None) == (lp is None)
    if w is not None:
        assert w.margin == pytest.approx(lp.margin, rel=1e-9, abs=1e-12)
        assert w.normal[0] == lp.normal[0]
        assert w.margin == pytest.approx(scipy_line_margin(a_vals, b_vals), rel=1e-9)


def test_line_separation_and_d1_instances_solve_no_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved for points on a line")

    monkeypatch.setattr(separability, "solve_lp", no_lp)
    assert strictly_separates(np.array([[0.0], [1.0]]), np.array([[3.0]])) is not None
    data, part = random_separable_instance(np.random.default_rng(2), 1, sizes=(4, 3))
    assert is_publicly_separable(data, part)


@pytest.mark.parametrize("d, lps", [(1, 0), (2, 0), (3, 7)])
def test_a_resistant_hyperplane_bind_solves_one_lp_per_two_group_split(monkeypatch, d, lps):
    data, part = random_separable_instance(np.random.default_rng(4), d, sizes=(2,) * (d + 1))
    calls = []

    def counted(*args, _solve=separability.solve_lp, **kwargs):
        calls.append(1)
        return _solve(*args, **kwargs)

    monkeypatch.setattr(separability, "solve_lp", counted)
    MechanismSpec(MechanismKind.GRH, part).bind(data)
    assert len(calls) == lps


@st.composite
def plane_pairs(draw):
    """Two clouds of 1..8 points in the plane: on a small integer grid
    (shared points, collinear runs and touching hulls abound) or spread
    continuously."""
    grid = draw(st.booleans())
    coord = st.integers(-2, 2).map(float) if grid else st.floats(-3.0, 3.0)
    shift = draw(st.tuples(*[st.integers(-3, 3).map(float)] * 2))
    clouds = [np.array(draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=8)))
              for _ in range(2)]
    return clouds[0], clouds[1] + shift


def all_pairs_margin(a, b):
    """The best margin over the box's corners and the normals of every pair
    of distinct points of one cloud: the planar rule without its hull step."""
    normals = [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]
    for cloud in (a, b):
        for p, q in itertools.combinations(cloud, 2):
            if np.any(p != q):
                kink = np.array([q[1] - p[1], p[0] - q[0]]) / np.abs(p - q).max()
                normals += [kink, -kink]
    normals = np.array(normals)
    return np.max((a @ normals.T).min(axis=0) - (b @ normals.T).max(axis=0)) / 2


@given(plane_pairs())
# at the simplex's default tolerance the LP stopped 8.3e-10 short of this
# family's optimum, at the normal (1, -1e-8/3)
@example((np.array([[0.0, 0.0]]),
          np.array([[-1.0, -1.0], [-1.0, 0.0], [-0.99999999, 2.0]])))
# a float orientation test kept (0, 0) on A's hull and lost the edge
# from (-1, -1) to (1, 0)
@example((np.array([[0.0, 0.0], [1.0, 0.0], [1.17549435e-38, 0.0], [-1.0, -1.0]]),
          np.array([[0.0, -1.0]])))
@settings(max_examples=400, deadline=None)
def test_separation_in_the_plane_is_the_optimum(clouds):
    a, b = clouds
    w, lp = strictly_separates(a, b), separability._separation_lp(a, b)
    unit = np.ptp(np.vstack([a, b]), axis=0).max() / 2
    best = all_pairs_margin(a, b)
    if w is None:
        assert best <= (SEPARATION_MARGIN + 1e-12) * unit
    else:
        check_witness(w, a, b)
        assert np.abs(w.normal).max() == 1.0
        assert w.margin == pytest.approx(best, abs=1e-12 * unit)
    # the simplex LP decides the same away from the threshold; it can stop
    # short of the optimum, or leave the box |a_k| <= 1, by its tolerances
    if lp is not None:
        assert w is not None
        assert w.margin == pytest.approx(lp.margin, abs=1e-8 * unit)
    elif w is not None:
        assert w.margin <= (SEPARATION_MARGIN + 1e-8) * unit


def test_separation_in_the_plane_is_exact_near_the_threshold():
    # at the simplex's default tolerance the LP refused this family; its
    # optimum, the normal (-1, -1) at margin 6.5e-10, beats the threshold 5e-10
    a, b = np.array([[0.0, 0.0]]), np.array([[1.3e-9, 0.0], [1.0, 0.0], [0.5, 0.5]])
    w = strictly_separates(a, b)
    assert w.margin == 6.5e-10
    assert separability._separation_lp(a, b).margin == pytest.approx(w.margin, rel=1e-6)
    check_witness(w, a, b)
    assert is_well_separable([a, b[:2], b[2:]])


def test_separation_in_the_plane_evaluates_normals_in_chunks(monkeypatch):
    # points in convex position keep every point on the hull
    angles = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
    a = np.column_stack([np.cos(angles), np.sin(angles)])
    b = a + [3.0, 1.0]
    whole = strictly_separates(a, b)
    monkeypatch.setattr(core, "BLOCK_CELLS", 1)
    chunked = strictly_separates(a, b)
    assert whole.margin == chunked.margin > 0
    npt.assert_array_equal(whole.normal, chunked.normal)


# -- is_well_separable / is_publicly_separable -------------------------------


def all_pairs_well_separable(point_sets) -> bool:
    """The definition itself: every two disjoint nonempty groups of sets
    are strictly separable, tested pair by pair."""
    for assignment in itertools.product((0, 1, 2), repeat=len(point_sets)):
        left = [i for i, a in enumerate(assignment) if a == 1]
        right = [i for i, a in enumerate(assignment) if a == 2]
        if not left or not right or min(left) > min(right):
            continue
        if strictly_separates(np.vstack([point_sets[i] for i in left]),
                              np.vstack([point_sets[j] for j in right])) is None:
            return False
    return True


@st.composite
def set_families(draw):
    """t <= d+1 sets of 1..4 points in R^d, d <= 3, each around a centre on
    a coarse grid: points on an integer grid (shared points and touching
    hulls abound) or spread continuously."""
    d = draw(st.integers(1, 3))
    t = draw(st.integers(1, d + 1))
    grid = draw(st.booleans())
    offset = st.integers(-1, 1).map(float) if grid else st.floats(-1.5, 1.5)
    family = []
    for _ in range(t):
        centre = 2.0 * np.array(draw(st.tuples(*[st.integers(-1, 1)] * d)), dtype=float)
        points = draw(st.lists(st.tuples(*[offset] * d), min_size=1, max_size=4))
        family.append(centre + np.array(points, dtype=float))
    return family


@given(set_families())
# a pair near the threshold inside wider splits: the unit a margin is
# judged in must not grow from a split to a pair within it
@example([np.array([[0.0, 0.0]]), np.array([[1.3e-9, 0.0], [1.0, 0.0]]),
          np.array([[0.5, 0.5]])])
@settings(max_examples=400, deadline=None)
def test_well_separability_from_the_splits_is_the_all_pairs_definition(family):
    assert is_well_separable(family) == all_pairs_well_separable(family)


def test_interleaved_intervals_are_not_well_separable():
    sets = [np.array([[0.0], [2.0]]), np.array([[1.0]])]
    assert not is_well_separable(sets)


def test_two_disjoint_intervals_are_well_separable():
    sets = [np.array([[0.0], [1.0]]), np.array([[4.0], [5.0]])]
    assert is_well_separable(sets)


def test_three_clusters_at_triangle_corners_d2():
    rng = np.random.default_rng(7)
    corners = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 9.0]])
    sets = [c + 0.5 * rng.standard_normal((3, 2)) for c in corners]
    assert is_well_separable(sets)


def test_point_inside_pair_hull_breaks_well_separability():
    sets = [
        np.array([[0.0, 0.0], [4.0, 0.0]]),
        np.array([[2.0, 2.0]]),
        np.array([[2.0, -0.0]]),  # on the segment between the first set's points
    ]
    assert not is_well_separable(sets)


def test_too_many_sets_rejected():
    # three sets on a line can never be well separable: flagged, not False
    with pytest.raises(ContractViolation):
        is_well_separable([np.array([[0.0]]), np.array([[1.0]]), np.array([[2.0]])])
    with pytest.raises(ContractViolation):
        is_well_separable([])


def test_is_publicly_separable_wraps_x_projections():
    data = DataSet(np.array([[0.0], [1.0], [5.0], [6.0]]), np.zeros(4))
    good = AgentPartition(((0, 1), (2, 3)), (1, 1))
    bad = AgentPartition(((0, 2), (1, 3)), (1, 1))
    assert is_publicly_separable(data, good)
    assert not is_publicly_separable(data, bad)


def test_two_sets_on_a_line_are_separable_exactly_when_grh_fits():
    # the margin rule once refused this split while fit_grh, by the x-range
    # rule, fitted its line; clouds on a line keep the margin rule
    data = DataSet(np.array([[0.0], [1e-12], [1.0], [2.0]]), np.arange(4.0))
    part = AgentPartition(((0,), (1, 2, 3)), (1, 2))
    assert is_publicly_separable(data, part)
    npt.assert_array_equal(fit_grh(data, part).hyperplane.coefficients(), [2.0, 0.0])
    assert strictly_separates(data.xs[:1], data.xs[1:]) is None
    touching = AgentPartition(((0, 1), (2, 3)), (1, 1))
    assert not is_publicly_separable(DataSet(np.array([[0.0], [1.0], [1.0], [2.0]]),
                                             np.arange(4.0)), touching)


def test_partition_validation():
    with pytest.raises(ContractViolation):
        AgentPartition(((0, 1), (1, 2)), (1, 1))  # overlap
    with pytest.raises(ContractViolation):
        AgentPartition(((0,),), (2,))  # rank out of range
    with pytest.raises(ContractViolation):
        AgentPartition((), ())
    part = AgentPartition(((0, 3),), (2,))
    with pytest.raises(ContractViolation):
        part.validate_against(DataSet(np.array([[0.0], [1.0]]), np.zeros(2)))


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_random_separable_instances_pass_the_check(seed, d):
    rng = np.random.default_rng(seed)
    data, part = random_separable_instance(rng, d)
    assert is_publicly_separable(data, part)


# -- weak general position ---------------------------------------------------


def test_wgp_fails_on_collinear_transversal():
    sets = [
        np.array([[0.0, 0.0]]),
        np.array([[1.0, 1.0]]),
        np.array([[2.0, 2.0]]),  # transversal is affinely dependent
    ]
    assert not has_weak_general_position(sets)


def test_wgp_fails_when_extra_point_sits_on_the_flat():
    sets = [
        np.array([[0.0, 0.0], [2.0, 2.0]]),  # second point lies on the span below
        np.array([[1.0, 1.0]]),
        np.array([[4.0, 2.0]]),
    ]
    assert not has_weak_general_position(sets)


def test_wgp_holds_for_generic_points():
    # k sets in R^k: transversals span hyperplanes that generically miss
    # every other point
    rng = np.random.default_rng(3)
    sets2 = [rng.standard_normal((3, 2)) + off for off in ([0, 0], [10, 0])]
    assert has_weak_general_position(sets2)
    sets3 = [rng.standard_normal((2, 3)) + off
             for off in ([0, 0, 0], [10, 0, 0], [0, 10, 0])]
    assert has_weak_general_position(sets3)


def test_wgp_single_set_point_semantics():
    # sets of points, not multisets: an exact duplicate is the same point,
    # but a distinct coincident-within-tolerance point breaks the property
    assert has_weak_general_position([np.array([[1.0], [2.0]])])
    assert not has_weak_general_position([np.array([[1.0], [1.0 + 1e-12]])])


# -- is_admissible -----------------------------------------------------------


def test_is_admissible_module_level_is_d1_only():
    with pytest.raises(ContractViolation):
        is_admissible(DataSet(np.array([[0.0, 1.0]]), np.array([0.0])))
    assert is_admissible(DataSet(np.array([[0.0], [1.0]]), np.zeros(2)))
    assert not is_admissible(DataSet(np.array([[1.0], [1.0]]), np.zeros(2)))


# -- compare_hyperplanes -----------------------------------------------------


def test_compare_hyperplanes_finds_a_decisive_set():
    data = DataSet(np.array([[0.0], [1.0], [5.0], [6.0]]), np.zeros(4))
    part = AgentPartition(((0, 1), (2, 3)), (1, 1))
    h1 = Hyperplane(np.array([0.0]), 0.0)
    h2 = Hyperplane(np.array([1.0]), -3.0)  # crosses between the clusters
    t, order = compare_hyperplanes(data, part, h1, h2)
    # h1 - h2 = 3 - x: positive on {0,1}, negative on {2,3}
    assert (t, order) in {(0, Ordering.ALL_ABOVE), (1, Ordering.ALL_BELOW)}
    diff = 3.0 - data.xs[:, 0]
    members = list(part.sets[t])
    if order is Ordering.ALL_ABOVE:
        assert np.all(diff[members] > 0)
    else:
        assert np.all(diff[members] < 0)


def test_compare_equal_hyperplanes_rejected():
    data = DataSet(np.array([[0.0], [5.0]]), np.zeros(2))
    part = AgentPartition(((0,), (1,)), (1, 1))
    h = Hyperplane(np.array([1.0]), 0.0)
    with pytest.raises(ContractViolation):
        compare_hyperplanes(data, part, h, Hyperplane(np.array([1.0]), 5e-13))


@pytest.mark.parametrize("scale", [1e-13, 1.0, 1e6])
def test_compare_hyperplanes_equality_is_relative(scale):
    data = DataSet(np.array([[0.0], [1.0], [5.0], [6.0]]), np.zeros(4))
    part = AgentPartition(((0, 1), (2, 3)), (1, 1))
    flat = Hyperplane(np.array([0.0]), 0.0)
    raised = Hyperplane(np.array([0.0]), scale)
    assert compare_hyperplanes(data, part, flat, raised) == (0, Ordering.ALL_BELOW)
    h = Hyperplane(np.array([scale]), 0.0)
    for same in (h, Hyperplane(np.array([scale]), 5e-13 * scale)):
        with pytest.raises(ContractViolation):
            compare_hyperplanes(data, part, h, same)


@pytest.mark.parametrize("k", [-30, 0, 30])
def test_compare_hyperplanes_equality_does_not_depend_on_the_units_of_x(k):
    # equal coefficientwise within 1e-12 of max |beta| once called these
    # equal at x = (0, 1, 5, 6) * 2^-30, where they predict 1e-6 apart
    factor = 2.0 ** k
    data = DataSet(factor * np.array([[0.0], [1.0], [5.0], [6.0]]), np.zeros(4))
    part = AgentPartition(((0, 1), (2, 3)), (1, 1))
    h1 = Hyperplane(np.array([1.0 / factor]), 0.0)
    h2 = Hyperplane(np.array([1.0 / factor]), 1e-6)
    assert compare_hyperplanes(data, part, h1, h2) == (0, Ordering.ALL_BELOW)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
@settings(max_examples=80, deadline=None)
def test_compare_hyperplanes_verdict_is_sound(seed, d):
    rng = np.random.default_rng(seed)
    data, part = random_separable_instance(rng, d)
    h1 = Hyperplane(rng.standard_normal(d), float(rng.standard_normal()))
    h2 = Hyperplane(rng.standard_normal(d), float(rng.standard_normal()))
    if np.max(np.abs(h1.coefficients() - h2.coefficients())) <= 1e-12:
        return
    t, order = compare_hyperplanes(data, part, h1, h2)
    diff = data.xs[list(part.sets[t])] @ h1.beta1 + h1.beta0
    diff -= data.xs[list(part.sets[t])] @ h2.beta1 + h2.beta0
    if order is Ordering.ALL_BELOW:
        assert np.all(diff < 0)
    else:
        assert np.all(diff > 0)
