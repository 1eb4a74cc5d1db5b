"""Strict separation, well separability, and hyperplane comparison."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import truthfit.separability as separability

from truthfit import (
    AgentPartition,
    ContractViolation,
    DataSet,
    Hyperplane,
    Ordering,
    compare_hyperplanes,
    has_weak_general_position,
    is_admissible,
    is_publicly_separable,
    is_well_separable,
    strictly_separates,
)
from truthfit.random_instances import random_separable_instance
from truthfit.separability import SEPARATION_MARGIN


def check_witness(w, a_points, b_points):
    """A returned witness must actually separate with its claimed margin."""
    a_points = np.atleast_2d(a_points)
    b_points = np.atleast_2d(b_points)
    assert w.margin > SEPARATION_MARGIN
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
    pts, cut = cloud
    a, b = np.array(pts[:cut]), np.array(pts[cut:])
    w_ab = strictly_separates(a, b)
    w_ba = strictly_separates(b, a)
    assert (w_ab is None) == (w_ba is None)
    if w_ab is not None:
        assert w_ab.margin == pytest.approx(w_ba.margin, rel=1e-6)


def scipy_line_margin(a_vals, b_vals):
    """Optimal margin of the separation LP for points on a line, by HiGHS:
    max m  s.t.  a*x >= b + m on A,  a*x <= b - m on B,  |a| <= 1."""
    a_vals, b_vals = np.asarray(a_vals, float), np.asarray(b_vals, float)
    rows = [[-x, 1.0, 1.0] for x in a_vals] + [[x, -1.0, 1.0] for x in b_vals]
    res = linprog([0.0, 0.0, -1.0], A_ub=rows, b_ub=np.zeros(len(rows)),
                  bounds=[(-1.0, 1.0), (None, None), (None, None)], method="highs")
    assert res.status == 0
    return -res.fun


def on_a_plane(vals):
    """The same points as (x, 0) in R^2, which the simplex LP decides."""
    vals = np.asarray(vals, float)
    return np.column_stack([vals, np.zeros_like(vals)])


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
    lp = strictly_separates(on_a_plane(a_vals), on_a_plane(b_vals))
    optimum = scipy_line_margin(a_vals, b_vals)
    if margin is None:
        assert w is None and lp is None
        assert optimum <= SEPARATION_MARGIN + 1e-15
        return
    assert w.margin == margin
    assert optimum == pytest.approx(margin, rel=1e-9)
    assert lp.margin == pytest.approx(margin, rel=1e-9)
    assert w.normal[0] == lp.normal[0] == (1.0 if min(a_vals) > max(b_vals) else -1.0)
    assert w.offset == pytest.approx(lp.offset, abs=1e-12)
    check_witness(w, a, b)


@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=6),
    st.lists(st.floats(-100, 100), min_size=1, max_size=6),
)
# a badly scaled pair the LP once called not separable
@example([15.0, 5.960464477539063e-08], [0.0])
@settings(max_examples=150, deadline=None)
def test_separation_on_a_line_agrees_with_the_simplex_lp(a_vals, b_vals):
    w = strictly_separates(np.reshape(a_vals, (-1, 1)), np.reshape(b_vals, (-1, 1)))
    lp = strictly_separates(on_a_plane(a_vals), on_a_plane(b_vals))
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


# -- is_well_separable / is_publicly_separable -------------------------------


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
