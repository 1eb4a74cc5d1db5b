"""Data-set container, hyperplane arithmetic, and order-statistic medians."""

import math
import statistics

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truthfit import (
    ContractViolation,
    DataSet,
    Hyperplane,
    MedianSide,
    median_with_side,
    order_statistic,
    outcomes,
    predict,
    predict_all,
    rss,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
extended = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False) | st.sampled_from(
    [math.inf, -math.inf]
)


# -- DataSet -----------------------------------------------------------------


def test_dataset_shapes_and_design_matrix():
    d = DataSet(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), np.array([7.0, 8.0, 9.0]))
    assert d.n == 3 and d.d == 2
    npt.assert_array_equal(d.xbar()[:, -1], np.ones(3))
    npt.assert_array_equal(d.xbar()[:, :2], d.xs)


def test_dataset_d0_from_empty_positions():
    d = DataSet(np.empty((4, 0)), np.array([1.0, 2.0, 3.0, 4.0]))
    assert d.d == 0 and d.n == 4
    assert d.xbar().shape == (4, 1)


def test_dataset_rejects_mismatched_rows():
    with pytest.raises(ContractViolation):
        DataSet(np.array([[1.0], [2.0]]), np.array([1.0, 2.0, 3.0]))


def test_dataset_rejects_empty():
    with pytest.raises(ContractViolation):
        DataSet(np.empty((0, 1)), np.array([]))


def test_dataset_rejects_nonfinite():
    with pytest.raises(ContractViolation):
        DataSet(np.array([[1.0], [np.inf]]), np.array([0.0, 0.0]))
    with pytest.raises(ContractViolation):
        DataSet(np.array([[1.0], [2.0]]), np.array([0.0, np.nan]))


def test_with_reports_replaces_only_named_agents():
    d = DataSet(np.array([[0.0], [1.0], [2.0]]), np.array([5.0, 6.0, 7.0]))
    d2 = d.with_reports({1: -1.0})
    npt.assert_array_equal(d2.ys, [5.0, -1.0, 7.0])
    npt.assert_array_equal(d.ys, [5.0, 6.0, 7.0])  # original untouched
    assert d2.xs is d.xs or np.array_equal(d2.xs, d.xs)


def test_with_reports_checks_index_range():
    d = DataSet(np.array([[0.0], [1.0]]), np.array([0.0, 0.0]))
    with pytest.raises(ContractViolation):
        d.with_reports({2: 1.0})
    with pytest.raises(ContractViolation):
        d.with_reports({-1: 1.0})


def test_is_admissible_exact_duplicates_only():
    assert DataSet(np.array([[0.0], [1.0]]), np.array([0.0, 0.0])).is_admissible()
    assert not DataSet(np.array([[1.0], [1.0]]), np.array([0.0, 1.0])).is_admissible()
    # distinct in the second coordinate is enough in d = 2
    assert DataSet(
        np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([0.0, 0.0])
    ).is_admissible()


@st.composite
def positions(draw):
    """Rows drawn from a few values, so that duplicates, 0.0 against -0.0
    and d = 0 all come up."""
    d = draw(st.integers(0, 3))
    n = draw(st.integers(1, 7))
    value = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]) | finite
    rows = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        rows[-1] = list(rows[draw(st.integers(0, n - 2))])
    return np.array(rows, dtype=float).reshape(n, d)


@given(positions())
@settings(max_examples=300, deadline=None)
def test_is_admissible_equals_the_set_of_rows_reference(xs):
    data = DataSet(xs, np.zeros(xs.shape[0]))
    assert data.is_admissible() == (len({tuple(row) for row in xs}) == xs.shape[0])


def test_is_admissible_treats_signed_zeros_and_d0_exactly():
    assert not DataSet(np.array([[0.0, 1.0], [-0.0, 1.0]]), np.zeros(2)).is_admissible()
    assert DataSet(np.zeros((1, 0)), np.zeros(1)).is_admissible()
    assert not DataSet(np.zeros((2, 0)), np.zeros(2)).is_admissible()


# -- Hyperplane --------------------------------------------------------------


def test_hyperplane_coefficients_order():
    h = Hyperplane(np.array([2.0, 3.0]), -1.0)
    npt.assert_array_equal(h.coefficients(), [2.0, 3.0, -1.0])
    assert h.d == 2


def test_hyperplane_rejects_nonfinite():
    with pytest.raises(ContractViolation):
        Hyperplane(np.array([np.inf]), 0.0)
    with pytest.raises(ContractViolation):
        Hyperplane(np.array([1.0]), math.nan)


def test_close_to_uses_max_abs_difference():
    a = Hyperplane(np.array([1.0]), 2.0)
    assert a.close_to(Hyperplane(np.array([1.0 + 5e-10]), 2.0))
    assert not a.close_to(Hyperplane(np.array([1.0 + 5e-9]), 2.0))
    assert not a.close_to(Hyperplane(np.array([1.0, 0.0]), 2.0))  # dimension mismatch


def test_predict_and_residuals_match_manual_arithmetic():
    d = DataSet(np.array([[1.0], [2.0], [4.0]]), np.array([3.0, 5.0, 6.0]))
    h = Hyperplane(np.array([0.5]), 1.0)
    npt.assert_allclose(predict_all(h, d), [1.5, 2.0, 3.0])
    assert predict(h, [2.0]) == 2.0
    rec = outcomes(h, d)
    npt.assert_allclose(rec.residuals, [1.5, 3.0, 3.0])
    npt.assert_allclose(rss(d, h), 1.5**2 + 9.0 + 9.0)


def test_predict_dimension_mismatch():
    h = Hyperplane(np.array([1.0]), 0.0)
    with pytest.raises(ContractViolation):
        predict(h, [1.0, 2.0])
    with pytest.raises(ContractViolation):
        predict_all(h, DataSet(np.array([[1.0, 2.0]]), np.array([0.0])))


def test_predict_d0_is_the_intercept():
    h = Hyperplane(np.array([]), 4.5)
    assert predict(h, []) == 4.5


# -- order statistics --------------------------------------------------------


def test_order_statistic_doc_example():
    assert order_statistic([3.0, 1.0, 2.0], 2) == 2.0


def test_order_statistic_handles_infinities():
    vals = [1.0, -math.inf, math.inf, 0.0]
    assert order_statistic(vals, 1) == -math.inf
    assert order_statistic(vals, 4) == math.inf
    assert order_statistic(vals, 3) == 1.0


def test_order_statistic_rank_bounds():
    with pytest.raises(ContractViolation):
        order_statistic([1.0], 0)
    with pytest.raises(ContractViolation):
        order_statistic([1.0], 2)
    with pytest.raises(ContractViolation):
        order_statistic([], 1)
    with pytest.raises(ContractViolation):
        order_statistic([math.nan], 1)


@given(st.lists(extended, min_size=1, max_size=40), st.data())
@settings(max_examples=200)
def test_order_statistic_is_sorted_indexing(values, data):
    j = data.draw(st.integers(min_value=1, max_value=len(values)))
    assert order_statistic(values, j) == sorted(values)[j - 1]


def test_median_sides_on_even_counts():
    vals = [4.0, 1.0, 3.0, 2.0]
    assert median_with_side(vals, MedianSide.LEFT) == 2.0
    assert median_with_side(vals, MedianSide.RIGHT) == 3.0


def test_median_odd_count_ignores_side():
    vals = [5.0, 1.0, 9.0]
    assert median_with_side(vals, MedianSide.LEFT) == 5.0
    assert median_with_side(vals, MedianSide.RIGHT) == 5.0


@given(st.lists(finite, min_size=1, max_size=25))
@settings(max_examples=200)
def test_median_matches_statistics_low_high(values):
    assert median_with_side(values, MedianSide.LEFT) == statistics.median_low(values)
    assert median_with_side(values, MedianSide.RIGHT) == statistics.median_high(values)


@given(st.lists(extended, min_size=1, max_size=25), st.sampled_from(list(MedianSide)))
@settings(max_examples=200)
def test_median_is_an_element_of_the_input(values, side):
    m = median_with_side(values, side)
    assert m in values


@given(st.lists(finite, min_size=1, max_size=25), finite)
@settings(max_examples=100)
def test_median_translation_equivariance(values, shift):
    shifted = [v + shift for v in values]
    assert median_with_side(shifted) == pytest.approx(
        median_with_side(values) + shift, abs=1e-9 * (1 + abs(shift))
    )
