"""Resistant hyperplanes: transversal enumeration against a brute oracle."""

import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truthfit import (
    AdmissibilityError,
    AgentPartition,
    ContractViolation,
    DataSet,
    MedianSide,
    NotPubliclySeparable,
    fit_grh,
    fit_grl,
    preset_partition,
    traversal_hyperplanes,
)
from truthfit.grh import in_weak_general_position, median_rank, satisfies_rank_conditions
from truthfit.random_instances import random_separable_instance, random_split_line_instance


def oracle_hits(data, part):
    """All satisfying transversal hyperplanes, solved one at a time.

    Scalar Python counting of residual signs; returns the deduplicated
    coefficient vectors so the caller can assert uniqueness independently.
    """
    tol = 1e-9 * (1.0 + float(np.max(np.abs(data.ys))))
    xbar = np.hstack([data.xs, np.ones((data.n, 1))])
    hits = []
    for trav in itertools.product(*part.sets):
        a = xbar[list(trav)]
        try:
            beta = np.linalg.solve(a, data.ys[list(trav)])
        except np.linalg.LinAlgError:
            continue
        res = data.ys - xbar @ beta
        good = True
        for members, k in zip(part.sets, part.ranks):
            neg = sum(1 for i in members if res[i] < -tol)
            nonpos = sum(1 for i in members if res[i] <= tol)
            if neg > k - 1 or nonpos < k:
                good = False
                break
        if good:
            hits.append(beta)
    unique = []
    for beta in hits:
        if not any(np.max(np.abs(beta - u)) <= 1e-9 for u in unique):
            unique.append(beta)
    return unique


# -- pinned example ------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2])
def test_collinear_data_at_large_scale_fits_the_exact_hyperplane(d):
    # every transversal interpolates the same hyperplane, up to rounding at
    # the scale of the data; deduplication must be relative to that scale
    rng = np.random.default_rng(8)
    if d == 1:
        xs = np.arange(8.0).reshape(-1, 1)
        part = preset_partition(DataSet(xs, np.zeros(8)), "brown-mood")
    else:
        data, part = random_separable_instance(rng, 2, sizes=(3, 3, 3))
        xs = data.xs
    beta = np.array([0.37e6, -0.21e6, 0.7e6][-(d + 1):])
    data = DataSet(xs, xs @ beta[:-1] + beta[-1])
    h = fit_grh(data, part).hyperplane
    npt.assert_allclose(h.coefficients(), beta, rtol=1e-12)



def test_grl_pinned_two_two_example():
    data = DataSet(np.array([[0.0], [0.5], [2.0], [3.0]]),
                   np.array([0.0, 2.0, 0.0, 3.0]))
    h = fit_grl(data, (0, 1), (2, 3), 2, 1)
    npt.assert_allclose(h.coefficients(), [-4.0 / 3.0, 8.0 / 3.0], atol=1e-12)
    # second-smallest residual in S and smallest in S' are zero
    res = data.ys - (data.xs[:, 0] * h.beta1 + h.beta0)
    assert sorted(np.abs(res[:2]))[0] <= 1e-9 or abs(sorted(res[:2])[1]) <= 1e-9
    assert abs(sorted(res[2:])[0]) <= 1e-9


def test_grl_agrees_with_grh_and_reports_traversal():
    data = DataSet(np.array([[0.0], [0.5], [2.0], [3.0]]),
                   np.array([0.0, 2.0, 0.0, 3.0]))
    part = AgentPartition(((0, 1), (2, 3)), (2, 1))
    result = fit_grh(data, part)
    line = fit_grl(data, (0, 1), (2, 3), 2, 1)
    assert result.hyperplane.close_to(line, tol=1e-12)
    assert result.candidates_examined == 4
    # the reported traversal is interpolated exactly
    res = data.ys - (data.xs[:, 0] * result.hyperplane.beta1 + result.hyperplane.beta0)
    for i in result.traversal:
        assert abs(res[i]) <= 1e-9
    assert result.traversal[0] in (0, 1) and result.traversal[1] in (2, 3)


# -- validation ----------------------------------------------------------------


def test_grl_requires_vertical_separation():
    data = DataSet(np.array([[0.0], [2.0], [1.0]]), np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ContractViolation):
        fit_grl(data, (0, 1), (2,), 1, 1)  # S' sits between S members


def test_grl_requires_d1():
    data = DataSet(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.0, 1.0]))
    with pytest.raises(ContractViolation):
        fit_grl(data, (0,), (1,), 1, 1)


def test_grh_set_count_must_be_d_plus_one():
    data = DataSet(np.array([[0.0], [1.0], [5.0]]), np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ContractViolation):
        fit_grh(data, AgentPartition(((0,), (1,), (2,)), (1, 1, 1)))


def test_grh_rejects_inseparable_partitions():
    data = DataSet(np.array([[0.0], [1.0], [2.0], [3.0]]), np.zeros(4))
    with pytest.raises(NotPubliclySeparable):
        fit_grh(data, AgentPartition(((0, 2), (1, 3)), (1, 1)))


def test_traversal_hyperplanes_flags_singular_systems():
    # duplicated position across sets makes one interpolation system singular
    data = DataSet(np.array([[1.0], [1.0], [5.0]]), np.array([0.0, 1.0, 2.0]))
    part = AgentPartition(((0, 2), (1,)), (1, 1))
    with pytest.raises(NotPubliclySeparable):
        traversal_hyperplanes(data, part)


def test_traversal_hyperplanes_enumerates_all_products():
    data = DataSet(np.array([[0.0], [0.5], [2.0], [3.0]]),
                   np.array([0.0, 2.0, 0.0, 3.0]))
    part = AgentPartition(((0, 1), (2, 3)), (1, 1))
    pairs = traversal_hyperplanes(data, part)
    assert [t for t, _ in pairs] == [(0, 2), (0, 3), (1, 2), (1, 3)]
    for (i, j), h in pairs:
        assert data.ys[i] == pytest.approx(h.beta1 * data.xs[i, 0] + h.beta0)
        assert data.ys[j] == pytest.approx(h.beta1 * data.xs[j, 0] + h.beta0)


# -- preset partitions -----------------------------------------------------------


def test_brown_mood_halves_and_ranks():
    data = DataSet(np.array([[3.0], [1.0], [2.0], [5.0], [4.0]]), np.zeros(5))
    part = preset_partition(data, "brown-mood")
    assert set(part.sets[0]) == {1, 2}  # two smallest x's
    assert set(part.sets[1]) == {0, 3, 4}
    assert part.ranks == (1, 2)  # left median of 2, median of 3


def test_tukey_outer_thirds():
    xs = np.arange(7.0).reshape(-1, 1)
    part = preset_partition(DataSet(xs, np.zeros(7)), "tukey")
    assert set(part.sets[0]) == {0, 1, 2}
    assert set(part.sets[1]) == {4, 5, 6}
    assert part.ranks == (2, 2)


def test_tukey_smallest_cases():
    part = preset_partition(DataSet(np.array([[0.0], [1.0]]), np.zeros(2)), "tukey")
    assert part.sets == ((0,), (1,))
    part3 = preset_partition(DataSet(np.array([[0.0], [1.0], [2.0]]), np.zeros(3)), "tukey")
    assert part3.sets == ((0,), (2,))


def test_preset_side_switches_even_ranks():
    data = DataSet(np.arange(4.0).reshape(-1, 1), np.zeros(4))
    assert preset_partition(data, "brown-mood", MedianSide.LEFT).ranks == (1, 1)
    assert preset_partition(data, "brown-mood", MedianSide.RIGHT).ranks == (2, 2)


def test_preset_validation():
    with pytest.raises(ContractViolation):
        preset_partition(DataSet(np.array([[0.0, 1.0]]), np.zeros(1)), "brown-mood")
    with pytest.raises(ContractViolation):
        preset_partition(DataSet(np.array([[0.0]]), np.zeros(1)), "brown-mood")
    with pytest.raises(AdmissibilityError):
        preset_partition(DataSet(np.array([[1.0], [1.0]]), np.zeros(2)), "tukey")
    data = DataSet(np.array([[0.0], [1.0]]), np.zeros(2))
    with pytest.raises(ContractViolation):
        preset_partition(data, "theil-sen")
    with pytest.raises(ContractViolation):
        median_rank(0)


# -- oracle agreement ------------------------------------------------------------


@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=3))
@settings(max_examples=150, deadline=None)
def test_fit_matches_brute_force_oracle(seed, d):
    rng = np.random.default_rng(seed)
    data, part = random_separable_instance(rng, d)
    result = fit_grh(data, part)
    unique = oracle_hits(data, part)
    assert len(unique) == 1
    npt.assert_allclose(result.hyperplane.coefficients(), unique[0], atol=1e-9)
    assert result.candidates_examined == int(np.prod([len(s) for s in part.sets]))


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=100, deadline=None)
def test_grl_matches_oracle_on_split_lines(seed):
    rng = np.random.default_rng(seed)
    data, s, sp = random_split_line_instance(
        rng, int(rng.integers(1, 5)), int(rng.integers(1, 5))
    )
    k = int(rng.integers(1, len(s) + 1))
    kp = int(rng.integers(1, len(sp) + 1))
    h = fit_grl(data, s, sp, k, kp)
    unique = oracle_hits(data, AgentPartition((s, sp), (k, kp)))
    assert len(unique) == 1
    npt.assert_allclose(h.coefficients(), unique[0], atol=1e-9)


@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=2))
@settings(max_examples=100, deadline=None)
def test_rank_conditions_hold_with_fresh_counting(seed, d):
    rng = np.random.default_rng(seed)
    data, part = random_separable_instance(rng, d)
    h = fit_grh(data, part).hyperplane
    assert satisfies_rank_conditions(data, part, h)
    tol = 1e-9 * (1.0 + float(np.max(np.abs(data.ys))))
    res = data.ys - (data.xs @ h.beta1 + h.beta0)
    for members, k in zip(part.sets, part.ranks):
        vals = sorted(float(res[i]) for i in members)
        assert sum(v < -tol for v in vals) <= k - 1
        assert sum(v <= tol for v in vals) >= k
        assert abs(vals[k - 1]) <= tol  # the k-th smallest residual is zero


@given(st.integers(min_value=0, max_value=100_000),
       st.floats(-40, 40, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_translation_equivariance_in_y(seed, delta):
    rng = np.random.default_rng(seed)
    data, part = random_separable_instance(rng, 1)
    base = fit_grh(data, part).hyperplane
    shifted = fit_grh(DataSet(data.xs, data.ys + delta), part).hyperplane
    assert shifted.beta1[0] == pytest.approx(base.beta1[0], abs=1e-7)
    assert shifted.beta0 == pytest.approx(base.beta0 + delta, abs=1e-7)


# -- weak general position diagnostic ---------------------------------------------


def test_wgp_diagnostic_on_graph_points():
    # three collinear graph points split across the two sets: the line
    # through a transversal contains a third point, so the property fails
    data = DataSet(np.array([[0.0], [1.0], [4.0]]), np.array([0.0, 1.0, 4.0]))
    part = AgentPartition(((0, 1), (2,)), (1, 1))
    assert not in_weak_general_position(data, part)
    bent = DataSet(np.array([[0.0], [1.0], [4.0]]), np.array([0.0, 1.0, 3.0]))
    assert in_weak_general_position(bent, part)
