"""Resistant hyperplanes: transversal enumeration against a brute oracle."""

import itertools
import math
import tracemalloc
from fractions import Fraction

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
    Hyperplane,
    InternalInconsistency,
    MechanismKind,
    MechanismSpec,
    MedianSide,
    NotPubliclySeparable,
    UniquenessViolation,
    fit_grh,
    fit_grl,
    preset_partition,
    traversal_hyperplanes,
)
from truthfit import grh
from truthfit.grh import in_weak_general_position, median_rank, satisfies_rank_conditions
from truthfit.random_instances import (
    random_data,
    random_separable_instance,
    random_split_line_instance,
)


def oracle_satisfying(data, part):
    """(traversal, coefficients) of every satisfying transversal hyperplane,
    solved one at a time in product order with scalar Python sign counts."""
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
            hits.append((trav, beta))
    return hits


def oracle_hits(data, part):
    """Deduplicated coefficient vectors of all satisfying transversals, so
    the caller can assert uniqueness independently."""
    unique = []
    for _, beta in oracle_satisfying(data, part):
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



def test_near_tie_line_returns_the_exact_root():
    # the line through agents 1 and 2 also meets the rank conditions within
    # the tolerance, 1e-9 of max |y|; the exact root of the rank gap is y = 1
    data = DataSet(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 1.0 + 1e-10, 1.0]))
    result = fit_grh(data, AgentPartition(((0, 1), (2,)), (1, 1)))
    assert result.hyperplane.coefficients().tolist() == [0.0, 1.0]
    assert result.traversal == (0, 2)


@pytest.mark.parametrize("scale", [1e-13, 1e-9, 1e-4, 1.0, 1e6, 1e12])
def test_fit_of_scaled_reports_is_the_scaled_fit(scale):
    # residual signs are judged relative to the scale of y: at 1e-9, an
    # absolute tolerance returned a wrong Brown-Mood line and, in d = 2,
    # raised UniquenessViolation
    line = random_data(np.random.default_rng(3), 9, 1)
    plane, part = random_separable_instance(np.random.default_rng(5), 2, sizes=(3, 3, 3))
    for data, part in ((line, preset_partition(line, "brown-mood")), (plane, part)):
        base = fit_grh(data, part).hyperplane.coefficients()
        moved = DataSet(data.xs, scale * data.ys)
        scaled = fit_grh(moved, part).hyperplane
        npt.assert_allclose(scaled.coefficients(), scale * base, rtol=1e-9,
                            atol=1e-12 * scale * np.max(np.abs(data.ys)))
        # the rank check is relative too: a shift of 1e-6 of max |y| fails it
        shift = 1e-6 * scale * np.max(np.abs(data.ys))
        assert satisfies_rank_conditions(moved, part, scaled)
        shifted = Hyperplane(scaled.beta1, scaled.beta0 + shift)
        assert not satisfies_rank_conditions(moved, part, shifted)


@pytest.mark.parametrize("scale", [1e-12, 1e-10, 1.0, 1e6])
def test_fit_of_scaled_positions_is_the_rescaled_fit(scale):
    # separability is judged relative to the spread of x: at 1e-10, an
    # absolute margin of 1e-9 refused this well separated family
    data, part = random_separable_instance(np.random.default_rng(5), 2, sizes=(3, 3, 3))
    base = fit_grh(data, part).hyperplane
    scaled = fit_grh(DataSet(scale * data.xs, data.ys), part).hyperplane
    npt.assert_allclose(scaled.beta1 * scale, base.beta1, rtol=1e-12, atol=0.0)
    assert scaled.beta0 == pytest.approx(base.beta0, rel=1e-12)


def exact_resistant_line(data, part):
    """(slope, intercept) of the first satisfying transversal, in rationals."""
    xs = [Fraction(v) for v in data.xs[:, 0]]
    ys = [Fraction(v) for v in data.ys]
    for i, j in itertools.product(*part.sets):
        slope = (ys[j] - ys[i]) / (xs[j] - xs[i])
        resid = [ys[m] - ys[i] - slope * (xs[m] - xs[i]) for m in range(data.n)]
        if all(sorted(resid[m] for m in members)[k - 1] == 0
               for members, k in zip(part.sets, part.ranks)):
            return [float(slope), float(ys[i] - slope * xs[i])]
    raise AssertionError("no transversal satisfies the rank conditions exactly")


def test_line_far_from_the_x_origin_with_a_narrow_gap_is_exact():
    # every transversal system here has condition number above 1e12, so
    # enumeration rejected the partition
    data = DataSet(np.array([[1e4], [1e4 + 5e-5], [1e4 + 1e-4], [1e4 + 1.5e-4]]),
                   np.array([0.0, 1.0, 0.5, 2.0]))
    part = AgentPartition(((0, 1), (2, 3)), (1, 1))
    result = fit_grh(data, part)
    npt.assert_allclose(result.hyperplane.coefficients(),
                        exact_resistant_line(data, part), rtol=1e-12)
    assert result.traversal == (0, 2)
    # at x near 1e12, y - b*x rounds at the scale of the gaps between
    # points unless the search works in an x-origin inside the data
    for seed in range(200):
        rng = np.random.default_rng(seed)
        xs = 1e12 + np.arange(8.0) * 3e-4 * rng.uniform(1.0, 3.0)
        data = DataSet(xs.reshape(-1, 1), rng.normal(0.0, 2.0, 8))
        part = preset_partition(data, "brown-mood")
        slope = fit_grh(data, part).hyperplane.beta1[0]
        assert slope == pytest.approx(exact_resistant_line(data, part)[0], rel=1e-12)


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


@pytest.mark.parametrize("xs", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0]],
                         ids=["touching", "interleaved"])
def test_unseparated_line_sets_are_refused_by_grh_and_grl(xs):
    # in d = 1 the vertical split is the whole separability test
    data = DataSet(np.reshape(xs, (-1, 1)), np.arange(4.0))
    with pytest.raises(NotPubliclySeparable, match="vertical line"):
        fit_grh(data, AgentPartition(((0, 1), (2, 3)), (1, 1)))
    with pytest.raises(NotPubliclySeparable, match="vertical line"):
        fit_grl(data, (0, 1), (2, 3), 1, 1)


def test_grh_rejects_inseparable_partitions():
    data = DataSet(np.array([[0.0], [1.0], [2.0], [3.0]]), np.zeros(4))
    with pytest.raises(NotPubliclySeparable):
        fit_grh(data, AgentPartition(((0, 2), (1, 3)), (1, 1)))


def test_a_point_inside_another_sets_hull_is_refused_in_the_plane():
    # agent 3 at (2, 1) lies inside the triangle of set 0, so no line of
    # the plane separates those two sets
    xs = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 3.0], [2.0, 1.0], [6.0, 6.0], [7.0, 5.0]])
    data = DataSet(xs, np.arange(6.0))
    part = AgentPartition(((0, 1, 2), (3,), (4, 5)), (1, 1, 1))
    with pytest.raises(NotPubliclySeparable):
        fit_grh(data, part)
    with pytest.raises(NotPubliclySeparable):
        MechanismSpec(MechanismKind.GRH, part).bind(data)


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


def assert_matches_enumeration(data, part, result):
    """One satisfying line; the search reports its coefficients and the
    first satisfying traversal in product order."""
    hits = oracle_satisfying(data, part)
    unique = oracle_hits(data, part)
    assert len(unique) == 1
    npt.assert_allclose(result.hyperplane.coefficients(), unique[0], rtol=1e-9, atol=1e-9)
    assert result.traversal == hits[0][0]
    assert result.candidates_examined == len(part.sets[0]) * len(part.sets[1])


@given(st.data())
@settings(max_examples=250, deadline=None)
def test_line_search_matches_enumeration_on_integer_grid_presets(pick):
    # few distinct y values on distinct integer x's: ties inside each set
    # and collinear triples across the two sets are common
    n = pick.draw(st.integers(min_value=2, max_value=40), label="n")
    xs = pick.draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n, unique=True))
    ys = pick.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    scheme = pick.draw(st.sampled_from(["brown-mood", "tukey"]))
    side = pick.draw(st.sampled_from([MedianSide.LEFT, MedianSide.RIGHT]))
    data = DataSet(np.array(xs, dtype=float).reshape(-1, 1), np.array(ys, dtype=float))
    part = preset_partition(data, scheme, side)
    assert_matches_enumeration(data, part, fit_grh(data, part))


@given(st.data())
@settings(max_examples=250, deadline=None)
def test_line_search_matches_enumeration_on_split_lines_with_random_ranks(pick):
    # integer-grid split lines; the sets are listed in a random order and
    # either one may be the left one, so the reported traversal must follow
    # the partition's own order
    rng = np.random.default_rng(pick.draw(st.integers(0, 2**32 - 1)))
    n_left, n_right = (int(v) for v in rng.integers(1, 16, size=2))
    xs = np.concatenate([rng.choice(np.arange(0, 30), n_left, replace=False),
                         rng.choice(np.arange(31, 61), n_right, replace=False)])
    ys = rng.integers(-3, 4, n_left + n_right).astype(float)
    left = tuple(int(i) for i in rng.permutation(n_left))
    right = tuple(int(i) + n_left for i in rng.permutation(n_right))
    s, sp = (left, right) if rng.random() < 0.5 else (right, left)
    k = int(rng.integers(1, len(s) + 1))
    kp = int(rng.integers(1, len(sp) + 1))
    data = DataSet(xs.astype(float).reshape(-1, 1), ys)
    part = AgentPartition((s, sp), (k, kp))
    result = fit_grh(data, part)
    assert_matches_enumeration(data, part, result)
    assert fit_grl(data, s, sp, k, kp).close_to(result.hyperplane, tol=0.0)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_plane_traversal_is_the_first_satisfying_one_in_product_order(pick):
    # integer points in three 3 x 3 boxes at the corners of a triangle, so
    # no line through points of two boxes meets the third and every
    # transversal spans a plane; few distinct y values make ties inside
    # the sets and planes through more than three points common
    sets, xs = [], []
    for corner in ((0, 0), (6, 0), (0, 6)):
        size = pick.draw(st.integers(1, 4))
        cells = pick.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                                   min_size=size, max_size=size, unique=True))
        sets.append(tuple(range(len(xs), len(xs) + size)))
        xs += [(corner[0] + a, corner[1] + b) for a, b in cells]
    ys = pick.draw(st.lists(st.integers(-1, 1), min_size=len(xs), max_size=len(xs)))
    ranks = tuple(pick.draw(st.integers(1, len(s))) for s in sets)
    order = pick.draw(st.permutations(range(3)))
    data = DataSet(np.array(xs, dtype=float), np.array(ys, dtype=float))
    part = AgentPartition(tuple(sets[t] for t in order), tuple(ranks[t] for t in order))
    try:
        result = fit_grh(data, part)
    except (UniquenessViolation, NotPubliclySeparable):
        return
    hits = oracle_satisfying(data, part)
    npt.assert_allclose(result.hyperplane.coefficients(), hits[0][1], rtol=1e-9, atol=1e-9)
    assert result.traversal == hits[0][0]


def test_a_plane_through_no_member_of_a_set_is_an_inconsistency(monkeypatch):
    data, part = random_separable_instance(np.random.default_rng(3), 2)
    solve = grh._GrhSolver.solve
    monkeypatch.setattr(grh._GrhSolver, "solve", lambda self, ys: solve(self, ys) + [0, 0, 1])
    with pytest.raises(InternalInconsistency, match="passes through no member"):
        fit_grh(data, part)


def test_a_resistant_hyperplane_in_d0_is_the_kth_smallest_report():
    data = DataSet(np.zeros((4, 0)), np.array([3.0, 1.0, 2.0, 5.0]))
    result = fit_grh(data, AgentPartition(((0, 1, 2, 3),), (2,)))
    assert result.hyperplane.beta0 == 2.0 and result.traversal == (2,)


def test_brown_mood_at_ten_thousand_points_runs_in_linear_memory():
    rng = np.random.default_rng(10)
    n = 10_000
    x = rng.uniform(0.0, 100.0, n)
    data = DataSet(x.reshape(-1, 1), 3.0 + 0.5 * x + 5.0 * rng.standard_t(3, n))
    part = preset_partition(data, "brown-mood")
    tracemalloc.start()
    try:
        result = fit_grh(data, part)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert result.candidates_examined == (n // 2) ** 2
    h = result.hyperplane
    resid = data.ys - (data.xs @ h.beta1 + h.beta0)
    tol = 1e-9 * (1.0 + float(np.max(np.abs(data.ys))))
    for members, k in zip(part.sets, part.ranks):
        assert abs(np.sort(resid[list(members)])[k - 1]) <= tol  # half-median is zero
    assert satisfies_rank_conditions(data, part, h)


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


def _rank_test_row_by_row(resid, sets, ranks, tol):
    """The tie-robust rank test of each residual vector alone, counted with
    Python sums over each set's members."""
    tols = np.broadcast_to(tol, resid.shape[:-1] + (1,))
    out = np.zeros(resid.shape[:-1], dtype=bool)
    for at in np.ndindex(*resid.shape[:-1]):
        row, t = resid[at], float(tols[at][0])
        out[at] = all(sum(v < -t for v in row[col == 1]) < k <= sum(v <= t for v in row[col == 1])
                      for col, k in zip(sets.T, ranks))
    return out


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_the_flat_rank_count_decides_each_row_as_alone(draw):
    set_sizes = draw.draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    ranks = np.array([draw.draw(st.integers(1, size)) for size in set_sizes])
    members, sets = grh._set_layout([range(size) for size in set_sizes])
    rows = draw.draw(st.integers(1, 5))
    # (K, m) as the d = 1 search counts, (K, C, m) as the enumeration does
    shape = (rows, members.size) if draw.draw(st.booleans()) else \
        (rows, draw.draw(st.integers(1, 4)), members.size)
    tol = np.array(draw.draw(st.lists(st.sampled_from([1e-9, 0.5, 3.0, 1e300]),
                                      min_size=rows, max_size=rows)))
    tol = tol.reshape((rows,) + (1,) * (len(shape) - 1))
    # residuals on and about the tolerance's edges, where the count turns
    steps = draw.draw(st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
                               min_size=math.prod(shape), max_size=math.prod(shape)))
    resid = np.reshape(steps, shape) * tol
    expected = _rank_test_row_by_row(resid, sets, ranks, tol)
    got = grh._meets_ranks(resid, sets, ranks, tol)
    assert got.shape == expected.shape and (got == expected).all()
    for k in range(rows):
        assert (grh._meets_ranks(resid[k:k + 1], sets, ranks, tol[k:k + 1])[0] == got[k]).all()


def test_rank_check_accepts_the_exact_line_far_from_x_zero():
    # beta0 and beta1 * x are about 5e7 and cancel, so y - (beta1 * x + beta0)
    # rounds at their scale, far above 1e-9 * (1 + max |y|)
    xs = 1e4 + np.array([0.0, 5e-5, 1e-4, 1.5e-4])
    data = DataSet(xs[:, None], np.array([0.0, 1.0, 0.5, 2.0]))
    part = AgentPartition(((0, 1), (2, 3)), (1, 1))
    fitted = fit_grh(data, part).hyperplane
    # the rational line through agents 0 and 2, rounded once
    x0, x2 = Fraction(float(xs[0])), Fraction(float(xs[2]))
    slope = Fraction(0.5) / (x2 - x0)
    exact = Hyperplane([float(slope)], float(-slope * x0))
    for h in (fitted, exact):
        assert satisfies_rank_conditions(data, part, h)
        for shift in (1e-5, -1e-5):
            assert not satisfies_rank_conditions(data, part, Hyperplane(h.beta1, h.beta0 + shift))


def test_d2_instances_far_from_x_zero_fit():
    # the interpolation systems are gated on their condition, which an
    # offset in x alone must not spoil: an uncentred [x | 1] refused 30 of
    # these 600 as not publicly separable
    rng = np.random.default_rng(2)
    for _ in range(600):
        data, part = random_separable_instance(rng, 2)
        offset, scale = 10.0 ** rng.uniform(0, 6), rng.uniform(1e-3, 1.0)
        moved = DataSet(data.xs * scale + offset, data.ys)
        h = fit_grh(moved, part).hyperplane
        assert satisfies_rank_conditions(moved, part, h), (offset, scale)


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
