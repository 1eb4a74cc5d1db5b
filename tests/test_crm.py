"""Clockwise angles, directing pairs, and the repeated-median line fit.

The oracle below recomputes the nested sided medians with sorted lists and
pure Python arithmetic, independently of the vectorized implementation.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from truthfit import core
from truthfit.crm import _directing
from truthfit import (
    AdmissibilityError,
    ContractViolation,
    CrmConfig,
    DataSet,
    MedianSide,
    builtin_instance,
    cwa,
    directing_angle,
    directing_pair,
    equation_form_line,
    fit_crm,
    outcomes,
)

coord = st.floats(min_value=-50, max_value=50, allow_nan=False)
sides = st.sampled_from(list(MedianSide))


# -- oracle -------------------------------------------------------------------


def oracle_cwa(p_i, p_j):
    dx = p_j[0] - p_i[0]
    slope = (p_j[1] - p_i[1]) / dx
    sgn = (slope > 0) - (slope < 0)
    half = math.pi / 2 if dx > 0 else -math.pi / 2
    return math.pi + half + sgn * abs(math.atan(slope))


def _rank(count, side):
    if count % 2 == 1:
        return (count + 1) // 2
    return count // 2 if side is MedianSide.LEFT else count // 2 + 1


def oracle_directing_pair(data, cfg):
    """(i*, j*) via sorted lists; ties toward smaller agent indices."""
    pts = [(float(x), float(y)) for x, y in zip(data.xs[:, 0], data.ys)]
    rows = []
    for i in cfg.s:
        angles = sorted((oracle_cwa(pts[i], pts[j]), j)
                        for j in cfg.sprime if j != i)
        vals = [a for a, _ in angles]
        v = vals[_rank(len(vals), cfg.inner_side) - 1]
        j = min(j for a, j in angles if a == v)
        rows.append((v, i, j))
    outer = sorted(v for v, _, _ in rows)
    da = outer[_rank(len(outer), cfg.outer_side) - 1]
    _, i_star, j_star = min((v, i, j) for v, i, j in rows if v == da)
    return da, i_star, j_star


def oracle_line(data, cfg):
    _, i, j = oracle_directing_pair(data, cfg)
    x, y = data.xs[:, 0], data.ys
    b1 = (y[j] - y[i]) / (x[j] - x[i])
    return np.array([b1, y[i] - b1 * x[i]])


# -- cwa ----------------------------------------------------------------------


def test_cwa_pinned_examples():
    assert cwa((0.0, 0.0), (1.0, 0.0)) == pytest.approx(3 * math.pi / 2, abs=0)
    assert cwa((0.0, 0.0), (1.0, 1.0)) == pytest.approx(7 * math.pi / 4, abs=1e-15)
    assert cwa((0.0, 0.0), (-1.0, 0.0)) == pytest.approx(math.pi / 2, abs=0)


def test_cwa_requires_distinct_x():
    with pytest.raises(AdmissibilityError):
        cwa((1.0, 0.0), (1.0, 5.0))


@given(coord, coord, coord, coord)
@settings(max_examples=300)
def test_cwa_matches_oracle_and_halfturn(x1, y1, x2, y2):
    assume(abs(x2 - x1) > 1e-9)
    a = cwa((x1, y1), (x2, y2))
    assert a == pytest.approx(oracle_cwa((x1, y1), (x2, y2)), abs=1e-12)
    if x2 > x1:
        assert math.pi <= a <= 2 * math.pi
    else:
        assert 0.0 <= a <= math.pi


# -- directing angle / pair ---------------------------------------------------


def test_two_point_directing_angle():
    data = DataSet(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    cfg = CrmConfig(s=(0,), sprime=(1,))
    assert directing_angle(data, cfg) == pytest.approx(7 * math.pi / 4, abs=1e-15)


def test_angle_ties_break_toward_smaller_indices():
    # collinear slope-1 points: rightward angles all tie at 7pi/4 and
    # leftward ones at 3pi/4, forcing tie-breaks at both median levels
    data = DataSet(np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 1.0, 2.0]))
    cfg = CrmConfig(s=(0, 1, 2), sprime=(0, 1, 2))
    assert directing_pair(data, cfg) == oracle_directing_pair(data, cfg)[1:]
    assert directing_pair(data, cfg) == (1, 0)
    h = fit_crm(data, cfg)
    npt.assert_allclose(h.coefficients(), [1.0, 0.0], atol=0)


def test_crm_validation_errors():
    data = DataSet(np.array([[0.0], [0.0], [1.0]]), np.array([0.0, 1.0, 2.0]))
    with pytest.raises(AdmissibilityError):
        fit_crm(data, CrmConfig(s=(0, 2), sprime=(1,)))
    ok = DataSet(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    with pytest.raises(ContractViolation):
        fit_crm(ok, CrmConfig(s=(0,), sprime=(0,)))  # S' \ {0} empty
    with pytest.raises(ContractViolation):
        fit_crm(ok, CrmConfig(s=(0, 5), sprime=(1,)))  # out of range
    with pytest.raises(ContractViolation):
        CrmConfig(s=(), sprime=(1,))
    with pytest.raises(ContractViolation):
        CrmConfig(s=(0, 0), sprime=(1,))
    d2 = DataSet(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.0, 1.0]))
    with pytest.raises(ContractViolation):
        fit_crm(d2, CrmConfig(s=(0,), sprime=(1,)))


# -- pinned instances ---------------------------------------------------------


def test_disjoint_builtin_truthful_line():
    inst = builtin_instance("crm-disjoint")
    h = fit_crm(inst.data, inst.mechanism.params)
    npt.assert_allclose(h.coefficients(), [0.0, 1.0], atol=1e-12)
    # a slope-0 directing pair pointing leftward sits at pi/2
    assert directing_angle(inst.data, inst.mechanism.params) == pytest.approx(
        math.pi / 2, abs=1e-12
    )


def test_disjoint_builtin_deviation_moves_the_line():
    inst = builtin_instance("crm-disjoint")
    deviated = inst.data.with_reports({inst.deviator: inst.misreport})
    h = fit_crm(deviated, inst.mechanism.params)
    npt.assert_allclose(h.coefficients(), [0.1, 1.4], atol=1e-9)


def test_subset_builtin_truthful_line_matches_figure_not_text():
    inst = builtin_instance("crm-subset")
    h = fit_crm(inst.data, inst.mechanism.params)
    npt.assert_allclose(h.coefficients(), [0.5, 3.5], atol=1e-12)
    # the instance also records a competing closed-form value 3y = 2x + 8,
    # which the actual median-of-medians computation does not produce
    text_slope, _ = inst.reference_lines["text_truthful"]
    assert abs(h.beta1 - text_slope) > 0.1
    npt.assert_allclose(oracle_line(inst.data, inst.mechanism.params),
                        h.coefficients(), atol=0)


def test_subset_builtin_deviation():
    inst = builtin_instance("crm-subset")
    deviated = inst.data.with_reports({inst.deviator: inst.misreport})
    h = fit_crm(deviated, inst.mechanism.params)
    npt.assert_allclose(h.coefficients(), [7 / 12, 17 / 6], atol=1e-12)


# -- random-instance agreement with the oracle --------------------------------


@st.composite
def admissible_instances(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    xs = draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n, unique=True))
    ys = draw(st.lists(coord, min_size=n, max_size=n))
    data = DataSet(np.array(xs, dtype=float).reshape(-1, 1), np.array(ys))
    s = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    sp = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    assume(any(j not in s or len(sp) > 1 for j in sp))
    for i in s:
        assume(set(sp) - {i})
    outer = draw(sides)
    inner = draw(sides)
    intercept = draw(sides)
    return data, CrmConfig(tuple(s), tuple(sp), outer, inner, intercept)


@given(admissible_instances())
@settings(max_examples=300, deadline=None)
def test_fit_matches_pure_python_oracle(case):
    data, cfg = case
    h = fit_crm(data, cfg)
    da, i_star, j_star = oracle_directing_pair(data, cfg)
    assert directing_angle(data, cfg) == pytest.approx(da, abs=1e-12)
    assert directing_pair(data, cfg) == (i_star, j_star)
    npt.assert_allclose(h.coefficients(), oracle_line(data, cfg), atol=1e-12)


@given(admissible_instances())
@settings(max_examples=200, deadline=None)
def test_fit_interpolates_one_point_of_s_and_one_of_sprime(case):
    data, cfg = case
    h = fit_crm(data, cfg)
    i_star, j_star = directing_pair(data, cfg)
    assert i_star in cfg.s and j_star in cfg.sprime
    res = outcomes(h, data).residuals
    scale = 1e-9 * (1.0 + float(np.max(np.abs(data.ys))))
    assert abs(res[i_star]) <= scale
    assert abs(res[j_star]) <= scale


@given(admissible_instances(), st.floats(-100, 100, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_y_translation_equivariance(case, delta):
    data, cfg = case
    base = fit_crm(data, cfg)
    shifted = fit_crm(DataSet(data.xs, data.ys + delta), cfg)
    assert shifted.beta1 == pytest.approx(base.beta1, abs=1e-9)
    assert shifted.beta0 == pytest.approx(base.beta0 + delta, abs=1e-7)


@given(admissible_instances())
@settings(max_examples=200, deadline=None)
def test_equation_form_slope_agrees_with_fit(case):
    data, cfg = case
    a = fit_crm(data, cfg)
    b = equation_form_line(data, cfg)
    assert b.beta1 == pytest.approx(a.beta1, rel=1e-9, abs=1e-9)


@given(admissible_instances(), st.data(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_each_row_of_a_block_is_its_fit_alone_and_the_oracles(case, data, chunked):
    base, cfg = case
    values = st.integers(-3, 3).map(float) | coord  # integer reports make angle ties
    block = np.array(data.draw(st.lists(st.lists(values, min_size=base.n, max_size=base.n),
                                        min_size=1, max_size=6)))
    with pytest.MonkeyPatch.context() as patch:
        if chunked:  # one row per chunk
            patch.setattr(core, "BLOCK_CELLS", 1)
        angle, i_stars, j_stars, coeffs = _directing(base, cfg, block)
    for k, ys in enumerate(block):
        row = DataSet(base.xs, ys)
        assert coeffs[k].tobytes() == fit_crm(row, cfg).coefficients().tobytes()
        assert (angle[k], i_stars[k], j_stars[k]) == \
            (directing_angle(row, cfg), *directing_pair(row, cfg))
        da, i_star, j_star = oracle_directing_pair(row, cfg)
        assert (i_stars[k], j_stars[k]) == (i_star, j_star)
        assert angle[k] == pytest.approx(da, abs=1e-12)
        npt.assert_allclose(coeffs[k], oracle_line(row, cfg), atol=1e-12)


# -- separable configurations: both medians of residuals vanish ---------------


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_separable_case_zeroes_both_median_residuals(seed):
    rng = np.random.default_rng(seed)
    n_left = int(rng.integers(1, 4)) * 2 + 1  # odd sizes keep medians two-sided
    n_right = int(rng.integers(1, 4)) * 2 + 1
    xs = np.concatenate([
        np.sort(rng.uniform(-10, -1, n_left)),
        np.sort(rng.uniform(1, 10, n_right)),
    ])
    if len(set(xs)) != xs.size:
        return
    ys = rng.uniform(-5, 5, xs.size)
    data = DataSet(xs.reshape(-1, 1), ys)
    s = tuple(range(n_left))
    sp = tuple(range(n_left, n_left + n_right))
    h = fit_crm(data, CrmConfig(s, sp))
    res = outcomes(h, data).residuals
    assert abs(np.median(res[list(s)])) <= 1e-9
    assert abs(np.median(res[list(sp)])) <= 1e-9
    # the closed-formula path coincides here
    eq = equation_form_line(data, CrmConfig(s, sp))
    assert eq.close_to(h, tol=1e-9)
