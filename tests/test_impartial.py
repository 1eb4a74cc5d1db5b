"""Response-map mechanisms: impartiality by construction, and its limits."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truthfit import (
    AffineResponse,
    ConfigurationError,
    ContractViolation,
    DataSet,
    ImpartialConfig,
    PwlResponse,
    fit_impartial,
    generalized_median,
    predict,
    swap_config,
)
from truthfit.impartial import _impartial_coefficients

# -- strategies ------------------------------------------------------------------

small = st.integers(-5, 5).map(float)


@st.composite
def impartial_cases(draw):
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 3))
    xs = np.array([[draw(small) for _ in range(d)] for _ in range(n)])
    ys = np.array([draw(small) for _ in range(n)])
    g = []
    for _ in range(n):
        if draw(st.booleans()):
            g.append(AffineResponse(a=[draw(small) for _ in range(d)],
                                    b=[draw(small) for _ in range(d)]))
        else:
            bp = sorted({draw(small) for _ in range(3)})
            if not bp:
                bp = [0.0]
            vals = [[draw(small) for _ in range(d)] for _ in bp]
            g.append(PwlResponse(breakpoints=bp, values=vals))
    cfg = ImpartialConfig(g=tuple(g), c=draw(small))
    return DataSet(xs, ys), cfg


# -- the defining property -------------------------------------------------------


@given(impartial_cases(), st.integers(0, 4), small)
@settings(max_examples=200, deadline=None)
def test_own_report_never_moves_own_prediction(case, agent, new_report):
    data, cfg = case
    agent %= data.n
    base = predict(fit_impartial(data, cfg), data.xs[agent])
    moved = predict(fit_impartial(data.with_reports({agent: new_report}), cfg),
                    data.xs[agent])
    assert moved == pytest.approx(base, abs=1e-9)


@given(impartial_cases(), st.dictionaries(st.integers(0, 4), small, max_size=3))
@settings(max_examples=100, deadline=None)
def test_others_reports_fully_determine_each_prediction(case, reports):
    # stronger form: prediction i is a function of the n-1 other reports only
    data, cfg = case
    reports = {k % data.n: v for k, v in reports.items()}
    for agent in range(data.n):
        untouched = {k: v for k, v in reports.items() if k != agent}
        a = predict(fit_impartial(data.with_reports(reports), cfg), data.xs[agent])
        b = predict(fit_impartial(data.with_reports(untouched), cfg), data.xs[agent])
        assert a == pytest.approx(b, abs=1e-9)


def test_constant_responses_give_a_fixed_hyperplane():
    g = (AffineResponse(a=[0.0], b=[2.0]), AffineResponse(a=[0.0], b=[-1.0]))
    cfg = ImpartialConfig(g=g, c=3.0)
    assert cfg.is_constant()
    data = DataSet(np.array([[0.0], [4.0]]), np.array([1.0, 1.0]))
    h0 = fit_impartial(data, cfg)
    for ys in ([10.0, -3.0], [0.5, 0.5], [-7.0, 2.0]):
        h = fit_impartial(DataSet(data.xs, np.array(ys)), cfg)
        npt.assert_array_equal(h.coefficients(), h0.coefficients())


# -- the swap construction -------------------------------------------------------


def test_swap_trades_predictions_between_the_two_agents():
    data = DataSet(np.array([[1.0], [4.0]]), np.array([5.0, 7.0]))
    cfg = swap_config(data)
    h = fit_impartial(data, cfg)
    assert predict(h, data.xs[0]) == pytest.approx(7.0, abs=1e-12)
    assert predict(h, data.xs[1]) == pytest.approx(5.0, abs=1e-12)


def test_swap_is_impartial_but_a_pair_can_jointly_profit():
    # truthful: each agent carries the other's value as residual error;
    # trading reports zeroes both residuals at once
    data = DataSet(np.array([[0.0], [2.0]]), np.array([5.0, 7.0]))
    cfg = swap_config(data)
    truthful = fit_impartial(data, cfg)
    assert abs(5.0 - predict(truthful, data.xs[0])) == pytest.approx(2.0)
    assert abs(7.0 - predict(truthful, data.xs[1])) == pytest.approx(2.0)
    joint = fit_impartial(data.with_reports({0: 7.0, 1: 5.0}), cfg)
    assert abs(5.0 - predict(joint, data.xs[0])) == pytest.approx(0.0, abs=1e-12)
    assert abs(7.0 - predict(joint, data.xs[1])) == pytest.approx(0.0, abs=1e-12)


def test_swap_construction_input_gates():
    three = DataSet(np.array([[0.0], [1.0], [2.0]]), np.zeros(3))
    with pytest.raises(ContractViolation):
        swap_config(three)
    planar = DataSet(np.array([[0.0, 0.0], [1.0, 1.0]]), np.zeros(2))
    with pytest.raises(ContractViolation):
        swap_config(planar)
    stacked = DataSet(np.array([[1.0], [1.0]]), np.zeros(2))
    with pytest.raises(ContractViolation):
        swap_config(stacked)


# -- a non-constant response lets someone else steer your outcome -----------------


def test_nonconstant_response_moves_the_other_agents_prediction():
    cfg = ImpartialConfig(
        g=(AffineResponse(a=[1.0], b=[0.0]), AffineResponse(a=[0.0], b=[0.0])),
        c=0.0,
    )
    data = DataSet(np.array([[0.0], [3.0]]), np.array([1.0, 0.0]))
    before = predict(fit_impartial(data, cfg), data.xs[1])
    after = predict(fit_impartial(data.with_reports({0: 2.0}), cfg), data.xs[1])
    assert after != pytest.approx(before)
    assert after - before == pytest.approx((2.0 - 1.0) * 3.0)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_each_row_of_a_block_is_its_fit_alone(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 14)), int(rng.integers(0, 3))
    g = []
    for _ in range(n):
        if rng.random() < 0.5:
            g.append(AffineResponse(a=rng.normal(0.0, 2.0, max(d, 1)), b=rng.normal(0.0, 2.0, max(d, 1))))
        else:
            bp = np.sort(rng.choice(np.arange(-6.0, 7.0), int(rng.integers(1, 4)), replace=False))
            g.append(PwlResponse(breakpoints=bp, values=rng.normal(0.0, 2.0, (bp.size, max(d, 1)))))
    cfg = ImpartialConfig(g=tuple(g), c=float(rng.normal()))
    xs = rng.normal(0.0, 3.0, (n, d))
    block = rng.normal(0.0, 3.0, (int(rng.integers(1, 8)), n))
    coeffs = _impartial_coefficients(DataSet(xs, block[0]), cfg, block)
    for row, ys in zip(coeffs, block):
        assert row.tobytes() == fit_impartial(DataSet(xs, ys), cfg).coefficients().tobytes()
        # the responses take a block of reports as they take one
        for resp, y in zip(g, ys):
            assert resp(ys)[list(ys).index(y)].tobytes() == resp(y).tobytes()
        if d:
            contributions = [resp(y) for resp, y in zip(g, ys)]
            beta1 = sum(contributions)
            beta0 = cfg.c - sum(float(c @ x) for c, x in zip(contributions, xs))
            npt.assert_allclose(row, [*beta1, beta0], rtol=1e-12, atol=1e-12)


# -- response-map behaviour ------------------------------------------------------


def test_pwl_response_interpolates_and_clamps():
    g = PwlResponse(breakpoints=[0.0, 1.0, 3.0], values=[[0.0], [2.0], [-2.0]])
    npt.assert_allclose(g(0.5), [1.0])
    npt.assert_allclose(g(2.0), [0.0])
    npt.assert_allclose(g(-10.0), [0.0])  # constant left of first breakpoint
    npt.assert_allclose(g(10.0), [-2.0])  # constant right of last breakpoint
    assert not g.is_constant()
    assert PwlResponse(breakpoints=[0.0, 1.0], values=[[5.0], [5.0]]).is_constant()


def test_affine_response_evaluation_and_constancy():
    g = AffineResponse(a=[2.0, 0.0], b=[1.0, -1.0])
    npt.assert_allclose(g(3.0), [7.0, -1.0])
    assert not g.is_constant()
    assert AffineResponse(a=[0.0, 0.0], b=[4.0, 9.0]).is_constant()


def test_response_validation_rejects_malformed_inputs():
    with pytest.raises(ConfigurationError):
        AffineResponse(a=[1.0, 2.0], b=[0.0])
    with pytest.raises(ConfigurationError):
        AffineResponse(a=[np.inf], b=[0.0])
    with pytest.raises(ConfigurationError):
        PwlResponse(breakpoints=[], values=np.zeros((0, 1)))
    with pytest.raises(ConfigurationError):
        PwlResponse(breakpoints=[1.0, 1.0], values=[[0.0], [1.0]])
    with pytest.raises(ConfigurationError):
        PwlResponse(breakpoints=[0.0], values=[[0.0], [1.0]])
    with pytest.raises(ConfigurationError):
        ImpartialConfig(g=())
    with pytest.raises(ConfigurationError):
        ImpartialConfig(g=(AffineResponse(a=[1.0], b=[0.0]),
                           AffineResponse(a=[1.0, 0.0], b=[0.0, 0.0])))
    with pytest.raises(ConfigurationError):
        ImpartialConfig(g=(AffineResponse(a=[1.0], b=[0.0]),), c=np.nan)


def test_fit_impartial_contract_gates():
    cfg = ImpartialConfig(g=(AffineResponse(a=[1.0], b=[0.0]),))
    two = DataSet(np.array([[0.0], [1.0]]), np.zeros(2))
    with pytest.raises(ContractViolation):
        fit_impartial(two, cfg)
    planar = DataSet(np.array([[0.0, 1.0]]), np.zeros(1))
    with pytest.raises(ContractViolation):
        fit_impartial(planar, cfg)


# -- generalized medians with phantoms -------------------------------------------


@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=8),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_generalized_median_is_the_pooled_order_statistic(values, data):
    n = len(values)
    phantoms = data.draw(st.lists(
        st.one_of(st.floats(-100, 100), st.sampled_from([np.inf, -np.inf])),
        min_size=n + 1, max_size=n + 1,
    ))
    got = generalized_median(values, phantoms)
    pooled = sorted(list(values) + list(phantoms))
    assert got == pooled[n]


@given(st.integers(1, 8), st.data())
@settings(max_examples=100, deadline=None)
def test_a_block_of_reports_gives_each_row_its_median(n, data):
    block = data.draw(st.lists(st.lists(st.floats(-100, 100), min_size=n, max_size=n),
                               min_size=1, max_size=5))
    phantoms = data.draw(st.lists(
        st.one_of(st.floats(-100, 100), st.sampled_from([np.inf, -np.inf])),
        min_size=n + 1, max_size=n + 1,
    ))
    got = generalized_median(np.array(block), phantoms)
    assert got.shape == (len(block),)
    assert got.tolist() == [generalized_median(values, phantoms) for values in block]


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=8), st.data())
@settings(max_examples=100, deadline=None)
def test_extreme_phantom_splits_select_order_statistics(values, data):
    # k phantoms at +inf and n+1-k at -inf pick the k-th smallest report
    n = len(values)
    k = data.draw(st.integers(1, n))
    phantoms = [np.inf] * k + [-np.inf] * (n + 1 - k)
    assert generalized_median(values, phantoms) == sorted(values)[k - 1]


def test_generalized_median_bounds_between_phantom_extremes():
    # all phantoms on one side saturate to a phantom, not a report
    assert generalized_median([3.0, 8.0], [np.inf, np.inf, np.inf]) == np.inf
    assert generalized_median([3.0, 8.0], [-np.inf, -np.inf, -np.inf]) == -np.inf
    assert generalized_median([5.0], [0.0, 10.0]) == 5.0
    assert generalized_median([50.0], [0.0, 10.0]) == 10.0


def test_generalized_median_input_gates():
    with pytest.raises(ContractViolation):
        generalized_median([], [0.0])
    with pytest.raises(ContractViolation):
        generalized_median([1.0, 2.0], [0.0, 0.0])  # needs n + 1 phantoms
    with pytest.raises(ContractViolation):
        generalized_median([np.inf], [0.0, 1.0])
    with pytest.raises(ContractViolation):
        generalized_median([1.0], [np.nan, 0.0])


def test_zero_dimensional_data_returns_the_constant():
    cfg = ImpartialConfig(g=(AffineResponse(a=[1.0], b=[0.0]),), c=2.5)
    h = fit_impartial(DataSet(np.zeros((1, 0)), np.array([7.0])), cfg)
    assert h.beta1.size == 0
    assert h.beta0 == 2.5
