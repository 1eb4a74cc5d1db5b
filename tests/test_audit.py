"""Manipulation audits, certificates, influence envelopes, and efficiency."""

import itertools
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truthfit import (
    AffineResponse,
    AgentPartition,
    ConfigurationError,
    ContractViolation,
    CrmConfig,
    DataSet,
    GenMedParams,
    GrlParams,
    ImpartialConfig,
    InfluenceBounds,
    L1Config,
    MechanismKind,
    MechanismSpec,
    NotPubliclySeparable,
    PhantomTerm,
    QuantileConfig,
    UnsupportedMechanism,
    ViolationCertificate,
    audit_gsp,
    audit_sp,
    brown_mood_spec,
    builtin_instance,
    default_candidates,
    efficiency_ratio,
    fit_mechanism,
    fit_ols,
    forced_worse,
    hyperplanes_through_others,
    influence_bounds,
    lowerbound_instance,
    predict,
    preset_partition,
    strictly_better,
    swap_config,
    tukey_spec,
    verify_certificate,
)
from truthfit import audit, core, erm, grh
from truthfit.audit import DEFAULT_MARGIN
from truthfit.errors import InternalInconsistency
from truthfit.random_instances import random_data, random_separable_instance

# -- improvement semantics --------------------------------------------------------


def test_strictly_better_truth_table():
    assert strictly_better(2.0, 1.0)          # closer, same side
    assert strictly_better(-2.0, -1.0)
    assert strictly_better(2.0, -1.0)         # closer and crossed
    assert strictly_better(1.0, -1.0)         # pure cross at equal distance
    assert strictly_better(1.0, -3.0)         # crossed though farther
    assert not strictly_better(2.0, 2.0)
    assert not strictly_better(1.0, 3.0)      # same side, farther
    assert not strictly_better(0.0, 1.0)      # already exact; any move is a loss
    assert not strictly_better(1.0, 1.0 - 5e-10)  # below the default margin


def test_forced_worse_truth_table():
    assert forced_worse(1.0, 2.0)             # same side, strictly farther
    assert forced_worse(-1.0, -2.0)
    assert forced_worse(0.0, 0.5)             # off an exactly attained value
    assert not forced_worse(0.0, 0.0)
    assert not forced_worse(1.0, 0.5)         # improvement
    assert not forced_worse(1.0, -2.0)        # crossed: not unanimous
    assert not forced_worse(1.0, 1.0 + 5e-10)


@given(
    st.floats(-50, 50), st.floats(-50, 50),
    st.floats(min_value=1e-9, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_better_and_worse_are_mutually_exclusive(r0, r1, margin):
    assert not (strictly_better(r0, r1, margin) and forced_worse(r0, r1, margin))


def test_margin_widens_the_indifference_band():
    assert strictly_better(1.0, 0.9)
    assert not strictly_better(1.0, 0.9, margin=0.2)
    assert forced_worse(1.0, 1.1)
    assert not forced_worse(1.0, 1.1, margin=0.2)


# -- certificates -----------------------------------------------------------------


def _dummy_lines():
    from truthfit import Hyperplane
    return Hyperplane([0.0], 1.0), Hyperplane([0.1], 1.4)


def test_certificate_shape_gates():
    t, d = _dummy_lines()
    with pytest.raises(ContractViolation):
        ViolationCertificate((1, 1), {1: 0.0}, (1.0,), (0.5,), t, d)
    with pytest.raises(ContractViolation):
        ViolationCertificate((2, 1), {1: 0.0, 2: 0.0}, (1.0, 1.0), (0.5, 0.5), t, d)
    with pytest.raises(ContractViolation):
        ViolationCertificate((1,), {2: 0.0}, (1.0,), (0.5,), t, d)
    with pytest.raises(ContractViolation):
        ViolationCertificate((1,), {1: 0.0}, (1.0, 1.0), (0.5,), t, d)


def test_single_agent_audit_finds_the_documented_deviation():
    inst = builtin_instance("crm-disjoint")
    cert = audit_sp(inst.mechanism, inst.data, inst.deviator,
                    candidates=[inst.misreport])
    assert cert is not None
    assert cert.coalition == (inst.deviator,)
    assert cert.misreports == {inst.deviator: inst.misreport}
    assert cert.before[0] == pytest.approx(2.0, abs=1e-9)
    assert cert.after[0] == pytest.approx(1.2, abs=1e-9)
    npt.assert_allclose(cert.truthful.coefficients(), [0.0, 1.0], atol=1e-9)
    npt.assert_allclose(cert.deviated.coefficients(), [0.1, 1.4], atol=1e-9)


def test_certificate_replay_accepts_genuine_and_rejects_tampered():
    inst = builtin_instance("crm-disjoint")
    cert = audit_sp(inst.mechanism, inst.data, inst.deviator,
                    candidates=[inst.misreport])
    assert verify_certificate(inst.mechanism, inst.data, cert)

    wrong_residual = ViolationCertificate(
        cert.coalition, cert.misreports, (0.0,), cert.after,
        cert.truthful, cert.deviated)
    assert not verify_certificate(inst.mechanism, inst.data, wrong_residual)
    nan_residual = ViolationCertificate(
        cert.coalition, cert.misreports, (math.nan,), cert.after,
        cert.truthful, cert.deviated)
    assert not verify_certificate(inst.mechanism, inst.data, nan_residual)

    from truthfit import Hyperplane
    wrong_line = ViolationCertificate(
        cert.coalition, cert.misreports, cert.before, cert.after,
        Hyperplane([0.0], 0.9), cert.deviated)
    assert not verify_certificate(inst.mechanism, inst.data, wrong_line)

    unprofitable = ViolationCertificate(
        cert.coalition, {inst.deviator: float(inst.data.ys[inst.deviator])},
        cert.before, cert.before, cert.truthful, cert.truthful)
    assert not verify_certificate(inst.mechanism, inst.data, unprofitable)

    for agent in (-1, inst.data.n):
        stranger = ViolationCertificate((agent,), {agent: 0.0}, cert.before, cert.after,
                                        cert.truthful, cert.deviated)
        with pytest.raises(ContractViolation):
            verify_certificate(inst.mechanism, inst.data, stranger)


def test_audit_skips_the_truthful_report_and_respects_margin():
    inst = builtin_instance("crm-disjoint")
    y_true = float(inst.data.ys[inst.deviator])
    assert audit_sp(inst.mechanism, inst.data, inst.deviator,
                    candidates=[y_true]) is None
    # the documented gain is 0.8; a margin above it hides the violation
    assert audit_sp(inst.mechanism, inst.data, inst.deviator,
                    candidates=[inst.misreport], margin=1.0) is None


def test_audit_agent_gate():
    inst = builtin_instance("crm-disjoint")
    with pytest.raises(ContractViolation):
        audit_sp(inst.mechanism, inst.data, inst.data.n, candidates=[0.0])


# -- coalition audits -------------------------------------------------------------


def _swap_case():
    data = DataSet(np.array([[0.0], [2.0]]), np.array([5.0, 7.0]))
    return MechanismSpec(MechanismKind.IMPARTIAL, swap_config(data)), data


def test_coalition_audit_on_the_swap_mechanism():
    spec, data = _swap_case()
    assert audit_gsp(spec, data, 1) is None  # impartial: no solo gain
    cert = audit_gsp(spec, data, 2)
    assert cert is not None
    assert cert.coalition == (0, 1)
    assert verify_certificate(spec, data, cert)


def test_coalition_audit_is_deterministic():
    spec, data = _swap_case()
    a = audit_gsp(spec, data, 2, seed=7)
    b = audit_gsp(spec, data, 2, seed=7)
    assert b.coalition == a.coalition
    assert b.misreports == a.misreports
    assert b.before == a.before
    assert b.after == a.after
    npt.assert_array_equal(b.deviated.coefficients(), a.deviated.coefficients())


def test_coalition_audit_singleton_pass_matches_single_agent_audit():
    inst = builtin_instance("crm-disjoint")
    got = audit_gsp(inst.mechanism, inst.data, 1)
    # replicate the coalition search's per-agent candidate lists
    expected = None
    for agent in range(inst.data.n):
        base = default_candidates(inst.data, agent, 41)
        peers = [float(v) for j, v in enumerate(inst.data.ys) if j != agent]
        cands = list(dict.fromkeys([*base, *peers]))
        expected = audit_sp(inst.mechanism, inst.data, agent, candidates=cands)
        if expected is not None:
            break
    assert (got is None) == (expected is None)
    if got is not None:
        assert got.coalition == expected.coalition
        assert got.misreports == expected.misreports


def test_coalition_size_gate():
    spec, data = _swap_case()
    with pytest.raises(ContractViolation):
        audit_gsp(spec, data, 0)
    with pytest.raises(ContractViolation):
        audit_gsp(spec, data, 3)


# -- candidate generation ---------------------------------------------------------


def test_hyperplanes_through_others_interpolate_pairs():
    data = DataSet(np.array([[0.0], [1.0], [2.0], [4.0]]),
                   np.array([1.0, 3.0, -1.0, 0.5]))
    betas = hyperplanes_through_others(data, 0)
    assert betas.shape == (3, 2)  # C(3, 2) pairs of the other agents
    for beta in betas:
        on_line = sum(
            abs(beta[0] * data.xs[j, 0] + beta[1] - data.ys[j]) <= 1e-9
            for j in range(1, 4)
        )
        assert on_line >= 2


def test_hyperplanes_through_others_skip_degenerate_subsets():
    data = DataSet(np.array([[0.0], [5.0], [5.0], [7.0]]),
                   np.array([1.0, 3.0, -1.0, 0.5]))
    betas = hyperplanes_through_others(data, 0)
    assert betas.shape == (2, 2)  # the shared-x pair pins no line


@pytest.mark.parametrize("d", [1, 2])
def test_candidates_from_one_solve_are_the_solves_per_agent(d):
    rng = np.random.default_rng(40 + d)
    data = random_data(rng, 7, d)
    # a repeated position makes some subsets singular
    data = DataSet(np.vstack([data.xs, data.xs[:1]]), np.append(data.ys, 0.25))
    xc, centre = grh._centred(data.xs)
    for agent in range(data.n):
        others = [j for j in range(data.n) if j != agent]
        subsets = np.array(list(itertools.combinations(others, d + 1)))
        mats, good = grh._interpolation_systems(xc, subsets)
        solved = np.linalg.solve(mats[good], data.ys[subsets[good]][..., None])[..., 0]
        betas = grh._uncentred(solved, centre)
        # unless the agent is one of the pair at the repeated position
        assert good.all() == (agent in (0, data.n - 1))
        assert hyperplanes_through_others(data, agent).tobytes() == betas.tobytes()
        lo, hi = data.ys.min(), data.ys.max()
        grid = np.linspace(lo - (hi - lo), hi + (hi - lo), 41)
        crossings = betas @ np.append(data.xs[agent], 1.0)
        expected = list(dict.fromkeys([*map(float, grid), *map(float, crossings)]))
        got = default_candidates(data, agent)
        assert np.array(got).tobytes() == np.array(expected).tobytes()


def test_candidates_keep_the_first_of_zero_and_minus_zero():
    values = np.array([0.0, 1.0, -0.0, 1.0, 2.0, 0.0])
    npt.assert_array_equal(audit._first_occurrences(values), [0.0, 1.0, 2.0])
    assert not np.signbit(audit._first_occurrences(values)[0])
    assert np.signbit(audit._first_occurrences(-values)[0])


@pytest.mark.parametrize("agent", [-1, 4])
def test_candidates_refuse_an_agent_out_of_range(agent):
    data = DataSet(np.array([[0.0], [1.0], [2.0], [4.0]]),
                   np.array([1.0, 3.0, -1.0, 0.5]))
    for candidates in (hyperplanes_through_others, default_candidates):
        with pytest.raises(ContractViolation, match=f"agent index {agent} out of range"):
            candidates(data, agent)


def test_default_candidates_cover_grid_and_crossings():
    data = DataSet(np.array([[0.0], [1.0], [2.0], [4.0]]),
                   np.array([1.0, 3.0, -1.0, 0.5]))
    cands = default_candidates(data, 0, grid_points=41)
    lo, hi = -1.0, 3.0
    spread = hi - lo
    assert lo - spread in cands
    assert hi + spread in cands
    assert len(cands) == len(set(cands))
    betas = hyperplanes_through_others(data, 0)
    for beta in betas:
        assert float(beta[0] * data.xs[0, 0] + beta[1]) in cands
    assert len(cands) >= 41


def test_a_constant_coordinate_pins_no_crossing():
    # centred, the column is zero; scaled by its largest |entry| it once
    # became 0/0 and the condition estimate failed to converge
    data = DataSet(np.ones((4, 1)), np.arange(4.0))
    assert hyperplanes_through_others(data, 0).shape == (0, 2)
    assert len(default_candidates(data, 0)) == 41


def test_candidates_of_equal_reports_scale_with_them():
    # the grid once spanned the reports +-1 when they were all equal
    data = DataSet(np.arange(4.0).reshape(-1, 1), np.full(4, 3.0))
    for k in (-40, 40):
        scaled = DataSet(data.xs, 2.0 ** k * data.ys)
        assert default_candidates(scaled, 0) == [2.0 ** k * v for v in default_candidates(data, 0)]


def test_audits_refuse_candidates_that_overflow():
    # the reports span more than the largest float: the grid's spread is
    # inf, and the candidates hold nan and inf
    data = DataSet(np.arange(4.0).reshape(-1, 1), np.array([-1e308, 1e308, 0.0, 1.0]))
    spec = MechanismSpec(MechanismKind.OLS)
    for run in (lambda: default_candidates(data, 0), lambda: audit_sp(spec, data, 0),
                lambda: audit_gsp(spec, data, max_coalition=2, max_evals=10)):
        with pytest.raises(ContractViolation, match="candidates overflow"):
            run()


def test_hyperplanes_through_others_refuse_rows_that_overflow():
    # it once returned the row [-1e308, inf] with an overflow warning, and
    # influence bounds probed beyond that infinite crossing
    data = DataSet(np.arange(4.0).reshape(-1, 1), np.array([-1e308, 1e308, 0.0, 1.0]))
    for run in (lambda: hyperplanes_through_others(data, 0),
                lambda: influence_bounds(brown_mood_spec(data), data, 0)):
        with pytest.raises(ContractViolation, match="hyperplanes through other agents overflow"):
            run()


# -- the units of y ----------------------------------------------------------------


def _scaled_cases():
    """(mechanism of the data, data) on fixed seeds: the OLS positive control,
    the L1 fit, Brown-Mood and a d = 2 resistant plane; and the two CRM
    instances of Figure 1, manipulable and so positive controls too."""
    cases = []
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        line = random_data(rng, 6, 1)
        plane, part = random_separable_instance(rng, 2, sizes=(2, 2, 2))
        cases += [(lambda data: MechanismSpec(MechanismKind.OLS), line),
                  (lambda data: MechanismSpec(MechanismKind.L1ERM, L1Config()), line),
                  (brown_mood_spec, line),
                  (lambda data, part=part: MechanismSpec(MechanismKind.GRH, part), plane)]
    for name in ("crm-disjoint", "crm-subset"):
        inst = builtin_instance(name)
        cases.append((lambda data, spec=inst.mechanism: spec, inst.data))
    return cases


def _scaled_certificate(cert, factor):
    """The certificate with every value in the units of y times ``factor``."""
    if cert is None:
        return None
    from truthfit import Hyperplane
    return ViolationCertificate(
        cert.coalition, {m: factor * v for m, v in cert.misreports.items()},
        tuple(factor * v for v in cert.before), tuple(factor * v for v in cert.after),
        *(Hyperplane(factor * h.beta1, factor * h.beta0) for h in (cert.truthful, cert.deviated)))


def _same_certificate(a, b) -> bool:
    return (a is None and b is None) or (
        a is not None and b is not None
        and (a.coalition, a.misreports, a.before, a.after) == (b.coalition, b.misreports,
                                                                b.before, b.after)
        and all(np.array_equal(g.coefficients(), h.coefficients())
                for g, h in ((a.truthful, b.truthful), (a.deviated, b.deviated))))


@pytest.mark.parametrize("k", [-40, 30, 40])
def test_audits_and_bounds_scale_exactly_with_the_reports(k):
    # margins and the influence test once had floors in the units of y: at
    # 2^30 the audits certified ulp-sized gains against GRH and L1, and at
    # 2^-40 they found no gain against OLS and the bounds went wrong
    factor = 2.0 ** k
    for make_spec, data in _scaled_cases():
        spec = make_spec(data)
        scaled = DataSet(data.xs, factor * data.ys)
        scaled_spec = make_spec(scaled)
        certs = [audit_sp(spec, data, agent) for agent in range(data.n)]
        certs.append(audit_gsp(spec, data, max_coalition=2, max_evals=200))
        replays = [audit_sp(scaled_spec, scaled, agent) for agent in range(scaled.n)]
        replays.append(audit_gsp(scaled_spec, scaled, max_coalition=2, max_evals=200))
        if spec.kind is MechanismKind.OLS:  # the positive control
            assert None not in replays
        if spec.kind is MechanismKind.CRM:  # Figure 1: some agents gain, and a pair
            assert replays[-1] is not None
        for cert, replay in zip(certs, replays):
            assert _same_certificate(_scaled_certificate(cert, factor), replay)
            if replay is None:
                continue
            assert verify_certificate(scaled_spec, scaled, replay)
            moved = replay.after[0] * (1.0 + 1e-6)
            tampered = ViolationCertificate(replay.coalition, replay.misreports, replay.before,
                                            (moved,) + replay.after[1:], replay.truthful,
                                            replay.deviated)
            assert not verify_certificate(scaled_spec, scaled, tampered)
        if spec.kind is MechanismKind.GRH and data.d == 1:
            for agent in range(data.n):
                b = influence_bounds(spec, data, agent)
                assert influence_bounds(scaled_spec, scaled, agent) == InfluenceBounds(
                    factor * b.lower, factor * b.upper)


@pytest.mark.parametrize("seed", [26, 32, 33])
def test_l1_audits_in_units_near_the_float_limit_find_no_violation(seed):
    # the L1 fit is strategyproof; the face search once squared norms of
    # 2^900-sized fits to inf, so its feasibility test passed every candidate
    # and each of these audits certified a gain
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 8))
    xs = rng.integers(0, 4, (n, 1)).astype(float)
    data = DataSet(xs, 2.0 ** 900 * np.round(rng.normal(0.0, 2.0, n)))
    spec = MechanismSpec(MechanismKind.L1ERM, L1Config())
    assert all(audit_sp(spec, data, agent) is None for agent in range(n))


# -- influence envelopes ----------------------------------------------------------


def _grl_case():
    xs = np.array([[0.0], [1.0], [2.0], [3.0]])
    ys = np.array([0.5, 1.0, 0.0, 2.0])
    spec = MechanismSpec(MechanismKind.GRL,
                         GrlParams(s=(0,), sprime=(1, 2, 3), k=1, kprime=2))
    return spec, DataSet(xs, ys)


def test_interpolated_agent_has_unbounded_influence():
    spec, data = _grl_case()
    b = influence_bounds(spec, data, 0)
    assert b.lower == -math.inf and b.upper == math.inf


def test_bounded_agent_prediction_is_the_clamped_report():
    spec, data = _grl_case()
    b = influence_bounds(spec, data, 3)
    assert math.isfinite(b.lower) and math.isfinite(b.upper)
    bound = spec.bind(data)
    x_aug = np.append(data.xs[3], 1.0)
    for rep in np.linspace(b.lower - 3.0, b.upper + 3.0, 41):
        ys2 = data.ys.copy()
        ys2[3] = rep
        pred = float(bound.coefficients(ys2) @ x_aug)
        assert pred == pytest.approx(b.clamp(rep), abs=1e-9)


def test_influence_bounds_do_not_depend_on_the_units_of_x():
    # a condition gate in the units of x refused the lines through x = 0 or
    # 5 and x = +-1e300, and with them every crossing of agents 2 and 3
    data = DataSet(np.array([[1e300], [-1e300], [0.0], [5.0]]), np.array([1.0, 2.0, 0.0, 3.0]))
    spec = brown_mood_spec(data)
    bound = spec.bind(data)
    reports = np.linspace(-10.0, 10.0, 81)
    for agent in range(data.n):
        assert hyperplanes_through_others(data, agent).shape == (3, 2)
        b = influence_bounds(spec, data, agent)
        block = np.repeat(data.ys[None, :], reports.size, axis=0)
        block[:, agent] = reports
        coeffs, failed = bound.coefficients_many(block)
        assert not failed
        for report, pred in zip(reports, coeffs @ np.append(data.xs[agent], 1.0)):
            assert pred == pytest.approx(b.clamp(report), abs=1e-9)


def test_influence_requires_the_interpolation_guarantee():
    data = DataSet(np.array([[0.0], [1.0], [2.0], [3.0]]),
                   np.array([0.5, 1.0, 0.0, 2.0]))
    d0 = DataSet(np.zeros((4, 0)), np.array([0.5, 1.0, 0.0, 2.0]))
    everyone = tuple(range(data.n))
    for spec, on in (
        (MechanismSpec(MechanismKind.OLS), data),
        (MechanismSpec(MechanismKind.L1ERM, L1Config()), data),
        (MechanismSpec(MechanismKind.QUANTILE, QuantileConfig(0.4)), data),
        (MechanismSpec(MechanismKind.CRM, CrmConfig(s=everyone, sprime=everyone)), data),
        (MechanismSpec(MechanismKind.IMPARTIAL,
                       ImpartialConfig(g=(AffineResponse(a=[0.0], b=[0.0]),) * 4, c=0.0)),
         data),
        (MechanismSpec(MechanismKind.GENERALIZED_MEDIAN, GenMedParams((0.0,) * 5)), d0),
    ):
        fit_mechanism(spec, on)
        with pytest.raises(UnsupportedMechanism, match=f"which {spec.kind.value} does not"):
            influence_bounds(spec, on, 0)


def test_influence_contract_gates():
    spec, data = _grl_case()
    with pytest.raises(ContractViolation):
        influence_bounds(spec, data, 9)
    tiny = DataSet(np.array([[0.0], [1.0]]), np.zeros(2))
    small_spec = MechanismSpec(MechanismKind.GRL,
                               GrlParams(s=(0,), sprime=(1,), k=1, kprime=1))
    with pytest.raises(ContractViolation):
        influence_bounds(small_spec, tiny, 0)  # only one other agent
    stacked = DataSet(np.array([[0.0], [5.0], [5.0]]), np.zeros(3))
    dep_spec = MechanismSpec(MechanismKind.GRL,
                             GrlParams(s=(0,), sprime=(1, 2), k=1, kprime=1))
    with pytest.raises(ContractViolation):
        influence_bounds(dep_spec, stacked, 0)  # others share one position


@pytest.mark.parametrize("name, agent", [("crm-subset", 5), ("crm-subset", 7),
                                         ("crm-disjoint", 4)])
def test_influence_names_the_agent_whose_prediction_is_not_a_clamp(name, agent):
    # CRM interpolates d+1 agents, but these agents' probes below and above
    # every crossing predict in the wrong order for any med(y, l, h), so
    # influence bounds refuse the kind
    inst = builtin_instance(name)
    data, bound = inst.data, inst.mechanism.bind(inst.data)
    anchors = hyperplanes_through_others(data, agent) @ np.append(data.xs[agent], 1.0)
    block = np.repeat(data.ys[None, :], 2, axis=0)
    block[:, agent] = anchors.min() - 1.0, anchors.max() + 1.0
    coeffs, failed = bound.coefficients_many(block)
    low, high = coeffs @ np.append(data.xs[agent], 1.0)
    assert not failed and low > high
    with pytest.raises(UnsupportedMechanism, match="which crm does not guarantee"):
        influence_bounds(inst.mechanism, data, agent)


def test_influence_bounds_container_semantics():
    b = InfluenceBounds(-1.0, 2.0)
    assert b.clamp(-5.0) == -1.0
    assert b.clamp(0.5) == 0.5
    assert b.clamp(9.0) == 2.0
    free = InfluenceBounds(-math.inf, math.inf)
    assert free.clamp(42.0) == 42.0
    with pytest.raises(ContractViolation):
        InfluenceBounds(2.0, 1.0)
    with pytest.raises(ContractViolation):
        InfluenceBounds(math.nan, 1.0)


# -- efficiency -------------------------------------------------------------------


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_efficiency_never_beats_least_squares(data_strategy):
    n = data_strategy.draw(st.integers(3, 7))
    xs = np.array([[data_strategy.draw(st.integers(-5, 5))] for _ in range(n)],
                  dtype=float)
    ys = np.array([data_strategy.draw(st.integers(-5, 5)) for _ in range(n)],
                  dtype=float)
    ratio = efficiency_ratio(MechanismSpec(MechanismKind.L1ERM, L1Config()),
                             DataSet(xs, ys))
    assert ratio >= 1.0 - 1e-9


def test_efficiency_is_one_when_both_fits_are_exact():
    coll = DataSet(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 2.0, 3.0]))
    assert efficiency_ratio(MechanismSpec(MechanismKind.L1ERM, L1Config()),
                            coll) == 1.0


def test_efficiency_is_infinite_when_only_least_squares_is_exact():
    coll = DataSet(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 2.0, 3.0]))
    zero_line = ImpartialConfig(g=(AffineResponse(a=[0.0], b=[0.0]),) * 3, c=0.0)
    spec = MechanismSpec(MechanismKind.IMPARTIAL, zero_line)
    assert efficiency_ratio(spec, coll) == math.inf


@pytest.mark.parametrize("scale", [1e-13, 1.0, 1e6])
def test_efficiency_ratio_does_not_depend_on_the_units_of_y(scale):
    data = random_data(np.random.default_rng(3), 9, 1)
    everyone = tuple(range(data.n))
    crm = MechanismSpec(MechanismKind.CRM, CrmConfig(s=everyone, sprime=everyone))
    ratio = efficiency_ratio(crm, DataSet(data.xs, scale * data.ys))
    assert ratio == pytest.approx(efficiency_ratio(crm, data), rel=1e-9)
    assert ratio > 1.5
    line = DataSet(np.array([[0.0], [1.0], [2.0]]), scale * np.array([1.0, 2.0, 3.0]))
    assert efficiency_ratio(MechanismSpec(MechanismKind.L1ERM, L1Config()), line) == 1.0
    zero_line = ImpartialConfig(g=(AffineResponse(a=[0.0], b=[0.0]),) * 3, c=0.0)
    assert efficiency_ratio(MechanismSpec(MechanismKind.IMPARTIAL, zero_line), line) == math.inf


def test_lowerbound_instance_doubles_the_optimum():
    with pytest.raises(ContractViolation):
        lowerbound_instance(2)
    for n in range(3, 9):
        data, diag = lowerbound_instance(n)
        assert data.n == n + 1
        assert diag.t_value == pytest.approx(1.0, abs=1e-9)
        assert diag.ols_rss == pytest.approx(0.5, rel=1e-9)
        assert diag.constrained_rss == pytest.approx(1.0, rel=1e-6)
        assert diag.ratio == pytest.approx(2.0, abs=1e-5)
    _, scaled = lowerbound_instance(5, probe=2.0)
    assert scaled.ols_rss == pytest.approx(2.0, rel=1e-9)
    assert scaled.constrained_rss == pytest.approx(4.0, rel=1e-6)
    assert scaled.ratio == pytest.approx(2.0, abs=1e-5)


# -- mechanism plumbing -----------------------------------------------------------


def test_builtin_instances_are_catalogued():
    sizes = {"crm-disjoint": 6, "crm-subset": 10, "quantile04": 20}
    for name, n in sizes.items():
        inst = builtin_instance(name)
        assert inst.name == name
        assert inst.data.n == n
        assert 0 <= inst.deviator < n
        assert inst.reference_lines
    assert "figure_truthful" in builtin_instance("crm-subset").reference_lines
    assert "text_truthful" in builtin_instance("crm-subset").reference_lines
    with pytest.raises(ContractViolation):
        builtin_instance("no-such-instance")


def test_mechanism_parameter_type_gates():
    data = DataSet(np.array([[0.0], [1.0], [2.0], [3.0]]),
                   np.array([0.5, 1.0, 0.0, 2.0]))
    bad = [
        MechanismSpec(MechanismKind.QUANTILE),
        MechanismSpec(MechanismKind.CRM),
        MechanismSpec(MechanismKind.GRL, AgentPartition(((0,), (1,)), (1, 1))),
        MechanismSpec(MechanismKind.GRH, GrlParams((0,), (1,), 1, 1)),
        MechanismSpec(MechanismKind.IMPARTIAL),
        MechanismSpec(MechanismKind.GENERALIZED_MEDIAN),
    ]
    for spec in bad:
        with pytest.raises(ConfigurationError):
            fit_mechanism(spec, data)


def test_type_gate_names_the_kind_and_the_config_types():
    data = DataSet(np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 1.0, 0.0]))
    cases = [
        (MechanismSpec(MechanismKind.OLS, L1Config()),
         "ols mechanism takes no config, got L1Config"),
        (MechanismSpec(MechanismKind.L1ERM, QuantileConfig(0.3)),
         "l1erm mechanism needs a config of type L1Config, got QuantileConfig"),
        (MechanismSpec(MechanismKind.GRH, GrlParams((0,), (1,), 1, 1)),
         "grh mechanism needs a config of type AgentPartition, got GrlParams"),
    ]
    for spec, message in cases:
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            fit_mechanism(spec, data)


def test_mechanism_domain_gates():
    line_data = DataSet(np.array([[0.0], [1.0], [2.0], [3.0]]),
                        np.array([0.5, 1.0, 0.0, 2.0]))
    d0 = DataSet(np.zeros((1, 0)), np.array([1.0]))
    with pytest.raises(ContractViolation):
        fit_mechanism(MechanismSpec(MechanismKind.GENERALIZED_MEDIAN,
                                    GenMedParams((0.0, 1.0))), line_data)
    interleaved = MechanismSpec(MechanismKind.GRL,
                                GrlParams(s=(0, 2), sprime=(1, 3), k=1, kprime=1))
    with pytest.raises(ContractViolation):
        fit_mechanism(interleaved, line_data)
    unseparable = MechanismSpec(
        MechanismKind.GRH,
        AgentPartition(((0, 2), (1, 3)), (1, 1)),
    )
    with pytest.raises(NotPubliclySeparable):  # the error fit_grh raises
        fit_mechanism(unseparable, line_data)
    with pytest.raises(ConfigurationError):
        fit_mechanism(MechanismSpec(MechanismKind.GENERALIZED_MEDIAN,
                                    GenMedParams((-math.inf, -math.inf))), d0)


def test_generalized_median_needs_one_phantom_more_than_agents():
    data = DataSet(np.zeros((3, 0)), np.array([1.0, 2.0, 3.0]))
    spec = MechanismSpec(MechanismKind.GENERALIZED_MEDIAN, GenMedParams((0.0, 1.0, 2.0)))
    with pytest.raises(ConfigurationError, match="need exactly 4 phantoms for 3 agents"):
        spec.bind(data)


def test_generalized_median_mechanism_end_to_end():
    d0 = DataSet(np.zeros((3, 0)), np.array([4.0, -1.0, 2.5]))
    spec = MechanismSpec(MechanismKind.GENERALIZED_MEDIAN,
                         GenMedParams((-math.inf, 0.0, 3.0, math.inf)))
    h = fit_mechanism(spec, d0)
    pooled = sorted([4.0, -1.0, 2.5, 0.0, 3.0])
    assert h.beta0 == pooled[2]  # finite phantoms drop out of the window
    assert h.beta1.size == 0


def test_ols_mechanism_matches_direct_least_squares():
    data = DataSet(np.array([[0.0], [1.0], [2.0], [3.0]]),
                   np.array([0.5, 1.0, 0.0, 2.0]))
    npt.assert_allclose(
        fit_mechanism(MechanismSpec(MechanismKind.OLS), data).coefficients(),
        fit_ols(data).coefficients(), atol=1e-12)
    # every row of a block is fit_ols of that row alone, bit for bit
    rng = np.random.default_rng(26)
    data = random_data(rng, 9, 2)
    block = rng.normal(0.0, 3.0, (50, data.n))
    coeffs, failed = MechanismSpec(MechanismKind.OLS).bind(data).coefficients_many(block)
    assert not failed
    for row, ys in zip(coeffs, block):
        assert row.tobytes() == fit_ols(DataSet(data.xs, ys)).coefficients().tobytes()


def test_bound_mechanism_report_override_matches_refitting():
    data = DataSet(np.array([[0.0], [1.0], [2.0], [4.0]]),
                   np.array([1.0, 3.0, -1.0, 0.5]))
    spec = MechanismSpec(MechanismKind.L1ERM, L1Config())
    bound = spec.bind(data)
    moved = data.with_reports({2: 5.0})
    npt.assert_allclose(bound.coefficients(moved.ys),
                        fit_mechanism(spec, moved).coefficients(), atol=1e-9)


def test_named_resistant_line_presets_wrap_the_partition():
    data = DataSet(np.array([[float(i)] for i in range(5)]),
                   np.array([0.0, 1.0, 0.5, 2.0, 1.5]))
    for build, preset in ((brown_mood_spec, "brown-mood"), (tukey_spec, "tukey")):
        spec = build(data)
        assert spec.kind is MechanismKind.GRH
        direct = MechanismSpec(MechanismKind.GRH, preset_partition(data, preset))
        npt.assert_allclose(fit_mechanism(spec, data).coefficients(),
                            fit_mechanism(direct, data).coefficients(), atol=1e-12)


# -- judging a block of probes ------------------------------------------------------


def _one_of_each_kind():
    """(spec, data) for every mechanism kind, with GRH in d = 1 and d = 2."""
    rng = np.random.default_rng(21)
    line = random_data(rng, 6, 1)
    order = tuple(int(i) for i in np.argsort(line.xs[:, 0]))
    plane, part = random_separable_instance(rng, 2, sizes=(2, 3, 2))
    pair = DataSet(np.array([[0.0], [2.0]]), np.array([5.0, 7.0]))
    d0 = DataSet(np.zeros((3, 0)), np.array([4.0, -1.0, 2.5]))
    return [
        (MechanismSpec(MechanismKind.OLS), line),
        (MechanismSpec(MechanismKind.L1ERM, L1Config()), plane),
        (MechanismSpec(MechanismKind.QUANTILE, QuantileConfig(0.3)), line),
        (MechanismSpec(MechanismKind.CRM, CrmConfig(s=order[:3], sprime=order[3:])), line),
        (MechanismSpec(MechanismKind.GRL, GrlParams(order[:3], order[3:], 2, 1)), line),
        (brown_mood_spec(line), line),
        (MechanismSpec(MechanismKind.GRH, part), plane),
        (MechanismSpec(MechanismKind.IMPARTIAL, swap_config(pair)), pair),
        (MechanismSpec(MechanismKind.GENERALIZED_MEDIAN,
                       GenMedParams((-math.inf, 0.0, 3.0, math.inf))), d0),
    ]


def _report_block(data, rng, rows=24):
    """Row 0 is the truth; every other row moves up to three reports."""
    block = np.repeat(data.ys[None, :], rows, axis=0)
    for row in block[1:]:
        movers = rng.choice(data.n, size=min(3, data.n), replace=False)
        row[movers] += rng.normal(0.0, 3.0, movers.size)
    return block


def _assert_rows_as_alone(spec, data, block):
    """Row k of a batched solve is bit for bit what a solve of row k alone
    gives, or fails with the error the row alone raises."""
    many, failed = spec.bind(data).coefficients_many(block)
    alone = spec.bind(data)  # a fresh binding sees the rows in the same order
    for k, row in enumerate(block):
        if k in failed:
            with pytest.raises(type(failed[k])) as info:
                alone.coefficients(row)
            assert str(info.value) == str(failed[k])
        else:
            assert many[k].tobytes() == alone.coefficients(row).tobytes(), k
    return failed


def test_the_kinds_cover_the_mechanism_table():
    assert {spec.kind for spec, _ in _one_of_each_kind()} == set(MechanismKind)


@pytest.mark.parametrize("case", range(9))
def test_batched_coefficients_are_the_single_row_coefficients(case):
    spec, data = _one_of_each_kind()[case]
    assert not _assert_rows_as_alone(spec, data, _report_block(data, np.random.default_rng(case)))


def test_batched_grh_fails_rows_as_alone_across_chunks(monkeypatch):
    # rows 1 and 3 are near ties at their own scale: two distinct planes
    # meet the rank conditions there
    xs = np.array([[0.0, 0.0], [0.1, 0.0], [6.0, 0.0], [0.0, 6.0]])
    data = DataSet(xs, np.array([1.0, 2.0, 3.0, 4.0]))
    spec = MechanismSpec(MechanismKind.GRH, AgentPartition(((0, 1), (2,), (3,)), (1, 1, 1)))
    tie = np.array([1.0, 1.0 + 1e-10, 1.0, 1.0])
    block = np.array([data.ys, tie, data.ys + 1.0, 3.0 * tie, -data.ys, data.ys ** 2, [0.0] * 4])
    # 2 transversals x 4 points: three rows per chunk, so chunks of 3, 3 and 1
    monkeypatch.setattr(core, "BLOCK_CELLS", 3 * 2 * 4)
    failed = _assert_rows_as_alone(spec, data, block)
    assert sorted(failed) == [1, 3]
    assert all(isinstance(exc, grh.UniquenessViolation) for exc in failed.values())


def test_rows_without_a_finite_fit_fail_as_alone():
    line = DataSet(np.array([[0.0], [1.0], [3.0]]), np.array([0.0, 1.0, 2.0]))
    crm = MechanismSpec(MechanismKind.CRM, CrmConfig(s=(0,), sprime=(1, 2)))
    # row 1's slopes overflow
    block = np.array([line.ys, [-1e308, 1e308, 1e308], [1.0, 0.0, 5.0]])
    failed = _assert_rows_as_alone(crm, line, block)
    assert sorted(failed) == [1] and isinstance(failed[1], ContractViolation)
    pair = DataSet(np.array([[0.0], [2.0]]), np.array([1.0, 1.0]))
    impartial = MechanismSpec(MechanismKind.IMPARTIAL, ImpartialConfig(
        g=(AffineResponse(a=[1e308], b=[0.0]), AffineResponse(a=[1.0], b=[0.0]))))
    failed = _assert_rows_as_alone(impartial, pair, np.array([[1.0, 1.0], [10.0, 1.0]]))
    assert sorted(failed) == [1] and isinstance(failed[1], ContractViolation)
    # every phantom at +inf: the median is +inf whatever the reports
    d0 = DataSet(np.zeros((2, 0)), np.array([1.0, 2.0]))
    genmed = MechanismSpec(MechanismKind.GENERALIZED_MEDIAN, GenMedParams((math.inf,) * 3))
    failed = _assert_rows_as_alone(genmed, d0, np.array([[1.0, 2.0], [-4.0, 0.5]]))
    assert sorted(failed) == [0, 1]
    assert all(isinstance(exc, ConfigurationError) for exc in failed.values())


def _piecewise_linear_cases():
    """L1 with weights, phantoms and drift; L1 with fewer points than
    coefficients (no square basis, so nothing is cached); quantile q = 0.3."""
    rng = np.random.default_rng(23)
    dense, few, quantile = random_data(rng, 10, 2), random_data(rng, 2, 2), random_data(rng, 10, 2)
    phantoms = (PhantomTerm(np.zeros(2), 0.0, 2.0), PhantomTerm(np.ones(2), 1.0, 0.5))
    weighted = L1Config(weights=tuple(rng.uniform(0.5, 2.0, 10)), phantoms=phantoms, drift=0.5)
    return [(MechanismSpec(MechanismKind.L1ERM, weighted), dense),
            (MechanismSpec(MechanismKind.L1ERM, L1Config()), few),
            (MechanismSpec(MechanismKind.QUANTILE, QuantileConfig(0.3)), quantile)]


@pytest.mark.parametrize("cells", ["default", "one row per chunk"])
@pytest.mark.parametrize("case", range(3))
def test_batched_piecewise_linear_rows_meet_the_cache_as_alone(case, cells, monkeypatch):
    spec, data = _piecewise_linear_cases()[case]
    if cells != "default":
        monkeypatch.setattr(core, "BLOCK_CELLS", 1)
    rng = np.random.default_rng(case)
    block = _report_block(data, rng, rows=160)
    block[80:] = rng.normal(0.0, 3.0, (80, data.n))  # far moves: new bases mid-block
    solves = []
    solve_lp = erm.solve_lp

    def counted(*args, **kwargs):
        res = solve_lp(*args, **kwargs)
        solves.append(None if res.tableau is None else res.basis.tobytes())
        return res

    monkeypatch.setattr(erm, "solve_lp", counted)
    bound = spec.bind(data)
    bound.coefficients()
    truthful = len(solves)
    bound.coefficients_many(block)
    # the block misses mid-block; where bases are cached, it solves more
    # distinct ones than the cache keeps, so some are evicted mid-block
    assert len(solves) > truthful + 1
    cached = {basis for basis in solves if basis is not None}
    assert len(cached) > erm.DUAL_BASES or (case == 1 and not cached)
    assert not _assert_rows_as_alone(spec, data, block)


def test_batched_piecewise_linear_fits_fail_rows_as_alone():
    data = random_data(np.random.default_rng(24), 4, 1)
    # drift beyond the total weight: the risk is unbounded for every report
    spec = MechanismSpec(MechanismKind.L1ERM, L1Config(drift=5.0))
    failed = _assert_rows_as_alone(spec, data, _report_block(data, np.random.default_rng(24), 5))
    assert sorted(failed) == list(range(5))
    assert all(isinstance(exc, ConfigurationError) for exc in failed.values())


def test_batched_piecewise_linear_pricing_memory_is_bounded():
    rng = np.random.default_rng(25)
    data = random_data(rng, 300, 2)
    bound = MechanismSpec(MechanismKind.L1ERM, L1Config()).bind(data)
    bound.coefficients()
    block = np.repeat(data.ys[None, :], 4096, axis=0)
    block[np.arange(4096), rng.integers(0, data.n, 4096)] += rng.normal(0.0, 0.01, 4096)
    tracemalloc.start()
    try:
        coeffs, failed = bound.coefficients_many(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not failed and np.isfinite(coeffs).all()
    # priced in one pass, the block would form 4096 x 32 bases x 3 x 300
    # doubles (about 0.9 GB); in chunks the peak stays near the block itself
    # (4096 x 300 doubles, 9.8 MB)
    assert peak < 48 * 2 ** 20, peak


def test_crm_block_memory_is_bounded():
    rng = np.random.default_rng(27)
    n = 100
    data = DataSet(rng.permutation(n).astype(float)[:, None], rng.normal(0.0, 1.0, n))
    bound = MechanismSpec(MechanismKind.CRM, CrmConfig(tuple(range(n)), tuple(range(n)))).bind(data)
    block = data.ys + rng.normal(0.0, 0.1, (1024, n))
    tracemalloc.start()
    try:
        coeffs, failed = bound.coefficients_many(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not failed and np.isfinite(coeffs).all()
    # in one pass the block would form arrays of 1024 x 100 x 100 angles
    # (78 MB each, a 313 MB peak); in chunks of core.BLOCK_CELLS, about 41 MB
    assert peak < 64 * 2 ** 20, peak


def _sequential_first_certificate(probe, table, blocks):
    """The search one trial at a time: the reference for judging in blocks."""
    for coalition, picks in blocks:
        for row in picks:
            try:
                cert = probe.judge(coalition, table[list(coalition), row[:len(coalition)]])
            except InternalInconsistency:
                continue
            if cert is not None:
                return cert
    return None


def _certificate_fields(cert):
    if cert is None:
        return None
    return (cert.coalition, cert.misreports, cert.before, cert.after,
            cert.truthful.coefficients().tobytes(), cert.deviated.coefficients().tobytes())


def _finding_audits():
    rng = np.random.default_rng(31)
    for name in ("crm-disjoint", "crm-subset"):
        inst = builtin_instance(name)
        yield inst.mechanism, inst.data, 0
    for seed in range(4):
        data = random_data(rng, 5, 1 + seed % 2)
        yield MechanismSpec(MechanismKind.OLS), data, seed
        yield MechanismSpec(MechanismKind.QUANTILE, QuantileConfig(0.3)), data, seed


def test_block_judging_finds_the_certificate_the_sequential_search_finds(monkeypatch):
    for trials in (1, 7, 4096):
        with monkeypatch.context() as patch:
            _assert_stacks_find_what_the_sequential_search_finds(patch, trials)


def _assert_stacks_find_what_the_sequential_search_finds(monkeypatch, trials):
    monkeypatch.setattr(audit, "BLOCK_TRIALS", trials)
    judge_many = audit._Probe.judge_many
    paid_behind_the_first_block = []

    def recorded(probe, table, stack):
        cert, errors = judge_many(probe, table, stack)
        if cert is not None:
            paid_behind_the_first_block.append(cert.coalition != stack[0][0])
        return cert, errors

    monkeypatch.setattr(audit._Probe, "judge_many", recorded)
    found = 0
    for spec, data, seed in _finding_audits():
        runs = []
        for first_certificate in (audit._first_certificate, _sequential_first_certificate):
            with monkeypatch.context() as patch:
                patch.setattr(audit, "_first_certificate", first_certificate)
                runs.append([audit_gsp(spec, data, 3, seed=seed, max_evals=200),
                             audit_sp(spec, data, data.n - 1)])
        assert [_certificate_fields(c) for c in runs[0]] == \
            [_certificate_fields(c) for c in runs[1]], trials
        found += sum(c is not None for c in runs[0])
    assert found >= 10
    # in whole-audit stacks, some audit pays in a coalition behind the first
    if trials == 1:
        assert not any(paid_behind_the_first_block)
    elif trials == 4096:
        assert any(paid_behind_the_first_block)


def test_block_raises_an_error_only_before_the_first_paying_trial():
    data = random_data(np.random.default_rng(3), 5, 1)
    ols = MechanismSpec(MechanismKind.OLS)
    pay = audit_sp(ols, data, 0).misreports[0]
    pay1 = audit_sp(ols, data, 1).misreports[1]
    calls = []

    def stub_probe():
        """OLS, except that a row where agent 0 reports 998 or 999 fails."""
        probe = audit._Probe(ols, data, DEFAULT_MARGIN)
        solve_many = probe.bound._solve_many

        def flaky(block):
            calls.append(len(block))
            coeffs, failed = solve_many(block)
            for k in np.flatnonzero(block[:, 0] == 998.0):
                failed[k] = InternalInconsistency("stub degenerate tie")
            for k in np.flatnonzero(block[:, 0] == 999.0):
                failed[k] = ConfigurationError("stub failure")
            coeffs[list(failed)] = np.nan
            return coeffs, failed

        probe.bound._solve_many = flaky
        return probe

    # agent 0's candidates are 998, 999 and pay; agent 1's is pay1
    table = np.array([[998.0, 999.0, pay], [pay1, 0.0, 0.0]] + [[0.0] * 3] * (data.n - 2))

    def trials(*reports):
        return [((0,), np.array([[[998.0, 999.0, pay].index(r)] for r in reports]))]

    def first_certificate(blocks):
        return audit._first_certificate(stub_probe(), table, blocks)

    # one block: an error after the paying trial is not raised
    assert first_certificate(trials(pay, 999.0)).misreports == {0: pay}
    # a degenerate probe before it is skipped
    assert first_certificate(trials(998.0, pay)).misreports == {0: pay}
    # any other error before it is raised
    with pytest.raises(ConfigurationError, match="stub failure"):
        first_certificate(trials(998.0, 999.0, pay))

    # a stack of two coalitions, judged with one solve: the same rules hold
    # across the coalitions' blocks
    agent1 = ((1,), np.array([[0]]))
    assert first_certificate(trials(998.0) + [agent1]).misreports == {1: pay1}
    assert first_certificate([agent1] + trials(999.0)).misreports == {1: pay1}
    with pytest.raises(ConfigurationError, match="stub failure"):
        first_certificate(trials(998.0, 999.0) + [agent1])
    assert calls == [2, 2, 3, 2, 2, 3]


def test_a_grh_audit_that_fits_in_one_stack_solves_once(monkeypatch):
    data, part = random_separable_instance(np.random.default_rng(6), 2, sizes=(2, 2, 2))
    rows = []
    coefficients_many = audit.BoundMechanism.coefficients_many

    def recorded(bound, ys):
        rows.append(len(ys))
        return coefficients_many(bound, ys)

    monkeypatch.setattr(audit.BoundMechanism, "coefficients_many", recorded)
    assert audit_gsp(MechanismSpec(MechanismKind.GRH, part), data, 3, max_evals=600) is None
    assert len(rows) == 1 and 1000 < rows[0] <= audit.BLOCK_TRIALS


def _per_member_blocks(sizes, max_coalition, rng, max_evals):
    """The (coalition, picks) blocks of the coalition search, built as one
    seeded draw per member, coalition by coalition, and as
    ``itertools.product`` rows: the reference for ``audit._coalition_blocks``."""
    def blocks(coalition, rows):
        rows = [list(r) + [r[-1]] * (max_coalition - len(r)) for r in rows]
        for start in range(0, len(rows), audit.BLOCK_TRIALS):
            yield coalition, np.array(rows[start:start + audit.BLOCK_TRIALS], dtype=np.int64)

    n = len(sizes)
    for agent in range(n):
        yield from blocks((agent,), [(i,) for i in range(sizes[agent])])
    for size in range(2, max_coalition + 1):
        if n <= 8:
            coalitions = list(itertools.combinations(range(n), size))
        else:
            seen = set()
            while len(seen) < min(audit.COALITION_SAMPLES, math.comb(n, size)):
                seen.add(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
            coalitions = sorted(seen)
        budget = None if max_evals is None else max(1, max_evals // len(coalitions))
        for coalition in coalitions:
            lengths = [sizes[i] for i in coalition]
            if budget is not None and math.prod(lengths) > budget:
                rows = list(zip(*[rng.integers(0, length, size=budget) for length in lengths]))
            else:
                rows = list(itertools.product(*map(range, lengths)))
            yield from blocks(coalition, rows)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_coalition_blocks_draw_as_one_draw_per_member(draw):
    n = draw.draw(st.integers(1, 12))
    sizes = draw.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    max_coalition = draw.draw(st.integers(1, min(4, n)))
    max_evals = draw.draw(st.none() | st.integers(1, 400))
    trials = draw.draw(st.sampled_from([5, 64, audit.BLOCK_TRIALS]))
    seed = draw.draw(st.integers(0, 2 ** 32 - 1))
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(audit, "BLOCK_TRIALS", trials)
        got = list(audit._coalition_blocks(sizes, max_coalition, rngs[0], max_evals))
        expected = list(_per_member_blocks(sizes, max_coalition, rngs[1], max_evals))
    assert [c for c, _ in got] == [c for c, _ in expected]
    for (_, picks), (_, want) in zip(got, expected):
        assert picks.dtype == want.dtype and picks.shape == want.shape
        assert (picks == want).all()
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_coalition_blocks_sample_coalitions_and_picks_above_eight_agents():
    # the hypothesis test above, pinned on a case that samples both the
    # coalitions (n > 8) and the picks of each (a budget below the products)
    sizes = [1, 7, 30, 2, 45, 9, 1, 12, 33, 5, 18]
    rngs = np.random.default_rng(11), np.random.default_rng(11)
    got = list(audit._coalition_blocks(sizes, 4, rngs[0], 900))
    expected = list(_per_member_blocks(sizes, 4, rngs[1], 900))
    assert len({c for c, _ in got if len(c) == 4}) == audit.COALITION_SAMPLES
    assert [c for c, _ in got] == [c for c, _ in expected]
    assert all((a == b).all() for (_, a), (_, b) in zip(got, expected))
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

