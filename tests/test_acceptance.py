"""Acceptance gate: one test per documented guarantee, run at stated tolerances.

Each test prints as a single pass/fail line under ``pytest -v``.  The
quantile reproduction (criterion 3) checks the exact outcome of the
documented q=0.4 misreport: the report stays above the fitted line, so the
subgradient optimality conditions at the unique optimum are unchanged and
the fit does not move; the recorded "deviated" line is not optimal on the
deviated data.
"""

import itertools
import math
import time

import numpy as np
import pytest

from truthfit import (
    AffineResponse,
    AgentPartition,
    CrmConfig,
    DataSet,
    Hyperplane,
    ImpartialConfig,
    InternalInconsistency,
    L1Config,
    MechanismKind,
    MechanismSpec,
    Ordering,
    PhantomTerm,
    PwlResponse,
    UniquenessViolation,
    audit_gsp,
    audit_sp,
    brown_mood_spec,
    builtin_instance,
    compare_hyperplanes,
    efficiency_ratio,
    fit_crm,
    fit_grh,
    fit_grl,
    fit_l1erm,
    fit_mechanism,
    fit_ols,
    influence_bounds,
    lowerbound_instance,
    predict,
    preset_partition,
    quantile_risk,
    rss,
    traversal_hyperplanes,
    tukey_spec,
    verify_certificate,
)
from truthfit.random_instances import (
    random_data,
    random_separable_instance,
    random_split_line_instance,
)


def _abs_residual(data: DataSet, agent: int, line) -> float:
    return abs(float(data.ys[agent]) - predict(line, data.xs[agent]))


# -- 1: six-point counterexample ---------------------------------------------------


def test_criterion_01_clockwise_median_counterexample():
    start = time.perf_counter()
    inst = builtin_instance("crm-disjoint")
    truthful = fit_mechanism(inst.mechanism, inst.data)
    assert truthful.beta1[0] == 0.0 and truthful.beta0 == 1.0  # exact
    deviated_data = inst.data.with_reports({inst.deviator: inst.misreport})
    deviated = fit_mechanism(inst.mechanism, deviated_data)
    assert abs(deviated.beta1[0] - 0.1) <= 1e-9
    assert abs(deviated.beta0 - 1.4) <= 1e-9
    before = _abs_residual(inst.data, inst.deviator, truthful)
    after = _abs_residual(inst.data, inst.deviator, deviated)
    assert before == pytest.approx(2.0, abs=1e-9)
    assert after == pytest.approx(1.2, abs=1e-9)
    assert time.perf_counter() - start < 1.0


# -- 2: ten-point counterexample -----------------------------------------------------


def test_criterion_02_clockwise_median_subset_counterexample():
    start = time.perf_counter()
    inst = builtin_instance("crm-subset")
    truthful = fit_mechanism(inst.mechanism, inst.data)
    deviated_data = inst.data.with_reports({inst.deviator: inst.misreport})
    deviated = fit_mechanism(inst.mechanism, deviated_data)
    before = _abs_residual(inst.data, inst.deviator, truthful)
    after = _abs_residual(inst.data, inst.deviator, deviated)
    assert before - after >= 1e-6, "the documented misreport must strictly pay off"
    refs = inst.reference_lines
    matches = {
        name: abs(truthful.beta1[0] - line[0]) <= 1e-9
        and abs(truthful.beta0 - line[1]) <= 1e-9
        for name, line in (("figure", refs["figure_truthful"]),
                           ("text", refs["text_truthful"]))
    }
    # the two published references disagree; the fit must match one of them
    assert any(matches.values()), (
        f"truthful line ({truthful.beta1[0]!r}, {truthful.beta0!r}) matches "
        f"neither reference {refs['figure_truthful']} nor {refs['text_truthful']}"
    )
    assert matches["figure"], "expected agreement with the figure's 0.5x + 3.5"
    assert time.perf_counter() - start < 1.0


# -- 3: quantile misreport leaves the exact fit unchanged ---------------------------


def test_criterion_03_quantile_counterexample():
    start = time.perf_counter()
    inst = builtin_instance("quantile04")
    cfg = inst.mechanism.params
    truthful = fit_mechanism(inst.mechanism, inst.data)
    ref = inst.reference_lines["figure_truthful"]
    assert abs(truthful.beta1[0] - ref[0]) <= 1e-4
    assert abs(truthful.beta0 - ref[1]) <= 1e-4
    deviated_data = inst.data.with_reports({inst.deviator: inst.misreport})
    deviated = fit_mechanism(inst.mechanism, deviated_data)
    # The agent sits strictly above the unique optimum; raising a report that
    # stays above the line leaves the subgradient optimality conditions there
    # unchanged, and the minimum is sharp, so the optimum does not move.
    assert np.max(np.abs(deviated.coefficients() - truthful.coefficients())) <= 1e-9, (
        f"misreport {inst.misreport} moved the exact q={cfg.q} fit from "
        f"{truthful.coefficients().tolist()} to {deviated.coefficients().tolist()}"
    )
    # the recorded "deviated" line is not optimal on the deviated data
    fig = inst.reference_lines["figure_deviated"]
    figure_deviated = Hyperplane([fig[0]], fig[1])
    fit_risk = quantile_risk(deviated_data, cfg, deviated)
    figure_risk = quantile_risk(deviated_data, cfg, figure_deviated)
    assert figure_risk - fit_risk >= 1e-3, (
        f"figure_deviated {fig} has q={cfg.q} risk {figure_risk!r} on the "
        f"deviated data, within 1e-3 of the fit's {fit_risk!r}"
    )
    assert audit_sp(inst.mechanism, inst.data, inst.deviator) is None
    assert time.perf_counter() - start < 5.0


# -- 4: resistant-hyperplane well-definedness ------------------------------------------


def test_criterion_04_resistant_hyperplane_unique_for_every_rank_vector():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    instances = 0
    rank_runs = 0
    for d in (1, 2, 3):
        for sizes in itertools.product((1, 2, 3, 4), repeat=d + 1):
            for _ in range(2):
                data, part = random_separable_instance(rng, d, sizes=sizes,
                                                       ranks="median")
                instances += 1
                result = fit_grh(data, part)  # full validated path once
                hyps = traversal_hyperplanes(data, part)
                betas = np.array([h.coefficients() for _, h in hyps])
                preds = betas @ data.xbar().T
                resid = data.ys[None, :] - preds
                tol = 1e-9 * (1.0 + float(np.max(np.abs(data.ys))))
                neg, nonpos = [], []
                for members in part.sets:
                    block = resid[:, list(members)]
                    neg.append((block < -tol).sum(axis=1))
                    nonpos.append((block <= tol).sum(axis=1))
                for ranks in itertools.product(*(range(1, s + 1) for s in sizes)):
                    ok = np.ones(betas.shape[0], dtype=bool)
                    for t, k in enumerate(ranks):
                        ok &= (neg[t] <= k - 1) & (nonpos[t] >= k)
                    sat = betas[ok]
                    assert sat.shape[0] >= 1, (d, sizes, ranks)
                    spread = np.max(np.abs(sat - sat[0]))
                    assert spread <= 1e-9, (
                        f"rank vector {ranks} on a {sizes} instance admits "
                        f"coefficientwise distinct hyperplanes (spread {spread:.3e})"
                    )
                    rank_runs += 1
                    if ranks == tuple(part.ranks):
                        assert np.max(
                            np.abs(sat[0] - result.hyperplane.coefficients())
                        ) <= 1e-9
    assert instances >= 500
    assert rank_runs > instances
    assert time.perf_counter() - start < 60.0


# -- 5: resistant-hyperplane coalition audit -------------------------------------------


def test_criterion_05_resistant_hyperplane_group_strategyproof():
    rng = np.random.default_rng(5)
    for trial in range(1000):
        d = 1 + trial % 2
        data, part = random_separable_instance(rng, d)
        while data.n > 6:
            data, part = random_separable_instance(rng, d)
        spec = MechanismSpec(MechanismKind.GRH, part)
        cert = audit_gsp(spec, data, max_coalition=min(3, data.n),
                         candidates_per_agent=41, seed=trial, max_evals=600)
        assert cert is None, (
            f"trial {trial}: coalition {cert.coalition} profits via "
            f"{cert.misreports} (residuals {cert.before} -> {cert.after})"
        )


# -- 6: generalized least-absolute-deviations -------------------------------------------


def _weighted_median_interval(values, weights):
    pairs = sorted(zip(values, weights))
    total = float(sum(weights))
    cum = 0.0
    lo = None
    for v, w in pairs:
        cum += w
        if 2.0 * cum >= total:
            lo = v
            break
    cum = 0.0
    hi = None
    for v, w in reversed(pairs):
        cum += w
        if 2.0 * cum >= total:
            hi = v
            break
    return lo, hi


def test_criterion_06a_weighted_median_reduction_is_exact():
    rng = np.random.default_rng(60)
    for case in range(200):
        n = int(rng.integers(1, 12))
        values = rng.integers(-20, 21, n).astype(float)
        weights = rng.integers(1, 5, n).astype(float)
        n_ph = int(rng.integers(0, 4))
        targets = rng.integers(-20, 21, n_ph).astype(float)
        room = weights.sum() + n_ph - 1.0
        drift = float(rng.integers(-3, 4)) if room >= 3 else 0.0
        data = DataSet(np.empty((n, 0)), values)
        cfg = L1Config(
            weights=tuple(weights),
            phantoms=tuple(PhantomTerm(np.array([]), float(t)) for t in targets),
            drift=drift,
        )
        h = fit_l1erm(data, cfg)
        pool = list(values) + list(targets)
        pool_w = list(weights) + [1.0] * n_ph
        if drift > 0:
            pool += [-1e30] * int(drift)
            pool_w += [1.0] * int(drift)
        elif drift < 0:
            pool += [1e30] * int(-drift)
            pool_w += [1.0] * int(-drift)
        lo, hi = _weighted_median_interval(pool, pool_w)
        assert h.beta0 == min(max(0.0, lo), hi), (case, values, weights, drift)
        assert h.beta1.size == 0


def test_criterion_06b_least_absolute_deviations_group_strategyproof():
    rng = np.random.default_rng(61)
    spec = MechanismSpec(MechanismKind.L1ERM, L1Config())
    for trial in range(1000):
        n = int(rng.integers(3, 7))
        d = 1 + trial % 2
        data = random_data(rng, n, d)
        # margin 1e-6 of the reports' scale: exact group-strategyproofness
        # leaves no gain, but the smallest-norm tie-break resolves within ~1e-9
        # of the optimum, so certificates at the default margin could reflect
        # wobble, not strategy
        cert = audit_gsp(spec, data, max_coalition=3, candidates_per_agent=41,
                         seed=trial, max_evals=300, margin=1e-6)
        assert cert is None, (
            f"trial {trial}: coalition {cert.coalition} profits via "
            f"{cert.misreports} (residuals {cert.before} -> {cert.after})"
        )


def test_criterion_06c_least_absolute_deviations_efficiency_within_n():
    rng = np.random.default_rng(62)
    spec = MechanismSpec(MechanismKind.L1ERM, L1Config())
    done = 0
    while done < 200:
        n = int(rng.integers(3, 9))
        d = int(rng.integers(1, 3))
        if n < d + 2:
            continue
        data = random_data(rng, n, d)
        if rss(data, fit_ols(data)) <= 1e-9:
            continue
        ratio = efficiency_ratio(spec, data)
        assert ratio <= n + 1e-9, (n, d, ratio)
        done += 1


# -- 7: influence envelopes hold pointwise ----------------------------------------------


def test_criterion_07_prediction_is_the_median_of_report_and_bounds():
    rng = np.random.default_rng(7)

    def sweep(spec, data):
        bound = spec.bind(data)
        for agent in range(data.n):
            b = influence_bounds(spec, data, agent)
            finite = [v for v in (b.lower, b.upper) if math.isfinite(v)]
            lo = min([float(data.ys.min()), *finite]) - 2.0
            hi = max([float(data.ys.max()), *finite]) + 2.0
            x_aug = np.append(data.xs[agent], 1.0)
            reports = np.linspace(lo, hi, 201)
            block = np.tile(data.ys, (reports.size, 1))
            block[:, agent] = reports
            coeffs, failed = bound.coefficients_many(block)
            assert not failed, (agent, failed)
            for report, beta in zip(reports, coeffs):
                pred = float(beta @ x_aug)
                assert abs(pred - b.clamp(report)) <= 1e-9, (agent, report)

    for _ in range(20):
        data = random_data(rng, 7, 1)
        sweep(brown_mood_spec(data), data)
    for _ in range(20):
        data = random_data(rng, 7, 1)
        sweep(tukey_spec(data), data)
    for _ in range(3):
        d = int(rng.integers(1, 3))
        sizes = tuple(int(rng.integers(2, 4)) for _ in range(d + 1))
        ranks = tuple(int(rng.integers(1, s + 1)) for s in sizes)
        for _ in range(20):
            data, part = random_separable_instance(rng, d, sizes=sizes, ranks=ranks)
            sweep(MechanismSpec(MechanismKind.GRH, part), data)


# -- 8: the two-fold efficiency floor arithmetic ------------------------------------------


def test_criterion_08_lower_bound_instance_arithmetic():
    for n in range(3, 11):
        _, diag = lowerbound_instance(n)
        assert abs(diag.t_value - 1.0) <= 1e-9
        assert abs(diag.ols_rss - diag.probe ** 2 / 2.0) <= 1e-9 * diag.probe ** 2 / 2.0
        assert abs(diag.constrained_rss - diag.probe ** 2) <= 1e-6 * diag.probe ** 2
        assert abs(diag.ratio - 2.0) <= 1e-5


# -- 9: impartiality and its group-strategyproofness limits --------------------------------


def _random_response(rng, d):
    if rng.integers(0, 2):
        return AffineResponse(a=rng.integers(-3, 4, d).astype(float),
                              b=rng.integers(-3, 4, d).astype(float))
    bp = np.sort(rng.choice(np.arange(-4, 5), 3, replace=False)).astype(float)
    vals = rng.integers(-3, 4, (3, d)).astype(float)
    return PwlResponse(breakpoints=bp, values=vals)


def test_criterion_09a_own_report_sweeps_leave_own_prediction_fixed():
    rng = np.random.default_rng(90)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 3))
        xs = rng.integers(-5, 6, (n, d)).astype(float)
        ys = rng.integers(-5, 6, n).astype(float)
        data = DataSet(xs, ys)
        cfg = ImpartialConfig(g=tuple(_random_response(rng, d) for _ in range(n)),
                              c=float(rng.integers(-3, 4)))
        for agent in range(n):
            base = predict(fit_mechanism(
                MechanismSpec(MechanismKind.IMPARTIAL, cfg), data), xs[agent])
            for report in np.linspace(-10.0, 10.0, 21):
                moved = fit_mechanism(MechanismSpec(MechanismKind.IMPARTIAL, cfg),
                                      data.with_reports({agent: float(report)}))
                assert abs(predict(moved, xs[agent]) - base) <= 1e-12


def test_criterion_09b_nonconstant_responses_admit_pair_certificates():
    rng = np.random.default_rng(91)
    for case in range(50):
        xs = np.sort(rng.choice(np.arange(-5, 6), 3, replace=False)).astype(float)[:, None]
        ys = rng.normal(0.0, 2.0, 3)
        slopes = rng.integers(-2, 3, 3).astype(float)
        while not slopes.any():
            slopes = rng.integers(-2, 3, 3).astype(float)
        cfg = ImpartialConfig(
            g=tuple(AffineResponse(a=[float(a)], b=[float(rng.integers(-2, 3))])
                    for a in slopes),
            c=float(rng.integers(-2, 3)),
        )
        assert not cfg.is_constant()
        data = DataSet(xs, ys)
        spec = MechanismSpec(MechanismKind.IMPARTIAL, cfg)
        cert = audit_gsp(spec, data, max_coalition=2, seed=case)
        assert cert is not None, (case, slopes)
        assert len(cert.coalition) == 2
        assert verify_certificate(spec, data, cert)


def test_criterion_09c_constant_responses_admit_no_certificates():
    rng = np.random.default_rng(92)
    for case in range(10):
        xs = np.sort(rng.choice(np.arange(-5, 6), 3, replace=False)).astype(float)[:, None]
        ys = rng.normal(0.0, 2.0, 3)
        cfg = ImpartialConfig(
            g=tuple(AffineResponse(a=[0.0], b=[float(rng.integers(-2, 3))])
                    for _ in range(3)),
            c=float(rng.integers(-2, 3)),
        )
        assert cfg.is_constant()
        spec = MechanismSpec(MechanismKind.IMPARTIAL, cfg)
        cert = audit_gsp(spec, DataSet(xs, ys), max_coalition=2, seed=case,
                         max_evals=400)
        assert cert is None, (case, cert)


# -- 10: one set always orders two hyperplanes ----------------------------------------------


def test_criterion_10_some_set_strictly_orders_any_distinct_pair():
    rng = np.random.default_rng(10)
    from truthfit import Hyperplane

    for case in range(500):
        d = 1 + case % 3
        data, part = random_separable_instance(rng, d)
        h1 = Hyperplane(rng.normal(0.0, 2.0, d), float(rng.normal(0.0, 2.0)))
        h2 = Hyperplane(rng.normal(0.0, 2.0, d), float(rng.normal(0.0, 2.0)))
        if np.max(np.abs(h1.coefficients() - h2.coefficients())) <= 1e-12:
            continue
        t, ordering = compare_hyperplanes(data, part, h1, h2)
        members = list(part.sets[t])
        diff = (data.xbar() @ h1.coefficients() - data.xbar() @ h2.coefficients())[members]
        if ordering is Ordering.ALL_BELOW:
            assert np.all(diff < 0.0), (case, t)
        else:
            assert ordering is Ordering.ALL_ABOVE
            assert np.all(diff > 0.0), (case, t)


# -- 11: the clockwise median is a resistant line ---------------------------------------------


def _matches_some_resistant_line(data, left, right, target) -> bool:
    for k in range(1, len(left) + 1):
        for kp in range(1, len(right) + 1):
            try:
                line = fit_grl(data, left, right, k, kp)
            except (UniquenessViolation, InternalInconsistency):
                continue
            if np.max(np.abs(line.coefficients() - target.coefficients())) <= 1e-9:
                return True
    return False


def test_criterion_11_clockwise_median_equals_a_resistant_line():
    rng = np.random.default_rng(11)
    for case in range(50):
        n = int(rng.integers(4, 10))
        data = random_data(rng, n, 1)
        h = fit_crm(data, CrmConfig(s=tuple(range(n)), sprime=tuple(range(n))))
        order = np.argsort(data.xs[:, 0], kind="stable")
        cuts = [n // 2] if n % 2 == 0 else [n // 2, n // 2 + 1]
        assert any(
            _matches_some_resistant_line(
                data,
                tuple(sorted(int(v) for v in order[:cut])),
                tuple(sorted(int(v) for v in order[cut:])),
                h,
            )
            for cut in cuts
        ), f"full-set case {case} (n={n}): no rank pair over an x-half split matches"
    for case in range(50):
        n_left, n_right = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        data, left, right = random_split_line_instance(rng, n_left, n_right)
        h = fit_crm(data, CrmConfig(s=left, sprime=right))
        assert _matches_some_resistant_line(data, left, right, h), (
            f"split case {case} ({n_left}+{n_right}): no rank pair matches"
        )
