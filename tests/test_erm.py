"""Least-squares, weighted L1, and quantile fits against external oracles.

Independent routes check the two-stage fit: scipy's HiGHS solver
recomputes the optimal risk, an enumeration of zero-residual row subsets
recomputes the exact minimum-norm tie-break for p <= 3, and a sorted-list
weighted median handles the d = 0 reduction exactly.
"""

import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from truthfit import (
    ConfigurationError,
    ContractViolation,
    DataSet,
    Hyperplane,
    L1Config,
    PhantomTerm,
    MechanismKind,
    MechanismSpec,
    QuantileConfig,
    audit_gsp,
    builtin_instance,
    efficiency_ratio,
    fit_l1erm,
    fit_mechanism,
    fit_ols,
    fit_quantile,
    l1_risk,
    quantile_risk,
    rss,
)
from truthfit import erm, simplex
from truthfit.audit import BoundMechanism
from truthfit.erm import _build_l1, _PiecewiseLinearFit
from truthfit.random_instances import random_data


# -- oracles -------------------------------------------------------------------


def scipy_optimal_risk(xbar, rhs, up, lo, drift, allow_unbounded=False):
    """Optimal piecewise-linear risk via HiGHS on the residual-split LP
    (None for an unbounded risk when ``allow_unbounded``)."""
    m, p = xbar.shape
    nv = p + 2 * m
    cost = np.zeros(nv)
    cost[p:p + m] = up
    cost[p + m:] = lo
    cost[p - 1] += drift
    a_eq = np.zeros((m, nv))
    a_eq[:, :p] = xbar
    a_eq[:, p:p + m] = np.eye(m)
    a_eq[:, p + m:] = -np.eye(m)
    res = linprog(cost, A_eq=a_eq, b_eq=rhs,
                  bounds=[(None, None)] * p + [(0, None)] * (2 * m),
                  method="highs")
    if allow_unbounded and res.status == 3:
        return None
    assert res.status == 0, res.message
    return float(res.fun)


def enumerated_min_norm(xbar, rhs, up, lo, drift):
    """Exact smallest-norm risk minimizer for p <= 3, by enumeration.

    The smallest-norm point of the optimal face is the smallest-norm
    solution of X_Z beta = y_Z for Z its zero-residual rows, and some such
    Z with |Z| <= p spans the same affine set.  So among the smallest-norm
    solutions of every consistent subsystem with |Z| <= p, the optimal risk
    r* is the least risk found, and the answer is the smallest-norm
    candidate whose risk is within r* (1 + 1e-12), plus 1e-12 of the sum
    of the absolute terms, which bounds the rounding of its risk.
    """
    m, p = xbar.shape
    assert p <= 3
    cands = []
    for size in range(p + 1):
        for z in itertools.combinations(range(m), size):
            z = list(z)
            beta = np.linalg.pinv(xbar[z]) @ rhs[z] if z else np.zeros(p)
            if z and np.max(np.abs(xbar[z] @ beta - rhs[z])) > 1e-9 * (1 + np.abs(rhs).max()):
                continue  # inconsistent subsystem
            r = rhs - xbar @ beta
            terms = np.concatenate([up * np.maximum(r, 0), lo * np.maximum(-r, 0),
                                    [drift * beta[-1]]])
            cands.append((float(terms.sum()), float(np.abs(terms).sum()), beta))
    rstar = min(risk for risk, _, _ in cands)
    near = [b for risk, size, b in cands if risk <= rstar + 1e-12 * (abs(rstar) + size)]
    return min(near, key=lambda b: float(b @ b))


def weighted_median_interval(values, weights):
    """[lo, hi] interval of minimizers of sum w |v - beta| (integer weights)."""
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


def l1_instances(draw, max_d=2):
    n = draw(st.integers(min_value=1, max_value=7))
    d = draw(st.integers(min_value=0, max_value=max_d))
    xs = np.array(
        draw(st.lists(st.tuples(*[st.integers(-5, 5)] * d), min_size=n, max_size=n)),
        dtype=float,
    ).reshape(n, d)
    # half-integer y's provoke plenty of exact ties
    ys = np.array(draw(st.lists(st.integers(-10, 10), min_size=n, max_size=n))) / 2.0
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    return DataSet(xs, ys), L1Config(weights=weights)


l1_cases = st.composite(l1_instances)


# -- stage 1: optimal risk matches scipy ----------------------------------------


@given(l1_cases())
@settings(max_examples=120, deadline=None)
def test_l1_risk_is_globally_optimal(case):
    data, cfg = case
    h = fit_l1erm(data, cfg)
    ours = l1_risk(data, cfg, h)
    w = np.asarray(cfg.weights, dtype=float)
    ref = scipy_optimal_risk(data.xbar(), data.ys, w, w, 0.0)
    assert ours <= ref + 1e-7 * (1.0 + abs(ref))
    assert ours >= ref - 1e-7 * (1.0 + abs(ref))


@given(l1_cases(), st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=100, deadline=None)
def test_quantile_risk_is_globally_optimal(case, q):
    data, _ = case
    cfg = QuantileConfig(q)
    h = fit_quantile(data, cfg)
    ours = quantile_risk(data, cfg, h)
    up = np.full(data.n, q)
    lo = np.full(data.n, 1.0 - q)
    ref = scipy_optimal_risk(data.xbar(), data.ys, up, lo, 0.0)
    assert ours == pytest.approx(ref, rel=1e-7, abs=1e-7)


@given(l1_cases(), st.data())
@settings(max_examples=100, deadline=None)
def test_fit_beats_random_alternatives(case, rnd):
    data, cfg = case
    h = fit_l1erm(data, cfg)
    base = l1_risk(data, cfg, h)
    seed = rnd.draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    for _ in range(20):
        other = Hyperplane(h.beta1 + rng.normal(0, 1, data.d),
                           h.beta0 + rng.normal())
        # the fit is an exact optimum; the cushion covers rounding in the
        # risk sums
        assert l1_risk(data, cfg, other) >= base - 3e-9 * (1.0 + abs(base))


# -- stage 2: minimum-norm tie-break against the enumeration oracle ---------------


@st.composite
def face_cases(draw):
    """Small integer-grid fits, where ties and collinear triples abound:
    L1 with weights, phantoms and drift, or a quantile risk with q != 1/2."""
    d = draw(st.integers(0, 2))
    n = draw(st.integers(1, 6))
    grid = st.integers(-3, 3)
    xs = np.array(draw(st.lists(st.tuples(*[grid] * d), min_size=n, max_size=n)),
                  dtype=float).reshape(n, d)
    ys = np.array(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))) / 2.0
    data = DataSet(xs, ys)
    if draw(st.booleans()):
        q = draw(st.sampled_from([0.25, 0.4, 0.7]))
        return data, QuantileConfig(q)
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    phantoms = tuple(
        PhantomTerm(np.array(anchor, dtype=float), float(target), float(weight))
        for anchor, target, weight in draw(st.lists(
            st.tuples(st.tuples(*[grid] * d), st.integers(-3, 3), st.integers(1, 2)),
            max_size=2))
    )
    drift = float(draw(st.sampled_from([0, 0, 1, -1, 2])))
    return data, L1Config(weights=weights, phantoms=phantoms, drift=drift)


def _fit_problem(data, cfg):
    """(fit, xbar, rhs, up, lo, drift) for either kind of config."""
    if isinstance(cfg, QuantileConfig):
        return (fit_quantile, data.xbar(), data.ys, np.full(data.n, cfg.q),
                np.full(data.n, 1.0 - cfg.q), 0.0)
    prob = _build_l1(data, cfg)
    return fit_l1erm, prob.xbar, prob.rhs, prob.up_w, prob.lo_w, prob.drift


def check_tie_break(data, cfg):
    """The fit is the enumeration oracle's smallest-norm minimizer, or a
    ConfigurationError where the risk is unbounded."""
    fit, xbar, rhs, up, lo, drift = _fit_problem(data, cfg)
    if scipy_optimal_risk(xbar, rhs, up, lo, drift, allow_unbounded=True) is None:
        with pytest.raises(ConfigurationError):
            fit(data, cfg)
        return
    ours = fit(data, cfg).coefficients()
    ref = enumerated_min_norm(xbar, rhs, up, lo, drift)
    npt.assert_allclose(ours, ref, rtol=0, atol=1e-9 * (1.0 + np.abs(ref).max()))


@given(face_cases())
@settings(max_examples=300, deadline=None)
def test_tie_break_matches_enumeration_oracle(case):
    check_tie_break(*case)


@given(l1_cases())
@settings(max_examples=60, deadline=None)
def test_l1_tie_break_matches_enumeration_oracle(case):
    check_tie_break(*case)


@given(l1_cases(), st.floats(min_value=0.1, max_value=0.9))
@settings(max_examples=40, deadline=None)
def test_quantile_tie_break_matches_enumeration_oracle(case, q):
    check_tie_break(case[0], QuantileConfig(q))


@pytest.mark.parametrize("xs, ys", [((1, 0, 0, 0, 0), (1, 0, 0, 0, 0)),
                                    ((1, 1, 0, 0, 0), (1, 1, 0, 0, 0)),
                                    ((0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 1, 1))])
def test_rows_the_active_rows_imply_do_not_empty_the_face(xs, ys):
    # agents at x = 0 on both sides of beta0 = 0 pin it; once the line
    # through (1, 1) is active, lstsq leaves beta0 at -1.2e-16, and a row
    # beta0 >= 0 read as violated emptied the face
    data = DataSet(np.array(xs, dtype=float)[:, None], np.array(ys, dtype=float))
    for spec in (MechanismSpec(MechanismKind.L1ERM, L1Config()),
                 MechanismSpec(MechanismKind.QUANTILE, QuantileConfig(0.3))):
        npt.assert_allclose(fit_mechanism(spec, data).coefficients(), [1.0, 0.0],
                            rtol=0.0, atol=1e-15)


def test_collinear_triple_fits_their_exact_line():
    # points 1, 2 and 5 are collinear and their line is the unique optimum
    xs = [1.324063664466082, -0.1292670223162311, 4.529776429441803,
          2.7646145033566762, -3.6921496628198236, 3.1410950803550257]
    ys = [-5.2364286531096775, -0.8229934068057114, 1.663690794211157,
          -2.5674907374297966, 6.145728241816213, 0.9225060409936588]
    data = DataSet(np.array(xs).reshape(-1, 1), np.array(ys))
    line = np.linalg.solve(data.xbar()[[1, 2]], data.ys[[1, 2]])
    npt.assert_allclose(fit_l1erm(data).coefficients(), line, rtol=0, atol=1e-12)
    w = np.ones(6)
    rstar = scipy_optimal_risk(data.xbar(), data.ys, w, w, 0.0)
    assert l1_risk(data, L1Config(), fit_l1erm(data)) == pytest.approx(rstar, rel=1e-14)


@pytest.mark.parametrize("kind", ["l1", "l1-phantom", "quantile", "l1-repeated",
                                  "l1-underdetermined"])
def test_warm_started_probes_equal_cold_fits(kind, monkeypatch):
    rng = np.random.default_rng({"l1": 41, "l1-phantom": 42, "quantile": 43,
                                 "l1-repeated": 44, "l1-underdetermined": 45}[kind])
    if kind == "l1-underdetermined":
        # n < d+1: the dual drops a redundant row, so no basis is square
        data = random_data(rng, 2, 2)
    else:
        data = random_data(rng, 5, 1 + (kind == "l1-phantom"))
    if kind == "l1-repeated":
        xs = data.xs.copy()
        xs[1], xs[4] = xs[0], xs[2]
        data = DataSet(xs, data.ys)
    if kind == "quantile":
        spec = MechanismSpec(MechanismKind.QUANTILE, QuantileConfig(0.3))
        cold = lambda d: fit_quantile(d, spec.params)  # noqa: E731
    else:
        cfg = L1Config()
        if kind == "l1-phantom":
            cfg = L1Config(weights=(1, 2, 1, 3, 1), drift=0.5,
                           phantoms=(PhantomTerm(np.zeros(2), 0.0, 2.0),))
        spec = MechanismSpec(MechanismKind.L1ERM, cfg)
        cold = lambda d: fit_l1erm(d, cfg)  # noqa: E731
    probes = record_probes(monkeypatch)
    assert audit_gsp(spec, data, max_coalition=2, max_evals=60, seed=1) is None
    # two agents have 42 candidates each, plus 60 sampled joint reports
    assert len(probes) > (140 if data.n == 2 else 300)
    for ys, warm in probes:
        ref = cold(DataSet(data.xs, ys)).coefficients()
        npt.assert_allclose(warm, ref, rtol=1e-12, atol=1e-12 * (1.0 + np.abs(ref).max()))


def record_probes(monkeypatch):
    """The (reports, coefficients) of every fit of a bound L1 or quantile
    mechanism: its truthful fit, then every row of the blocks an audit
    probes (these kinds solve a block without a call per row)."""
    probes = []
    coefficients, coefficients_many = BoundMechanism.coefficients, BoundMechanism.coefficients_many

    def record(self, ys=None):
        out = coefficients(self, ys)
        probes.append((self.data.ys if ys is None else np.array(ys), out))
        return out

    def record_many(self, ys):
        out, failed = coefficients_many(self, ys)
        probes.extend((row.copy(), out[k]) for k, row in enumerate(np.asarray(ys))
                      if k not in failed)
        return out, failed

    monkeypatch.setattr(BoundMechanism, "coefficients", record)
    monkeypatch.setattr(BoundMechanism, "coefficients_many", record_many)
    return probes


def count_lps(monkeypatch):
    """The list that each later ``erm.solve_lp`` call appends to."""
    lps = []
    solve_lp = erm.solve_lp

    def counted_lp(*args, **kwargs):
        lps.append(1)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(erm, "solve_lp", counted_lp)
    return lps


def test_probes_of_a_bound_mechanism_reuse_optimal_bases(monkeypatch):
    lps, probes = count_lps(monkeypatch), record_probes(monkeypatch)
    data = random_data(np.random.default_rng(46), 6, 2)
    spec = MechanismSpec(MechanismKind.L1ERM, L1Config())
    assert audit_gsp(spec, data, max_coalition=2, max_evals=300) is None
    assert len(lps) * 5 < len(probes)
    bound = spec.bind(data)
    ys = data.ys + np.arange(data.n)
    before = len(lps)
    first = bound.coefficients(ys)
    solved = len(lps)
    assert solved > before
    # a hit reads beta off the face the solve built, so it is the same
    npt.assert_array_equal(bound.coefficients(ys), first)
    assert len(lps) == solved


def test_an_lp_is_built_once_per_solve(monkeypatch):
    lps, forms = count_lps(monkeypatch), []
    equality_form = simplex._equality_form

    def counted_form(*args, **kwargs):
        forms.append(1)
        return equality_form(*args, **kwargs)

    monkeypatch.setattr(simplex, "_equality_form", counted_form)
    data = random_data(np.random.default_rng(46), 6, 2)
    spec = MechanismSpec(MechanismKind.L1ERM, L1Config())
    assert audit_gsp(spec, data, max_coalition=2, max_evals=300) is None
    # the cache keeps each solve's basis and inverse instead of building the LP again
    assert len(lps) > 1
    assert len(forms) == len(lps)


def test_dual_bases_keep_at_most_thirty_two_in_arrival_order(monkeypatch):
    rng = np.random.default_rng(47)
    data = random_data(rng, 10, 2)
    w = np.ones(data.n)
    cache = []
    lps = count_lps(monkeypatch)
    seen = set()
    for _ in range(200):
        rhs = rng.normal(0.0, 2.0, data.n)
        before, kept = len(lps), list(cache)
        fit = _PiecewiseLinearFit(data.xbar(), rhs, w, w, 0.0, cache=cache)
        fit.fit()
        if len(lps) == before:
            # a hit changes nothing
            assert len(cache) == len(kept) and all(a is b for a, b in zip(cache, kept))
            continue
        # a solve appends its basis, in place of the oldest once 32 are kept
        assert len(cache) == min(len(kept) + 1, erm.DUAL_BASES)
        assert all(a is b for a, b in zip(cache[:-1], kept[len(kept) + 1 - len(cache):]))
        assert cache[-1] not in kept
        # the new basis serves the rhs it was solved for, as optimal
        stays, _ = cache[-1].serves(fit, rhs[None], simplex.TOL * np.abs(rhs[None]).max(axis=1))
        assert stays.all()
        seen.add(tuple(cache[-1].zero))
    # more interpolation sets than the cache keeps, so some were evicted
    assert len(seen) > erm.DUAL_BASES
    assert len(cache) == erm.DUAL_BASES


def test_a_kept_basis_stays_optimal_exactly_when_a_warm_solve_makes_no_pivot():
    rng = np.random.default_rng(48)
    data = random_data(rng, 8, 2)
    cfg = L1Config(weights=tuple(rng.uniform(0.5, 2.0, 8)), drift=0.3,
                   phantoms=(PhantomTerm(np.ones(2), 0.5, 1.5),))
    fit = _build_l1(data, cfg)
    tail = fit.rhs[data.n:]
    block = np.hstack([data.ys + rng.normal(0.0, 1.0, (40, data.n)), np.tile(tail, (40, 1))])
    fit.fit_many(block)
    assert len(fit.cache) >= 4
    stayed = 0
    for rhs in block[:20]:
        tol = simplex.TOL * np.abs(rhs[None]).max(axis=1)
        for basis in fit.cache:
            stays, _ = basis.serves(fit, rhs[None], tol)
            assert stays[0] == (fit.dual(basis.status, rhs).pivots == 0)
            stayed += int(stays[0])
    assert stayed > 0


@st.composite
def cached_block_cases(draw):
    """A weighted L1 fit with phantoms and drift, or a q = 0.3 quantile fit,
    on continuous data, and a block of 30 reports that move one to three
    agents each."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, d = int(rng.integers(4, 9)), int(rng.integers(1, 3))
    data = random_data(rng, n, d)
    if draw(st.booleans()):
        phantoms = tuple(PhantomTerm(rng.uniform(-3.0, 3.0, d), float(rng.normal()),
                                     float(rng.uniform(0.5, 2.0)))
                         for _ in range(int(rng.integers(0, 3))))
        fit = _build_l1(data, L1Config(weights=tuple(rng.uniform(0.5, 2.0, n)),
                                       phantoms=phantoms, drift=float(rng.uniform(-0.5, 0.5))))
    else:
        fit = erm._build_quantile(data, QuantileConfig(0.3))
    block = np.tile(fit.rhs, (30, 1))
    for row in block:
        moved = rng.choice(n, int(rng.integers(1, 4)), replace=False)
        row[moved] += rng.normal(0.0, 2.0, moved.size)
    return fit, block


@given(cached_block_cases())
@settings(max_examples=60, deadline=None)
def test_rows_served_across_a_residual_sign_flip_equal_uncached_fits(case):
    fit, block = case
    flipped = []
    serves = erm._Basis.serves

    def record(basis, fit, rhs, tol):
        stays, pinned = serves(basis, fit, rhs, tol)
        flipped.extend(row.tobytes() for row in rhs[pinned & ~stays])
        return stays, pinned

    fit.fit_many(fit.rhs[None])  # the truthful fit, unless the drift leaves it unbounded
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(erm._Basis, "serves", record)
        beta = fit.fit_many(block)[0]
    # at most 31 solves: no basis is evicted, so each row is served once
    assert len(fit.cache) < erm.DUAL_BASES
    for k in [k for k, row in enumerate(block) if row.tobytes() in flipped]:
        alone = _PiecewiseLinearFit(fit.xbar, block[k], fit.up_w, fit.lo_w, fit.drift)
        npt.assert_array_equal(beta[k], alone.fit())
        best = scipy_optimal_risk(fit.xbar, block[k], fit.up_w, fit.lo_w, fit.drift)
        assert abs(alone.risk(beta[k]) - best) <= 1e-9 * (1.0 + abs(best))


@pytest.mark.parametrize("scale", [1e-13, 1e-9, 1e-6, 1e6, 1e12])
def test_fits_scale_with_the_reports(scale):
    # the cost of the dual LP is the reports, so its tolerance must scale too
    for data in (random_data(np.random.default_rng(3), 9, 1),
                 random_data(np.random.default_rng(4), 9, 2)):
        scaled = DataSet(data.xs, scale * data.ys)
        for fit in (fit_l1erm, lambda d: fit_quantile(d, QuantileConfig(0.3))):
            ref = scale * fit(data).coefficients()
            npt.assert_allclose(fit(scaled).coefficients(), ref, rtol=0.0,
                                atol=1e-12 * np.abs(ref).max())


def _weighted_instance(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(3, 12)), int(rng.integers(1, 3))
    xs, ys = rng.uniform(-5.0, 5.0, (n, d)), rng.normal(0.0, 2.0, n)
    return DataSet(xs, np.round(ys) if seed % 2 else ys), rng.uniform(0.5, 2.0, n)


def _weighted_fit(data, weights, drift):
    try:
        return fit_l1erm(data, L1Config(weights=tuple(weights), drift=drift)).coefficients()
    except ConfigurationError:
        return None


@pytest.mark.parametrize("k", [-40, -20, 20, 40])
def test_fits_do_not_depend_on_a_common_scale_of_weights_and_drift(k):
    # the simplex's tolerances had floors of 1.0 in the units of the weights:
    # at 2^-40 half the fits moved off the optimum, and a drift beyond the
    # total weight returned a fit where unit weights raise
    factor = 2.0 ** k
    for seed in range(30):
        data, w = _weighted_instance(seed)
        for drift in (0.0, 0.3 * w.sum(), 1.5 * w.sum()):
            ref = _weighted_fit(data, w, drift)
            got = _weighted_fit(data, factor * w, factor * drift)
            assert (got is None) == (ref is None), (seed, drift)
            if ref is not None:
                assert np.array_equal(got, ref), (seed, drift)


def _fit_risk(data, q):
    """The L1 fit (q None) or the q-quantile fit, its risk and its bounds."""
    ones = np.ones(data.n)
    if q is None:
        h, up, lo = fit_l1erm(data), ones, ones
        risk = l1_risk(data, L1Config(), h)
    else:
        h, up, lo = fit_quantile(data, QuantileConfig(q)), q * ones, (1.0 - q) * ones
        risk = quantile_risk(data, QuantileConfig(q), h)
    return h, risk, up, lo


@pytest.mark.parametrize("k", [-300, -60, -40, -30, 30, 60, 300])
def test_fits_are_optimal_whatever_the_power_of_two_units_of_x(k):
    # the dual's equality rows are the columns of the design: a row of
    # 1e-12 coordinates once read as zero pivots and was dropped as
    # redundant, and half these fits at 2^-40 were suboptimal or refused
    for seed in range(20):
        rng = np.random.default_rng(seed)
        data = random_data(rng, int(rng.integers(3, 12)), int(rng.integers(1, 3)))
        scaled = DataSet(2.0 ** k * data.xs, data.ys)
        for q in (None, 0.3):
            h, risk, up, lo = _fit_risk(scaled, q)
            # scaling x scales beta1 the other way: the optimum is unit x's
            opt = scipy_optimal_risk(data.xbar(), data.ys, up, lo, 0.0)
            assert risk <= opt + 1e-9 * (1.0 + opt), (seed, q)
            # without ties, exactly so
            ref = _fit_risk(data, q)[0]
            assert np.array_equal(h.beta1, 2.0 ** -k * ref.beta1) and h.beta0 == ref.beta0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_quantile_fits_at_a_tiny_q_are_optimal(seed):
    # one 1e-9 edge for both bounds of tau, 1e-9 * (q + 1 - q), put every
    # tau inside the bound q = 1e-10: seed 0 once had risk 3.248 against
    # an optimum of 1.13e-9
    rng = np.random.default_rng(seed)
    data = random_data(rng, int(rng.integers(3, 12)), int(rng.integers(1, 3)))
    _, risk, up, lo = _fit_risk(data, 1e-10)
    opt = scipy_optimal_risk(data.xbar(), data.ys, up, lo, 0.0)
    assert risk <= opt + 1e-9 * (1.0 + opt)


def test_single_point_returns_projection_of_origin():
    # among all lines through one point, the smallest-norm coefficients are
    # the projection onto the constraint beta1*x + beta0 = y
    h = fit_l1erm(DataSet(np.array([[2.0]]), np.array([3.0])))
    npt.assert_allclose(h.coefficients(), 3.0 / 5.0 * np.array([2.0, 1.0]), atol=1e-9)
    h2 = fit_l1erm(DataSet(np.array([[1.0, 2.0]]), np.array([6.0])))
    npt.assert_allclose(h2.coefficients(), np.array([1.0, 2.0, 1.0]), atol=1e-9)


# -- d = 0 reduction: exact weighted medians -------------------------------------


@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=15),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_d0_equals_clamped_weighted_median_exactly(values, rnd):
    weights = rnd.draw(
        st.lists(st.integers(1, 4), min_size=len(values), max_size=len(values))
    )
    data = DataSet(np.empty((len(values), 0)), np.array(values, dtype=float))
    h = fit_l1erm(data, L1Config(weights=tuple(weights)))
    lo, hi = weighted_median_interval([float(v) for v in values], weights)
    expected = min(max(0.0, lo), hi)
    assert h.beta0 == expected  # bit-exact
    assert h.beta1.size == 0


@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=10),
    st.lists(st.integers(-20, 20), min_size=0, max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_d0_phantoms_pool_into_the_median(values, targets):
    data = DataSet(np.empty((len(values), 0)), np.array(values, dtype=float))
    cfg = L1Config(phantoms=tuple(PhantomTerm(np.array([]), float(t)) for t in targets))
    h = fit_l1erm(data, cfg)
    pool = [float(v) for v in values] + [float(t) for t in targets]
    lo, hi = weighted_median_interval(pool, [1] * len(pool))
    assert h.beta0 == min(max(0.0, lo), hi)


@given(
    st.lists(st.integers(-20, 20), min_size=2, max_size=10),
    st.integers(min_value=-3, max_value=3),
)
@settings(max_examples=150, deadline=None)
def test_d0_drift_acts_like_mass_at_infinity(values, drift):
    assume(abs(drift) < len(values))
    data = DataSet(np.empty((len(values), 0)), np.array(values, dtype=float))
    h = fit_l1erm(data, L1Config(drift=float(drift)))
    # drift k is the finite form of k unit phantoms at -infinity (k > 0)
    # or |k| at +infinity (k < 0)
    anchor = -1e30 if drift > 0 else 1e30
    pool = [float(v) for v in values] + [anchor] * abs(drift)
    w = [1] * len(pool)
    lo, hi = weighted_median_interval(pool, w)
    assert h.beta0 == min(max(0.0, lo), hi)


def test_drift_exceeding_total_weight_is_unbounded():
    data = DataSet(np.empty((2, 0)), np.array([1.0, 2.0]))
    with pytest.raises(ConfigurationError):
        fit_l1erm(data, L1Config(drift=3.0))
    with pytest.raises(ConfigurationError):
        fit_l1erm(data, L1Config(drift=-2.5))


# -- equivalences ----------------------------------------------------------------


@given(l1_cases())
@settings(max_examples=80, deadline=None)
def test_quantile_half_equals_l1(case):
    data, _ = case
    a = fit_quantile(data, QuantileConfig(0.5))
    b = fit_l1erm(data)
    npt.assert_allclose(a.coefficients(), b.coefficients(), atol=1e-8)


@given(l1_cases())
@settings(max_examples=80, deadline=None)
def test_integer_weights_equal_row_duplication(case):
    data, cfg = case
    weighted = fit_l1erm(data, cfg)
    xs = np.repeat(data.xs, cfg.weights, axis=0)
    ys = np.repeat(data.ys, cfg.weights)
    duplicated = fit_l1erm(DataSet(xs, ys))
    npt.assert_allclose(weighted.coefficients(), duplicated.coefficients(), atol=1e-8)


def test_unit_phantom_equals_extra_row():
    data = DataSet(np.array([[0.0], [1.0], [3.0]]), np.array([0.0, 2.0, 1.0]))
    cfg = L1Config(phantoms=(PhantomTerm(np.array([2.0]), 5.0),))
    with_phantom = fit_l1erm(data, cfg)
    augmented = DataSet(np.array([[0.0], [1.0], [3.0], [2.0]]),
                        np.array([0.0, 2.0, 1.0, 5.0]))
    npt.assert_allclose(with_phantom.coefficients(),
                        fit_l1erm(augmented).coefficients(), atol=1e-10)


# -- pinned lines ------------------------------------------------------------------


def test_quantile_builtin_truthful_line_is_frozen():
    inst = builtin_instance("quantile04")
    h = fit_quantile(inst.data, inst.mechanism.params)
    npt.assert_allclose(
        h.coefficients(), [0.5518672199170125, -6.0929460580912895], atol=1e-12
    )


def test_quantile_builtin_documented_misreport_does_not_move_the_fit():
    # the documented overstatement keeps the reporting agent above the line,
    # which adds a constant to the risk on that region and leaves the
    # minimizer untouched
    inst = builtin_instance("quantile04")
    cfg = inst.mechanism.params
    truthful = fit_quantile(inst.data, cfg)
    deviated_data = inst.data.with_reports({inst.deviator: inst.misreport})
    deviated = fit_quantile(deviated_data, cfg)
    npt.assert_allclose(truthful.coefficients(), deviated.coefficients(), atol=1e-9)
    # HiGHS confirms independently that the unmoved fit is optimal on the
    # deviated data, and that the recorded "deviated" line is not
    up = np.full(deviated_data.n, cfg.q)
    lo = np.full(deviated_data.n, 1.0 - cfg.q)
    ref = scipy_optimal_risk(deviated_data.xbar(), deviated_data.ys, up, lo, 0.0)
    assert quantile_risk(deviated_data, cfg, deviated) == pytest.approx(
        ref, rel=1e-9, abs=1e-9)
    fig = inst.reference_lines["figure_deviated"]
    assert quantile_risk(deviated_data, cfg, Hyperplane([fig[0]], fig[1])) > ref


# -- least squares ------------------------------------------------------------------


def test_ols_matches_polyfit():
    rng = np.random.default_rng(5)
    xs = rng.uniform(-5, 5, 12)
    ys = 2.0 * xs - 1.0 + rng.normal(0, 0.3, 12)
    h = fit_ols(DataSet(xs.reshape(-1, 1), ys))
    ref = np.polyfit(xs, ys, 1)
    npt.assert_allclose([h.beta1[0], h.beta0], ref, atol=1e-9)


def test_ols_normal_equations_hold_in_d2():
    rng = np.random.default_rng(6)
    data = DataSet(rng.uniform(-3, 3, (20, 2)), rng.normal(0, 1, 20))
    h = fit_ols(data)
    r = data.ys - data.xbar() @ h.coefficients()
    npt.assert_allclose(data.xbar().T @ r, np.zeros(3), atol=1e-9)


def test_ols_rank_deficient_uses_minimum_norm():
    # all agents share one x: any slope fits equally; the pseudo-inverse
    # gives the minimum-norm coefficient pair
    data = DataSet(np.array([[2.0], [2.0]]), np.array([1.0, 3.0]))
    h = fit_ols(data)
    npt.assert_allclose(h.coefficients(), 2.0 / 5.0 * np.array([2.0, 1.0]), atol=1e-12)


@pytest.mark.parametrize("k", [-60, 60])
def test_ols_predictions_do_not_depend_on_a_power_of_two_unit_of_x(k):
    # pinv's relative cutoff dropped the x column at x * 2^60 and x * 2^-60
    spec = MechanismSpec(MechanismKind.OLS)
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 12))
        data = DataSet(rng.uniform(-5.0, 5.0, (n, 1)), rng.normal(0.0, 2.0, n))
        scaled = DataSet(np.ldexp(data.xs, k), data.ys)
        ref = data.xbar() @ fit_ols(data).coefficients()
        for fit in (fit_ols, lambda d: fit_mechanism(spec, d)):
            moved = scaled.xbar() @ fit(scaled).coefficients() - ref
            assert np.abs(moved).max() <= 1e-9 * np.abs(data.ys).max(), seed


def test_ols_fit_is_the_ols_mechanism_bit_for_bit():
    # one least-squares solve, so the OLS mechanism is exactly as efficient
    # as least squares, never a rounding below it
    rng = np.random.default_rng(8)
    spec = MechanismSpec(MechanismKind.OLS)
    for _ in range(60):
        data = random_data(rng, int(rng.integers(3, 40)), int(rng.integers(1, 4)))
        npt.assert_array_equal(fit_ols(data).coefficients(),
                               fit_mechanism(spec, data).coefficients())
        assert efficiency_ratio(spec, data) == 1.0


# -- configuration validation ---------------------------------------------------------


def test_config_validation():
    data = DataSet(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    with pytest.raises(ContractViolation):
        fit_l1erm(data, L1Config(weights=(1.0,)))
    with pytest.raises(ConfigurationError):
        L1Config(weights=(1.0, 0.0))
    with pytest.raises(ConfigurationError):
        L1Config(weights=(1.0, -2.0))
    with pytest.raises(ConfigurationError):
        L1Config(drift=np.inf)
    with pytest.raises(ConfigurationError):
        QuantileConfig(0.0)
    with pytest.raises(ConfigurationError):
        QuantileConfig(1.0)
    with pytest.raises(ConfigurationError):
        PhantomTerm(np.array([1.0]), np.inf)
    with pytest.raises(ConfigurationError):
        PhantomTerm(np.array([1.0]), 0.0, weight=0.0)
    with pytest.raises(ConfigurationError):
        PhantomTerm(np.array([np.nan]), 0.0)
    with pytest.raises(ContractViolation):
        fit_l1erm(data, L1Config(phantoms=(PhantomTerm(np.array([0.0, 1.0]), 0.0),)))


def test_risk_formulas_by_hand():
    data = DataSet(np.array([[0.0], [2.0]]), np.array([1.0, -1.0]))
    h = Hyperplane(np.array([0.0]), 0.0)
    assert l1_risk(data, L1Config(weights=(2.0, 3.0)), h) == pytest.approx(5.0)
    assert quantile_risk(data, QuantileConfig(0.25), h) == pytest.approx(
        0.25 * 1.0 + 0.75 * 1.0
    )
    cfg = L1Config(phantoms=(PhantomTerm(np.array([1.0]), 4.0, weight=2.0),),
                   drift=0.5)
    # residual terms |1-0| + |-1-0|, phantom 2*|4-0|, drift 0.5*0
    assert l1_risk(data, cfg, h) == pytest.approx(1.0 + 1.0 + 8.0)
    assert rss(data, h) == pytest.approx(2.0)
