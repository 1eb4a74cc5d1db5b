"""Empirical risk minimization mechanisms: least squares, weighted L1, quantile.

The L1 and quantile fits run in two stages.  Stage 1 solves the LP dual
of the piecewise-linear risk minimization,

    max rhs . tau  s.t.  xbar^T tau = drift e_p,  -lo_w <= tau <= up_w,

with p = d+1 equality rows and one bounded column per row of data, on the
bounded-variable simplex.  The probes of an audit change only rhs (the
dual objective), so every optimal basis of one probe stays feasible for
the next: a bound mechanism keeps the last 32 in a :class:`BasisStack`,
each as the optimal tableau of the solve that found it beside the face of
that solve's tau, and a probe for which one of them passes the simplex's
optimality test reads its fit off that face without solving an LP.  An
audit visits about ten optimal bases, so most of its probes find theirs
among the 32 kept.  The bases are kept in arrival order, a new one in
place of the oldest, so a hit changes nothing; a probe that misses
warm-starts from the newest basis and factorises it afresh, so rounding
does not build up from one solve to the next.  An audit hands over a
block of probes at once
(:meth:`_PiecewiseLinearFit.fit_many`): one pass prices every probe
against every cached tableau, all the probes up to the first that no
cached basis fits take their lowest optimal slot in one step, and that
probe solves and joins the cache before the next run.  A probe that solves
computes beta from the face it builds in the same way, so a fit does not
depend on whether its basis was cached, nor on the block it came in.
Stage 2 resolves
ties by picking, among all risk minimizers, the coefficient vector of
smallest Euclidean norm; this strictly convex tie-break is what makes the
L1 mechanism group strategyproof, so it is computed exactly rather than
left to whatever vertex the solver happens to return.  Complementary slackness with the optimal tau describes the set
of minimizers exactly, as a face cut out by zero, nonnegative and
nonpositive residual conditions; when p independent rows have zero
residual the face is their interpolation, and otherwise a small
active-set quadratic program in p variables finds its smallest-norm point.

Regularizers are restricted to the phantom family: absolute-value terms
|target - f(anchor)| with positive weights, plus one linear drift
coefficient multiplying the intercept (the finite encoding of phantom
terms whose target sits at +-infinity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import DataSet, Hyperplane
from .errors import ConfigurationError, ContractViolation, InternalInconsistency
from .simplex import INFEASIBLE, BasisStack, solve_lp


def fit_ols(data: DataSet) -> Hyperplane:
    """Least squares fit; rank-deficient designs get the minimum-norm solution.
    The OLS mechanism's binder solves in the same way, bit for bit."""
    beta = _least_squares(np.linalg.pinv(data.xbar()), data.ys[None, :])[0]
    return Hyperplane(beta[:-1], float(beta[-1]))


def _least_squares(pinv: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``ys @ pinv.T`` for a (K, n) block of reports, each row summed over the
    agents in index order: unlike a BLAS product's, a row's bits do not
    depend on its block.  A sum that overflows is left infinite, for
    :class:`Hyperplane` or the audit to refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        beta = ys[:, :1] * pinv[:, 0]
        for i in range(1, ys.shape[1]):
            beta += ys[:, i:i + 1] * pinv[:, i]
    return beta


@dataclass(frozen=True)
class PhantomTerm:
    """One regularizer summand weight * |target - f(anchor)|."""

    anchor: np.ndarray
    target: float
    weight: float = 1.0

    def __post_init__(self):
        anchor = np.asarray(self.anchor, dtype=float).ravel()
        if not np.isfinite(anchor).all():
            raise ConfigurationError("phantom anchors must be finite")
        if not np.isfinite(self.target):
            raise ConfigurationError(
                "infinite phantom targets are encoded by the drift coefficient"
            )
        if not self.weight > 0:
            raise ConfigurationError("phantom weights must be positive")
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "target", float(self.target))
        object.__setattr__(self, "weight", float(self.weight))


@dataclass(frozen=True)
class L1Config:
    """Per-agent weights, phantom terms, and intercept drift.

    ``drift`` adds drift * beta0 to the risk: each phantom pinned at
    -infinity contributes +1 to it, each at +infinity contributes -1.
    Weights default to 1 and must be positive.
    """

    weights: tuple[float, ...] | None = None
    phantoms: tuple[PhantomTerm, ...] = ()
    drift: float = 0.0

    def __post_init__(self):
        if self.weights is not None:
            w = tuple(float(v) for v in self.weights)
            if any(not np.isfinite(v) or v <= 0 for v in w):
                raise ConfigurationError("weights must be positive and finite")
            object.__setattr__(self, "weights", w)
        object.__setattr__(self, "phantoms", tuple(self.phantoms))
        if not np.isfinite(self.drift):
            raise ConfigurationError("drift must be finite")
        object.__setattr__(self, "drift", float(self.drift))


@dataclass(frozen=True)
class QuantileConfig:
    """Risk weight q on points on or above the line, 1-q below; 0 < q < 1."""

    q: float

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ConfigurationError("q must lie strictly between 0 and 1")
        object.__setattr__(self, "q", float(self.q))


#: optimal dual bases a fit's cache keeps
DUAL_BASES = 32


class _PiecewiseLinearFit:
    """Shared machinery behind the L1 and quantile fits.

    Rows are the n data rows followed by the phantom rows.  Row i carries
    an asymmetric absolute-value cost: up_w on positive residuals, lo_w on
    negative ones (equal for plain L1).  ``drift`` multiplies beta0.

    ``cache`` is a :class:`BasisStack` of optimal dual bases of earlier fits
    on the same positions and weights, each beside its :class:`_Face` (a
    fresh one of ``DUAL_BASES`` when None): when one is optimal for
    an rhs, the fit reads stage 2 off it and solves no LP; otherwise stage 1
    starts from its newest basis and the new optimal basis joins it.
    """

    def __init__(self, xbar, rhs, up_w, lo_w, drift, cache=None):
        self.xbar = np.asarray(xbar, dtype=float)
        self.rhs = np.asarray(rhs, dtype=float)
        self.up_w = np.asarray(up_w, dtype=float)
        self.lo_w = np.asarray(lo_w, dtype=float)
        self.drift = float(drift)
        self.p = self.xbar.shape[1]
        self.cache = BasisStack(DUAL_BASES) if cache is None else cache
        # the dual LP, once; rows in power-of-two units, which PIVOT_TOL reads whole
        b_eq = np.append(np.zeros(self.p - 1), self.drift)
        self.a_eq, self.b_eq = _unit_rows(self.xbar.T, b_eq)
        self.bounds = np.column_stack([-self.lo_w, self.up_w])

    def risk(self, beta) -> float:
        r = self.rhs - self.xbar @ beta
        return float(self.up_w @ np.maximum(r, 0.0)
                     + self.lo_w @ np.maximum(-r, 0.0)
                     + self.drift * beta[-1])

    def dual(self, basis, rhs):
        """Stage 1: max rhs . tau s.t. xbar^T tau = drift e_p,
        -lo_w <= tau <= up_w (the LP dual of the risk minimization), warm
        from ``basis``; the optimal ``solve_lp`` result."""
        res = solve_lp(-rhs, a_eq=self.a_eq, b_eq=self.b_eq, bounds=self.bounds, basis=basis)
        if res.status == INFEASIBLE:
            raise ConfigurationError(
                "risk is unbounded below; the drift coefficient exceeds the "
                "total absolute weight available to oppose it"
            )
        if not res.ok:
            raise InternalInconsistency(f"the bounded dual LP ended {res.status}")
        return res

    def fit(self) -> np.ndarray:
        """The coefficients of the fit to ``rhs``: :meth:`fit_many` on one row."""
        beta, failed = self.fit_many(self.rhs[None])
        if failed:
            raise failed[0]
        return beta[0]

    def fit_many(self, rhs) -> tuple[np.ndarray, dict[int, Exception]]:
        """Stage 2 for each row of a (K, rows) block of right-hand sides: the
        coefficients of the smallest-norm point of the optimal face, and the
        error each failing row raises (its coefficients NaN).  Row k is what a
        fit of row k alone returns or raises, the cache included: the rows
        meet it in order.

        By complementary slackness with the optimal tau, beta minimizes the
        risk exactly when rows with tau strictly inside its bounds have zero
        residual, rows with tau at up_w a nonnegative one and rows with tau
        at -lo_w a nonpositive one.
        """
        rhs = np.asarray(rhs, dtype=float)
        beta = np.full((rhs.shape[0], self.p), np.nan)
        rows_of, failed = self._faces(rhs)
        for face, rows in rows_of.items():
            if face.inverse is not None:
                pinned = rhs[np.ix_(rows, face.zero)][..., None]
                beta[rows] = np.matmul(face.inverse, pinned)[..., 0]
                continue
            for k in rows:
                try:
                    beta[k] = _min_norm_on_face(face.a_eq, rhs[k, face.zero], face.g,
                                                face.sign * rhs[k, face.rest])
                except InternalInconsistency as exc:
                    failed[k] = exc
        return beta, failed

    def _faces(self, rhs) -> tuple[dict["_Face", list[int]], dict[int, Exception]]:
        """The rows of each optimal face, found in the cache where one of a
        row's bases is optimal and by a solve warm from the newest otherwise;
        and the error of each row whose solve fails.

        Rows are priced against the cache in chunks.  A hit changes nothing,
        so all the rows up to the next miss take their lowest optimal slot at
        once, as each would alone.  A solve changes at most one slot, so the
        rest of the chunk is priced again against that slot only.
        """
        cache = self.cache
        rows_of: dict[_Face, list[int]] = {}
        failed: dict[int, Exception] = {}
        step = max(1, core.BLOCK_CELLS // (DUAL_BASES * self.xbar.size))
        for start in range(0, rhs.shape[0], step):
            chunk = rhs[start:start + step]
            optimal = cache.optimal_for(-chunk)
            j = 0
            while j < len(chunk):
                missed = np.flatnonzero(~optimal[j:].any(axis=1))
                miss = j + int(missed[0]) if missed.size else len(chunk)
                pick = optimal[j:miss].argmax(axis=1)
                for slot in np.unique(pick).tolist():
                    rows = start + j + np.flatnonzero(pick == slot)
                    rows_of.setdefault(cache.payload[slot], []).extend(rows.tolist())
                if miss == len(chunk):
                    break
                j = miss + 1
                try:
                    res = self.dual(cache.newest(), chunk[miss])
                    face = _Face(self, res.x)
                except (ConfigurationError, InternalInconsistency) as exc:
                    failed[start + miss] = exc
                    continue
                rows_of[face] = [start + miss]
                if res.tableau is not None:
                    slot = cache.add(res.tableau, face)
                    optimal[j:, slot] = cache.optimal_for(-chunk[j:], slot)[:, 0]
        return rows_of, failed


class _Face:
    """The optimal face cut out by an optimal tau (see
    :meth:`_PiecewiseLinearFit.fit_many`), for any rhs that tau is optimal
    for.  A face pinned by p rows keeps their inverse."""

    def __init__(self, fit: _PiecewiseLinearFit, tau):
        # a tau within 1e-9 of a bound, relative to that bound, sits on it
        inside = (tau > 1e-9 * fit.lo_w - fit.lo_w) & (tau < fit.up_w - 1e-9 * fit.up_w)
        self.zero, self.rest = np.flatnonzero(inside), np.flatnonzero(~inside)
        self.a_eq = fit.xbar[self.zero]
        # rows written as g @ beta >= h: residual >= 0 at the upper bound,
        # <= 0 at the lower one
        self.sign = np.where(tau > 0.0, -1.0, 1.0)[self.rest]
        self.g = self.sign[:, None] * fit.xbar[self.rest]
        self.inverse = np.linalg.inv(self.a_eq) if self.zero.size == fit.p else None


def _min_norm_on_face(a_eq, b_eq, g, h):
    """argmin ||beta|| subject to a_eq @ beta == b_eq and g @ beta >= h.

    The Goldfarb-Idnani dual active-set method with identity Hessian: start
    at the smallest-norm solution of the equalities, add the most violated
    inequality, and drop an active inequality whenever its multiplier would
    turn negative.  After each constraint joins, beta is recomputed as the
    smallest-norm solution of the active equations, which it is in exact
    arithmetic; so a face pinned down by p independent rows comes out as
    their exact interpolation, and rounding does not build up over steps.
    The caller guarantees a nonempty face.

    It runs on rows in power-of-two units of their coefficients, and then
    of the largest right-hand side: exactly the same face, with beta
    scaled exactly, and no product overflows near the float limit.
    """
    a_eq, b_eq = _unit_rows(a_eq, b_eq)
    g, h = _unit_rows(g, h)
    unit = np.frexp(np.abs(np.concatenate([b_eq, h])).max(initial=0.0))[1]
    b_eq, h = np.ldexp(b_eq, -unit), np.ldexp(h, -unit)
    p = a_eq.shape[1]
    active: list[np.ndarray] = []     # normals of the active constraints
    targets: list[float] = []         # their right-hand sides
    mult: list[float | None] = []     # their multipliers (None: equality)
    rows: list[int | None] = []       # their rows of g (None: equality)

    def project(normal):
        """Component of ``normal`` off the active normals, and its weights."""
        if not active:
            return normal, np.zeros(0)
        mat = np.column_stack(active)
        weights = np.linalg.lstsq(mat, normal, rcond=None)[0]
        return normal - mat @ weights, weights

    def independent(z, normal):
        return z @ z > 1e-20 * (normal @ normal)

    def on_active():
        if not active:
            return np.zeros(p)
        return np.linalg.lstsq(np.array(active), np.array(targets), rcond=None)[0]

    for normal, target in zip(a_eq, b_eq):
        if independent(project(normal)[0], normal):  # else implied by earlier rows
            active.append(normal)
            targets.append(target)
            mult.append(None)
            rows.append(None)
    beta = on_active()

    for _ in range(10 * (g.shape[0] + p) + 10):
        slack = g @ beta - h
        # violations within the rounding of the slack's own terms do not count
        bad = slack < -1e-10 * (np.abs(h) + np.abs(g) @ np.abs(beta))
        bad[[r for r in rows if r is not None]] = False
        if not bad.any():
            return np.ldexp(beta, unit)
        q = int(np.argmin(np.where(bad, slack, np.inf)))
        normal, added = g[q], 0.0
        while True:
            z, weights = project(normal)
            # partial step: the largest dual move keeping multipliers >= 0
            partial, drop = np.inf, None
            for k, (u, w) in enumerate(zip(mult, weights)):
                if u is not None and w > 0.0 and u / w < partial:
                    partial, drop = u / w, k
            # z @ normal is z @ z, which cancellation cannot round to zero
            full = (h[q] - normal @ beta) / (z @ z) if independent(z, normal) else np.inf
            step = min(partial, full)
            if not np.isfinite(step):
                raise InternalInconsistency("optimal face of the fit LP is empty")
            if np.isfinite(full):
                beta = beta + step * z
            mult = [None if u is None else u - step * w for u, w in zip(mult, weights)]
            added += step
            if full <= partial:
                active.append(normal)
                targets.append(h[q])
                mult.append(added)
                rows.append(q)
                beta = on_active()
                break
            del active[drop], targets[drop], mult[drop], rows[drop]
    raise InternalInconsistency("minimum-norm search failed to converge")


def _unit_rows(a, b):
    """Each row of a, and b's entry, over the power of two above the row's largest |a|."""
    unit = -np.frexp(np.abs(a).max(axis=1, initial=0.0))[1]
    return np.ldexp(a, unit[:, None]), np.ldexp(b, unit)


def _build_l1(data: DataSet, cfg: L1Config) -> _PiecewiseLinearFit:
    w = np.ones(data.n) if cfg.weights is None else np.asarray(cfg.weights, dtype=float)
    if w.shape[0] != data.n:
        raise ContractViolation(f"{w.shape[0]} weights for {data.n} agents")
    xbar = data.xbar()
    rhs = data.ys
    if cfg.phantoms:
        rows = []
        targets = []
        pw = []
        for term in cfg.phantoms:
            if term.anchor.shape[0] != data.d:
                raise ContractViolation("phantom anchor dimension mismatch")
            rows.append(np.append(term.anchor, 1.0))
            targets.append(term.target)
            pw.append(term.weight)
        xbar = np.vstack([xbar, np.array(rows)])
        rhs = np.concatenate([rhs, np.array(targets)])
        w = np.concatenate([w, np.array(pw)])
    return _PiecewiseLinearFit(xbar, rhs, w, w, cfg.drift)


def fit_l1erm(data: DataSet, cfg: L1Config | None = None) -> Hyperplane:
    """Weighted L1 fit with phantom regularizers and minimum-norm tie-break."""
    beta = _build_l1(data, cfg or L1Config()).fit()
    return Hyperplane(beta[:-1], float(beta[-1]))


def l1_risk(data: DataSet, cfg: L1Config, h: Hyperplane) -> float:
    """The regularized weighted absolute risk of a hyperplane."""
    return _build_l1(data, cfg).risk(h.coefficients())


def _build_quantile(data: DataSet, cfg: QuantileConfig) -> _PiecewiseLinearFit:
    return _PiecewiseLinearFit(data.xbar(), data.ys, np.full(data.n, cfg.q),
                               np.full(data.n, 1.0 - cfg.q), 0.0)


def fit_quantile(data: DataSet, cfg: QuantileConfig) -> Hyperplane:
    """Quantile fit: weight q above the line, 1-q below, same tie-break."""
    beta = _build_quantile(data, cfg).fit()
    return Hyperplane(beta[:-1], float(beta[-1]))


def quantile_risk(data: DataSet, cfg: QuantileConfig, h: Hyperplane) -> float:
    """The q-weighted absolute risk of a hyperplane."""
    return _build_quantile(data, cfg).risk(h.coefficients())
