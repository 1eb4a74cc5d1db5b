"""Empirical risk minimization mechanisms: least squares, weighted L1, quantile.

The L1 and quantile fits run in two stages.  Stage 1 solves the LP dual
of the piecewise-linear risk minimization,

    max rhs . tau  s.t.  xbar^T tau = drift e_p,  -lo_w <= tau <= up_w,

with p = d+1 equality rows and one bounded column per row of data, on the
bounded-variable simplex.  The probes of an audit change only rhs (the
dual objective), so every optimal basis of one probe stays feasible for
the next: a bound mechanism keeps the last few in a :class:`_DualBases`,
each as the optimal tableau of the solve that found it and the face of
that solve's tau, and a probe for which one of them passes the simplex's
optimality test reads its fit off that face without solving an LP.  A
probe that solves computes beta from the face it builds in the same way,
so a fit does not depend on whether its basis was cached.  Stage 2 resolves
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

from .core import DataSet, Hyperplane
from .errors import ConfigurationError, ContractViolation, InternalInconsistency
from .simplex import INFEASIBLE, BasisStack, solve_lp


def fit_ols(data: DataSet) -> Hyperplane:
    """Least squares fit; rank-deficient designs get the minimum-norm solution."""
    beta, *_ = np.linalg.lstsq(data.xbar(), data.ys, rcond=None)
    return Hyperplane(beta[:-1], float(beta[-1]))


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


class _PiecewiseLinearFit:
    """Shared machinery behind the L1 and quantile fits.

    Rows are the n data rows followed by the phantom rows.  Row i carries
    an asymmetric absolute-value cost: up_w on positive residuals, lo_w on
    negative ones (equal for plain L1).  ``drift`` multiplies beta0.

    ``cache`` holds optimal dual bases of earlier fits on the same
    positions and weights: when one is optimal for this rhs, the fit reads
    stage 2 off it and solves no LP; otherwise stage 1 starts from its
    newest basis and the new optimal basis joins it.
    """

    def __init__(self, xbar, rhs, up_w, lo_w, drift, cache=None):
        self.xbar = np.asarray(xbar, dtype=float)
        self.rhs = np.asarray(rhs, dtype=float)
        self.up_w = np.asarray(up_w, dtype=float)
        self.lo_w = np.asarray(lo_w, dtype=float)
        self.drift = float(drift)
        self.p = self.xbar.shape[1]
        self.cache = cache

    def risk(self, beta) -> float:
        r = self.rhs - self.xbar @ beta
        return float(self.up_w @ np.maximum(r, 0.0)
                     + self.lo_w @ np.maximum(-r, 0.0)
                     + self.drift * beta[-1])

    def dual(self, basis):
        """Stage 1: max rhs . tau s.t. xbar^T tau = drift e_p,
        -lo_w <= tau <= up_w (the LP dual of the risk minimization), warm
        from ``basis``; the optimal ``solve_lp`` result."""
        b_eq = np.zeros(self.p)
        b_eq[-1] = self.drift
        res = solve_lp(-self.rhs, a_eq=self.xbar.T, b_eq=b_eq,
                       bounds=np.column_stack([-self.lo_w, self.up_w]), basis=basis)
        if res.status == INFEASIBLE:
            raise ConfigurationError(
                "risk is unbounded below; the drift coefficient exceeds the "
                "total absolute weight available to oppose it"
            )
        if not res.ok:
            raise InternalInconsistency(f"the bounded dual LP ended {res.status}")
        return res

    def fit(self) -> np.ndarray:
        """Stage 2: the coefficients of the smallest-norm point of the
        optimal face.

        By complementary slackness with the optimal tau, beta minimizes the
        risk exactly when rows with tau strictly inside its bounds have zero
        residual, rows with tau at up_w a nonnegative one and rows with tau
        at -lo_w a nonpositive one.
        """
        face = None if self.cache is None else self.cache.find(self.rhs)
        if face is None:
            res = self.dual(None if self.cache is None else self.cache.newest())
            face = _Face(self, res.x)
            if self.cache is not None and res.tableau is not None:
                self.cache.add(res.tableau, face)
        return face.point(self.rhs)


class _Face:
    """The optimal face cut out by an optimal tau (see
    :meth:`_PiecewiseLinearFit.fit`), for any rhs that tau is optimal for.
    A face pinned by p rows keeps their inverse."""

    def __init__(self, fit: _PiecewiseLinearFit, tau):
        edge = 1e-9 * (fit.up_w + fit.lo_w)
        inside = (tau > edge - fit.lo_w) & (tau < fit.up_w - edge)
        self.zero, self.rest = np.flatnonzero(inside), np.flatnonzero(~inside)
        self.a_eq = fit.xbar[self.zero]
        # rows written as g @ beta >= h: residual >= 0 at the upper bound,
        # <= 0 at the lower one
        self.sign = np.where(tau > 0.0, -1.0, 1.0)[self.rest]
        self.g = self.sign[:, None] * fit.xbar[self.rest]
        self.inverse = np.linalg.inv(self.a_eq) if self.zero.size == fit.p else None

    def point(self, rhs) -> np.ndarray:
        """The face's smallest-norm point."""
        if self.inverse is not None:
            return self.inverse @ rhs[self.zero]
        return _min_norm_on_face(self.a_eq, rhs[self.zero], self.g, self.sign * rhs[self.rest])


#: optimal dual bases one :class:`_DualBases` keeps
DUAL_BASES = 8


class _DualBases:
    """The last optimal dual bases of fits on fixed positions, weights and
    drift, tried most recently used first.

    Those fits share the dual constraints and differ only in the dual cost
    -rhs, so a basis stays feasible for every fit.  An entry is the optimal
    tableau of the solve that found the basis and the face of that solve's
    tau.  The basis is optimal for a new rhs exactly when the simplex's own
    optimality test passes on that tableau, so a hit is a warm solve that
    would make no pivot.  An audit's probes visit few optimal bases, so
    most of them find theirs here; a probe that does not warm-starts from
    the newest, whose tableau it factorises afresh, so rounding does not
    build up from one solve to the next.
    """

    def __init__(self):
        self.slots: list[tuple] = []  # (tableau, face), in the order of the stack
        self.order: list[int] = []    # slots, most recently used first
        self.stack = None

    def newest(self):
        return self.slots[self.order[0]][0].status if self.order else None

    def find(self, rhs) -> "_Face | None":
        if not self.slots:
            return None
        optimal = self.stack.optimal_for(-rhs)
        for k, slot in enumerate(self.order):
            if optimal[slot]:
                self.order.insert(0, self.order.pop(k))
                return self.slots[slot][1]
        return None

    def add(self, tableau, face: _Face) -> None:
        """Keep the optimal tableau of a solve and the face of its tau."""
        slot = next((k for k in self.order
                     if np.array_equal(self.slots[k][0].status, tableau.status)), None)
        if slot is None:
            if len(self.slots) < DUAL_BASES:
                slot = len(self.slots)
                self.slots.append((tableau, face))
            else:
                slot = self.order.pop()
                self.slots[slot] = (tableau, face)
            self.stack = BasisStack([t for t, _ in self.slots])
        else:
            self.order.remove(slot)
        self.order.insert(0, slot)


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
    """
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

    norms = np.linalg.norm(g, axis=1)
    for _ in range(10 * (g.shape[0] + p) + 10):
        slack = g @ beta - h
        # violations within the rounding of the slack itself do not count
        bad = slack < -1e-10 * (np.abs(h) + norms * np.linalg.norm(beta))
        bad[[r for r in rows if r is not None]] = False
        if not bad.any():
            return beta
        q = int(np.argmin(np.where(bad, slack / norms, np.inf)))
        normal, added = g[q], 0.0
        while True:
            z, weights = project(normal)
            # partial step: the largest dual move keeping multipliers >= 0
            partial, drop = np.inf, None
            for k, (u, w) in enumerate(zip(mult, weights)):
                if u is not None and w > 0.0 and u / w < partial:
                    partial, drop = u / w, k
            full = (h[q] - normal @ beta) / (z @ normal) if independent(z, normal) else np.inf
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
    r = data.ys - (data.xs @ h.beta1 + h.beta0)
    return float(cfg.q * np.maximum(r, 0.0).sum()
                 + (1.0 - cfg.q) * np.maximum(-r, 0.0).sum())
