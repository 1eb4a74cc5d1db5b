"""Empirical risk minimization mechanisms: least squares, weighted L1, quantile.

The L1 and quantile fits run in two stages.  Stage 1 solves the LP dual
of the piecewise-linear risk minimization,

    max rhs . tau  s.t.  xbar^T tau = drift e_p,  -lo_w <= tau <= up_w,

with p = d+1 equality rows and one bounded column per row of data, on the
bounded-variable simplex.  The probes of an audit change only rhs (the
dual objective), so every optimal basis of one probe stays feasible for
the next: a bound mechanism keeps the last few in a :class:`_DualBases`,
and a probe for which one of them passes the simplex's optimality test
reads its fit off that basis without solving an LP.  Stage 2 resolves
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
from .simplex import INFEASIBLE, BasisStack, basis_tableau, solve_lp


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

    ``basis`` warm-starts stage 1 from the dual basis of an earlier fit on
    the same positions and weights.  ``cache`` holds optimal dual bases of
    earlier fits on them: when one is optimal for this rhs, the fit reads
    tau and stage 2 from it and solves no LP; otherwise stage 1 starts from
    its newest basis (unless ``basis`` is given) and the new optimal basis
    joins it.  After :meth:`fit`, ``basis`` holds this fit's optimal dual
    basis and ``pivots`` the simplex iterations it took.
    """

    def __init__(self, xbar, rhs, up_w, lo_w, drift, basis=None, cache=None):
        self.xbar = np.asarray(xbar, dtype=float)
        self.rhs = np.asarray(rhs, dtype=float)
        self.up_w = np.asarray(up_w, dtype=float)
        self.lo_w = np.asarray(lo_w, dtype=float)
        self.drift = float(drift)
        self.p = self.xbar.shape[1]
        self.basis = basis
        self.cache = cache
        self.pivots = 0

    def risk(self, beta) -> float:
        r = self.rhs - self.xbar @ beta
        return float(self.up_w @ np.maximum(r, 0.0)
                     + self.lo_w @ np.maximum(-r, 0.0)
                     + self.drift * beta[-1])

    def dual_constraints(self) -> dict:
        """The constraints of the stage-1 LP as ``solve_lp`` keywords; they
        depend on positions, weights and drift, never on rhs."""
        b_eq = np.zeros(self.p)
        b_eq[-1] = self.drift
        return {"a_eq": self.xbar.T, "b_eq": b_eq,
                "bounds": np.column_stack([-self.lo_w, self.up_w])}

    def dual(self) -> np.ndarray:
        """Stage 1: an optimal tau of max rhs . tau s.t. xbar^T tau = drift e_p,
        -lo_w <= tau <= up_w (the LP dual of the risk minimization)."""
        res = solve_lp(-self.rhs, **self.dual_constraints(), basis=self.basis)
        if res.status == INFEASIBLE:
            raise ConfigurationError(
                "risk is unbounded below; the drift coefficient exceeds the "
                "total absolute weight available to oppose it"
            )
        if not res.ok:
            raise InternalInconsistency(f"the bounded dual LP ended {res.status}")
        self.basis, self.pivots = res.basis, res.pivots
        return res.x

    def fit(self) -> Hyperplane:
        """Stage 2: the smallest-norm point of the optimal face.

        By complementary slackness with the optimal tau, beta minimizes the
        risk exactly when rows with tau strictly inside its bounds have zero
        residual, rows with tau at up_w a nonnegative one and rows with tau
        at -lo_w a nonpositive one.
        """
        known = None if self.cache is None else self.cache.find(self.rhs)
        if known is not None:
            self.basis, self.pivots = known.tableau.status, 0
            beta = known.beta(self.rhs)
        else:
            if self.basis is None and self.cache is not None:
                self.basis = self.cache.newest()
            beta = _Face(self, self.dual()).point(self.rhs)
            if self.cache is not None:
                self.cache.add(self)
        return Hyperplane(beta[:-1], float(beta[-1]))


class _Face:
    """The optimal face cut out by an optimal tau (see
    :meth:`_PiecewiseLinearFit.fit`), for any rhs that tau is optimal for."""

    def __init__(self, fit: _PiecewiseLinearFit, tau):
        edge = 1e-9 * (fit.up_w + fit.lo_w)
        inside = (tau > edge - fit.lo_w) & (tau < fit.up_w - edge)
        self.zero, self.rest = np.flatnonzero(inside), np.flatnonzero(~inside)
        self.a_eq = fit.xbar[self.zero]
        # rows written as g @ beta >= h: residual >= 0 at the upper bound,
        # <= 0 at the lower one
        self.sign = np.where(tau > 0.0, -1.0, 1.0)[self.rest]
        self.g = self.sign[:, None] * fit.xbar[self.rest]
        self.square = self.zero.size == fit.p

    def point(self, rhs) -> np.ndarray:
        """The face's smallest-norm point."""
        if self.square:
            return np.linalg.solve(self.a_eq, rhs[self.zero])
        return _min_norm_on_face(self.a_eq, rhs[self.zero], self.g, self.sign * rhs[self.rest])


#: optimal dual bases one :class:`_DualBases` keeps
DUAL_BASES = 8


class _DualBases:
    """The last optimal dual bases of fits on fixed positions, weights and
    drift, tried most recently used first.

    Those fits share the dual constraints and differ only in the dual cost
    -rhs, so a basis stays feasible for every fit.  It is optimal for a new
    rhs exactly when the simplex's own optimality test passes on the
    tableau a warm solve from it starts with, so a hit is a warm solve that
    would make no pivot.  An audit's probes visit few optimal bases, so
    most of them find theirs here; a probe that does not warm-starts from
    the newest.  Only bases a warm solve would adopt join: square,
    nonsingular and feasible.
    """

    def __init__(self):
        self.slots: list[_OptimalBasis] = []  # in the order of the stack
        self.order: list[int] = []            # slots, most recently used first
        self.stack = None

    def newest(self):
        return self.slots[self.order[0]].tableau.status if self.order else None

    def find(self, rhs) -> "_OptimalBasis | None":
        if not self.slots:
            return None
        optimal = self.stack.optimal_for(-rhs)
        for k, slot in enumerate(self.order):
            if optimal[slot]:
                self.order.insert(0, self.order.pop(k))
                return self.slots[slot]
        return None

    def add(self, fit: _PiecewiseLinearFit) -> None:
        """Keep the optimal basis of a fit that just solved its LP."""
        tableau = basis_tableau(-fit.rhs, **fit.dual_constraints(), basis=fit.basis)
        if tableau is None:
            return
        entry = _OptimalBasis(fit, tableau)
        slot = next((k for k in self.order if self.slots[k].key == entry.key), None)
        if slot is None:
            if len(self.slots) < DUAL_BASES:
                slot = len(self.slots)
                self.slots.append(entry)
            else:
                slot = self.order.pop()
                self.slots[slot] = entry
            self.stack = BasisStack([e.tableau for e in self.slots])
        else:
            self.order.remove(slot)
        self.order.insert(0, slot)


class _OptimalBasis:
    """A dual basis with its tableau and the optimal face of its tau, which
    does not depend on rhs.  A face pinned by p rows keeps their inverse,
    so its point may differ from a solve's in the last bits."""

    def __init__(self, fit: _PiecewiseLinearFit, tableau):
        self.tableau = tableau
        self.key = tableau.status.tobytes()
        self.face = _Face(fit, tableau.values()[:fit.rhs.size])
        self.inverse = np.linalg.inv(self.face.a_eq) if self.face.square else None

    def beta(self, rhs) -> np.ndarray:
        if self.inverse is not None:
            return self.inverse @ rhs[self.face.zero]
        return self.face.point(rhs)


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
    return _build_l1(data, cfg or L1Config()).fit()


def l1_risk(data: DataSet, cfg: L1Config, h: Hyperplane) -> float:
    """The regularized weighted absolute risk of a hyperplane."""
    return _build_l1(data, cfg).risk(h.coefficients())


def _build_quantile(data: DataSet, cfg: QuantileConfig) -> _PiecewiseLinearFit:
    return _PiecewiseLinearFit(data.xbar(), data.ys, np.full(data.n, cfg.q),
                               np.full(data.n, 1.0 - cfg.q), 0.0)


def fit_quantile(data: DataSet, cfg: QuantileConfig) -> Hyperplane:
    """Quantile fit: weight q above the line, 1-q below, same tie-break."""
    return _build_quantile(data, cfg).fit()


def quantile_risk(data: DataSet, cfg: QuantileConfig, h: Hyperplane) -> float:
    r = data.ys - (data.xs @ h.beta1 + h.beta0)
    return float(cfg.q * np.maximum(r, 0.0).sum()
                 + (1.0 - cfg.q) * np.maximum(-r, 0.0).sum())
