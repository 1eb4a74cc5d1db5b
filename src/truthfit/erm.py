"""Empirical risk minimization mechanisms: least squares, weighted L1, quantile.

The L1 and quantile fits run in two stages.  Stage 1 solves the LP dual
of the piecewise-linear risk minimization,

    max rhs . tau  s.t.  xbar^T tau = drift e_p,  -lo_w <= tau <= up_w,

with p = d+1 equality rows and one bounded column per row of data, on the
bounded-variable simplex.  The reduced cost of a nonbasic row is minus
its residual under the interpolation of the p basic rows, so a solved
basis serves every rhs whose residual signs it can certify: the vertex
structure of L1 regression (Barrodale and Roberts, 1973).  The probes of
an audit change only rhs.  A bound mechanism keeps the last 32 solved
bases (:class:`_Basis`), oldest first, and a probe is served by the first
whose implied tau either equals the kept one, so the basis is still
optimal and the probe reads its fit off the kept face, or lies strictly
inside its bounds on the basic rows, so their interpolation is the unique
optimum.  An audit visits about ten faces, so most probes solve no LP.  A
hit changes nothing; a miss warm-starts from the newest basis, factorised
afresh, which joins the cache in place of the oldest.
:meth:`_PiecewiseLinearFit.fit_many` judges a block of probes in one pass
per kept basis, with sums in a fixed order, so a fit depends neither on
its block nor on whether its basis was cached.
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
from .simplex import AT_UPPER, BASIC, INFEASIBLE, TOL, solve_lp


def fit_ols(data: DataSet) -> Hyperplane:
    """Least squares fit; rank-deficient designs get the minimum-norm solution.
    The OLS mechanism's binder solves in the same way, bit for bit."""
    beta = _ordered_dot(_ols_pinv(data.xbar()), data.ys[None, :])[0]
    return Hyperplane(beta[:-1], float(beta[-1]))


def _ols_pinv(xbar: np.ndarray) -> np.ndarray:
    """The pseudo-inverse of the design, taken with each column over the
    power of two above its largest |entry| and scaled back (exact), so that
    the units of no coordinate decide ``pinv``'s relative cutoff.  A design
    that is rank deficient in those units keeps the minimum-norm solution
    in its own."""
    unit = np.frexp(np.abs(xbar).max(axis=0, initial=0.0))[1]
    scaled = np.ldexp(xbar, -unit)
    if np.linalg.matrix_rank(scaled) < xbar.shape[1]:
        return np.linalg.pinv(xbar)
    return np.ldexp(np.linalg.pinv(scaled), -unit[:, None])


def _ordered_dot(m: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``ys @ m.T`` for a (K, n) block ``ys``, each row summed over n in
    index order: unlike a BLAS product's, a row's bits do not depend on its
    block.  A sum that overflows is left infinite, for :class:`Hyperplane`
    or the audit to refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = ys[:, :1] * m[:, 0]
        for i in range(1, ys.shape[1]):
            out += ys[:, i:i + 1] * m[:, i]
    return out


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


#: solved dual bases, each with its face, that a fit's cache keeps
DUAL_BASES = 32


class _PiecewiseLinearFit:
    """Shared machinery behind the L1 and quantile fits.

    Rows are the n data rows followed by the phantom rows.  Row i carries
    an asymmetric absolute-value cost: up_w on positive residuals, lo_w on
    negative ones (equal for plain L1).  ``drift`` multiplies beta0.

    ``cache`` is the list of :class:`_Basis` solved by earlier fits on the
    same positions and weights, oldest first and at most ``DUAL_BASES`` (a
    fresh one when None): when one serves an rhs, the fit reads stage 2
    off it and solves no LP; otherwise stage 1 starts from the newest and
    the new optimal basis joins the list.
    """

    def __init__(self, xbar, rhs, up_w, lo_w, drift, cache=None):
        self.xbar = np.asarray(xbar, dtype=float)
        self.rhs = np.asarray(rhs, dtype=float)
        self.up_w = np.asarray(up_w, dtype=float)
        self.lo_w = np.asarray(lo_w, dtype=float)
        self.drift = float(drift)
        self.p = self.xbar.shape[1]
        self.cache = [] if cache is None else cache
        # the dual LP, once; rows in power-of-two units, which PIVOT_TOL reads whole
        b_eq = np.append(np.zeros(self.p - 1), self.drift)
        self.a_eq, self.b_eq = _unit_rows(self.xbar.T, b_eq)
        self.bounds = np.column_stack([-self.lo_w, self.up_w])

    def risk(self, beta) -> float:
        r = self.rhs - self.xbar @ beta
        return float(self.up_w @ np.maximum(r, 0.0)
                     + self.lo_w @ np.maximum(-r, 0.0)
                     + self.drift * beta[-1])

    def inside(self, tau, rows=slice(None)):
        """Which entries of ``tau``, the duals of ``rows``, lie strictly
        inside their bounds: one within 1e-9 of a bound, relative to that
        bound, sits on it."""
        lo, up = self.lo_w[rows], self.up_w[rows]
        return (tau > 1e-9 * lo - lo) & (tau < up - 1e-9 * up)

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

    def _faces(self, rhs) -> tuple[dict, dict[int, Exception]]:
        """The rows each face serves: a kept basis (its interpolation) or
        its :class:`_Face` where one serves the row, the face of a solve
        warm from the newest otherwise; and the error of each row whose
        solve fails.

        Each kept basis, oldest first, judges the rows that no older one
        serves.  The first row that none serves solves, as it would alone,
        and its basis joins the cache in place of the oldest: the rows the
        oldest served meet the others again, and the rows still unserved
        meet the new one.
        """
        rows_of: dict = {}
        failed: dict[int, Exception] = {}
        step = max(1, core.BLOCK_CELLS // self.xbar.size)
        for start in range(0, rhs.shape[0], step):
            chunk = rhs[start:start + step]
            # the simplex's reduced-cost tolerance for each row's cost
            tol = TOL * np.abs(chunk).max(axis=1, initial=0.0)
            bases = list(self.cache)  # every basis that judges the chunk, the cache last
            by = np.full(len(chunk), -1)  # the basis serving each row; -2: solved
            own = np.zeros(len(chunk), dtype=bool)  # served by that basis's face

            def judge(rows, first):
                for k in range(first, len(bases)):
                    rows = rows[by[rows] == -1]
                    if not rows.size:
                        return
                    stays, pinned = bases[k].serves(self, chunk[rows], tol[rows])
                    by[rows[stays | pinned]] = k
                    own[rows[stays]] = bases[k].face.inverse is None

            judge(np.arange(len(chunk)), 0)
            for miss in range(len(chunk)):
                if by[miss] != -1:
                    continue
                by[miss] = -2
                try:
                    res = self.dual(self.cache[-1].status if self.cache else None, chunk[miss])
                    face = _Face(self, res.x)
                except (ConfigurationError, InternalInconsistency) as exc:
                    failed[start + miss] = exc
                    continue
                rows_of[face] = [start + miss]
                if np.count_nonzero(res.basis == BASIC) < self.p:
                    continue  # phase 1 dropped a redundant row: no p basic rows
                later = np.arange(miss + 1, len(chunk))
                if len(self.cache) == DUAL_BASES:
                    oldest = len(bases) - len(self.cache)
                    self.cache.pop(0)
                    orphans = later[by[later] == oldest]
                    by[orphans], own[orphans] = -1, False
                    judge(orphans, oldest + 1)
                bases.append(_Basis(self, res.basis, face))
                self.cache.append(bases[-1])
                judge(later, len(bases) - 1)
            for k in np.unique(by[by >= 0]).tolist():
                for on_face in (False, True):
                    rows = np.flatnonzero((by == k) & (own == on_face))
                    if rows.size:
                        key = bases[k].face if on_face else bases[k]
                        rows_of.setdefault(key, []).extend((start + rows).tolist())
        return rows_of, failed


class _Face:
    """The optimal face cut out by an optimal tau (see
    :meth:`_PiecewiseLinearFit.fit_many`), for any rhs that tau is optimal
    for.  A face pinned by p rows keeps their inverse."""

    def __init__(self, fit: _PiecewiseLinearFit, tau):
        inside = fit.inside(tau)
        self.zero, self.rest = np.flatnonzero(inside), np.flatnonzero(~inside)
        self.a_eq = fit.xbar[self.zero]
        # rows written as g @ beta >= h: residual >= 0 at the upper bound,
        # <= 0 at the lower one
        self.sign = np.where(tau > 0.0, -1.0, 1.0)[self.rest]
        self.g = self.sign[:, None] * fit.xbar[self.rest]
        self.inverse = np.linalg.inv(self.a_eq) if self.zero.size == fit.p else None


class _Basis:
    """A solved optimal basis of the dual LP: its p basic rows ``zero``,
    the ``inverse`` of their design rows (so that it serves as the face they
    pin), the bound each other row's tau sits on, and the solve's face."""

    def __init__(self, fit: _PiecewiseLinearFit, status, face: _Face):
        self.status, self.face = status, face
        self.zero, self.rest = np.flatnonzero(status == BASIC), np.flatnonzero(status != BASIC)
        self.upper = status[self.rest] == AT_UPPER
        self.x_rest = fit.xbar[self.rest]
        self.up_rest, self.lo_rest = fit.up_w[self.rest], -fit.lo_w[self.rest]
        # a face pinned by p rows is pinned by the basic ones
        self.inverse = (np.linalg.inv(fit.xbar[self.zero]) if face.inverse is None
                        else face.inverse)

    def serves(self, fit: _PiecewiseLinearFit, rhs, tol) -> tuple[np.ndarray, np.ndarray]:
        """For each row of a block of right-hand sides, given the simplex's
        reduced-cost tolerance of each: whether this basis stays optimal,
        and, where it does not, whether the interpolation beta of its basic
        rows is the unique optimum.

        The implied tau puts each other row on the bound its residual under
        beta picks (the kept one within the tolerance), and tau_B solves
        xbar_B^T tau_B = drift e_p - xbar_N^T tau_N.  The basis stays optimal
        when no row changes bound; beta is the unique optimum when every
        tau_B lies strictly inside its bounds.
        """
        beta = np.matmul(self.inverse, rhs[:, self.zero, None])[..., 0]
        resid = rhs[:, self.rest] - _ordered_dot(self.x_rest, beta)
        upper = (resid > tol[:, None]) | (self.upper & ~(resid < -tol[:, None]))
        stays = (upper == self.upper).all(axis=1)
        pinned = np.zeros_like(stays)
        moved = np.flatnonzero(~stays)
        if moved.size:
            tau = np.where(upper[moved], self.up_rest, self.lo_rest)
            load = -_ordered_dot(self.x_rest.T, tau)
            load[:, -1] += fit.drift
            pinned[moved] = fit.inside(_ordered_dot(self.inverse.T, load), self.zero).all(axis=1)
        return stays, pinned


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
    implied: list[int] = []           # rows of g the active rows imply

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
        bad[[r for r in rows if r is not None] + implied] = False
        if not bad.any():
            return np.ldexp(beta, unit)
        q = int(np.argmin(np.where(bad, slack, np.inf)))
        normal, added = g[q], 0.0
        while True:
            z, weights = project(normal)
            # partial step: the largest dual move keeping multipliers >= 0;
            # weights within the rounding of the largest read as zero
            partial, drop = np.inf, None
            least = 1e-10 * np.abs(weights).max(initial=0.0)
            for k, (u, w) in enumerate(zip(mult, weights)):
                if u is not None and w > least and u / w < partial:
                    partial, drop = u / w, k
            # z @ normal is z @ z, which cancellation cannot round to zero
            full = (h[q] - normal @ beta) / (z @ z) if independent(z, normal) else np.inf
            step = min(partial, full)
            if not np.isfinite(step):
                # no step meets row q, a combination of the active rows: before
                # any step, and violated within the rounding of beta as a whole
                # (lstsq mixes its units), they imply it; else the face is empty
                worst = -1e-10 * (abs(h[q]) + np.abs(normal).sum() * np.abs(beta).max())
                if added or normal @ beta - h[q] < worst:
                    raise InternalInconsistency("optimal face of the fit LP is empty")
                implied.append(q)
                break
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
