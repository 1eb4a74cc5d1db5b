"""Dense bounded-variable primal simplex with Bland's anti-cycling rule.

Problems in this package are small (a few rows or a few hundred), so a
dense tableau beats anything asymptotically clever and, with Bland's
pivoting rule, terminates without cycling.  The interface mirrors the
common ``linprog`` shape:

    minimize    c . x
    subject to  a_ub @ x <= b_ub
                a_eq @ x == b_eq
                lo_j <= x_j <= hi_j

Bounds default to free variables (None on both ends).  Bounds live on the
columns, not in extra rows: a nonbasic variable sits at one of its finite
bounds (a free one at zero), and the ratio test lets the entering column
stop at its own opposite bound, a bound flip that changes no basis.  Each
inequality row gets a slack column, and the slacks form the starting basis
of every row whose right-hand side is nonnegative once the nonbasic
variables sit at their bounds; only the remaining rows get phase-1
artificials.

A solve returns its final ``basis``: one status code per column, the
variables first and then one slack per inequality row.  Passing it back as
``basis=`` to a problem with the same constraints and any cost vector skips
phase 1: the old basis is still feasible, and phase 2 starts from it.  A
solve also returns its optimal ``tableau``, so a caller can keep it and test
later costs against it (:class:`BasisStack`) without factorising the basis
again: a basis optimal for a cost is a warm solve that makes no pivot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistency

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

#: Column status codes in :attr:`LpResult.basis`.
AT_LOWER, AT_UPPER, BASIC = 0, 1, 2

#: Pivot elements at or below this magnitude are treated as zero.
PIVOT_TOL = 1e-10

#: Reduced costs count as zero below TOL * max |c|, and bound violations
#: below TOL times the scale of the right-hand sides and finite bounds
#: (the default ``tol`` of a solve).
TOL = 1e-9


@dataclass
class LpResult:
    """Outcome of :func:`solve_lp`.

    ``basis`` holds one status code (``AT_LOWER``, ``AT_UPPER`` or
    ``BASIC``) per variable and then per inequality slack; ``pivots``
    counts simplex iterations, basis changes and bound flips alike.
    ``tableau`` is the optimal tableau when a warm solve would adopt its
    basis, and None when phase 1 dropped a redundant equality row.
    """

    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    basis: np.ndarray | None = None
    pivots: int = 0
    tableau: "_Tableau | None" = None

    @property
    def ok(self) -> bool:
        return self.status == OPTIMAL


def _as_matrix(a, ncols):
    if a is None:
        return np.zeros((0, ncols))
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return a


def _as_bounds(bounds, n):
    if bounds is None:
        return np.full(n, -np.inf), np.full(n, np.inf)
    lo, hi = np.array(bounds, dtype=float).reshape(n, 2).T  # None reads as nan
    lo[np.isnan(lo)] = -np.inf
    hi[np.isnan(hi)] = np.inf
    return lo, hi


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None,
             basis=None, tol=TOL) -> LpResult:
    """Solve the LP above; status is "optimal", "infeasible" or "unbounded".

    Tolerances are relative, in units of ``tol`` (see ``TOL``).  ``basis``
    is the ``basis`` of an earlier result for the same constraints; one
    that no longer fits is ignored and the solve starts cold.
    """
    lp = _equality_form(c, a_ub, b_ub, a_eq, b_eq, bounds, tol)
    if lp is None:
        return LpResult(INFEASIBLE)
    if basis is None or not lp.warm_start(np.asarray(basis)):
        if not lp.cold_start():
            return LpResult(INFEASIBLE, pivots=lp.pivots)
    if lp.run(lp.cost) == UNBOUNDED:
        return LpResult(UNBOUNDED, pivots=lp.pivots)
    n = lp.ncols - lp.n_ub
    x = lp.values()[:n]
    square = lp.m == lp.ab.shape[0]
    return LpResult(OPTIMAL, x, float(lp.cost[:n] @ x), lp.status, lp.pivots,
                    lp if square else None)


class BasisStack:
    """The last ``size`` optimal tableaux of solves of one LP, which differ
    only in cost, each beside one payload its caller keeps with it, stacked
    so that one pass prices a block of costs against all of them.

    Solves that share the constraints share the feasible bases, so every
    kept basis stays feasible for any later cost, and it is optimal for that
    cost exactly when the simplex's own optimality test passes on its
    tableau: a hit is a warm solve that would make no pivot.  The tableaux
    are kept in arrival order, a new one in place of the oldest, so a hit
    changes nothing and a row of a block meets the stack as it would alone.
    A miss warm-starts from the newest basis, whose tableau the solve
    factorises afresh, so rounding does not build up from one solve to the
    next.
    """

    def __init__(self, size: int):
        self.size = size
        self.payload: list = [None] * size  # by slot
        self.added = 0  # tableaux kept so far; the next goes to slot added % size

    def add(self, tableau: "_Tableau", payload) -> int:
        """Keep an optimal tableau and its payload in place of the oldest;
        the slot written."""
        if not self.added:
            self.tab = np.empty((self.size,) + tableau.tab.shape)
            self.basic = np.empty((self.size, tableau.m), dtype=tableau.basic.dtype)
            self.x = np.empty((self.size, tableau.ncols))
            self.status = np.empty((self.size, tableau.ncols), dtype=tableau.status.dtype)
            self.lo, self.hi = tableau.lo, tableau.hi
            self.n_ub, self.tol = tableau.n_ub, tableau.tol
        slot = self.added % self.size
        self.tab[slot], self.basic[slot] = tableau.tab, tableau.basic
        self.x[slot], self.status[slot] = tableau.x, tableau.status
        self.payload[slot] = payload
        self.added += 1
        return slot

    def newest(self) -> np.ndarray | None:
        """The status codes of the basis kept last; None before any."""
        return self.status[(self.added - 1) % self.size] if self.added else None

    def optimal_for(self, c, slot: int | None = None) -> np.ndarray:
        """For each row of a (K, variables) block of costs ``c`` (the slacks
        cost nothing) and each slot, or the one ``slot``: whether a warm
        solve from that basis would stop before its first pivot, the test
        that ends :meth:`_Tableau.run`.  Shape (K, size), or (K, 1) for one
        slot; an empty slot is never optimal."""
        cost = np.asarray(c, dtype=float)
        filled = min(self.added, self.size)
        first, stop = (0, filled) if slot is None else (slot, min(slot + 1, filled))
        out = np.zeros((cost.shape[0], self.size if slot is None else 1), dtype=bool)
        if first >= stop:
            return out
        if self.n_ub:
            cost = np.concatenate([cost, np.zeros((cost.shape[0], self.n_ub))], axis=1)
        slots = slice(first, stop)
        _, eligible = _pricing(cost[:, None, :], cost[:, self.basic[slots]],
                               _cost_tol(cost, self.tol)[:, None], self.tab[slots],
                               self.x[slots], self.lo, self.hi)
        out[:, :stop - first] = ~eligible.any(axis=-1)
        return out


def _cost_tol(cost, tol: float) -> np.ndarray:
    """Reduced costs at or below this magnitude count as zero: relative to
    the cost (per cost, along the last axis), so that scaling the cost
    scales no decision (with a zero cost every basis is optimal)."""
    return tol * np.abs(cost).max(axis=-1, keepdims=True, initial=0.0)


def _pricing(cost, basic_cost, dtol, tab, x, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Reduced costs under ``cost`` of a tableau B^-1 [A | b] whose basic
    columns cost ``basic_cost`` and whose nonbasic values are ``x``, and
    which columns may enter: none means the basis is optimal for that cost.

    Leading axes of ``tab``, ``basic_cost`` and ``x`` stack tableaux of one
    LP, and leading axes of ``cost``, ``basic_cost`` and ``dtol`` stack
    costs, broadcast against them.  A product and a sum, not a matrix
    product, form the reduced costs, so each pair of cost and tableau
    rounds exactly as it does alone.
    """
    reduced = cost - (basic_cost[..., None] * tab[..., :-1]).sum(axis=-2)
    # basic columns have zero reduced cost, so only nonbasic ones qualify:
    # rising below their upper bound or falling above their lower one (a
    # free column at zero may do either)
    return reduced, ((reduced < -dtol) & (x < hi)) | ((reduced > dtol) & (x > lo))


def _equality_form(c, a_ub, b_ub, a_eq, b_eq, bounds, tol) -> "_Tableau | None":
    """The LP as a tableau not yet started, with one slack column per
    inequality row; None when some column's bounds are empty."""
    c = np.asarray(c, dtype=float).ravel()
    n = c.size
    a_ub = _as_matrix(a_ub, n)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
    a_eq = _as_matrix(a_eq, n)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
    lo, hi = _as_bounds(bounds, n)
    if np.any(hi < lo):
        return None

    n_ub, n_eq = a_ub.shape[0], a_eq.shape[0]
    # one row per constraint, one column per variable and slack, and b last
    ab = np.zeros((n_ub + n_eq, n + n_ub + 1))
    if n_ub:
        ab[:n_ub, :n] = a_ub
        ab[:n_ub, n:-1] = np.eye(n_ub)
        ab[:n_ub, -1] = b_ub
        c = np.concatenate([c, np.zeros(n_ub)])
        lo = np.concatenate([lo, np.zeros(n_ub)])
        hi = np.concatenate([hi, np.full(n_ub, np.inf)])
    ab[n_ub:, :n] = a_eq
    ab[n_ub:, -1] = b_eq
    return _Tableau(ab, c, lo, hi, n_ub, tol)


class _Tableau:
    """Tableau B^-1 [A | b] of a bounded LP in equality form, plus the
    status of every column and the value of each nonbasic one (basic
    columns hold zero there; their values follow from the tableau)."""

    def __init__(self, ab, cost, lo, hi, n_ub, tol):
        self.ab, self.cost, self.lo, self.hi, self.tol = ab, cost, lo, hi, tol
        self.m, self.ncols, self.n_ub = ab.shape[0], ab.shape[1] - 1, n_ub
        self.max_iter = 200 * (ab.shape[0] + ab.shape[1] + 10)  # per phase
        scale = np.abs(np.concatenate([lo, hi, ab[:, -1]]))
        self.ftol = tol * (1.0 + float(scale.max(where=np.isfinite(scale), initial=0.0)))
        self.pivots = 0

    def warm_start(self, status) -> bool:
        """Adopt a previous basis if it is square, nonsingular and feasible."""
        basic = np.flatnonzero(status == BASIC)
        if status.shape != (self.ncols,) or basic.size != self.m:
            return False
        x = np.where(status == AT_UPPER, self.hi, self.lo)
        x[basic] = 0.0
        x[~np.isfinite(x)] = 0.0
        try:
            tab = np.linalg.solve(self.ab[:, basic], self.ab)
        except np.linalg.LinAlgError:
            return False
        xb = tab[:, -1] - tab[:, :-1] @ x
        # comparisons with nan are false, so a garbage solve is refused too
        if not np.all((xb >= self.lo[basic] - self.ftol) & (xb <= self.hi[basic] + self.ftol)):
            return False
        self.status, self.x, self.basic, self.tab = status.astype(np.int8), x, basic, tab
        return True

    def cold_start(self) -> bool:
        """Phase 1 from slacks and artificials; False when infeasible."""
        lo, hi, ncols, n_ub = self.lo, self.hi, self.ncols, self.n_ub
        # nonbasic variables rest on the finite bound their cost prefers,
        # free ones at zero
        upper = np.isfinite(hi) & ((self.cost < 0.0) | ~np.isfinite(lo))
        x = np.where(upper, hi, np.where(np.isfinite(lo), lo, 0.0))
        status = np.where(upper, AT_UPPER, AT_LOWER)
        resid = self.ab[:, -1] - self.ab[:, :-1] @ x
        needs_art = np.ones(self.m, dtype=bool)
        needs_art[:n_ub] = resid[:n_ub] < 0.0
        slack_rows, art_rows = np.flatnonzero(~needs_art), np.flatnonzero(needs_art)
        n_art = art_rows.size
        basic = np.empty(self.m, dtype=int)
        basic[slack_rows] = ncols - n_ub + slack_rows
        basic[art_rows] = ncols + np.arange(n_art)
        # artificial columns carry the sign of their row's residual, so the
        # starting basis is a signed identity and B^-1 is that same sign
        sign = np.ones(self.m)
        sign[art_rows] = np.where(resid[art_rows] >= 0.0, 1.0, -1.0)
        art = np.zeros((self.m, n_art))
        art[art_rows, np.arange(n_art)] = sign[art_rows]
        self.tab = sign[:, None] * np.hstack([self.ab[:, :-1], art, self.ab[:, -1:]])
        self.basic = basic
        self.x = np.concatenate([x, np.zeros(n_art)])
        self.status = np.concatenate([status, np.full(n_art, AT_LOWER)]).astype(np.int8)
        self.status[basic] = BASIC
        self.x[basic] = 0.0
        self.lo = np.concatenate([lo, np.zeros(n_art)])
        self.hi = np.concatenate([hi, np.full(n_art, np.inf)])
        if n_art:
            self.run(np.concatenate([np.zeros(ncols), np.ones(n_art)]))
            if self.values()[ncols:].sum() > 1e-8 * (1.0 + float(np.abs(resid).sum())):
                return False
            self._drive_out_artificials(ncols)
        self.tab = np.hstack([self.tab[:, :ncols], self.tab[:, -1:]])
        self.x, self.status = self.x[:ncols], self.status[:ncols]
        self.lo, self.hi = lo, hi
        return True

    def _drive_out_artificials(self, ncols):
        """Pivot zero-valued artificials out of the basis; drop the rows of
        those that no column can replace (redundant equality rows)."""
        keep = np.ones(self.m, dtype=bool)
        for row in np.flatnonzero(self.basic >= ncols):
            entries = np.abs(self.tab[row, :ncols])
            col = int(np.argmax(entries)) if ncols else 0
            if ncols == 0 or entries[col] <= 1e-9:
                keep[row] = False
            else:
                self._pivot(row, col, leaving_status=AT_LOWER)
        if not keep.all():
            self.status[self.basic[~keep]] = AT_LOWER
            self.tab, self.basic = self.tab[keep], self.basic[keep]
            self.m = int(keep.sum())

    def values(self) -> np.ndarray:
        """Every column's value: nonbasic ones as stored, basic ones solved."""
        x = self.x.copy()
        x[self.basic] = self.tab[:, -1] - self.tab[:, :-1] @ self.x
        return x

    def _pivot(self, row, col, leaving_status):
        leaving = self.basic[row]
        self.status[leaving] = leaving_status
        self.x[leaving] = self.lo[leaving] if leaving_status == AT_LOWER else self.hi[leaving]
        if not np.isfinite(self.x[leaving]):
            self.x[leaving] = 0.0
        tab = self.tab
        tab[row] /= tab[row, col]
        piv = tab[:, col].copy()
        piv[row] = 0.0
        tab -= np.outer(piv, tab[row])
        self.basic[row] = col
        self.status[col] = BASIC
        self.x[col] = 0.0

    def run(self, cost) -> str:
        """Bland-rule iterations until optimal or unbounded."""
        lo, hi, x = self.lo, self.hi, self.x
        dtol = _cost_tol(cost, self.tol)
        for _ in range(self.max_iter):
            tab = self.tab
            reduced, eligible = _pricing(cost, cost[self.basic], dtol, tab, x, lo, hi)
            if not eligible.any():
                return OPTIMAL
            col = int(eligible.argmax())  # Bland: lowest eligible index
            rising = reduced[col] < 0.0
            # per unit of movement of the column, basic value i falls by alpha_i
            alpha = tab[:, col] if rising else -tab[:, col]
            xb = tab[:, -1] - tab[:, :-1] @ x
            down = alpha > PIVOT_TOL
            up = alpha < -PIVOT_TOL
            room = np.full(self.m, np.inf)
            room[down] = np.maximum(xb[down] - lo[self.basic[down]], 0.0)
            room[up] = np.maximum(hi[self.basic[up]] - xb[up], 0.0)
            mag = np.where(down | up, np.abs(alpha), 1.0)
            ratio = room / mag
            self.pivots += 1
            step = ratio.min(initial=np.inf)
            flip = hi[col] - lo[col]
            if flip <= step and flip < np.inf:
                x[col] = hi[col] if rising else lo[col]
                self.status[col] = AT_UPPER if rising else AT_LOWER
                continue
            if step == np.inf:
                return UNBOUNDED
            # Harris pass: among ratios within the feasibility tolerance of
            # the smallest, pivot on a large element, since tiny pivots
            # amplify round-off by 1/|pivot|
            relaxed = ((room + self.ftol) / mag).min()
            rows = np.flatnonzero(ratio <= relaxed)
            solid = rows[mag[rows] >= 0.5 * mag[rows].max()]
            row = int(solid[np.argmin(self.basic[solid])])  # Bland: lowest index
            self._pivot(row, col, AT_LOWER if down[row] else AT_UPPER)
        raise InternalInconsistency("simplex failed to terminate within iteration cap")
