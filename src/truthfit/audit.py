"""Manipulation audits, influence bounds, and efficiency benchmarks.

An audit probes a mechanism with misreports and reports a violation
certificate when some deviation pays off.  Outcomes are compared under
single-peaked preferences in the true residual: a deviation strictly
benefits an agent when the new prediction is strictly closer to their
true value, or when it crosses to the other side of it (some admissible
preference ranks any cross-side move higher); an agent is forced worse
only by a same-side move strictly away from their value.  Searches are
deterministic given the seed, and evaluation order breaks ties, so equal
seeds yield identical traces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .core import DataSet, Hyperplane, rss
from .crm import CrmConfig, _directing
from .erm import (
    L1Config,
    QuantileConfig,
    _PiecewiseLinearFit,
    _build_l1,
    _build_quantile,
    _least_squares,
    fit_ols,
)
from .errors import (
    ConfigurationError,
    ContractViolation,
    InternalInconsistency,
    NotPubliclySeparable,
    UnsupportedMechanism,
)
from .grh import (
    _GrhSolver,
    _centred,
    _grl_partition,
    _interpolation_systems,
    _uncentred,
    preset_partition,
)
from .impartial import ImpartialConfig, _impartial_coefficients, generalized_median
from .separability import AgentPartition, is_publicly_separable

DEFAULT_MARGIN = 1e-9


class MechanismKind(Enum):
    OLS = "ols"
    L1ERM = "l1erm"
    QUANTILE = "quantile"
    CRM = "crm"
    GRL = "grl"
    GRH = "grh"
    IMPARTIAL = "impartial"
    GENERALIZED_MEDIAN = "generalized-median"


@dataclass(frozen=True)
class GrlParams:
    """Explicit resistant-line parameters (sets plus ranks)."""

    s: tuple[int, ...]
    sprime: tuple[int, ...]
    k: int
    kprime: int


@dataclass(frozen=True)
class GenMedParams:
    """Phantom multiset for the d = 0 generalized median."""

    phantoms: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "phantoms", tuple(float(v) for v in self.phantoms))


@dataclass(frozen=True)
class MechanismSpec:
    """A mechanism kind plus its configuration object (None: the kind's default)."""

    kind: MechanismKind
    params: object = None

    def bind(self, data: DataSet) -> "BoundMechanism":
        return BoundMechanism(self, data)


class BoundMechanism:
    """Mechanism specialized to fixed public information.

    Validation that depends only on positions and configuration happens
    once here; ``coefficients`` then maps any report vector to the fitted
    (beta1, beta0) without re-checking, and ``coefficients_many`` maps a
    block of them.
    """

    def __init__(self, spec: MechanismSpec, data: DataSet):
        self.spec = spec
        self.data = data
        self._solve, self._solve_many = _make_solver(spec, data)

    def coefficients(self, ys=None) -> np.ndarray:
        ys = self.data.ys if ys is None else np.asarray(ys, dtype=float)
        return self._solve(ys)

    def coefficients_many(self, ys) -> tuple[np.ndarray, dict[int, Exception]]:
        """The (K, d+1) coefficients of each row of a (K, n) block of
        reports, and the error each failing row raises (its coefficients
        NaN).  Row k is what ``coefficients`` returns or raises on it alone.
        """
        return self._solve_many(np.asarray(ys, dtype=float))

    def hyperplane(self, ys=None) -> Hyperplane:
        coeffs = self.coefficients(ys)
        return Hyperplane(coeffs[:-1], float(coeffs[-1]))


def fit_mechanism(spec: MechanismSpec, data: DataSet) -> Hyperplane:
    """One-shot fit of any mechanism kind."""
    return spec.bind(data).hyperplane()


# --------------------------------------------------------------------------
# the mechanism table: a binder checks a configuration against the positions
# once and returns solve(ys) -> coefficients and solve_many(block) ->
# (coefficients, failed rows).  Binders look solver classes and checks up as
# module globals, so that instrumentation rebinding them sees all.


def _with_row_zero(solve_many):
    """(solve, solve_many), where solve(ys) is row 0 of ``solve_many`` on the
    one-row block, raising that row's error."""
    def solve(ys):
        coeffs, failed = solve_many(ys[None, :])
        if failed:
            raise failed[0]
        return coeffs[0]
    return solve, solve_many


def _bind_ols(data: DataSet, cfg: None):
    pinv = np.linalg.pinv(data.xbar())
    return _with_row_zero(lambda ys: (_least_squares(pinv, ys), {}))


def _bind_piecewise_linear(build, data: DataSet, cfg):
    template = build(data, cfg)
    tail = template.rhs[data.n:]
    # probes differ only in the dual objective, so they share the optimal
    # bases the template's cache keeps

    def solve(ys):
        return _PiecewiseLinearFit(template.xbar, np.concatenate([ys, tail]),
                                   template.up_w, template.lo_w, template.drift,
                                   cache=template.cache).fit()

    def solve_many(ys):
        return template.fit_many(np.hstack([ys, np.broadcast_to(tail, (len(ys), tail.size))]))

    return solve, solve_many


def _bind_block(coefficients, data: DataSet, cfg,
                error=partial(ContractViolation, "hyperplane coefficients must be finite")):
    """A kind whose ``coefficients(data, cfg, block)`` fits a block; a row
    whose coefficients are not finite fails with ``error()``."""
    def solve_many(ys):
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = coefficients(data, cfg, ys)
        bad = np.flatnonzero(~np.isfinite(coeffs).all(axis=1))
        coeffs[bad] = np.nan
        return coeffs, {int(k): error() for k in bad}

    solve_many(data.ys[None, :])  # surface configuration errors once
    return _with_row_zero(solve_many)


def _bind_grl(data: DataSet, cfg: GrlParams):
    return _bind_grh(data, _grl_partition(data, cfg.s, cfg.sprime, cfg.k, cfg.kprime))


def _bind_grh(data: DataSet, cfg: AgentPartition):
    # in d = 1 the solver's vertical split is the exact separability test
    cfg.validate_against(data)
    if data.d != 1 and not is_publicly_separable(data, cfg):
        raise NotPubliclySeparable("partition is not publicly separable; rejected before solving")
    solver = _GrhSolver(data.xs, cfg)
    return solver.solve, solver.solve_many


def _generalized_medians(data: DataSet, cfg: GenMedParams, ys) -> np.ndarray:
    if data.d != 0:
        raise ContractViolation("the generalized median is a d = 0 mechanism")
    if len(cfg.phantoms) != data.n + 1:
        raise ConfigurationError(f"need exactly {data.n + 1} phantoms for {data.n} agents")
    return generalized_median(ys, cfg.phantoms)[:, None]


#: default of a kind that cannot be fitted without an explicit configuration
NEEDS_CONFIG = object()


class _Mechanism(NamedTuple):
    config: type             # the configuration type the binder accepts
    default: object          # used when a spec carries no configuration
    bind: Callable           # (data, cfg) -> (solve, solve_many)


_MECHANISMS: dict[MechanismKind, _Mechanism] = {
    MechanismKind.OLS: _Mechanism(type(None), None, _bind_ols),
    MechanismKind.L1ERM: _Mechanism(L1Config, L1Config(),
                                    partial(_bind_piecewise_linear, _build_l1)),
    MechanismKind.QUANTILE: _Mechanism(QuantileConfig, NEEDS_CONFIG,
                                       partial(_bind_piecewise_linear, _build_quantile)),
    MechanismKind.CRM: _Mechanism(CrmConfig, NEEDS_CONFIG, partial(
        _bind_block, lambda data, cfg, ys: _directing(data, cfg, ys)[3])),
    MechanismKind.GRL: _Mechanism(GrlParams, NEEDS_CONFIG, _bind_grl),
    MechanismKind.GRH: _Mechanism(AgentPartition, NEEDS_CONFIG, _bind_grh),
    MechanismKind.IMPARTIAL: _Mechanism(ImpartialConfig, NEEDS_CONFIG,
                                        partial(_bind_block, _impartial_coefficients)),
    MechanismKind.GENERALIZED_MEDIAN: _Mechanism(GenMedParams, NEEDS_CONFIG, partial(
        _bind_block, _generalized_medians,
        error=partial(ConfigurationError, "phantom choice pushes the median to infinity"))),
}


def _make_solver(spec: MechanismSpec, data: DataSet):
    row = _MECHANISMS.get(spec.kind)
    if row is None:
        raise ConfigurationError(f"unknown mechanism kind {spec.kind!r}")
    cfg = row.default if spec.params is None else spec.params
    if not isinstance(cfg, row.config):
        wanted = ("takes no config" if row.config is type(None)
                  else f"needs a config of type {row.config.__name__}")
        raise ConfigurationError(f"{spec.kind.value} mechanism {wanted}, "
                                 f"got {type(spec.params).__name__}")
    return row.bind(data, cfg)


# --------------------------------------------------------------------------
# improvement semantics


def strictly_better(r_before, r_after, margin: float = DEFAULT_MARGIN):
    """Can some single-peaked preference strictly prefer the new outcome?

    True when the prediction moved strictly closer to the agent's value, or
    jumped to the other side of it (cross-side moves are unordered by the
    preference class, so some admissible preference strictly gains).
    Elementwise over residual arrays that broadcast together.
    """
    r_before, r_after = np.asarray(r_before), np.asarray(r_after)
    crossed = (((r_before > margin) & (r_after < -margin))
               | ((r_before < -margin) & (r_after > margin)))
    return ((np.abs(r_after) < np.abs(r_before) - margin)
            | (crossed & (np.abs(r_after - r_before) > margin)))


def forced_worse(r_before, r_after, margin: float = DEFAULT_MARGIN):
    """Does every single-peaked preference rank the new outcome strictly lower?

    Only a same-side move strictly away from the agent's value (or any move
    off an exactly attained value) is unanimously worse.  Elementwise over
    residual arrays that broadcast together.
    """
    r_before, r_after = np.asarray(r_before), np.asarray(r_after)
    moved_off = np.abs(r_after) > margin
    farther = (((r_before > 0) == (r_after > 0)) & moved_off
               & (np.abs(r_after) > np.abs(r_before) + margin))
    return np.where(np.abs(r_before) <= margin, moved_off, farther)


@dataclass(frozen=True)
class ViolationCertificate:
    """A replayable record of a profitable (coalition) misreport.

    ``before``/``after`` hold the coalition members' true absolute
    residuals under the truthful and deviated fits, in coalition order.
    """

    coalition: tuple[int, ...]
    misreports: dict[int, float]
    before: tuple[float, ...]
    after: tuple[float, ...]
    truthful: Hyperplane
    deviated: Hyperplane

    def __post_init__(self):
        coalition = tuple(int(i) for i in self.coalition)
        if len(coalition) != len(set(coalition)):
            raise ContractViolation("coalition repeats an agent")
        if sorted(coalition) != list(coalition):
            raise ContractViolation("coalition indices must be ascending")
        if set(self.misreports) != set(coalition):
            raise ContractViolation("misreports must cover exactly the coalition")
        if not (len(self.before) == len(self.after) == len(coalition)):
            raise ContractViolation("one before/after residual per member")
        object.__setattr__(self, "coalition", coalition)
        object.__setattr__(self, "misreports",
                           {int(k): float(v) for k, v in self.misreports.items()})
        object.__setattr__(self, "before", tuple(float(v) for v in self.before))
        object.__setattr__(self, "after", tuple(float(v) for v in self.after))


class _Probe:
    """One mechanism bound to the data, its truthful fit, and the judgement
    of joint misreports against it.

    Every probe goes through ``BoundMechanism.coefficients_many``.
    """

    def __init__(self, spec: MechanismSpec, data: DataSet, margin: float):
        self.data = data
        self.margin = margin
        # a member counting as "not worse off" is a componentwise requirement:
        # judge it at solver-noise scale even when the caller raises ``margin``
        # to demand a larger strict gain, or a real (if small) sacrifice by one
        # member would masquerade as indifference and fake a certificate
        self.noise = min(margin, DEFAULT_MARGIN)
        self.bound = spec.bind(data)
        self.truthful = self.bound.hyperplane()
        self.xbar = data.xbar()
        self.r0 = data.ys - self.xbar @ self.truthful.coefficients()

    def judge(self, coalition: tuple[int, ...], reports) -> ViolationCertificate | None:
        """The certificate when the coalition's joint report pays off, else None.

        A report equal to the truth for every member is no probe.  Errors of
        the mechanism, ``InternalInconsistency`` included, propagate.
        """
        table = np.zeros((self.data.n, 1))
        table[list(coalition), 0] = reports
        picks = np.zeros((1, len(coalition)), dtype=int)
        cert, errors = self.judge_many(table, [(coalition, picks)])
        if errors:
            raise errors[0]
        return cert

    def judge_many(self, table: np.ndarray, stack) -> tuple[ViolationCertificate | None,
                                                            list[Exception]]:
        """Judge a stack of ``(coalition, picks)`` blocks with one
        ``coefficients_many`` call.  A block's picks hold one joint report
        per row and one column per member, in coalition order: the index of
        the member's report in its row of the candidate ``table``.  The
        blocks of a stack have equally many columns; past a smaller
        coalition's members, its last member's column repeats, which writes
        and judges the same report twice.

        Returns the certificate of the first row, in stack order, that pays
        off, else None; and, in row order, the errors the mechanism raised
        on the rows before it (on every row, when none pays off).  Rows
        equal to the truth for every member are no probes.  The reports
        are gathered from the table and scattered into the rows at once.
        Each row is judged at its own coalition's columns only: the
        reports, truthful residuals and positions are gathered there as
        (rows, columns) arrays, so a row is judged the same in any stack.
        """
        ys = self.data.ys
        counts = [len(picks) for _, picks in stack]
        picks = np.concatenate([picks for _, picks in stack])
        width = picks.shape[1]
        cols = np.repeat(np.array([c + c[-1:] * (width - len(c)) for c, _ in stack],
                                  dtype=int).reshape(len(stack), width), counts, axis=0)
        reports = table[cols, picks]
        probes = np.flatnonzero(np.any(reports != ys[cols], axis=1))
        if probes.size == 0:
            return None, []
        if probes.size < len(cols):
            cols, reports = cols[probes], reports[probes]
        reported = np.repeat(ys[None, :], len(cols), axis=0)
        reported[np.arange(len(cols))[:, None], cols] = reports
        coeffs, failed = self.bound.coefficients_many(reported)
        xbar = self.xbar[cols]
        fitted = coeffs[:, None, 0] * xbar[..., 0]
        for j in range(1, xbar.shape[2]):
            fitted += coeffs[:, None, j] * xbar[..., j]
        r0, r1 = self.r0[cols], ys[cols] - fitted
        pays = (~np.any(forced_worse(r0, r1, self.noise), axis=1)
                & np.any(strictly_better(r0, r1, self.margin), axis=1))
        pays[list(failed)] = False
        first = int(np.argmax(pays)) if pays.any() else probes.size
        errors = [failed[k] for k in sorted(failed) if k < first]
        if first == probes.size:
            return None, errors
        coalition = stack[int(np.searchsorted(np.cumsum(counts), probes[first], side="right"))][0]
        members = len(coalition)
        return ViolationCertificate(
            coalition=coalition,
            misreports={m: float(v) for m, v in zip(coalition, reports[first, :members])},
            before=tuple(abs(v) for v in r0[first, :members]),
            after=tuple(abs(v) for v in r1[first, :members]),
            truthful=self.truthful,
            deviated=Hyperplane(coeffs[first, :-1], float(coeffs[first, -1])),
        ), errors


def verify_certificate(spec: MechanismSpec, data: DataSet,
                       cert: ViolationCertificate,
                       margin: float = DEFAULT_MARGIN) -> bool:
    """Replay the certificate: judge its misreports again as the audits do.

    The replay must find the gain again, and the stated lines and residuals
    must reproduce within 1e-12 (absolute plus relative).
    """
    if cert.coalition and not 0 <= cert.coalition[0] <= cert.coalition[-1] < data.n:
        raise ContractViolation(f"coalition {cert.coalition} out of range")
    replay = _Probe(spec, data, margin).judge(
        cert.coalition, [cert.misreports[m] for m in cert.coalition])
    if replay is None:
        return False
    stated, actual = cert.before + cert.after, replay.before + replay.after
    return (replay.truthful.close_to(cert.truthful, 1e-12)
            and replay.deviated.close_to(cert.deviated, 1e-12)
            and all(abs(s - a) <= 1e-12 * (1.0 + abs(a)) for s, a in zip(stated, actual)))


# --------------------------------------------------------------------------
# candidate generation: an agent's crossings are the predictions at its
# position of the hyperplanes through d+1 other agents.  One solve covers
# every (d+1)-subset of the agents, and each agent takes the subsets that
# avoid it, so an audit solves each subset once rather than once per agent.


def hyperplanes_through_others(data: DataSet, agent: int) -> np.ndarray:
    """Coefficients of hyperplanes through each (d+1)-subset of other agents.

    Affinely dependent subsets pin no unique hyperplane and are skipped.
    Returns an array of shape (count, d+1); count may be zero.
    """
    _check_agent(data, agent)
    return _through_others(data, [agent])[0]


def default_candidates(data: DataSet, agent: int, grid_points: int = 41) -> list[float]:
    """Misreport candidates: an even grid over the stretched y-range plus the
    predictions at the agent's position of every hyperplane through d+1
    other agents (the values where a resistant mechanism can switch faces)."""
    _check_agent(data, agent)
    return _first_occurrences(_grid_and_crossings(data, grid_points, [agent])[0]).tolist()


def _check_agent(data: DataSet, agent: int) -> None:
    if not 0 <= agent < data.n:
        raise ContractViolation(f"agent index {agent} out of range")


def _through_others(data: DataSet, agents) -> list[np.ndarray]:
    """For each of ``agents``, the coefficients of the hyperplanes through
    each (d+1)-subset of the other agents, from one solve.

    Every (d+1)-subset of all agents is solved once, in lexicographic
    order; an agent's hyperplanes are the rows whose subset avoids it, in
    the order of ``itertools.combinations`` over the other agents.  The
    solve gives each system the same bits in any stack, and each agent's
    rows are uncentred on their own, so an agent gets the bits of a solve
    over its own subsets alone.
    """
    subsets = np.array(list(itertools.combinations(range(data.n), data.d + 1)),
                       dtype=int).reshape(-1, data.d + 1)
    xc, centre = _centred(data.xs)
    mats, good = _interpolation_systems(xc, subsets)
    subsets = subsets[good]
    solved = np.linalg.solve(mats[good], data.ys[subsets][..., None])[..., 0]
    return [_uncentred(solved[(subsets != agent).all(axis=1)], centre) for agent in agents]


def _grid_and_crossings(data: DataSet, grid_points: int, agents) -> list[np.ndarray]:
    """For each of ``agents``, the even grid over the stretched y-range
    followed by the agent's crossings: the predictions at its position of
    the hyperplanes through d+1 other agents.  Raises ContractViolation
    when a candidate is not finite, as when the reports span more than the
    largest float: an audit over such candidates would search nothing."""
    lo, hi = float(data.ys.min()), float(data.ys.max())
    spread = (hi - lo) or 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(lo - spread, hi + spread, grid_points)
        out = [np.concatenate([grid, betas @ np.append(data.xs[agent], 1.0)])
               for agent, betas in zip(agents, _through_others(data, agents))]
    if not np.isfinite(np.concatenate(out)).all():
        raise ContractViolation("misreport candidates overflow: the reports span too wide a range")
    return out


def _first_occurrences(values: np.ndarray) -> np.ndarray:
    """The distinct values in order of first occurrence (0.0 and -0.0 are
    one value, kept as it first occurs)."""
    return values[np.sort(np.unique(values, return_index=True)[1])]


# --------------------------------------------------------------------------
# audits


#: most joint reports judged in one block; bounds the memory a large
#: candidate product takes
BLOCK_TRIALS = 4096

#: coalitions of each size that audit_gsp samples when n > 8
COALITION_SAMPLES = 64


def _first_certificate(probe: _Probe, table: np.ndarray, blocks) -> ViolationCertificate | None:
    """The first certificate over (coalition, picks) blocks into the
    candidate ``table``, in trial order.

    Consecutive blocks are judged as one stack of at most BLOCK_TRIALS rows,
    with one solve.  Probes where the mechanism itself becomes undefined
    (degenerate-tie errors) are skipped: they witness degeneracy, not
    manipulation.  Any other error is raised unless an earlier trial paid off.
    """
    for stack in _stacks(blocks):
        cert, errors = probe.judge_many(table, stack)
        for exc in errors:
            if not isinstance(exc, InternalInconsistency):
                raise exc
        if cert is not None:
            return cert
    return None


def _stacks(blocks):
    """Consecutive blocks in stacks of at most BLOCK_TRIALS rows.  A block is
    drawn before the stack ahead of it is judged; the draws do not depend on
    outcomes, so no trial changes."""
    stack, rows = [], 0
    for block in blocks:
        if stack and rows + len(block[1]) > BLOCK_TRIALS:
            yield stack
            stack, rows = [], 0
        stack.append(block)
        rows += len(block[1])
    if stack:
        yield stack


def _joint_blocks(coalition: tuple[int, ...], sizes, width: int, draws=None):
    """One coalition's joint reports in blocks of at most BLOCK_TRIALS rows,
    as candidate indices in ``width`` columns, one per member and then
    repeats of the last member's (see :meth:`_Probe.judge_many`): the
    members' ``draws`` (one row of indices each), or else the product of
    the members' list ``sizes`` in ``itertools.product`` order."""
    count = math.prod(sizes) if draws is None else draws.shape[1]
    pad = [*range(len(sizes)), *[len(sizes) - 1] * (width - len(sizes))]
    for start in range(0, count, BLOCK_TRIALS):
        stop = min(start + BLOCK_TRIALS, count)
        columns = (np.unravel_index(np.arange(start, stop), sizes) if draws is None
                   else draws[:, start:stop])
        yield coalition, np.take(columns, pad, axis=0).T


def audit_sp(spec: MechanismSpec, data: DataSet, agent: int,
             candidates=None,
             margin: float = DEFAULT_MARGIN) -> ViolationCertificate | None:
    """Search one agent's misreports for a strictly profitable deviation.

    Candidates default to :func:`default_candidates`.  Returns the first
    certificate in candidate order, or None.  Probes where the mechanism
    itself becomes undefined (degenerate-tie errors) are skipped.
    """
    _check_agent(data, agent)
    probe = _Probe(spec, data, margin)
    if candidates is None:
        candidates = default_candidates(data, agent)
    candidates = np.fromiter(candidates, float)
    table = np.zeros((data.n, candidates.size))
    table[agent] = candidates
    return _first_certificate(probe, table, _joint_blocks((agent,), (candidates.size,), 1))


def audit_gsp(spec: MechanismSpec, data: DataSet, max_coalition: int,
              candidates_per_agent: int = 41, seed: int = 0,
              margin: float = DEFAULT_MARGIN,
              max_evals: int | None = None) -> ViolationCertificate | None:
    """Coalition misreport search: weak improvement for all, strict for one.

    ``margin`` is the strict-gain threshold; the no-member-worse condition
    is always judged at solver-noise scale (never looser than the default
    margin).  Singleton coalitions are searched exhaustively first
    (identical to :func:`audit_sp` over the same candidate lists).  Larger
    coalitions are enumerated exhaustively for n <= 8, else
    ``COALITION_SAMPLES`` of each size are sampled; each agent's candidate
    list is the default grid-plus-crossings set extended with the other
    agents' reported values.  When ``max_evals`` caps the budget, the
    joint-report product of each larger coalition is sampled with the given
    seed instead of fully enumerated.  Deterministic for fixed arguments.
    """
    n = data.n
    if not 1 <= max_coalition <= n:
        raise ContractViolation(f"max_coalition must lie in 1..{n}")
    probe = _Probe(spec, data, margin)
    lists = [_first_occurrences(np.concatenate([values, np.delete(data.ys, i)]))
             for i, values in enumerate(_grid_and_crossings(data, candidates_per_agent, range(n)))]
    # every agent's list in one (n, longest) table, padded with zeros
    sizes = [len(values) for values in lists]
    table = np.zeros((n, max(sizes)))
    table[np.arange(table.shape[1]) < np.array(sizes)[:, None]] = np.concatenate(lists)
    blocks = _coalition_blocks(sizes, max_coalition, np.random.default_rng(seed), max_evals)
    return _first_certificate(probe, table, blocks)


def _coalition_blocks(sizes: list[int], max_coalition: int, rng: np.random.Generator,
                      max_evals: int | None):
    """(coalition, picks) blocks in search order over candidate lists of the
    given sizes, drawing from ``rng`` lazily: the coalitions of a size are
    drawn before its first block, then the sampled picks of all of them in
    one call, one row per member of each sampled coalition in turn.  That
    call leaves the stream as one draw per member, coalition by coalition,
    would leave it, with the same picks."""
    n = len(sizes)
    for agent in range(n):
        yield from _joint_blocks((agent,), (sizes[agent],), max_coalition)
    for size in range(2, max_coalition + 1):
        if n <= 8:
            coalitions = list(itertools.combinations(range(n), size))
        else:
            count = min(COALITION_SAMPLES, math.comb(n, size))
            seen: set[tuple[int, ...]] = set()
            while len(seen) < count:
                pick = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
                seen.add(pick)
            coalitions = sorted(seen)
        budget = None if max_evals is None else max(1, max_evals // max(1, len(coalitions)))
        draws = {}
        if budget is not None:
            sampled = [c for c in coalitions if math.prod(sizes[i] for i in c) > budget]
            if sampled:
                highs = np.array([sizes[i] for c in sampled for i in c])
                picks = rng.integers(0, highs[:, None], size=(highs.size, budget))
                draws = dict(zip(sampled, picks.reshape(len(sampled), size, budget)))
        for coalition in coalitions:
            yield from _joint_blocks(coalition, [sizes[i] for i in coalition], max_coalition,
                                     draws.get(coalition))


# --------------------------------------------------------------------------
# influence bounds


@dataclass(frozen=True)
class InfluenceBounds:
    """Constants l <= h with the agent's prediction equal to med(y, l, h)."""

    lower: float
    upper: float

    def __post_init__(self):
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ContractViolation("bounds must be extended reals")
        if self.lower > self.upper:
            raise ContractViolation("lower bound exceeds upper bound")

    def clamp(self, y: float) -> float:
        """med(y, lower, upper) without arithmetic on infinities."""
        return float(min(max(y, self.lower), self.upper))


def influence_bounds(spec: MechanismSpec, data: DataSet, agent: int) -> InfluenceBounds:
    """Probe the envelope of one agent's influence on their own prediction.

    Only the strategyproof traversal kinds (GRH, GRL) are accepted: their
    prediction at the agent is med(y, l, h), and it moves inside the
    interval spanned by the hyperplanes through d+1 other agents.  Probing
    one unit beyond that interval on each side reveals whether the
    prediction tracks the report (no bound) or pins to a constant (the
    bound).  Every other kind raises UnsupportedMechanism; CRM also
    interpolates d+1 agents, but its prediction need not be of clamp form,
    so two probes would not determine it.
    """
    if spec.kind not in (MechanismKind.GRH, MechanismKind.GRL):
        raise UnsupportedMechanism(
            f"influence bounds need a prediction of clamp form med(y, l, h), "
            f"which {spec.kind.value} does not guarantee (only grh and grl do)"
        )
    _check_agent(data, agent)
    if data.n - 1 < data.d + 1:
        raise ContractViolation(
            f"need at least {data.d + 1} other agents, have {data.n - 1}"
        )
    betas = hyperplanes_through_others(data, agent)
    if betas.shape[0] == 0:
        raise ContractViolation(
            "all (d+1)-subsets of the other agents are affinely dependent"
        )
    x_aug = np.append(data.xs[agent], 1.0)
    anchors = betas @ x_aug
    bound = spec.bind(data)

    def probe(report: float) -> float:
        ys2 = data.ys.copy()
        ys2[agent] = report
        return float(bound.coefficients(ys2) @ x_aug)

    low_probe = float(anchors.min()) - 1.0
    high_probe = float(anchors.max()) + 1.0
    v_low = probe(low_probe)
    v_high = probe(high_probe)
    lower = -math.inf if abs(v_low - low_probe) <= 1e-9 * (1.0 + abs(low_probe)) else v_low
    upper = math.inf if abs(v_high - high_probe) <= 1e-9 * (1.0 + abs(high_probe)) else v_high
    return InfluenceBounds(lower, upper)


# --------------------------------------------------------------------------
# efficiency


def efficiency_ratio(spec: MechanismSpec, data: DataSet) -> float:
    """Squared-loss ratio of the mechanism against the least-squares optimum."""
    return efficiency_terms(spec, data)[2]


def efficiency_terms(spec: MechanismSpec, data: DataSet) -> tuple[float, float, float]:
    """Mechanism RSS, least-squares RSS, and their ratio: +inf when least
    squares is exact but the mechanism is not, 1 when both are exact.  An
    RSS counts as exact below (1e-12 max |y|)^2 n, in the units of y."""
    mech_rss = rss(data, fit_mechanism(spec, data))
    ols_rss = rss(data, fit_ols(data))
    zero = (1e-12 * float(np.max(np.abs(data.ys)))) ** 2 * data.n
    if ols_rss <= zero:
        return mech_rss, ols_rss, 1.0 if mech_rss <= zero else math.inf
    return mech_rss, ols_rss, mech_rss / ols_rss


def constrained_least_squares(data: DataSet, position, value: float) -> Hyperplane:
    """Least squares among hyperplanes pinned to pass through (position, value)."""
    a = data.xbar()
    g = np.append(np.asarray(position, dtype=float).ravel(), 1.0)
    if g.shape[0] != data.d + 1:
        raise ContractViolation("position dimension mismatch")
    k = data.d + 1
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * a.T @ a
    kkt[:k, k] = g
    kkt[k, :k] = g
    rhs = np.append(2.0 * a.T @ data.ys, float(value))
    sol = np.linalg.solve(kkt, rhs)
    return Hyperplane(sol[:data.d], float(sol[data.d]))


@dataclass(frozen=True)
class LowerBoundDiagnostics:
    """Numbers behind the two-fold efficiency floor for interpolating SP fits."""

    n: int
    x_extra: float
    t_value: float          # must equal 1 at the constructed x_extra
    probe: float            # the report/height h the checks are run at
    ols_rss: float          # unconstrained least-squares risk, = probe^2 / 2
    constrained_rss: float  # best risk through (x_extra, probe), = probe^2
    ratio: float            # constrained / unconstrained, = 2


def lowerbound_instance(n: int, probe: float = 1.0) -> tuple[DataSet, LowerBoundDiagnostics]:
    """The hard instance: agents at x = 1..n with value 0 plus one at x = X.

    X is the larger root of 6X^2 - 6(n+1)X + (1+3n+2n^2) - (n^3-n)/2 = 0,
    placed so that forcing the fit through (X, h) exactly doubles the
    achievable squared loss relative to the unconstrained optimum h^2/2.
    """
    if n < 3:
        raise ContractViolation("the construction needs n >= 3")
    b = -6.0 * (n + 1)
    c0 = (1.0 + 3.0 * n + 2.0 * n ** 2) - (n ** 3 - n) / 2.0
    disc = b * b - 24.0 * c0
    x_extra = (-b + math.sqrt(disc)) / 12.0
    t_value = (n ** 3 - n) / (
        2.0 * (1.0 + 3.0 * n + 2.0 * n ** 2
               + 6.0 * x_extra ** 2 - 6.0 * x_extra * n - 6.0 * x_extra)
    )
    xs = np.array([[float(i)] for i in range(1, n + 1)] + [[x_extra]])
    ys = np.concatenate([np.zeros(n), [float(probe)]])
    data = DataSet(xs, ys)
    ols_rss = rss(data, fit_ols(data))
    constrained = constrained_least_squares(data, [x_extra], probe)
    constrained_rss = rss(data, constrained)
    diag = LowerBoundDiagnostics(
        n=n, x_extra=float(x_extra), t_value=float(t_value), probe=float(probe),
        ols_rss=float(ols_rss), constrained_rss=float(constrained_rss),
        ratio=float(constrained_rss / ols_rss) if ols_rss > 0 else math.inf,
    )
    return data, diag


# --------------------------------------------------------------------------
# built-in counterexample instances


@dataclass(frozen=True)
class BuiltinInstance:
    """A named data set, its mechanism, and the documented deviation."""

    name: str
    data: DataSet
    mechanism: MechanismSpec
    deviator: int
    misreport: float
    reference_lines: dict[str, tuple[float, float]]
    notes: str = ""


_CRM_DISJOINT_POINTS = [
    (0.0, 1.0), (1.0, 0.0), (2.0, 2.0), (3.0, 1.0), (4.0, 3.0), (5.0, 1.9),
]

_CRM_SUBSET_POINTS = [
    (3.0, 12.0), (4.0, 8.0), (4.3, 12.0), (7.0, 6.5), (8.0, 7.5),
    (9.0, 9.5), (11.0, 9.0), (12.0, 11.0), (13.0, 4.5), (14.0, 11.0),
]

_QUANTILE04_POINTS = [
    (-79.3, -45.8), (-77.3, 89.5), (-74.8, -87.4), (-58.5, 14.3),
    (-33.2, -28.4), (-31.5, 5.2), (-8.0, -73.1), (-1.7, -52.8),
    (10.0, 88.6), (13.0, 13.3), (13.9, 7.4), (15.4, 39.4),
    (18.5, -2.0), (23.0, 6.6), (23.8, -33.0), (24.2, -60.3),
    (26.0, 49.5), (39.5, 49.5), (45.3, 88.9), (71.2, 33.2),
]


def _points_to_data(points) -> DataSet:
    xs = np.array([[p[0]] for p in points])
    ys = np.array([p[1] for p in points])
    return DataSet(xs, ys)


#: the names ``builtin_instance`` knows
BUILTIN_NAMES = ("crm-disjoint", "crm-subset", "quantile04")


def builtin_instance(name: str) -> BuiltinInstance:
    """The named instance, one of ``BUILTIN_NAMES``."""
    if name == "crm-disjoint":
        return BuiltinInstance(
            name=name,
            data=_points_to_data(_CRM_DISJOINT_POINTS),
            mechanism=MechanismSpec(MechanismKind.CRM,
                                    CrmConfig(s=(1, 3, 5), sprime=(0, 2, 4))),
            deviator=4,
            misreport=1.8,
            reference_lines={
                "truthful": (0.0, 1.0),
                "deviated": (0.1, 1.4),
            },
            notes="Disjoint base/target sets; the agent at x=4 understates "
                  "to pull the line toward itself.",
        )
    if name == "crm-subset":
        return BuiltinInstance(
            name=name,
            data=_points_to_data(_CRM_SUBSET_POINTS),
            mechanism=MechanismSpec(
                MechanismKind.CRM,
                CrmConfig(s=(0, 5, 6, 8, 9), sprime=tuple(range(10))),
            ),
            deviator=7,
            misreport=0.0,
            reference_lines={
                "figure_truthful": (0.5, 3.5),
                "text_truthful": (2.0 / 3.0, 8.0 / 3.0),
                "figure_deviated": (7.0 / 12.0, 17.0 / 6.0),
            },
            notes="S is a subset of S'; the published text and figure "
                  "disagree on the truthful line, so both are recorded.",
        )
    if name == "quantile04":
        return BuiltinInstance(
            name=name,
            data=_points_to_data(_QUANTILE04_POINTS),
            mechanism=MechanismSpec(MechanismKind.QUANTILE, QuantileConfig(0.4)),
            deviator=10,
            misreport=2000.0,
            reference_lines={
                "figure_truthful": (0.5518, -6.0929),
                "figure_deviated": (0.5249, -4.1742),
            },
            notes="Quantile risk with q != 1/2.  The overstatement keeps the "
                  "deviator above the exact q=0.4 fit, which therefore does "
                  "not move; the deviated reference line is the "
                  "truthful-data optimum for q in (0.408, 0.490).",
        )
    raise ContractViolation(f"unknown builtin instance {name!r}")


def brown_mood_spec(data: DataSet) -> MechanismSpec:
    """Resistant line over the x-halves with median ranks."""
    return MechanismSpec(MechanismKind.GRH, preset_partition(data, "brown-mood"))


def tukey_spec(data: DataSet) -> MechanismSpec:
    """Resistant line over the outer x-thirds with median ranks."""
    return MechanismSpec(MechanismKind.GRH, preset_partition(data, "tukey"))
