"""The three workloads: inputs made from a seed, one round of operations, checks.

A workload builds its inputs once from the seed; the timed phase repeats
the same round of operations, so every round does identical work.  Checks
judge the outputs against properties of the method or computations made
here (scipy HiGHS, a numpy sort, the CSV read back), never against a saved
copy of an earlier output.  Positive controls run outside the timed phase
and fail when an audit searches too little to find a known manipulation.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
from pathlib import Path

import numpy as np

from truthfit import cli
from truthfit.audit import (
    MechanismKind,
    MechanismSpec,
    audit_gsp,
    audit_sp,
    builtin_instance,
    fit_mechanism,
    verify_certificate,
)
from truthfit.erm import L1Config
from truthfit.random_instances import random_data, random_separable_instance

#: criterion 06b's audit settings
L1_AUDIT = dict(max_coalition=3, candidates_per_agent=41, max_evals=300, margin=1e-6)
#: criterion 05's audit settings (max_coalition is min(3, n))
GRH_AUDIT = dict(candidates_per_agent=41, max_evals=600)

#: instances per (d, n) cell in one l1-audit round; instance costs vary by
#: ±30 % within a cell, so a round needs many of them to be steady across seeds
L1_PER_CELL = 6
#: instances per set-size vector in one grh-audit round
GRH_PER_SHAPE = 2
#: Brown-Mood sample size: both x-halves hold 161 points, an odd count, so
#: the median residual of each half is a single order statistic
BROWN_MOOD_N = 322
#: distinct CSV files in one brown-mood-cli round
BROWN_MOOD_FILES = 4


def _tolerance(ys) -> float:
    return 1e-9 * (1.0 + float(np.max(np.abs(ys))))


# --------------------------------------------------------------------------
# checks made apart from the program


def l1_optimum(xs, ys) -> float:
    """Least-absolute-deviations optimum found by scipy HiGHS."""
    from scipy.optimize import linprog

    n, p = len(ys), xs.shape[1] + 1
    xbar = np.hstack([xs, np.ones((n, 1))])
    cost = np.concatenate([np.zeros(p), np.ones(2 * n)])
    a_eq = np.hstack([xbar, np.eye(n), -np.eye(n)])
    res = linprog(cost, A_eq=a_eq, b_eq=ys, bounds=[(None, None)] * p + [(0, None)] * 2 * n,
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    return float(res.fun)


def l1_fit_is_optimal(xs, ys, coeffs) -> bool:
    """The line's L1 risk is within 1e-9 (relative) of the HiGHS optimum."""
    risk = float(np.abs(ys - xs @ coeffs[:-1] - coeffs[-1]).sum())
    best = l1_optimum(xs, ys)
    return abs(risk - best) <= 1e-9 * (1.0 + abs(best))


def certificate_replays(spec, data, cert, margin) -> bool:
    """A positive control passes when the audit found a replayable certificate."""
    return cert is not None and verify_certificate(spec, data, cert, margin)


def meets_rank_conditions(xs, ys, sets, ranks, coeffs) -> bool:
    """The k-th smallest residual of every set is zero, by a numpy sort."""
    resid = ys - xs @ coeffs[:-1] - coeffs[-1]
    tol = _tolerance(ys)
    return all(abs(np.sort(resid[list(s)])[k - 1]) <= tol for s, k in zip(sets, ranks))


def brown_mood_medians_vanish(x, y, beta1, beta0) -> bool:
    """The median residual of each x-half is zero within 1e-9 (1 + max|y|)."""
    order = np.argsort(x, kind="stable")
    resid = y - (beta1 * x + beta0)
    halves = (order[:len(x) // 2], order[len(x) // 2:])
    return all(abs(float(np.median(resid[h]))) <= _tolerance(y) for h in halves)


# --------------------------------------------------------------------------
# workloads


class L1Audit:
    """``audit_gsp`` of the L1 fit with the smallest-norm tie-break."""

    name = "l1-audit"
    op_name = "audit"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.spec = MechanismSpec(MechanismKind.L1ERM, L1Config())
        self.cases = [(random_data(rng, n, d), int(rng.integers(2 ** 31)))
                      for _ in range(L1_PER_CELL) for d in (1, 2) for n in range(3, 7)]

    def warm_up(self):
        for data, _ in self.cases:
            fit_mechanism(self.spec, data)

    def operations(self):
        return [functools.partial(audit_gsp, self.spec, data, seed=seed, **L1_AUDIT)
                for data, seed in self.cases]

    def check(self, outputs) -> list[str]:
        problems = [f"case {i}: coalition {cert.coalition} profits via {cert.misreports}"
                    for i, cert in outputs if cert is not None]
        for i, (data, _) in enumerate(self.cases):
            coeffs = fit_mechanism(self.spec, data).coefficients()
            if not l1_fit_is_optimal(data.xs, data.ys, coeffs):
                problems.append(f"case {i}: L1 risk above the HiGHS optimum")
        return problems

    def controls(self) -> list[str]:
        """OLS is manipulable wherever it does not interpolate (n >= d + 2)."""
        ols = MechanismSpec(MechanismKind.OLS)
        return [f"case {i}: the OLS audit found no replayable certificate"
                for i, (data, seed) in enumerate(self.cases)
                if data.n >= data.d + 2 and not certificate_replays(
                    ols, data, audit_gsp(ols, data, seed=seed, **L1_AUDIT), L1_AUDIT["margin"])]


class GrhAudit:
    """``audit_gsp`` of the generalized resistant hyperplane."""

    name = "grh-audit"
    op_name = "audit"
    #: every set-size vector with sizes 1..4 and n <= 6, for d = 1 and d = 2
    SHAPES = [s for d in (1, 2) for s in itertools.product(range(1, 5), repeat=d + 1)
              if sum(s) <= 6]

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.cases = []
        for sizes in self.SHAPES * GRH_PER_SHAPE:
            data, part = random_separable_instance(rng, len(sizes) - 1, sizes=sizes)
            self.cases.append((data, MechanismSpec(MechanismKind.GRH, part),
                               int(rng.integers(2 ** 31))))

    def warm_up(self):
        for data, spec, _ in self.cases:
            fit_mechanism(spec, data)

    def operations(self):
        return [functools.partial(audit_gsp, spec, data, max_coalition=min(3, data.n),
                                  seed=seed, **GRH_AUDIT)
                for data, spec, seed in self.cases]

    def check(self, outputs) -> list[str]:
        problems = [f"case {i}: coalition {cert.coalition} profits via {cert.misreports}"
                    for i, cert in outputs if cert is not None]
        for i, (data, spec, _) in enumerate(self.cases):
            coeffs = fit_mechanism(spec, data).coefficients()
            if not meets_rank_conditions(data.xs, data.ys, spec.params.sets,
                                         spec.params.ranks, coeffs):
                problems.append(f"case {i}: the fit misses a rank condition")
        return problems

    def controls(self) -> list[str]:
        """The clockwise-median instance of figure 1a is manipulable."""
        inst = builtin_instance("crm-disjoint")
        cert = audit_sp(inst.mechanism, inst.data, inst.deviator)
        if certificate_replays(inst.mechanism, inst.data, cert, 1e-9):
            return []
        return ["audit_sp found no replayable certificate on crm-disjoint"]


class BrownMoodCli:
    """``truthfit fit --mechanism brown-mood`` on d = 1 CSV files, in process."""

    name = "brown-mood-cli"
    op_name = "cli"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.files = []
        for k in range(BROWN_MOOD_FILES):
            x = rng.uniform(0.0, 100.0, BROWN_MOOD_N)
            while np.unique(x).size < x.size:
                x = rng.uniform(0.0, 100.0, BROWN_MOOD_N)
            y = rng.uniform(-50.0, 50.0) + rng.normal(0.0, 2.0) * x \
                + 5.0 * rng.standard_t(3, BROWN_MOOD_N)
            path = workdir / f"brown-mood-seed{seed}-{k}.csv"
            with open(path, "w") as fh:
                fh.write("x1,y\n")
                fh.writelines(f"{a:.17g},{b:.17g}\n" for a, b in zip(x, y))
            self.files.append(path)

    @staticmethod
    def fit(path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["fit", "--data", str(path), "--mechanism", "brown-mood"])
        return code, out.getvalue()

    def warm_up(self):
        self.fit(self.files[0])

    def operations(self):
        return [functools.partial(self.fit, path) for path in self.files]

    def check(self, outputs) -> list[str]:
        tables = [np.loadtxt(path, delimiter=",", skiprows=1) for path in self.files]
        problems = []
        for i, (code, text) in outputs:
            if code != 0:
                problems.append(f"file {i}: exit code {code}")
                continue
            fit = json.loads(text)
            x, y = tables[i][:, 0], tables[i][:, 1]
            if not brown_mood_medians_vanish(x, y, fit["beta1"][0], fit["beta0"]):
                problems.append(f"file {i}: a half's median residual is not zero")
        return problems

    def controls(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (L1Audit, GrhAudit, BrownMoodCli)}
