"""Per-layer spans and counts, recorded from outside the library.

A :class:`Tracer` rebinds the names through which one truthfit module calls
another (``truthfit.audit._PiecewiseLinearFit``, ``truthfit.erm.solve_lp``,
``truthfit.cli.read_dataset`` and so on) to wrappers that record a span
around each call, and puts the originals back on exit.  Nothing under
``src/`` is touched.  When a later version of the library no longer has one
of these names, the layers that need it are reported as missing instead of
failing the run; the untraced run never installs a wrapper at all.

A span is ``[span_id, parent_id, op_id, name, start_s, end_s, child_s,
value, error]``: ``child_s`` is the time covered by its direct children,
``value`` a size computed from the call's arguments (LP cells, GRH
candidates) and ``error`` the exception class the call raised, if any.
"""

from __future__ import annotations

import importlib
import itertools
import math
import statistics
import time
from collections import defaultdict

import numpy as np

from truthfit.errors import InternalInconsistency

# layer -> the names its wrappers rebind, as "module:attribute.path"
LAYER_NAMES = {
    "audit": ["truthfit.audit:MechanismSpec.bind",
              "truthfit.audit:BoundMechanism.coefficients",
              "truthfit.audit:default_candidates"],
    "erm": ["truthfit.audit:_PiecewiseLinearFit", "truthfit.erm:solve_lp"],
    "simplex": ["truthfit.erm:solve_lp", "truthfit.separability:solve_lp"],
    "grh": ["truthfit.audit:_GrhSolver"],
    "separability": ["truthfit.audit:is_publicly_separable",
                     "truthfit.separability:solve_lp"],
    "cli": ["truthfit.cli:read_dataset", "truthfit.cli:resolve_mechanism",
            "truthfit.cli:fit_mechanism"],
}

# metric -> unit; totals are per round of the workload's inputs, so they
# repeat exactly between traced runs of one seed however many rounds fit
PER_LAYER_UNITS = {
    "audit.probes": "count/round",
    "audit.probes_skipped": "count/round",
    "audit.probe_us_p50": "us",
    "audit.candidates_ms": "ms/round",
    "audit.bind_ms": "ms/round",
    "audit.self_ms": "ms/round",
    "erm.fits": "count/round",
    "erm.fit_us_p50": "us",
    "erm.lp_per_fit": "LP/fit",
    "erm.min_norm_fits": "count/round",
    "erm.self_ms": "ms/round",
    "simplex.lp_calls": "count/round",
    "simplex.lp_us_p50": "us",
    "simplex.lp_ms": "ms/round",
    "simplex.lp_cells": "cells/round",
    "grh.inits": "count/round",
    "grh.init_ms": "ms/round",
    "grh.solves": "count/round",
    "grh.solve_us_p50": "us",
    "grh.candidates": "count/round",
    "grh.resid_mb_max": "MB",
    "separability.checks": "count/round",
    "separability.lp_calls": "count/round",
    "separability.ms": "ms/round",
    "cli.read_ms": "ms/round",
    "cli.resolve_ms": "ms/round",
    "cli.fit_ms": "ms/round",
    "cli.self_ms": "ms/round",
}


def _resolve(target):
    """(owner, attribute) for "module:a.b", or None when a step is missing."""
    module, _, path = target.partition(":")
    *parents, attr = path.split(".")
    try:
        owner = importlib.import_module(module)
        for name in parents:
            owner = getattr(owner, name)
    except (ImportError, AttributeError):
        return None
    return (owner, attr) if hasattr(owner, attr) else None


def _lp_cells(c, a_ub=None, b_ub=None, a_eq=None, *_, **__):
    """Rows times columns of an LP as passed to ``solve_lp``."""
    rows = sum(0 if a is None else (1 if np.ndim(a) == 1 else len(a)) for a in (a_ub, a_eq))
    return rows * len(c)


class Tracer:
    """Records spans while installed; ``with tracer:`` installs the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: set[str] = set()
        self.op_id = -1  # index of the running operation, counted across rounds
        self._ids = itertools.count()
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, value=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else None
        span = [next(self._ids), None if parent is None else parent[0],
                self.op_id, name, 0.0, 0.0, 0.0, value, None]
        self._stack.append(span)
        span[4] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span[8] = type(exc)
            raise
        finally:
            span[5] = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent[6] += span[5] - span[4]
            self.spans.append(span)

    def op(self, name, fn):
        """One timed operation; its spans share an id that counts operations."""
        self.op_id += 1
        return self.call(name, fn)

    # -- installing --------------------------------------------------------

    def __enter__(self):
        call = self.call

        def span(name, with_cells=False):
            def make(orig):
                def wrapper(*args, **kwargs):
                    value = _lp_cells(*args, **kwargs) if with_cells else None
                    return call(name, orig, *args, value=value, **kwargs)
                return wrapper
            return make

        wrappers = {
            "truthfit.audit:MechanismSpec.bind": span("audit.bind"),
            "truthfit.audit:BoundMechanism.coefficients": span("audit.probe"),
            "truthfit.audit:default_candidates": span("audit.candidates"),
            "truthfit.audit:_PiecewiseLinearFit": self._traced_fit_class,
            "truthfit.erm:solve_lp": span("erm.lp", with_cells=True),
            "truthfit.separability:solve_lp": span("separability.lp", with_cells=True),
            "truthfit.audit:_GrhSolver": self._traced_grh_class,
            "truthfit.audit:is_publicly_separable": span("separability.check"),
            "truthfit.cli:read_dataset": span("cli.read"),
            "truthfit.cli:resolve_mechanism": span("cli.resolve"),
            "truthfit.cli:fit_mechanism": span("cli.fit"),
        }
        found = {target: _resolve(target) for target in wrappers}
        for layer, targets in LAYER_NAMES.items():
            if any(found[t] is None for t in targets):
                self.missing.add(layer)
        for target, make in wrappers.items():
            if found[target] is not None:
                owner, attr = found[target]
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _traced_fit_class(self, base):
        call = self.call

        class Traced(base):
            def fit(self):
                return call("erm.fit", base.fit, self)

        Traced.__name__ = Traced.__qualname__ = base.__name__
        return Traced

    def _traced_grh_class(self, base):
        call = self.call

        class Traced(base):
            def __init__(self, xs, part):
                # computed from the arguments: transversals, and the
                # candidates x n float64 residual matrix they imply
                self._bench_candidates = math.prod(len(s) for s in part.sets)
                self._bench_resid_bytes = self._bench_candidates * len(xs) * 8
                call("grh.init", base.__init__, self, xs, part)

            def solve(self, ys):
                return call("grh.solve", base.solve, self, ys,
                            value=(self._bench_candidates, self._bench_resid_bytes))

        Traced.__name__ = Traced.__qualname__ = base.__name__
        return Traced

    # -- summarising -------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics over ``rounds`` identical rounds of operations."""
        by_name = defaultdict(list)
        for span in self.spans:
            by_name[span[3]].append(span)
        names = {span[0]: span[3] for span in self.spans}

        def count(name):
            return len(by_name[name]) / rounds

        def total_ms(name):
            return 1e3 * sum(s[5] - s[4] for s in by_name[name]) / rounds

        def self_ms(name):
            return 1e3 * sum(s[5] - s[4] - s[6] for s in by_name[name]) / rounds

        def p50_us(spans):
            durations = [s[5] - s[4] for s in spans]
            return 1e6 * statistics.median(durations) if durations else 0.0

        fits = by_name["erm.fit"]
        lps_per_fit = defaultdict(int)
        for lp in by_name["erm.lp"]:
            if names.get(lp[1]) == "erm.fit":
                lps_per_fit[lp[1]] += 1
        lps = by_name["erm.lp"] + by_name["separability.lp"]
        solves = by_name["grh.solve"]
        out = {
            "audit.probes": count("audit.probe"),
            "audit.probes_skipped": sum(
                1 for s in by_name["audit.probe"]
                if s[8] is not None and issubclass(s[8], InternalInconsistency)) / rounds,
            "audit.probe_us_p50": p50_us(by_name["audit.probe"]),
            "audit.candidates_ms": total_ms("audit.candidates"),
            "audit.bind_ms": total_ms("audit.bind"),
            "audit.self_ms": self_ms("audit"),
            "erm.fits": count("erm.fit"),
            "erm.fit_us_p50": p50_us(fits),
            "erm.lp_per_fit": sum(lps_per_fit.values()) / len(fits) if fits else 0.0,
            "erm.min_norm_fits": sum(1 for k in lps_per_fit.values() if k > 1) / rounds,
            "erm.self_ms": self_ms("erm.fit"),
            "simplex.lp_calls": len(lps) / rounds,
            "simplex.lp_us_p50": p50_us(lps),
            "simplex.lp_ms": 1e3 * sum(s[5] - s[4] for s in lps) / rounds,
            "simplex.lp_cells": sum(s[7] for s in lps) / rounds,
            "grh.inits": count("grh.init"),
            "grh.init_ms": total_ms("grh.init"),
            "grh.solves": count("grh.solve"),
            "grh.solve_us_p50": p50_us(solves),
            "grh.candidates": sum(s[7][0] for s in solves) / rounds,
            "grh.resid_mb_max": max((s[7][1] / 1e6 for s in solves), default=0.0),
            "separability.checks": count("separability.check"),
            "separability.lp_calls": count("separability.lp"),
            "separability.ms": total_ms("separability.check"),
            "cli.read_ms": total_ms("cli.read"),
            "cli.resolve_ms": total_ms("cli.resolve"),
            "cli.fit_ms": total_ms("cli.fit"),
            "cli.self_ms": self_ms("cli"),
        }
        return {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                for name, value in out.items() if name.split(".")[0] not in self.missing}

    def span_rows(self, ops: int) -> list[list]:
        """Spans of the first ``ops`` operations in start order, with times in
        microseconds from the first."""
        spans = sorted((s for s in self.spans if s[2] < ops), key=lambda s: s[4])
        if not spans:
            return []
        t0 = spans[0][4]
        return [[s[0], s[1], s[2], s[3], round(1e6 * (s[4] - t0), 1),
                 round(1e6 * (s[5] - s[4]), 1),
                 None if s[8] is None else s[8].__name__] for s in spans]
