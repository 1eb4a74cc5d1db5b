"""The benchmark's per-layer tracer still reaches every layer of the library.

``bench/tracing.py`` records spans by rebinding module attributes of
truthfit from outside.  A refactor that stops calling through those names
(say, by storing a solver class in a table) leaves the benchmark running
with its per-layer counts silently at zero; this guard catches that in the
tier-1 suite, in well under a second.
"""

import types
from pathlib import Path

import numpy as np

from truthfit import erm, separability
from truthfit.audit import BoundMechanism
from truthfit import (
    L1Config,
    MechanismKind,
    MechanismSpec,
    audit_gsp,
    audit_sp,
    brown_mood_spec,
    builtin_instance,
    default_candidates,
    fit_mechanism,
    verify_certificate,
)
from truthfit.random_instances import random_data, random_separable_instance

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    """Execute the tracer's source without writing anything next to it."""
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_counts_every_layer_of_an_l1_audit_and_a_grh_fit(monkeypatch):
    tracing = load_tracing()
    rng = np.random.default_rng(11)
    l1_data = random_data(rng, 5, 1)
    grh_data, part = random_separable_instance(rng, 2, sizes=(2, 2, 3))
    lps = {erm: [], separability: []}
    for module, calls in lps.items():
        def counted(*args, _solve=module.solve_lp, _calls=calls, **kwargs):
            _calls.append(1)
            return _solve(*args, **kwargs)

        monkeypatch.setattr(module, "solve_lp", counted)
    blocks = []
    coefficients_many = BoundMechanism.coefficients_many

    def counted_rows(self, ys):
        blocks.append(np.array(ys))
        return coefficients_many(self, ys)

    monkeypatch.setattr(BoundMechanism, "coefficients_many", counted_rows)
    tracer = tracing.Tracer()
    with tracer:
        audit_sp(MechanismSpec(MechanismKind.L1ERM, L1Config()), l1_data, 0)
        fit_mechanism(MechanismSpec(MechanismKind.GRH, part), grh_data)
    assert tracer.missing == set()
    metrics = tracer.metrics(rounds=1)
    for name in ("audit.probes", "erm.fits", "grh.solves", "separability.checks"):
        assert metrics[name]["value"] > 0, name
    # the L1 fit is strategyproof, so the audit probes every candidate: the
    # truthful fit plus one block row per candidate that differs from the
    # truth.  The block goes through coefficients_many, which the tracer does
    # not wrap: it sees the truthful L1 fit and the GRH fit as probes, and
    # the truthful L1 fit as the one fit
    y_true = l1_data.ys[0]
    moved = [c for c in default_candidates(l1_data, 0) if c != y_true]
    rows = np.concatenate(blocks)
    assert (rows[:, 1:] == l1_data.ys[1:]).all()
    assert sorted(rows[:, 0]) == sorted(moved)
    assert metrics["audit.probes"]["value"] == 2
    assert metrics["erm.fits"]["value"] == 1
    # every LP of the block's misses is still traced, and only those
    assert len(lps[erm]) > 0
    assert metrics["simplex.lp_calls"]["value"] == len(lps[erm]) + len(lps[separability])
    assert metrics["separability.lp_calls"]["value"] == len(lps[separability])


def test_tracer_counts_the_probes_of_a_coalition_audit_and_a_replay(monkeypatch):
    tracing = load_tracing()
    inst = builtin_instance("crm-disjoint")
    cert = audit_sp(inst.mechanism, inst.data, inst.deviator)
    blocks = []
    coefficients_many = BoundMechanism.coefficients_many

    def counted_rows(self, ys):
        blocks.append(np.array(ys))
        return coefficients_many(self, ys)

    monkeypatch.setattr(BoundMechanism, "coefficients_many", counted_rows)

    def reported(found):
        ys = inst.data.ys.copy()
        ys[list(found.coalition)] = [found.misreports[m] for m in found.coalition]
        return ys

    for run in (lambda: audit_gsp(inst.mechanism, inst.data, max_coalition=2, max_evals=50),
                lambda: verify_certificate(inst.mechanism, inst.data, cert) and cert):
        blocks.clear()
        tracer = tracing.Tracer()
        with tracer:
            found = run()
        # the tracer sees the truthful fit of each run as its one probe; the
        # misreports, the paying one among them, reach the block solve, which
        # it does not wrap
        assert tracer.metrics(rounds=1)["audit.probes"]["value"] == 1
        rows = np.concatenate(blocks)
        assert (rows == reported(found)).all(axis=1).any()
        assert not (rows == inst.data.ys).all(axis=1).any()
    assert len(rows) == 1  # the replay solves the certificate's row alone


def test_tracer_sees_the_one_bind_and_solve_of_a_brown_mood_fit():
    # the brown-mood-cli path: a d = 1 bind hands out the solver's bound
    # methods, which must be those of the tracer's subclass
    tracing = load_tracing()
    data = random_data(np.random.default_rng(5), 9, 1)
    tracer = tracing.Tracer()
    with tracer:
        fit_mechanism(brown_mood_spec(data), data)
    metrics = tracer.metrics(rounds=1)
    assert metrics["grh.inits"]["value"] == 1
    assert metrics["grh.solves"]["value"] == 1
    assert metrics["grh.candidates"]["value"] == 4 * 5
