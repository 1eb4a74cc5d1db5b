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

from truthfit import L1Config, MechanismKind, MechanismSpec, audit_sp, fit_mechanism
from truthfit.random_instances import random_data, random_separable_instance

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    """Execute the tracer's source without writing anything next to it."""
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_counts_every_layer_of_an_l1_audit_and_a_grh_fit():
    tracing = load_tracing()
    rng = np.random.default_rng(11)
    l1_data = random_data(rng, 5, 1)
    grh_data, part = random_separable_instance(rng, 2, sizes=(2, 2, 3))
    tracer = tracing.Tracer()
    with tracer:
        audit_sp(MechanismSpec(MechanismKind.L1ERM, L1Config()), l1_data, 0)
        fit_mechanism(MechanismSpec(MechanismKind.GRH, part), grh_data)
    assert tracer.missing == set()
    metrics = tracer.metrics(rounds=1)
    for name in ("audit.probes", "erm.fits", "grh.solves", "separability.checks"):
        assert metrics[name]["value"] > 0, name
