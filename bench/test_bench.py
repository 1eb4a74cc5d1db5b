"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

Every workload runs to its end in short mode (one round), on a seed other
than the default; every correctness check rejects a wrong answer; traced
counts repeat exactly; a removed library name makes its layer missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from truthfit import DataSet, MechanismKind, MechanismSpec, audit_gsp  # noqa: E402
from truthfit.audit import brown_mood_spec, fit_mechanism  # noqa: E402
from truthfit.erm import L1Config  # noqa: E402
from truthfit.random_instances import random_data, random_separable_instance  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ["audit.probes", "erm.fits", "simplex.lp_calls", "grh.solves",
                "grh.candidates", "separability.lp_calls"]


def bench(workload, seed=3, trace=0, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_each_workload_runs_to_its_end_in_short_mode(workload):
    code, lines = bench(workload)
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.WORKLOADS[workload](3, BENCH / "_out" / "work")
                                      .operations())
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["grh-audit", "brown-mood-cli"])
def test_traced_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        code, lines = bench(workload, trace=1)
        assert code == 0, lines
        runs.append(json.loads(lines[-1])["metrics"])
    assert {name: m["unit"] for name, m in runs[0].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert [runs[0][k]["value"] for k in EXACT_COUNTS] == \
        [runs[1][k]["value"] for k in EXACT_COUNTS]


def test_run_fails_without_the_library_sources():
    bare = BENCH / "_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = bench("l1-audit", cwd=bare)
    shutil.rmtree(bare)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_brown_mood_check_rejects_a_shifted_line():
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 100.0, 42)
    y = 3.0 - 0.7 * x + rng.standard_t(3, 42)
    data = DataSet(x[:, None], y)
    fit = fit_mechanism(brown_mood_spec(data), data)
    assert workloads.brown_mood_medians_vanish(x, y, fit.beta1[0], fit.beta0)
    shift = 1e-6 * (1.0 + np.max(np.abs(y)))
    assert not workloads.brown_mood_medians_vanish(x, y, fit.beta1[0], fit.beta0 + shift)


def test_rank_check_rejects_a_shifted_hyperplane():
    data, part = random_separable_instance(np.random.default_rng(5), 2, sizes=(2, 2, 2))
    coeffs = fit_mechanism(MechanismSpec(MechanismKind.GRH, part), data).coefficients()
    assert workloads.meets_rank_conditions(data.xs, data.ys, part.sets, part.ranks, coeffs)
    coeffs[-1] += 1e-6 * (1.0 + np.max(np.abs(data.ys)))
    assert not workloads.meets_rank_conditions(data.xs, data.ys, part.sets, part.ranks, coeffs)


def test_l1_check_rejects_a_line_above_the_optimum():
    data = random_data(np.random.default_rng(6), 5, 1)
    coeffs = fit_mechanism(MechanismSpec(MechanismKind.L1ERM, L1Config()), data).coefficients()
    assert workloads.l1_fit_is_optimal(data.xs, data.ys, coeffs)
    worse = coeffs + np.array([0.0, 1e-6 * (1.0 + np.max(np.abs(data.ys)))])
    best = workloads.l1_optimum(data.xs, data.ys)
    risk = np.abs(data.ys - data.xs @ worse[:-1] - worse[-1]).sum()
    assert risk > best + 1e-9 * (1.0 + best)
    assert not workloads.l1_fit_is_optimal(data.xs, data.ys, worse)


def test_ols_control_rejects_an_audit_that_finds_nothing():
    data = random_data(np.random.default_rng(7), 5, 1)
    ols = MechanismSpec(MechanismKind.OLS)
    margin = workloads.L1_AUDIT["margin"]
    cert = audit_gsp(ols, data, seed=0, **workloads.L1_AUDIT)
    assert workloads.certificate_replays(ols, data, cert, margin)
    assert not workloads.certificate_replays(ols, data, None, margin)


def test_a_removed_library_name_makes_its_layer_missing(monkeypatch):
    import truthfit.cli

    monkeypatch.delattr(truthfit.cli, "read_dataset")
    tracer = tracing.Tracer()
    with tracer:
        tracer.op("cli", lambda: None)
    assert tracer.missing == {"cli"}
    names = set(tracer.metrics(1))
    assert not any(name.startswith("cli.") for name in names)
    assert "audit.probes" in names
