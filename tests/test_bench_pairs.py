"""``scripts/bench_pairs.py``: the summary of paired runs, and the refusal to
summarise a comparison with a broken run."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
METRICS = [{"name": "ops_per_cpu_s", "better": "higher", "bound": 0.25},
           {"name": "op_cpu_ms_p50", "better": "lower", "bound": 0.25}]


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(ops, ms=10.0, correct=True, failed=0):
    return {"seconds": 30.0, "correct": correct, "attempted": 100, "failed": failed,
            "setup_s": 0.3, "ops_per_cpu_s": ops, "op_cpu_ms_p50": ms, "peak_rss_mb": 40.0}


def pairs(base, tree):
    """Paired runs; each run's time per operation falls as its throughput rises."""
    return [{"first": "base", "base": run(b, 30.0 - b), "tree": run(t, 30.0 - t)}
            for b, t in zip(base, tree)]


def test_summary_claims_a_gain_only_on_nine_tenths_of_the_pairs_beyond_the_base_iqr():
    script = load_script()
    base = [10.0 + k for k in range(10)]  # quartiles 12.25, 14.5, 16.75
    cases = {
        "every pair, beyond the IQR": ([b + 5.0 for b in base], 10, True),
        "every pair, within the IQR": ([b + 1.0 for b in base], 10, False),
        "eight pairs, beyond the IQR": ([b + 5.0 for b in base[:8]] + [0.0, 0.0], 8, False),
    }
    for name, (tree, wins, gain) in cases.items():
        out = script.summary(pairs(base, tree), METRICS)
        for metric in ("ops_per_cpu_s", "op_cpu_ms_p50"):
            s = out[metric]
            assert (s["wins"], s["pairs"], s["gain"]) == (wins, 10, gain), (name, metric)
        assert out["ops_per_cpu_s"]["base"] == {"q1": 12.25, "median": 14.5, "q3": 16.75}
    out = script.summary(pairs(base, [b + 5.0 for b in base]), METRICS)["ops_per_cpu_s"]
    assert out["tree"]["median"] == 19.5
    assert out["change"] == pytest.approx(19.5 / 14.5 - 1.0)
    assert out["beyond_base_iqr"]


def test_broken_runs_are_named_on_either_side():
    script = load_script()
    runs = pairs([10.0, 11.0, 12.0], [12.0, 13.0, 14.0])
    assert script.broken_runs(runs) == []
    runs[0]["tree"]["correct"] = False
    runs[2]["base"]["failed"] = 3
    assert script.broken_runs(runs) == [
        "pair 1 tree: correct False, 0 of 100 operations failed",
        "pair 3 base: correct True, 3 of 100 operations failed"]


@pytest.mark.parametrize("broken", [False, True])
def test_a_broken_run_is_not_summarised_and_fails_the_comparison(monkeypatch, tmp_path, broken):
    script = load_script()
    calls = []

    def bench(tree, workload, seed):
        side = "tree" if tree == script.ROOT else "base"
        calls.append(side)
        return run(20.0 if side == "tree" else 10.0,
                   failed=int(broken and side == "tree" and len(calls) > 4))

    monkeypatch.setattr(script, "extract", lambda revision, into: "0" * 40)
    monkeypatch.setattr(script, "bench", bench)
    monkeypatch.setattr(script, "counters", lambda tree, workload, seed: {})
    out = tmp_path / "pairs.json"
    status = script.main(["HEAD", "--workload", "grh-audit", "--pairs", "3", "--out", str(out)])
    entry = json.loads(out.read_text())["workloads"]["grh-audit"]["1"]
    assert len(entry["runs"]) == 3 and len(calls) == 6
    if broken:
        assert status == 1
        assert "summary" not in entry
        assert entry["broken"] == ["pair 3 tree: correct True, 1 of 100 operations failed"]
    else:
        assert status == 0
        assert "broken" not in entry
        assert entry["summary"]["ops_per_cpu_s"]["wins"] == 3


def test_work_counters_of_one_traced_round_per_side_follow_the_pairs(monkeypatch, tmp_path):
    script = load_script()
    calls = []

    def run_line(tree, args):
        side = "tree" if tree == script.ROOT else "base"
        calls.append((side, args))
        assert args[args.index("--seconds") + 1] == "0" and args[args.index("--trace") + 1] == "1"
        lps = 233.0 if side == "tree" else 509.0
        # a layer the side does not trace is missing from its metrics
        metrics = {"simplex.lp_calls": lps, "audit.probes": 48.0, "erm.fits": 48.0,
                   "separability.lp_calls": 0.0, "simplex.lp_ms": 60.0}
        return {"correct": True, "metrics": {k: {"value": v, "unit": "count/round"}
                                             for k, v in metrics.items()}}

    def bench(tree, workload, seed):
        assert not calls  # the pairs come first
        return run(10.0)

    monkeypatch.setattr(script, "extract", lambda revision, into: "0" * 40)
    monkeypatch.setattr(script, "bench", bench)
    monkeypatch.setattr(script, "run_line", run_line)
    out = tmp_path / "pairs.json"
    assert script.main(["HEAD", "--workload", "l1-audit", "--pairs", "2", "--out", str(out)]) == 0
    assert [side for side, _ in calls] == ["base", "tree"]
    entry = json.loads(out.read_text())["workloads"]["l1-audit"]["1"]
    assert entry["counters"] == {
        side: {"simplex.lp_calls": lps, "audit.probes": 48.0, "erm.fits": 48.0,
               "separability.lp_calls": 0.0}
        for side, lps in (("base", 509.0), ("tree", 233.0))}
