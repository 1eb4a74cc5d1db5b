#!/usr/bin/env python3
"""Compare the benchmark's end-to-end metrics of a base revision and the
working tree in alternating pairs of runs.

    python3 scripts/bench_pairs.py HEAD --workload grh-audit --seed 1 \\
        --pairs 10 --out BENCH_pairs.json

The base revision is extracted with ``git archive`` into a temporary
directory (no worktree is made).  For each workload and seed, each pair runs
``bench/run.py`` once on each side, at its own default run length, the
side that goes first alternating from pair to pair.  The output file holds the machine, the Python and numpy
versions, the run length, the seeds, every run's end-to-end metrics on both sides, and per
metric the medians and quartiles of each side, the change of the medians,
the number of pairs the working tree won and whether that makes a gain.  It is
rewritten after every pair, so an interrupted comparison keeps the pairs it
finished.

A run whose checks failed (``correct`` false) or that had failed operations
is printed and not summarised: its workload and seed get no summary, and the
script exits with status 1 once all pairs have run.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import machine  # noqa: E402  (the benchmark's own machine record)


def extract(revision: str, into: Path) -> str:
    """Unpack ``revision`` of this repository into ``into``; its commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{revision}^{{commit}}"],
                            cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return commit


def bench(tree: Path, workload: str, seed: int) -> dict:
    """One untraced ``bench/run.py`` run in ``tree``: its result line."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"bench/run.py in {tree} printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1])
    # the run length is in the full results file only
    written = tree / "bench" / "_out" / "results" / f"{workload}-seed{seed}-trace0.json"
    return {"seconds": json.loads(written.read_text())["seconds"], "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def broken_runs(runs: list[dict]) -> list[str]:
    """One line per run, on either side, whose checks failed or that had
    failed operations."""
    return [f"pair {k + 1} {side}: correct {pair[side]['correct']}, "
            f"{pair[side]['failed']} of {pair[side]['attempted']} operations failed"
            for k, pair in enumerate(runs) for side in ("base", "tree")
            if not pair[side]["correct"] or pair[side]["failed"] > 0]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's quartiles, the change of the medians, the
    pairs the working tree won (strictly better in the metric's direction)
    and whether that is a gain: a win in at least nine tenths of the pairs,
    with medians further apart than the base's interquartile range."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [pair["base"][name] for pair in runs]
        tree = [pair["tree"][name] for pair in runs]
        bq, tq = quartiles(base), quartiles(tree)
        wins = sum((t < b) if lower else (t > b) for b, t in zip(base, tree))
        # a gain is told apart from noise when the medians differ by more
        # than the base's interquartile range
        beyond = abs(tq[1] - bq[1]) > bq[2] - bq[0]
        out[name] = {"base": {"q1": bq[0], "median": bq[1], "q3": bq[2]},
                     "tree": {"q1": tq[0], "median": tq[1], "q3": tq[2]},
                     "change": tq[1] / bq[1] - 1.0 if bq[1] else None,
                     "beyond_base_iqr": beyond,
                     "wins": wins, "pairs": len(runs),
                     "gain": beyond and 10 * wins >= 9 * len(runs),
                     "better": metric["better"], "bound": metric["bound"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision to compare against")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: every workload)")
    parser.add_argument("--seed", type=int, action="append",
                        help="seed to run (repeatable; default: 1)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload and seed")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_pairs.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = args.seed or [1]

    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_tree = Path(tmp)
        commit = extract(args.base, base_tree)
        record = {**machine(), "base": {"revision": args.base, "commit": commit},
                  "tree": "working tree", "seeds": seeds,
                  "pairs": args.pairs, "workloads": {}}
        broken = False
        for workload in workloads:
            for seed in seeds:
                runs: list[dict] = []
                problems: list[str] = []
                entry = record["workloads"].setdefault(workload, {})
                for k in range(args.pairs):
                    order = [("base", base_tree), ("tree", ROOT)]
                    if k % 2:
                        order.reverse()
                    pair = {"first": order[0][0]}
                    for side, tree in order:
                        pair[side] = bench(tree, workload, seed)
                    runs.append(pair)
                    problems = broken_runs(runs)
                    entry[str(seed)] = {"runs": runs}
                    if problems:
                        entry[str(seed)]["broken"] = problems
                    else:
                        entry[str(seed)]["summary"] = summary(runs, spec["end_to_end"])
                    args.out.write_text(json.dumps(record, indent=1) + "\n")
                    print(f"{workload} seed {seed} pair {k + 1}/{args.pairs}: " + "  ".join(
                        f"{m}: {pair['base'][m]:.4g} -> {pair['tree'][m]:.4g}"
                        for m in (e["name"] for e in spec["end_to_end"])), flush=True)
                if problems:
                    broken = True
                    print(f"  {workload} seed {seed} not summarised, broken runs:")
                    for line in problems:
                        print(f"    {line}")
                    continue
                for name, s in entry[str(seed)]["summary"].items():
                    print(f"  {name}: median {s['base']['median']:.4g} -> "
                          f"{s['tree']['median']:.4g} ({100 * (s['change'] or 0):+.1f} %), "
                          f"tree better in {s['wins']}/{s['pairs']}"
                          + (", a gain" if s["gain"] else ""))
    print(f"wrote {args.out}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
