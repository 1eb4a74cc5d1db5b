"""truthfit benchmark: coalition audits and a large Brown-Mood fit.

    python3 bench/run.py --workload l1-audit --seed 1 --seconds 30 --trace 0

Runs one workload in its own single-threaded process as a closed loop
(each operation starts when the previous one ends), checks every output,
prints the metrics by name and unit, writes a results file under
``bench/_out/results/`` and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` a traced run of the
same workload gives the per-layer ones.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = ("l1-audit", "grh-audit", "brown-mood-cli")
#: extra processes that only set up, so that setup_s is a median of several
SETUP_PROBES = 4
END_TO_END_UNITS = {"setup_s": "s", "ops_per_cpu_s": "ops/cpu_s", "op_cpu_ms_p50": "ms",
                    "peak_rss_mb": "MB"}
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(args, timeout: float) -> tuple[dict, float]:
    """Run one worker process; its JSON result and the monotonic start time."""
    env = {**os.environ, **SINGLE_THREAD}
    env.pop("PYTHONPATH", None)
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *map(str, args)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} exceeded {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]), started


def machine() -> dict:
    """The machine and the Python, numpy and scipy versions."""
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"machine": platform.machine(), "cpu": cpu, "cpus": os.cpu_count(),
            "system": platform.platform(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed phase; 0 runs one round")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "truthfit" / "__init__.py").is_file():
        print(f"no truthfit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # worst case: the main worker's timeout plus every probe's stays under 180 s
    timeout = 2 * args.seconds + 60
    try:
        run, started = spawn([args.workload, args.seed, args.seconds, args.trace, "run"],
                             timeout)
        setups = [run["ready"] - started]
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe, started = spawn([args.workload, args.seed, 0, 0, "setup"], 12)
                setups.append(probe["ready"] - started)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1

    if args.trace:
        metrics = run["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups), **run}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}
    correct = not run["problems"]
    summary = {"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
               "metrics": metrics}

    results = BENCH / "_out" / "results" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps({
        **summary, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples_s": setups, **machine(),
        "worker": {k: v for k, v in run.items() if k != "per_layer"}}, indent=2))

    for problem in run["problems"] + run["errors"]:
        print(f"FAIL {problem}")
    if run.get("missing_layers"):
        print(f"missing layers: {', '.join(run['missing_layers'])}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload}: {run['attempted']} attempted, {run['failed']} failed, "
          f"{run['rounds']} rounds, checks {'passed' if correct else 'FAILED'}; "
          f"results in {results.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
