"""One process of one workload: set up, then (unless asked only to set up) run
the timed closed loop, check every output, run the positive controls and
print one JSON line.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE MODE

MODE is ``setup`` (report when set-up ended, then exit) or ``run``.
``bench/run.py`` starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "_out"


def import_truthfit():
    """Import truthfit from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import truthfit

    if src.resolve() not in Path(truthfit.__file__).resolve().parents:
        raise ImportError(f"truthfit imported from {truthfit.__file__}, not from {src}")


def run_rounds(ops, seconds, call):
    """Repeat whole rounds of ``ops`` in a closed loop for about ``seconds``.

    Stops when one more round would overshoot by more than it undershoots,
    so the timed phase lasts ``seconds`` within half a round; at least one
    round always runs.  ``call(op)`` runs one operation.  Each operation is
    timed on the wall clock and on this process's CPU clock.
    """
    outputs, wall, cpu, errors = [], [], [], []
    rounds = 0
    start = time.perf_counter()
    start_cpu = time.process_time()
    while True:
        for i, op in enumerate(ops):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out = call(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                errors.append(f"op {i}: {type(exc).__name__}: {exc}")
                continue
            cpu.append(time.process_time() - c0)
            wall.append(time.perf_counter() - t0)
            outputs.append((i, out))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            return outputs, errors, rounds, {
                "elapsed_s": elapsed,
                "cpu_s": time.process_time() - start_cpu,
                "ops_per_s": len(wall) / elapsed,
                "op_ms_p50": 1e3 * statistics.median(wall) if wall else None,
                "ops_per_cpu_s": len(cpu) / (time.process_time() - start_cpu),
                "op_cpu_ms_p50": 1e3 * statistics.median(cpu) if cpu else None,
            }


def main(argv) -> int:
    name, seed, seconds, trace, mode = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    import_truthfit()
    import workloads

    workload = workloads.WORKLOADS[name](seed, OUT / "work")
    workload.warm_up()
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    ops = workload.operations()
    if trace:
        import tracing

        tracer = tracing.Tracer()
        with tracer:
            outputs, errors, rounds, timing = run_rounds(
                ops, seconds, lambda op: tracer.op(workload.op_name, op))
    else:
        outputs, errors, rounds, timing = run_rounds(
            ops, seconds, lambda op: op())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = workload.check(outputs) + workload.controls()
    result = {
        "ready": ready,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "attempted": rounds * len(ops),
        "failed": len(errors),
        "errors": errors[:20],
        "problems": problems,
        **timing,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        result["per_layer"] = tracer.metrics(rounds)
        result["missing_layers"] = sorted(tracer.missing)
        # the spans of the first round; later rounds repeat its work
        spans_path = OUT / "traces" / f"{name}-seed{seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps({
            "columns": ["span", "parent", "op", "name", "start_us", "duration_us", "error"],
            "spans": tracer.span_rows(len(ops))}, separators=(",", ":")))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
