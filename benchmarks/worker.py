"""One round of one workload, in a fresh single-threaded interpreter.

    python3 benchmarks/worker.py WORKLOAD SEED ROUND TRACE

run.py starts this from the checkout's root with PYTHONPATH=src.  The
round has three phases: set-up (import and input generation), the timed
phase (every item once, closed loop, one caller) and the reference
checks.  The last line of standard output is one JSON record.

Times are the thread's CPU time, which leaves out the stalls of tens of
milliseconds in which the host runs other guests (steal time); the round
never waits on I/O, so otherwise CPU time equals wall time.  They are
scaled to the reference CPU speed: the host's speed drifts by a third to
a half over seconds, so between batches of items the round times a
fixed pure-Python kernel and scales each batch by REFERENCE_NS / (kernel
time around that batch).  REFERENCE_NS is the kernel's median time on a
2-core x86-64 container under Python 3.11.
"""

from __future__ import annotations

import gc
import json
import math
import random
import resource
import statistics
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import thread_time_ns as clock_ns

import spans

BATCH_NS = 50_000_000
REFERENCE_NS = 350_000


@dataclass(frozen=True)
class _Op:
    name: str
    arg: int


@dataclass(frozen=True)
class _Cell:
    left: str
    right: str


_PROGRAM = (_Op("inc", 1), _Op("move", 0), _Op("jump", 2), _Op("write", 1), _Op("inc", 3))


def _kernel() -> int:
    """A miniature step loop shaped like seqhalt's own work (frozen
    dataclasses, string states, tuple configurations in a growing set);
    it tracks the host's speed changes on every workload better than
    plain arithmetic does.  It shares no code with seqhalt."""
    seen = set()
    cell, counter, pc = _Cell("", "10"), 0, 0
    for _ in range(250):
        op = _PROGRAM[pc]
        if op.name == "inc":
            counter += op.arg
        elif op.name == "move":
            cell = _Cell(cell.left + cell.right[:1], cell.right[1:] or "0")
        elif op.name == "write":
            cell = _Cell(cell.left, "1" + cell.right[1:])
        configuration = (pc, counter, cell)
        if configuration in seen:
            break
        seen.add(configuration)
        pc = (pc + 1) % len(_PROGRAM)
    return len(seen)


def calibrate() -> int:
    """Nanoseconds the fixed kernel takes now, best of three."""
    best = math.inf
    for _ in range(3):
        t0 = clock_ns()
        _kernel()
        best = min(best, clock_ns() - t0)
    return best


def timed_phase(items):
    """Run every item once, in order; return results, per-item latencies
    and batches of (first item, end item, CPU ns, kernel ns)."""
    n = len(items)
    results: list = [None] * n
    latency = array("q", bytes(8 * n))
    batches = []
    before = calibrate()
    i = 0
    while i < n:
        first = i
        batch_start = clock_ns()
        deadline = batch_start + BATCH_NS
        while i < n:
            fn, args = items[i]
            t0 = clock_ns()
            try:
                results[i] = fn(*args)
            except Exception as error:  # counted as a failed item by the checks
                results[i] = error
            t1 = clock_ns()
            latency[i] = t1 - t0
            i += 1
            if t1 >= deadline:
                break
        busy = clock_ns() - batch_start
        after = calibrate()
        batches.append((first, i, busy, (before + after) / 2))
        before = after
    return results, latency, batches


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of a sorted list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(
    tracer: spans.Tracer, names: list[str], count_keys: tuple[str, ...], scale: float
) -> tuple[dict, dict]:
    """Per-layer metrics of the timed phase (enumeration: of set-up), and
    the per-phase span aggregates they come from.  Shares are of the
    items' time, on the spans' own clock."""
    phases = tracer.aggregate()
    timed = phases["timed"]
    timed_ns = sum(row["total_ns"] for name, row in timed.items() if name.startswith("bench.item."))
    counts = tracer.counts[spans.PHASES.index("timed")]
    metrics: dict[str, float] = {}
    module_busy: dict[str, int] = {}
    for name in names:
        row = timed.get(name, {"calls": 0, "self_ns": 0, "p50_ns": 0})
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.busy_s"] = row["self_ns"] * scale / 1e9
        metrics[f"{name}.us_p50"] = row["p50_ns"] * scale / 1e3
        metrics[f"{name}.busy_share"] = row["self_ns"] / timed_ns
        module = name.split(".")[0]
        module_busy[module] = module_busy.get(module, 0) + row["self_ns"]
    for module, busy in module_busy.items():
        metrics[f"{module}.busy_share"] = busy / timed_ns
    for key in count_keys:
        metrics[key] = counts[key]
    steps = counts["machine.run.steps"]
    metrics["machine.run.us_per_step"] = metrics["machine.run.busy_s"] * 1e6 / steps if steps else 0.0
    solved = metrics["halting.validate_solver.calls"]
    metrics["halting.validate_solver.refuted_ratio"] = (
        counts["halting.validate_solver.refuted"] / solved if solved else 0.0
    )
    enumerated = tracer.counts[spans.PHASES.index("setup")]["program.enumerate_programs.programs"]
    enumeration = phases["setup"].get("program.enumerate_programs", {"total_ns": 0})
    metrics["program.enumerate_programs.us_per_program"] = (
        enumeration["total_ns"] * scale / 1e3 / enumerated if enumerated else 0.0
    )
    return metrics, phases


def main() -> None:
    workload, seed, round_index, traced = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "1"
    run_id = f"{workload}.{seed}.{round_index}"
    tracer = spans.Tracer(run_id) if traced else spans.NoTracer()

    kernel_before = calibrate()
    started = clock_ns()
    with tracer.phase("setup"):
        import workloads

        api = workloads.Api(tracer.wrap)
        bench = workloads.WORKLOADS[workload](api, random.Random(seed), tracer.wrap_item)
    setup_ns = clock_ns() - started
    kernel_after = calibrate()
    # The inputs belong to the benchmark: keep them out of the program's
    # garbage collections.
    gc.collect()
    gc.freeze()

    with tracer.phase("timed"):
        results, latency, batches = timed_phase(bench.items)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with tracer.phase("check"):
        failed = bench.check(results)

    scaled_latency: list[float] = []
    timed_ns = scaled_ns = 0.0
    for first, end, busy, kernel in batches:
        scale = REFERENCE_NS / kernel
        timed_ns += busy
        scaled_ns += busy * scale
        scaled_latency.extend(latency[j] * scale for j in range(first, end))
    scaled_latency.sort()
    speed = REFERENCE_NS / statistics.median(kernel for *_, kernel in batches)
    record = {
        "run_id": run_id,
        "items": len(bench.items),
        "failed": min(failed, len(bench.items)),
        "setup_s": setup_ns * REFERENCE_NS / ((kernel_before + kernel_after) / 2) / 1e9,
        "setup_raw_s": setup_ns / 1e9,
        "timed_s": scaled_ns / 1e9,
        "timed_raw_s": timed_ns / 1e9,
        "item_p50_us": _percentile(scaled_latency, 0.50) / 1e3,
        "item_p99_us": _percentile(scaled_latency, 0.99) / 1e3,
        "steps": workloads.machine_steps(results),
        "peak_rss_mb": peak_rss_kb / 1024,
        "speed": speed,
    }
    if traced:
        record["layers"], phases = layer_metrics(tracer, api.names, workloads.COUNT_KEYS, speed)
        out = Path(".bench_out") / "trace" / workload
        tracer.write(out / f"{run_id}.spans.tsv.gz")
        summary = {
            "run_id": run_id,
            "wait_s": 0,
            "note": "one thread, closed loop: no span ever waits for another part",
            "spans": phases,
            "counts": {phase: dict(c) for phase, c in zip(spans.PHASES, tracer.counts)},
            "layers": record["layers"],
        }
        (out / f"{run_id}.summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(json.dumps(record))


if __name__ == "__main__":
    main()
