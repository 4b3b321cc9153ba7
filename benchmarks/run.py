"""The seqhalt benchmark.  Run it from the root of a checkout:

    python3 benchmarks/run.py --workload decide --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --runs 10 --out results.json

One run of a workload starts fresh single-threaded interpreters
(benchmarks/worker.py) one after another, each doing one identical
round of the workload from the seeded inputs, until --seconds have
passed (at least three rounds), and reports medians over the rounds.
With --trace 1 it alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones; their spans go to
.bench_out/trace/<workload>/.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
The full record of each run, with the rate of machine steps, the error
ratio and the unscaled times, goes to .bench_out/runs/.

``--workload all`` runs every workload --runs times with seeds --seed,
--seed+1, ... and prints one row per workload (medians over the runs);
--out writes the result set that compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC_FILE = "BENCHMARK.json"
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
# A run starts no round after this many seconds, whatever --seconds says,
# so that it ends within three minutes even on a slow host.
LAST_START_S = 110
ROUND_TIMEOUT_S = 60


def _spec() -> dict:
    return json.loads(Path(SPEC_FILE).read_text())


def _round(workload: str, seed: int, index: int, traced: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(Path(".bench_out") / "pycache")
    # Import from cached bytecode, as an installed package does.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(seed), str(index), str(int(traced))],
        env=env,
        capture_output=True,
        text=True,
        timeout=ROUND_TIMEOUT_S,
    )
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        raise SystemExit(f"round {index} of {workload} failed with exit code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: rounds until ``seconds`` have passed, then medians."""
    spec = _spec()
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {workload!r}")
    if trace:
        shutil.rmtree(Path(".bench_out") / "trace" / workload, ignore_errors=True)
        (Path(".bench_out") / "trace" / workload).mkdir(parents=True)
    rounds: dict[bool, list[dict]] = {False: [], True: []}
    started = time.monotonic()
    while True:
        index = len(rounds[False]) + len(rounds[True])
        traced = trace and index % 2 == 1
        rounds[traced].append(_round(workload, seed, index, traced))
        elapsed = time.monotonic() - started
        enough = len(rounds[False]) >= MIN_ROUNDS and len(rounds[True]) >= (MIN_TRACED_ROUNDS if trace else 0)
        some = rounds[False] and (rounds[True] or not trace)
        if (enough and elapsed >= seconds) or (some and elapsed >= LAST_START_S):
            break

    plain, traced_rounds = rounds[False], rounds[True]

    def median(key, of=plain):
        return statistics.median(key(r) for r in of)

    everything = plain + traced_rounds
    attempted = sum(r["items"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    end_to_end = {
        "setup_s": median(lambda r: r["setup_s"]),
        "items_per_s": median(lambda r: r["items"] / r["timed_s"]),
        "item_p50_us": median(lambda r: r["item_p50_us"]),
        "item_p99_us": median(lambda r: r["item_p99_us"]),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
    }
    extra = {
        "steps_per_s": median(lambda r: r["steps"] / r["timed_s"]),
        "error_ratio": failed / attempted,
        "rounds": len(plain),
        "items_per_round": plain[0]["items"],
        "raw_items_per_s": median(lambda r: r["items"] / r["timed_raw_s"]),
        "raw_setup_s": median(lambda r: r["setup_raw_s"]),
        "cpu_speed": median(lambda r: r["speed"]),
    }
    layers = {}
    if trace:
        for name in traced_rounds[0]["layers"]:
            layers[name] = median(lambda r: r["layers"][name], traced_rounds)
        layers["trace.overhead_ratio"] = (
            median(lambda r: r["items"] / r["timed_s"], traced_rounds) / end_to_end["items_per_s"]
        )
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "extra": extra,
        "layers": layers,
        "wall_s": time.monotonic() - started,
        "rounds": [{k: v for k, v in r.items() if k != "layers"} for r in everything],
    }
    runs_dir = Path(".bench_out") / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    (runs_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def result_line(record: dict) -> dict:
    """The run's last output line: the metrics BENCHMARK.json names, with units."""
    spec = _spec()
    metrics_spec = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    values = record["layers"] if record["trace"] else record["end_to_end"]
    missing = [m["name"] for m in metrics_spec if m["name"] not in values]
    if missing:
        raise SystemExit(f"benchmark produced no value for {missing}")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec},
    }


SUMMARY_COLUMNS = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_us", "us"),
    ("item_p99_us", "us"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("error_ratio", "ratio"),
)


def summarize(args) -> None:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    results = {}
    for name in names:
        results[name] = []
        for seed in range(args.seed, args.seed + args.runs):
            record = measure(name, seed, args.seconds, bool(args.trace))
            print(f"{name} seed {seed}: {record['wall_s']:.1f} s, failed {record['failed']}", file=sys.stderr)
            results[name].append(record)

    def median_of(records, section, key):
        return statistics.median(r[section][key] for r in records)

    header = ["workload"] + [f"{key} [{unit}]" for key, unit in SUMMARY_COLUMNS]
    print(" | ".join(header))
    for name in names:
        cells = [name]
        for key, _ in SUMMARY_COLUMNS:
            section = "end_to_end" if key in results[name][0]["end_to_end"] else "extra"
            cells.append(f"{median_of(results[name], section, key):.6g}")
        print(" | ".join(cells))
    if args.trace:
        print()
        print(" | ".join(["per-layer metric [unit]"] + names))
        for metric in spec["per_layer"]:
            row = [median_of(results[n], "layers", metric["name"]) for n in names]
            print(" | ".join([f"{metric['name']} [{metric['unit']}]"] + [f"{v:.6g}" for v in row]))
    if args.out:
        # Per-round detail stays in .bench_out/runs/.
        runs = {name: [{k: v for k, v in r.items() if k != "rounds"} for r in records] for name, records in results.items()}
        result_set = {"seconds": args.seconds, "trace": args.trace, "runs": runs}
        Path(args.out).write_text(json.dumps(result_set, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="runs per workload with --workload all")
    parser.add_argument("--out", help="result-set file to write with --workload all")
    args = parser.parse_args()
    if not (Path("src") / "seqhalt" / "__init__.py").is_file() or not Path(SPEC_FILE).is_file():
        raise SystemExit("run the benchmark from the root of a seqhalt checkout (src/seqhalt and BENCHMARK.json)")
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]
    if args.workload == "all":
        summarize(args)
    else:
        print(json.dumps(result_line(measure(args.workload, args.seed, args.seconds, bool(args.trace)))))


if __name__ == "__main__":
    main()
