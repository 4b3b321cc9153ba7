"""Compare two result sets of the same workloads, metric by metric.

    python3 benchmarks/compare.py OLD.json NEW.json

Result sets come from ``run.py --workload all --runs N --out FILE``.
For each workload and end-to-end metric it prints the median and
quartiles of both sets, the change of the median, and a status against
the metric's bound in BENCHMARK.json:

* unresolved: a set's spread (quartile distance over median) exceeds the
  bound, and not every new run is better than every old run;
* worse: the new median is worse than the old by more than the bound;
* better: the medians differ, to the good, by more than the old spread;
* same: anything else.

Exits with code 1 when any metric is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(old: dict, new: dict, spec: dict) -> list[dict]:
    rows = []
    for workload in old["runs"]:
        if workload not in new["runs"]:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            before = [r["end_to_end"][name] for r in old["runs"][workload]]
            after = [r["end_to_end"][name] for r in new["runs"][workload]]
            q1_old, med_old, q3_old = _quartiles(before)
            q1_new, med_new, q3_new = _quartiles(after)
            spread_old = (q3_old - q1_old) / med_old
            spread_new = (q3_new - q1_new) / med_new
            worse_by = sign * (med_new - med_old) / med_old
            all_better = max(sign * v for v in after) < min(sign * v for v in before)
            if max(spread_old, spread_new) > bound and not all_better:
                status = "unresolved"
            elif worse_by > bound:
                status = "worse"
            elif -worse_by > spread_old:
                status = "better"
            else:
                status = "same"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "old": (q1_old, med_old, q3_old),
                    "new": (q1_new, med_new, q3_new),
                    "worse_by": worse_by,
                    "spread": (spread_old, spread_new),
                    "bound": bound,
                    "status": status,
                }
            )
    return rows


def main() -> None:
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    old, new = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    rows = compare(old, new, spec)
    print("workload | metric [unit] | old q1/median/q3 | new q1/median/q3 | worse by | spreads | bound | status")
    for row in rows:
        old_q, new_q = ("/".join(f"{v:.5g}" for v in q) for q in (row["old"], row["new"]))
        spreads = "/".join(f"{s:.3f}" for s in row["spread"])
        print(
            f"{row['workload']} | {row['metric']} [{row['unit']}] | {old_q} | {new_q} | "
            f"{row['worse_by']:+.3f} | {spreads} | {row['bound']} | {row['status']}"
        )
    sys.exit(1 if any(row["status"] == "worse" for row in rows) else 0)


if __name__ == "__main__":
    main()
