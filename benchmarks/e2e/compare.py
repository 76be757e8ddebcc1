"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json

Each file is a set written by ``run.py --runs N --out FILE`` (or a
baseline file holding several sets, which are pooled).  One row per
workload and end-to-end metric gives each side's median and quartiles,
the change's wins over the parent in paired runs (ties count for
neither) and a verdict:

* ``gain``       there are at least 10 pairs, the change wins at least
                 nine tenths of them and the medians differ by more than
                 the parent's interquartile range;
* ``regression`` the change's median is worse than the parent's by more
                 than the metric's bound in BENCHMARK.json;
* ``unresolved`` either side's spread (IQR / median) exceeds the bound,
                 unless every change run beats every parent run;
* ``same``       otherwise.

Exits 1 when any row is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]

#: Fewest paired runs that can show a gain.
MIN_PAIRS = 10


def load_runs(path: Path) -> List[Dict]:
    """The untraced runs of a set file, or of every set in a baseline."""
    data = json.loads(Path(path).read_text())
    sets = data["sets"] if "sets" in data else [data]
    return [run for one in sets for run in one["runs"] if not run["trace"]]


def values(runs: Sequence[Dict], workload: str, metric: str) -> List[float]:
    return [run["result"]["metrics"][metric]["value"] for run in runs
            if run["workload"] == workload
            and metric in run["result"]["metrics"]]


def quartiles(data: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, median, q3 = statistics.quantiles(data, n=4)
    return q1, median, q3


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> Tuple[str, int, int]:
    """The comparison rule of the module docstring: (verdict, wins, pairs)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and abs(cm - pm) > p3 - p1):
        if sign * (cm - pm) > 0:
            return "gain", wins, len(pairs)
    if sign * (pm - cm) > bound * abs(pm):
        return "regression", wins, len(pairs)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound and not all(sign * (c - p) > 0
                                  for p in parent for c in change):
        return "unresolved", wins, len(pairs)
    return "same", wins, len(pairs)


def compare(parent_path: Path, change_path: Path) -> List[Dict]:
    """One row per workload × end-to-end metric present on both sides."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(parent_path), load_runs(change_path)
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            before = values(parent, workload, metric["name"])
            after = values(change, workload, metric["name"])
            if not before or not after:
                continue
            result, wins, pairs = verdict(before, after, metric["better"],
                                          metric["bound"])
            rows.append({"workload": workload, "metric": metric["name"],
                         "unit": metric["unit"], "bound": metric["bound"],
                         "parent": quartiles(before),
                         "change": quartiles(after),
                         "wins": wins, "pairs": pairs, "verdict": result})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare a change's benchmark runs with its parent's.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    rows = compare(args.parent, args.change)
    print(f"{'workload':14} {'metric':12} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'wins':>6} verdict")
    for row in rows:
        parent = "/".join(f"{v:.4g}" for v in row["parent"])
        change = "/".join(f"{v:.4g}" for v in row["change"])
        print(f"{row['workload']:14} {row['metric']:12} {parent:>30} "
              f"{change:>30} {row['wins']:>2}/{row['pairs']:<3} "
              f"{row['verdict']} (bound {row['bound']:.0%}, {row['unit']})")
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
