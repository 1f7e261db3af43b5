#!/usr/bin/env python3
"""Compare results files of ``run.py`` against a baseline.

Usage::

    python benchmarks/e2e/compare.py OLD.json NEW.json [NEW2.json ...]

Each file is the results JSON of ``run.py`` (``--repeat K`` puts K runs
per workload into one file).  For every workload and end-to-end metric
the table shows each side's median and quartiles across runs, then a
verdict against the bound fixed in ``BENCHMARK.json``:

* ``improved`` — every new run is better than every old run, or the new
  side wins at least 9 in 10 run pairs and its median is better by more
  than the old side's interquartile distance;
* ``regressed`` — the new median is worse than the old one by more than
  the bound;
* ``unresolved`` — either side's spread (interquartile distance over the
  median) is wider than the bound, or a side has fewer than two runs, so
  the data cannot separate a change from noise;
* ``unchanged`` — otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from e2e.stats import quartiles, spread  # noqa: E402

ROOT = HERE.parent.parent
#: A claimed gain must win this share of the run pairs.
WIN_SHARE = 0.9


def load_runs(path: str) -> Dict[str, List[Dict[str, Any]]]:
    """Workload -> its runs' metric dicts, from one results file."""
    with open(path, encoding="utf-8") as handle:
        results = json.load(handle)
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for run in results["runs"]:
        grouped.setdefault(run["workload"], []).append(run["metrics"])
    return grouped


def _pairs(old: Sequence[float], new: Sequence[float]) -> List[tuple]:
    if len(old) == len(new):
        return list(zip(old, new))
    return [(o, n) for o in old for n in new]


def verdict(old: Sequence[float], new: Sequence[float], bound: float, better: str) -> str:
    """The verdict for one (workload, metric) pair; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    if len(old) < 2 or len(new) < 2:
        return "unresolved"
    if all(sign * (n - o) < 0 for o in old for n in new):
        return "improved"
    if max(spread(old), spread(new)) > bound:
        return "unresolved"
    old_q1, old_median, old_q3 = quartiles(old)
    new_median = quartiles(new)[1]
    worse_by = sign * (new_median - old_median) / old_median
    if worse_by > bound:
        return "regressed"
    pairs = _pairs(old, new)
    wins = sum(1 for o, n in pairs if sign * (n - o) < 0)
    if wins >= WIN_SHARE * len(pairs) and -worse_by * old_median > old_q3 - old_q1:
        return "improved"
    return "unchanged"


def _cell(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def compare(old_path: str, new_path: str, metrics: List[Dict[str, Any]]) -> Dict[str, int]:
    old_runs, new_runs = load_runs(old_path), load_runs(new_path)
    counts: Dict[str, int] = {}
    print(f"\n{old_path} -> {new_path}")
    print(f"{'workload':<10} {'metric':<8} {'old median [q1, q3]':<36} {'new median [q1, q3]':<36} {'change':>8}  verdict")
    for workload in old_runs:
        if workload not in new_runs:
            print(f"{workload:<10} (missing from {new_path})")
            continue
        for metric in metrics:
            name = metric["name"]
            old = [run[name] for run in old_runs[workload] if run.get(name) is not None]
            new = [run[name] for run in new_runs[workload] if run.get(name) is not None]
            if not old or not new:
                continue
            change = (quartiles(new)[1] - quartiles(old)[1]) / quartiles(old)[1]
            outcome = verdict(old, new, metric["bound"], metric["better"])
            counts[outcome] = counts.get(outcome, 0) + 1
            print(f"{workload:<10} {name:<8} {_cell(old):<36} {_cell(new):<36} {change:>+8.1%}  {outcome}")
    return counts


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="results JSON of the baseline")
    parser.add_argument("new", nargs="+", help="results JSON files to compare with it")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    regressed = False
    for new in args.new:
        counts = compare(args.old, new, metrics)
        print("  " + ", ".join(f"{count} {outcome}" for outcome, count in sorted(counts.items())))
        regressed = regressed or bool(counts.get("regressed"))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
