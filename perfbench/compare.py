"""Compare two sets of untraced benchmark results, workload by workload.

Runs are paired by seed in the order they were made, so the two sets should
come from runs of parent and change made in alternating order. A metric is
"improved" only with at least 10 pairs, a 9/10 win share (ties count for
neither) and a median gap larger than the parent's interquartile spread; it
is "worse" when the change's median is worse than the parent's by more than
the metric's bound; it is "unresolved" when the parent's own spread exceeds
the bound, unless every change run beats every parent run. Output digests of
runs with the same seed are compared job by job.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

MIN_PAIRS, WIN_SHARE = 10, 0.9


def load(directory: str) -> dict[str, list[dict]]:
    by_workload = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        if result.get("trace") == 0:
            by_workload[result["provenance"]["workload"]].append(result)
    return by_workload


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = defaultdict(lambda: ([], []))
    for side, runs in enumerate((parent, change)):
        for r in runs:
            by_seed[r["provenance"]["benchmark_seed"]][side].append(r)
    return [pair for p_runs, c_runs in by_seed.values() for pair in zip(p_runs, c_runs)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(p_vals, c_vals, paired, lower_better: bool, bound: float) -> tuple[str, int]:
    better = (lambda a, b: a < b) if lower_better else (lambda a, b: a > b)
    wins = sum(better(c, p) for p, c in paired)
    p1, pm, p3 = quartiles(p_vals)
    cm = statistics.median(c_vals)
    worse_by = (cm - pm) / pm if lower_better else (pm - cm) / pm
    all_better = all(better(c, p) for c in c_vals for p in p_vals)
    if (p3 - p1) / pm > bound and not all_better:
        return "unresolved", wins
    if worse_by > bound:
        return "worse", wins
    if (len(paired) >= MIN_PAIRS and wins >= WIN_SHARE * len(paired)
            and better(cm, pm) and abs(cm - pm) > p3 - p1):
        return "improved", wins
    return "no worse within bound", wins


def main(parent_dir: str, change_dir: str, spec: dict) -> int:
    parent, change = load(parent_dir), load(change_dir)
    header = (f"{'workload':<9} {'metric':<12} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'won':>7}  verdict")
    print(header)
    print("-" * len(header))
    for workload in sorted(set(parent) & set(change)):
        paired_runs = pairs(parent[workload], change[workload])
        for m in spec["end_to_end"]:
            name = m["name"]
            p_vals = [r["metrics"][name] for r in parent[workload]]
            c_vals = [r["metrics"][name] for r in change[workload]]
            paired = [(p["metrics"][name], c["metrics"][name]) for p, c in paired_runs]
            v, wins = verdict(p_vals, c_vals, paired, m["better"] == "lower", m["bound"])
            pq, cq = quartiles(p_vals), quartiles(c_vals)
            print(f"{workload:<9} {name:<12} "
                  f"{'/'.join(f'{x:.4g}' for x in pq):>32} "
                  f"{'/'.join(f'{x:.4g}' for x in cq):>32} "
                  f"{wins:>3}/{len(paired):<3}  {v}")
        same = total = 0
        for p, c in paired_runs:
            for job, d in p["digests"].items():
                total += 1
                same += c["digests"].get(job) == d
        print(f"{workload:<9} output digests identical for {same}/{total} paired job runs")
    missing = sorted(set(parent) ^ set(change))
    if missing:
        print(f"workloads in only one set: {', '.join(missing)}")
    return 0
