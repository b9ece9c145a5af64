"""Judge a change against its parent from alternating pairs of runs.

Usage, from the repository root::

    # run 10 alternating pairs per workload in two checkouts, then judge
    python3 perfbench/compare.py run PARENT_CHECKOUT CHANGE_CHECKOUT --pairs 10
    # judge records already collected (trajectory files or extracts of them)
    python3 perfbench/compare.py report PARENT.jsonl CHANGE.jsonl

For every workload and end-to-end metric the verdict is

* ``improved``: the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's interquartile range;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
* ``unresolved``: neither, and the parent's own spread exceeds the bound,
  unless every change run beats every parent run;
* ``unchanged``: otherwise.

Untraced records pair up in file order per workload; the failed share of
operations is printed for each side.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import metrics, record  # noqa: E402
from perfbench.stats import quartile_spread  # noqa: E402

WIN_SHARE = 0.9
#: Pair i of a workload runs both sides with seed FIRST_SEED + i.
FIRST_SEED = 1000


def metric_specs() -> dict:
    """name -> (better, bound) for every gated and supplementary metric."""
    spec = metrics.load_spec()
    specs = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    specs.update({name: (s[3], s[4]) for name, s in metrics.SUPPLEMENTARY.items()})
    return specs


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """One metric on one workload; ``parent[i]`` and ``change[i]`` are a pair."""
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if sign * (c_med - p_med) > bound * p_med:
        return "worse"
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (p_med,) * 3
    if sign * (c_med - p_med) < 0 and wins >= WIN_SHARE * len(parent) and abs(c_med - p_med) > q3 - q1:
        return "improved"
    everyone_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if quartile_spread(parent) > bound and not everyone_better:
        return "unresolved"
    return "unchanged"


def by_workload(records) -> dict:
    grouped: dict = {}
    for entry in records:
        if entry.get("trace"):
            continue
        grouped.setdefault(entry["workload"], []).append(entry)
    return grouped


def report(parent_records, change_records) -> list[str]:
    specs = metric_specs()
    parent, change = by_workload(parent_records), by_workload(change_records)
    lines = [
        f"{'workload':14s} {'metric':20s} {'parent median [q1, q3]':34s} "
        f"{'change median [q1, q3]':34s} {'wins':>6s}  verdict"
    ]
    for workload in sorted(set(parent) & set(change)):
        pairs = list(zip(parent[workload], change[workload]))
        for name, (better, bound) in specs.items():
            values = [(p["metrics"][name], c["metrics"][name]) for p, c in pairs
                      if name in p["metrics"] and name in c["metrics"]]
            if not values:
                continue
            p_vals, c_vals = [v[0] for v in values], [v[1] for v in values]
            sign = 1.0 if better == "lower" else -1.0
            wins = sum(1 for p, c in values if sign * (c - p) < 0)
            lines.append(
                f"{workload:14s} {name:20s} {_summary(p_vals):34s} {_summary(c_vals):34s} "
                f"{wins:>3d}/{len(values):<2d}  {verdict(p_vals, c_vals, better, bound)}"
            )
        for side, runs in (("parent", parent[workload]), ("change", change[workload])):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            lines.append(
                f"{workload:14s} failed share, {side}: {failed}/{attempted}"
                f" = {failed / attempted if attempted else 0.0:.4%}"
            )
    return lines


def _summary(values: list[float]) -> str:
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def run_pairs(parent_dir: str, change_dir: str, workloads: list, pairs: int) -> tuple[list, list]:
    """Alternate which side runs first; return each side's new records.

    Each run lasts the benchmark's own ``run_seconds`` (``run.py``'s default).
    """
    collected = {parent_dir: [], change_dir: []}
    for workload in workloads:
        for i in range(pairs):
            order = (parent_dir, change_dir) if i % 2 == 0 else (change_dir, parent_dir)
            for checkout in order:
                command = [sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(FIRST_SEED + i), "--trace", "0"]
                done = subprocess.run(command, cwd=checkout, capture_output=True,
                                      text=True, timeout=900)
                if done.returncode != 0:
                    raise RuntimeError(f"{checkout}: {workload} failed:\n{done.stderr[-2000:]}")
                trajectory = os.path.join(checkout, "perfbench", "trajectory.jsonl")
                collected[checkout].append(list(record.read(trajectory))[-1])
                print(f"  {workload} seed {FIRST_SEED + i} done in {checkout}", file=sys.stderr)
    return collected[parent_dir], collected[change_dir]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    rep = sub.add_parser("report", help="judge two record files")
    rep.add_argument("parent")
    rep.add_argument("change")
    run = sub.add_parser("run", help="run alternating pairs in two checkouts, then judge")
    run.add_argument("parent_dir")
    run.add_argument("change_dir")
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--workload", action="append", dest="workloads")
    args = parser.parse_args(argv)
    if args.mode == "report":
        parent, change = list(record.read(args.parent)), list(record.read(args.change))
    else:
        spec = metrics.load_spec()
        names = args.workloads or [w["name"] for w in spec["workloads"]]
        parent, change = run_pairs(os.path.abspath(args.parent_dir), os.path.abspath(args.change_dir),
                                   names, args.pairs)
    print("\n".join(report(parent, change)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
