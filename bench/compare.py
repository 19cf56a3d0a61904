#!/usr/bin/env python3
"""Summarize or compare benchmark results.

Usage, from the repository root::

    python3 bench/compare.py A.jsonl           # spread of each metric vs its bound
    python3 bench/compare.py A.jsonl B.jsonl   # B (the change) against A (the parent)

The files are ``results.jsonl`` files written by ``bench/run.py`` (one line
per run).  For each workload, each end-to-end metric and each stage of the
operation (``stage.<name>``, e.g. ``stage.query`` or ``stage.memory``: the
run's host-adjusted median time of that stage, judged under the bound of
``op_adj_ms``), the report gives both sides' median and quartiles, the
fraction of pairs B wins (runs paired by seed when both sides ran the same
seeds, else in order; ties count for neither) and a verdict against the
bound in ``BENCHMARK.json``:

* ``worse``: B's median is worse than A's by more than the bound;
* ``improved``: B wins at least 9/10 of the pairs and the medians differ by
  more than A's interquartile distance;
* ``unresolved``: A's own spread (IQR / median) exceeds the bound, unless
  every run of B reads better than every run of A;
* ``unchanged``: otherwise.

When both files hold traced runs, the per-layer self times (``self_frac``
times the traced operation's wall time) are compared as milliseconds per
operation.  The exit code is 1 when any metric or stage is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: The end-to-end metric whose bound each stage of an operation is judged by.
STAGE_BOUND = "op_adj_ms"


def load(path: str) -> Dict[Tuple[str, bool], List[Dict[str, Any]]]:
    """Records of ``path`` grouped by (workload, traced)."""
    groups: Dict[Tuple[str, bool], List[Dict[str, Any]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                key = (record["header"]["workload"], bool(record["header"]["trace"]))
                groups.setdefault(key, []).append(record)
    return groups


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


Getter = Callable[[Dict[str, Any]], float]


def measures(spec: Dict[str, Any], records: List[Dict[str, Any]]) -> List[Tuple[str, str, float, bool, Getter]]:
    """What is judged on a workload, as ``(name, unit, bound, lower, get)``.

    Every end-to-end metric, then each stage of the operation on its own
    (``stage.<name>``: its host-adjusted median time per run, under the
    bound of ``op_adj_ms``), so that a stage that is a small share of the
    operation cannot get worse unseen.
    """
    out = [
        (m["name"], m["unit"], m["bound"], m["better"] == "lower", metric_getter(m["name"]))
        for m in spec["end_to_end"]
    ]
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == STAGE_BOUND)
    stages = set.intersection(*(set(r["stages_ms"]) for r in records))
    out += [(f"stage.{s}", "ms", bound, True, stage_getter(s)) for s in sorted(stages)]
    return out


def metric_getter(name: str) -> Getter:
    return lambda record: record["result"]["metrics"][name]["value"]


def stage_getter(stage: str) -> Getter:
    return lambda record: record["stages_ms"][stage]["adj_median"]


def pairs(a: List[Dict[str, Any]], b: List[Dict[str, Any]], get: Getter) -> List[Tuple[float, float]]:
    seeds_a = [r["header"]["seed"] for r in a]
    seeds_b = [r["header"]["seed"] for r in b]
    if sorted(seeds_a) == sorted(seeds_b) and len(set(seeds_a)) == len(seeds_a):
        by_seed = {r["header"]["seed"]: r for r in b}
        b = [by_seed[s] for s in seeds_a]
    return [(get(x), get(y)) for x, y in zip(a, b)]


def verdict(a: List[float], b: List[float], won: float, bound: float, lower: bool) -> str:
    q1a, med_a, q3a = quartiles(a)
    _, med_b, _ = quartiles(b)
    worse_by = (med_b - med_a) / med_a if lower else (med_a - med_b) / med_a
    if worse_by > bound:
        return "worse"
    if won >= 0.9 and abs(med_b - med_a) > q3a - q1a:
        return "improved"
    all_better = max(b) < min(a) if lower else min(b) > max(a)
    if (q3a - q1a) / med_a > bound and not all_better:
        return "unresolved"
    return "unchanged"


def spread_report(groups, spec) -> int:
    for (workload, traced), records in sorted(groups.items()):
        if traced:
            continue
        print(f"{workload}: {len(records)} runs")
        for name, unit, bound, _, get in measures(spec, records):
            q1, med, q3 = quartiles([get(r) for r in records])
            spread = (q3 - q1) / med
            flag = "ok" if spread <= bound / 3 else "WIDE"
            print(
                f"  {name:<20} median {med:12.6g} {unit:<3} "
                f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f} "
                f"bound {bound:.2f} {flag}"
            )
    return 0


def compare_report(groups_a, groups_b, spec) -> int:
    status = 0
    for key in sorted(set(groups_a) & set(groups_b)):
        workload, traced = key
        a, b = groups_a[key], groups_b[key]
        if traced:
            print(f"{workload} per-layer self time (ms/op), A -> B:")
            op_a = statistics.median(metric_getter("traced_op_ms")(r) for r in a)
            op_b = statistics.median(metric_getter("traced_op_ms")(r) for r in b)
            for metric in spec["per_layer"]:
                name = metric["name"]
                if name.endswith(".self_frac"):
                    get = metric_getter(name)
                    ms_a = statistics.median(get(r) for r in a) * op_a
                    ms_b = statistics.median(get(r) for r in b) * op_b
                    if ms_a or ms_b:
                        print(f"  {name[: -len('.self_frac')]:<48} {ms_a:10.3f} -> {ms_b:10.3f}  ({ms_b - ms_a:+.3f})")
            continue
        print(f"{workload}: A {len(a)} runs, B {len(b)} runs")
        for name, unit, bound, lower, get in measures(spec, a + b):
            va, vb = [get(r) for r in a], [get(r) for r in b]
            matched = pairs(a, b, get)
            wins = sum((y < x) if lower else (y > x) for x, y in matched)
            won = wins / len(matched) if matched else 0.0
            result = verdict(va, vb, won, bound, lower)
            status |= result == "worse"
            qa, qb = quartiles(va), quartiles(vb)
            print(
                f"  {name:<20} A {qa[1]:12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                f"B {qb[1]:12.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {unit:<3} "
                f"B won {won:5.2f}  {result}"
            )
    return status


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if len(argv) == 1:
        return spread_report(load(argv[0]), spec)
    return compare_report(load(argv[0]), load(argv[1]), spec)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
