#!/usr/bin/env python
"""Large-n smoke: a 100k-node gossip run under the paged layout, RSS-bounded.

CI-grade check that a 100k-node run fits a bounded footprint under the
paged knowledge layout: runs a full synchronous push-pull exchange loop
(every node calls a uniform random partner each round, both directions
merge, the incremental
:class:`~repro.core.completion.CompletionTracker` drives termination) at

* ``n = 100000`` nodes with ``m = 8192`` messages (128 words per row —
  rectangular on purpose: the protocols' square ``m = n`` default would make
  each round's next-state buffer alone 1.25 GB, which is a benchmark, not a
  smoke test), and
* the **paged** layout forced via :func:`repro.engine.layouts.use`,

then asserts the process peak RSS stayed under a ceiling (400 MB by default).
The paged layout keeps one 102 MB matrix between rounds and frees each
exchange round's next-state buffer; the dense layout keeps matrix and swap
buffer (2 x 100000 x 128 x 8 = ~205 MB) plus frontier bookkeeping resident.
On a 2-core x86-64 VM the run peaks at about 245 MB paged and 300 MB with
``--layout dense``.  The run itself verifies correctness end to end: the loop
must reach completion (every node knows all 8192 messages) within the round
cap, and the tracker's incremental verdict is cross-checked against a final
:func:`~repro.core.completion.gossip_complete` scan.

Usage::

    PYTHONPATH=src python scripts/run_large_n_smoke.py
    PYTHONPATH=src python scripts/run_large_n_smoke.py --n 50000 --ceiling-mb 400
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.core.completion import CompletionTracker, gossip_complete
from repro.engine import backends, layouts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100_000, help="number of nodes")
    parser.add_argument(
        "--messages", type=int, default=8192, help="number of original messages"
    )
    parser.add_argument(
        "--layout", default="paged", help="knowledge layout to force"
    )
    parser.add_argument(
        "--ceiling-mb",
        type=float,
        default=400.0,
        help="peak-RSS ceiling asserted after the run (MB)",
    )
    parser.add_argument(
        "--max-rounds", type=int, default=200, help="round cap (failure guard)"
    )
    parser.add_argument("--seed", type=int, default=20150525)
    args = parser.parse_args()

    n, m = args.n, args.messages
    rng = np.random.default_rng(args.seed)
    with layouts.use(args.layout):
        knowledge = layouts.make_knowledge(n, m)
    print(
        f"n={n} m={m} layout={type(knowledge).layout} "
        f"({type(knowledge).__name__}), backend={backends.active().name}, "
        f"storage={knowledge.storage_nbytes() / 1e6:.1f}MB",
        flush=True,
    )

    tracker = CompletionTracker(knowledge)
    complete_row = knowledge.full_row_mask()
    callers = np.arange(n, dtype=np.int64)
    rounds = 0
    t0 = time.perf_counter()
    while not tracker.is_complete():
        if rounds >= args.max_rounds:
            print(
                f"FAIL: not complete after {rounds} rounds "
                f"({tracker.missing_pairs()} pairs missing)"
            )
            return 1
        targets = rng.integers(0, n, n).astype(np.int64)
        touched, promoted = knowledge.apply_exchange(
            callers,
            targets,
            complete=tracker.complete_rows,
            complete_row=complete_row,
        )
        tracker.update(touched)
        tracker.mark_promoted(promoted)
        rounds += 1
    wall = time.perf_counter() - t0

    if not gossip_complete(knowledge):
        print("FAIL: tracker reported completion but the full scan disagrees")
        return 1

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    dense_mb = layouts.estimate_bytes("dense", n, m) / 1e6
    print(
        f"complete in {rounds} rounds, {wall:.1f}s; "
        f"peak RSS {peak_mb:.1f}MB (ceiling {args.ceiling_mb:.0f}MB, "
        f"dense estimate {dense_mb:.0f}MB), "
        f"storage {knowledge.storage_nbytes() / 1e6:.1f}MB",
        flush=True,
    )
    if peak_mb > args.ceiling_mb:
        print(f"FAIL: peak RSS {peak_mb:.1f}MB exceeds ceiling {args.ceiling_mb}MB")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
