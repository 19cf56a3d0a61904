#!/usr/bin/env python
"""Large-n smoke: a 100k-node gossip run, RSS-bounded.

CI-grade check that a 100k-node run fits a bounded footprint: runs a few
push rounds (every node pushes to a uniform random node, as
fast-gossiping's Phase I does), then a full synchronous push-pull exchange
loop (every node calls a uniform random partner each round, both directions
merge, the incremental :class:`~repro.core.completion.CompletionTracker`
drives termination) at ``n = 100000`` nodes with ``m = 8192`` messages
(128 words per row — rectangular on purpose: the protocols' square
``m = n`` default would make each round's next-state buffer alone 1.25 GB,
which is a benchmark, not a smoke test), then asserts three things about
the process's memory:

* its peak RSS stayed under a ceiling (400 MB by default),
* its peak above the RSS it had just before allocating the matrix, read
  before the first exchange allocates the swap buffer, is at most one
  matrix plus the in-place push plan plus ``ESTIMATE_TOLERANCE``: push
  rounds hold no second matrix, and
* its peak above that start RSS over the whole run is at most
  :func:`~repro.engine.knowledge.estimate_bytes` plus ``ESTIMATE_TOLERANCE``.

The two bounds hold on the compiled kernels, which they model; the NumPy
fallback's temporaries are not modelled, so it skips them.

An exchange round writes its next state into a swap buffer the size of the
matrix, which the matrix keeps between rounds (2 x 100000 x 128 x 8 =
~205 MB).  On a 2-core x86-64 VM the push rounds peak 109 MB above the
start RSS (1.02 x one matrix plus the plan), and the run peaks at about
256 MB (218 MB above the start RSS, 1.05 x the 207 MB estimate, which
leaves out the 5 MB plan).  The run itself verifies correctness end to
end: the loop must reach completion (every node knows all 8192 messages)
within the round cap, and the tracker's incremental verdict is
cross-checked against a final :func:`~repro.core.completion.gossip_complete`
scan.

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
from repro.engine import backends
from repro.engine.knowledge import KnowledgeMatrix, estimate_bytes

#: Allowed excess of the measured peak over ``estimate_bytes``.  Runs at
#: n = m = 16384 measured 1.03 x the estimate;
#: ``tests/engine/test_memory_model.py`` holds the run within it.  The
#: push rounds' bound uses the same tolerance (measured 1.01 x).
ESTIMATE_TOLERANCE = 0.08

#: Push rounds before the exchange loop.
PUSH_ROUNDS = 3


def _status_bytes(field: str) -> int:
    """A ``/proc/self/status`` memory field (``VmRSS``, ``VmHWM``) in bytes."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024
    raise KeyError(field)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100_000, help="number of nodes")
    parser.add_argument(
        "--messages", type=int, default=8192, help="number of original messages"
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
    if args.messages > args.n:
        # KnowledgeMatrix seeds message i at node i only for i < n.
        parser.error(
            f"--messages {args.messages} exceeds --n {args.n}: messages past "
            "the node count start at no node, so the run never completes"
        )

    n, m = args.n, args.messages
    rng = np.random.default_rng(args.seed)
    start_rss = _status_bytes("VmRSS")
    knowledge = KnowledgeMatrix(n, m)
    print(
        f"n={n} m={m}, backend={backends.active().name}, "
        f"storage={knowledge.storage_nbytes() / 1e6:.1f}MB",
        flush=True,
    )

    compiled = backends.active().use_compiled()
    callers = np.arange(n, dtype=np.int64)
    for _ in range(PUSH_ROUNDS):
        knowledge.apply_transmissions(callers, rng.integers(0, n, n).astype(np.int64))
    # Read before the first exchange allocates the swap buffer.  The bound
    # is one matrix plus the in-place kernel's integer plan: four int64
    # slots per node, and a stack and an out-edge slot per transmission.
    push_above = _status_bytes("VmHWM") - start_rss
    push_bound = 8 * n * knowledge.words + 8 * (4 * n + 2 * n)
    print(
        f"{PUSH_ROUNDS} push rounds: peak above start {push_above / 1e6:.1f}MB "
        f"= {push_above / push_bound:.3f} x one matrix + plan "
        f"{push_bound / 1e6:.1f}MB",
        flush=True,
    )
    if not compiled:
        print("push-round bound skipped: it models the compiled push rounds")
    elif push_above > push_bound * (1 + ESTIMATE_TOLERANCE):
        print(
            "FAIL: push rounds exceed one matrix plus the plan by more "
            f"than {ESTIMATE_TOLERANCE:.0%}"
        )
        return 1

    tracker = CompletionTracker(knowledge)
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
        tracker.exchange(callers, targets)
        rounds += 1
    wall = time.perf_counter() - t0
    # The loop's peak, before the verification scan's temporaries.
    above = _status_bytes("VmHWM") - start_rss

    if not gossip_complete(knowledge):
        print("FAIL: tracker reported completion but the full scan disagrees")
        return 1

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    estimate = estimate_bytes(n, m)
    print(
        f"complete in {rounds} rounds, {wall:.1f}s; "
        f"peak RSS {peak_mb:.1f}MB (ceiling {args.ceiling_mb:.0f}MB), "
        f"storage {knowledge.storage_nbytes() / 1e6:.1f}MB; "
        f"peak above start {above / 1e6:.1f}MB = {above / estimate:.3f} x "
        f"estimate {estimate / 1e6:.1f}MB",
        flush=True,
    )
    if peak_mb > args.ceiling_mb:
        print(f"FAIL: peak RSS {peak_mb:.1f}MB exceeds ceiling {args.ceiling_mb}MB")
        return 1
    if not compiled:
        print("estimate check skipped: the estimate models the compiled kernels")
    elif above > estimate * (1 + ESTIMATE_TOLERANCE):
        print(
            f"FAIL: peak above start exceeds the estimate by more than "
            f"{ESTIMATE_TOLERANCE:.0%}"
        )
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
