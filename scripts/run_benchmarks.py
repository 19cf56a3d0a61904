#!/usr/bin/env python
"""Run the simulator kernel benchmark baseline and write ``BENCH_kernel.json``.

This script times the same hot building blocks as
``benchmarks/bench_protocols_micro.py`` — full protocol runs plus the raw
knowledge-kernel operations — at fixed seeds and sizes (n in {1000, 5000,
20000} by default), and records the results as a machine-readable baseline.
Each future performance PR should rerun it and compare against the committed
``BENCH_kernel.json`` so the repository accumulates a perf trajectory.

Usage::

    PYTHONPATH=src python scripts/run_benchmarks.py            # full baseline
    PYTHONPATH=src python scripts/run_benchmarks.py --quick    # n=1000 only
    PYTHONPATH=src python scripts/run_benchmarks.py -o out.json

Timings are best-of-``--repeats`` wall-clock; graph construction is excluded
from protocol timings.  The JSON records the active kernel backend
(:mod:`repro.engine.backends`) in its header, per-backend protocol and
kernel timings (``numpy`` / ``c`` / ``c-threads``) for every size, and a
thread-scaling micro-bench that times one forced-``t``-thread exchange
round at t in {1, 2, 4, 8} — the measurement behind the small-batch
dispatch cutoff documented in ``docs/parallelism.md``.

Memory measurements (schema 3): every protocol entry carries the peak RSS
of the run, and a ``large_n`` section runs the full push-pull protocol at
n = 100000 once per knowledge-storage layout (``dense`` / ``paged``,
:mod:`repro.engine.layouts`) with per-layout wall-clock, peak
RSS and resident storage bytes, cross-checked for bit-identical final
states via the storage fingerprint.  ``ru_maxrss`` is a process-lifetime
high-water mark, so each of these measurements runs in a fresh subprocess
(this script re-invoked with ``--_child``); the reported RSS includes
graph construction, which every protocol run pays.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Callable, Dict, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro import FastGossiping, MemoryGossiping, PushPullGossip, erdos_renyi
from repro.engine import FrontierKnowledge, KnowledgeMatrix, backends, make_rng
from repro.engine import _ckernel
from repro.engine.knowledge import _CROSSOVER, _FRONTIER_MIN_WORDS
from repro.graphs import paper_edge_probability

#: Thread counts exercised by the thread-scaling micro-bench.
SCALING_THREADS = (1, 2, 4, 8)

SIZES = (1000, 5000, 20000)
#: Large-n layout benchmark: one full protocol run per storage layout.
LARGE_N = 100_000
LARGE_N_LAYOUTS = ("dense", "paged")
GRAPH_SEED = 5
PROTOCOL_SEEDS = {"push-pull": 1, "fast-gossiping": 2, "memory": 3}

#: Wall-clock of the pre-vectorization reference kernels, measured on the
#: same machine with the same graph/protocol seeds and best-of methodology.
#: push-pull / fast-gossiping numbers are the original seed (commit c5dee3b);
#: the memory numbers are the per-node Phase I-III loops as committed by PR 1
#: (BENCH_kernel.json before the batched memory kernels landed).  Kept here
#: because the reference kernels no longer exist in the tree; used to report
#: the speedup of the current kernel in the baseline JSON.
SEED_REFERENCE_MS = {
    "1000": {"memory": 16.7},
    "5000": {"push-pull": 101.4, "fast-gossiping": 93.7, "memory": 79.9},
    "20000": {"push-pull": 1175.5, "fast-gossiping": 1020.2, "memory": 390.2},
}


def best_of(func: Callable[[], object], repeats: int) -> "tuple[float, object]":
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - t0)
    return best, result


def available_backends() -> "Dict[str, backends.KernelBackend]":
    """The backend variants this machine can run (numpy always; C if built)."""
    variants: Dict[str, backends.KernelBackend] = {
        "numpy": backends.NumpyBackend()
    }
    if _ckernel.available():
        variants["c"] = backends.CSerialBackend()
        variants["c-threads"] = backends.CThreadsBackend()
    return variants


def _make_protocol(name: str):
    return {
        "push-pull": lambda: PushPullGossip(),
        "fast-gossiping": lambda: FastGossiping(),
        "memory": lambda: MemoryGossiping(leader=0),
    }[name]()


def _child_main(spec_json: str) -> int:
    """One isolated protocol measurement; prints a JSON result line.

    Runs in a fresh process so ``ru_maxrss`` (a process-lifetime high-water
    mark) reflects exactly this (layout, protocol, n) combination.  The
    storage layout is inherited from ``REPRO_KNOWLEDGE_LAYOUT``, which the
    parent sets per measurement.
    """
    import resource

    spec = json.loads(spec_json)
    n = int(spec["n"])
    graph = erdos_renyi(
        n,
        paper_edge_probability(n),
        rng=int(spec.get("graph_seed", GRAPH_SEED)),
        require_connected=True,
    )
    protocol = _make_protocol(spec["protocol"])
    wall, result = best_of(
        lambda: protocol.run(graph, rng=int(spec["seed"])),
        int(spec.get("repeats", 1)),
    )
    knowledge = result.knowledge
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "layout": type(knowledge).layout,
        "storage_class": type(knowledge).__name__,
        "backend": backends.active().name,
        "wall_clock_s": round(wall, 6),
        "rounds": int(result.rounds),
        "completed": bool(result.completed),
        "total_messages": int(result.total_messages()),
        "fingerprint": knowledge.fingerprint(),
        "peak_rss_mb": round(peak_rss_kb / 1024.0, 1),
        "storage_mb": round(knowledge.storage_nbytes() / 1e6, 1),
    }
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


def measure_in_subprocess(
    n: int,
    protocol_name: str,
    seed: int,
    repeats: int = 1,
    layout: Optional[str] = None,
) -> Dict[str, object]:
    """Run one (layout, protocol, n) measurement in a fresh subprocess."""
    spec = {"n": n, "protocol": protocol_name, "seed": seed, "repeats": repeats}
    env = dict(os.environ)
    if layout is not None:
        env["REPRO_KNOWLEDGE_LAYOUT"] = layout
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--_child", json.dumps(spec)],
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child benchmark failed (n={n}, {protocol_name}, layout={layout}):\n"
            f"{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def large_n_entry(n: int, repeats: int) -> Dict[str, object]:
    """Full push-pull runs at large n, once per storage layout.

    The layouts must agree on rounds, message totals and the final knowledge
    fingerprint — the cross-layout bit-identity contract, verified here at a
    size where it actually matters.
    """
    entry: Dict[str, object] = {
        "n": n,
        "protocol": "push-pull",
        "graph_seed": GRAPH_SEED,
        "seed": PROTOCOL_SEEDS["push-pull"],
        "layouts": {},
    }
    reference = None
    for layout in LARGE_N_LAYOUTS:
        print(f"large-n={n}: push-pull under {layout} layout ...", flush=True)
        row = measure_in_subprocess(
            n, "push-pull", PROTOCOL_SEEDS["push-pull"], repeats, layout=layout
        )
        if not row["completed"]:
            raise RuntimeError(f"large-n push-pull did not complete under {layout}")
        if reference is None:
            reference = row
        elif (
            row["rounds"] != reference["rounds"]
            or row["total_messages"] != reference["total_messages"]
            or row["fingerprint"] != reference["fingerprint"]
        ):
            raise RuntimeError(
                f"large-n trajectory diverged under the {layout} layout"
            )
        entry["layouts"][layout] = {
            k: row[k]
            for k in (
                "storage_class",
                "wall_clock_s",
                "rounds",
                "completed",
                "total_messages",
                "peak_rss_mb",
                "storage_mb",
            )
        }
    entry["fingerprint"] = reference["fingerprint"]
    entry["fingerprints_match"] = True
    return entry


def protocol_entry(protocol, graph, seed: int, repeats: int) -> Dict[str, object]:
    wall, result = best_of(lambda: protocol.run(graph, rng=seed), repeats)
    active_name = backends.active().name
    per_backend = {}
    for name, backend in available_backends().items():
        if name == active_name:
            # The headline measurement above already ran on this backend.
            per_backend[name] = round(wall * 1000, 4)
            continue
        with backends.use(backend):
            backend_wall, backend_result = best_of(
                lambda: protocol.run(graph, rng=seed), repeats
            )
        # Trajectories are backend-invariant; a mismatch here means a broken
        # kernel, not noise — refuse to record garbage.  Compare the full
        # outcome, not just the round count: near-miss row corruption can
        # finish in the same number of rounds.
        if (
            backend_result.rounds != result.rounds
            or backend_result.completed != result.completed
            or backend_result.total_messages() != result.total_messages()
            or backend_result.knowledge != result.knowledge
        ):
            raise RuntimeError(
                f"{protocol.name} trajectory diverged on backend {name}"
            )
        per_backend[name] = round(backend_wall * 1000, 4)
    return {
        "completed": bool(result.completed),
        "rounds": int(result.rounds),
        "wall_clock_s": round(wall, 6),
        "rounds_per_s": round(result.rounds / wall, 2) if wall > 0 else None,
        "total_messages": int(result.total_messages()),
        "backend_wall_clock_ms": per_backend,
        "saturation_filter": saturation_filter_entry(result),
    }


def simd_entry(n: int, repeats: int) -> Optional[Dict[str, object]]:
    """Per-kernel scalar-vs-SIMD timings on the serial C backend.

    Times the swap-form exchange round, the scatter batch and the fused
    recount at every instruction-set level this CPU can run (scalar / avx2 /
    avx512, :func:`repro.engine._ckernel.set_simd_level`), plus a
    ``REPRO_DISABLE_SIMD=1`` control run in a fresh subprocess proving the
    environment override actually lands on the scalar path.
    """
    if not _ckernel.available():
        return None
    rng = make_rng(31)
    km = KnowledgeMatrix(n)
    nodes = np.arange(n, dtype=np.int64)
    targets = rng.integers(0, n, n).astype(np.int64)
    senders = rng.integers(0, n, 2 * n).astype(np.int64)
    receivers = rng.integers(0, n // 2, 2 * n).astype(np.int64)
    mask = km.full_row_mask()
    detected = _ckernel.simd_detected()
    original = _ckernel.simd_active()
    entry: Dict[str, object] = {
        "n": n,
        "detected": _ckernel.simd_name(detected),
        "active": _ckernel.simd_name(),
        "disabled_by_env": bool(os.environ.get("REPRO_DISABLE_SIMD")),
        "levels": {},
    }
    try:
        with backends.use(backends.CSerialBackend()):
            for level in range(detected + 1):
                _ckernel.set_simd_level(level)
                exchange, _ = best_of(
                    lambda: km.apply_exchange(nodes, targets), repeats
                )
                scatter, _ = best_of(
                    lambda: km.apply_transmissions(senders, receivers), repeats
                )
                recount, _ = best_of(lambda: km.count_missing(mask, nodes), repeats)
                entry["levels"][_ckernel.simd_name(level)] = {
                    "exchange_round_ms": round(exchange * 1000, 4),
                    "scatter_batch_ms": round(scatter * 1000, 4),
                    "recount_ms": round(recount * 1000, 4),
                }
    finally:
        _ckernel.set_simd_level(original)
    levels = entry["levels"]
    best_name = _ckernel.simd_name(detected)
    if "scalar" in levels and best_name in levels and best_name != "scalar":
        entry["exchange_simd_speedup"] = round(
            levels["scalar"]["exchange_round_ms"]
            / levels[best_name]["exchange_round_ms"],
            2,
        )
    # Control run: REPRO_DISABLE_SIMD must force the scalar dispatch in a
    # fresh process (the env var is read once at library load).
    src_dir = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    control = subprocess.run(
        [
            sys.executable,
            "-c",
            (
                "import sys, json; sys.path.insert(0, %r); "
                "from repro.engine import _ckernel; "
                "print(json.dumps({'available': _ckernel.available(), "
                "'active': _ckernel.simd_name() if _ckernel.available() else None}))"
            )
            % src_dir,
        ],
        env={**os.environ, "REPRO_DISABLE_SIMD": "1"},
        capture_output=True,
        text=True,
    )
    if control.returncode == 0:
        entry["disable_simd_control"] = json.loads(
            control.stdout.strip().splitlines()[-1]
        )
    return entry


def saturation_filter_entry(result) -> Optional[Dict[str, object]]:
    """The saturation-filter hit rate of one finished protocol run."""
    stats = getattr(result.knowledge, "filter_stats", None)
    if not stats or not stats.get("rounds"):
        return None
    edges = int(stats["edges"])
    dropped = int(stats["edges_dropped"])
    return {
        "filtered_rounds": int(stats["rounds"]),
        "edges_seen": edges,
        "edges_dropped": dropped,
        "promotions": int(stats["promotions"]),
        "drop_rate": round(dropped / edges, 4) if edges else None,
    }


def kernel_entry(n: int, repeats: int) -> Dict[str, object]:
    """Raw kernel micro-timings: one exchange round and one scatter batch.

    The headline numbers run on the active backend; the ``backends`` block
    repeats both measurements on every installed backend, and
    ``thread_scaling`` times the exchange round with the thread count forced
    to each value in :data:`SCALING_THREADS` (``shard_work=1``, i.e. the
    small-batch cutoff disabled) — the measurement that justifies the
    cutoff: below it, pool dispatch costs more than it buys.
    """
    rng = make_rng(13)
    km = KnowledgeMatrix(n)
    nodes = np.arange(n, dtype=np.int64)
    targets = rng.integers(0, n, n).astype(np.int64)
    exchange_wall, _ = best_of(lambda: km.apply_exchange(nodes, targets), repeats)

    senders = rng.integers(0, n, 2 * n).astype(np.int64)
    receivers = rng.integers(0, n // 2, 2 * n).astype(np.int64)
    scatter_wall, _ = best_of(
        lambda: km.apply_transmissions(senders, receivers), repeats
    )
    entry = {
        "exchange_round_ms": round(exchange_wall * 1000, 4),
        "scatter_batch_ms": round(scatter_wall * 1000, 4),
        "backends": {},
        "thread_scaling": {},
    }
    for name, backend in available_backends().items():
        with backends.use(backend):
            b_exchange, _ = best_of(
                lambda: km.apply_exchange(nodes, targets), repeats
            )
            b_scatter, _ = best_of(
                lambda: km.apply_transmissions(senders, receivers), repeats
            )
        entry["backends"][name] = {
            "exchange_round_ms": round(b_exchange * 1000, 4),
            "scatter_batch_ms": round(b_scatter * 1000, 4),
        }
    if _ckernel.available():
        for threads in SCALING_THREADS:
            if threads == 1:
                backend = backends.CSerialBackend()
            else:
                backend = backends.CThreadsBackend(
                    max_threads=threads, shard_work=1
                )
            with backends.use(backend):
                wall, _ = best_of(
                    lambda: km.apply_exchange(nodes, targets), repeats
                )
            entry["thread_scaling"][str(threads)] = round(wall * 1000, 4)
    entry.update(frontier_phase_entry(n, repeats))
    return entry


def frontier_phase_entry(n: int, repeats: int) -> Dict[str, object]:
    """Frontier-phase timings: the first 5 exchange rounds from a cold start.

    Early rounds are where the sparsity-aware path earns its keep, so this
    times the identical channel sequence on a fresh ``FrontierKnowledge``
    versus a fresh dense ``KnowledgeMatrix`` (state construction included —
    protocol runs pay it too).  Five rounds cover the sparse regime and the
    first dense hand-offs at every benchmarked size.
    """
    rng = make_rng(29)
    rounds = []
    for _ in range(5):
        callers = np.arange(n, dtype=np.int64)
        rounds.append((callers, rng.integers(0, n, n).astype(np.int64)))

    def run(cls):
        km = cls(n)
        for callers, targets in rounds:
            km.apply_exchange(callers, targets)
        return km

    dense_wall, _ = best_of(lambda: run(KnowledgeMatrix), repeats)
    frontier_wall, result = best_of(lambda: run(FrontierKnowledge), repeats)
    return {
        "early5_dense_ms": round(dense_wall * 1000, 4),
        "early5_frontier_ms": round(frontier_wall * 1000, 4),
        "early5_frontier_speedup": round(dense_wall / frontier_wall, 2)
        if frontier_wall > 0
        else None,
        "frontier_rows_after5": round(result.frontier_fraction(), 4),
    }


def memory_kernel_entry(graph, repeats: int) -> Dict[str, object]:
    """Memory-model micro-timings: Phase I tree build and Phase II+III replay.

    Both measurements include construction of their fresh per-run state
    (knowledge matrix, ledger, ring buffer) so they reflect what one tree
    costs inside a full protocol run.
    """
    from repro.core.node_memory import NodeMemory
    from repro.engine.metrics import TransmissionLedger

    protocol = MemoryGossiping(leader=0)
    schedule = protocol.params.resolve(graph.n)

    def build():
        knowledge = KnowledgeMatrix(graph.n)
        ledger = TransmissionLedger(graph.n)
        memory = NodeMemory(graph.n, schedule.fanout)
        tree = protocol._build_tree(
            graph, knowledge, ledger, make_rng(17), schedule, 0, memory, alive=None
        )
        return tree

    build_wall, tree = best_of(build, repeats)

    def replay(knowledge_cls):
        knowledge = knowledge_cls(graph.n)
        ledger = TransmissionLedger(graph.n)
        protocol._gather(
            tree, knowledge, ledger, alive=None, contacts=schedule.gather_contacts
        )
        protocol._replay_broadcast(
            tree, knowledge, ledger, alive=None, contacts=schedule.gather_contacts
        )
        return knowledge

    replay_wall, _ = best_of(lambda: replay(KnowledgeMatrix), repeats)
    # The same replay on frontier knowledge: Phase II gathers are word-sparse
    # (most rows hold a couple of words), Phase III ratchets dense.
    replay_frontier_wall, _ = best_of(lambda: replay(FrontierKnowledge), repeats)
    return {
        "tree_build_ms": round(build_wall * 1000, 4),
        "replay_ms": round(replay_wall * 1000, 4),
        "replay_frontier_ms": round(replay_frontier_wall * 1000, 4),
        "tree_push_edges": int(tree.num_push_edges),
        "tree_pull_edges": int(tree.num_pull_edges),
    }


def aggregate_query_entry(repeats: int) -> Optional[Dict[str, object]]:
    """Scan-vs-index aggregate-query timings over a synthetic result store.

    Builds a store of ``n_configs * repetitions`` records in a temp
    directory, then times the same grouped aggregate (and per-metric stats)
    two ways: a cold full-JSONL-scan recompute per call, and the warm
    SQLite query index (each call still re-verifies the indexed prefix
    CRC).  Both answers are required to be identical before anything is
    recorded.  ``index_build_s`` is one from-scratch ``rebuild()``.
    """
    import tempfile

    from repro.analysis.statistics import aggregate_records
    from repro.io import ResultStore, index_available

    if not index_available():
        return None
    n_configs, repetitions = 500, 3
    group_by, metrics = ["n"], ["rounds", "messages"]
    with tempfile.TemporaryDirectory() as tmp:
        rng = make_rng(41)
        store = ResultStore(tmp)
        for c in range(n_configs):
            for r in range(repetitions):
                store.append(
                    "bench",
                    key=["cfg", c],
                    params={"c": c},
                    repetition=r,
                    seed=c * 10 + r,
                    record={
                        "n": 64 * (c % 20 + 1),
                        "rounds": float(rng.uniform(1.0, 50.0)),
                        "messages": int(rng.integers(1_000, 100_000)),
                        "protocol": ("push-pull", "fast-gossiping")[c % 2],
                    },
                )

        def scan_aggregate():
            scan = ResultStore(tmp, index=False)
            pairs = scan.completed_entries("bench")
            records = [pairs[pair]["record"] for pair in sorted(pairs)]
            scan.close()
            return aggregate_records(records, group_by, metrics)

        index = store.query_index
        build_wall, _ = best_of(lambda: index.rebuild("bench"), 1)
        scan_wall, scan_rows = best_of(scan_aggregate, repeats)
        index_wall, index_rows = best_of(
            lambda: index.aggregate("bench", group_by, metrics), repeats
        )
        if index_rows != scan_rows:
            raise RuntimeError("index-served aggregate diverged from the JSONL scan")
        stats_wall, _ = best_of(lambda: index.stats("bench", metrics), repeats)
        store.close()
    return {
        "records": n_configs * repetitions,
        "group_by": group_by,
        "metrics": metrics,
        "index_build_s": round(build_wall, 6),
        "scan_aggregate_ms": round(scan_wall * 1000, 4),
        "index_aggregate_ms": round(index_wall * 1000, 4),
        "index_speedup": round(scan_wall / index_wall, 2) if index_wall > 0 else None,
        "index_stats_ms": round(stats_wall * 1000, 4),
    }


def main() -> int:
    if len(sys.argv) >= 3 and sys.argv[1] == "--_child":
        return _child_main(sys.argv[2])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o",
        "--output",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_kernel.json"),
        help="output JSON path (default: repository BENCH_kernel.json)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="only run the smallest size"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of repeats per measurement"
    )
    parser.add_argument(
        "--skip-large",
        action="store_true",
        help="skip the n=100000 per-layout section (implied by --quick)",
    )
    args = parser.parse_args()

    sizes = SIZES[:1] if args.quick else SIZES
    report: Dict[str, object] = {
        "schema": "repro-bench-kernel/5",
        "description": (
            "Kernel benchmark baseline: full protocol runs and raw knowledge-"
            "kernel operations at fixed seeds (graph rng=5; protocol rngs: "
            "push-pull=1, fast-gossiping=2, memory=3); wall-clock is best-of-"
            f"{args.repeats}.  Per-backend timings and the forced-thread "
            "exchange scaling live under sizes.<n>.kernel / the protocols' "
            "backend_wall_clock_ms.  peak_rss_mb fields are ru_maxrss of a "
            "fresh subprocess per measurement (graph construction included); "
            "large_n runs full push-pull per storage layout at n=100000; "
            "aggregate_query times the same grouped aggregate over a "
            "synthetic result store via a full JSONL scan vs the SQLite "
            "query index (docs/caching.md).  Schema 5 adds the simd section "
            "(per-kernel scalar-vs-SIMD timings per instruction-set level at "
            "the largest size, plus a REPRO_DISABLE_SIMD control subprocess), "
            "the active/detected ISA in the header, and each protocol's "
            "saturation_filter hit rate (docs/architecture.md)."
        ),
        "compiled_kernel": _ckernel.available(),
        "backend": backends.active().describe(),
        "simd": backends.simd_info() if _ckernel.available() else None,
        "cpu_count": os.cpu_count(),
        "frontier": {"crossover": _CROSSOVER, "min_words": _FRONTIER_MIN_WORDS},
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "machine": platform.machine(),
        "sizes": {},
    }

    for n in sizes:
        print(f"n={n}: generating paper graph ...", flush=True)
        graph = erdos_renyi(
            n, paper_edge_probability(n), rng=GRAPH_SEED, require_connected=True
        )
        entry: Dict[str, object] = {
            "kernel": kernel_entry(n, args.repeats),
            "memory_kernel": memory_kernel_entry(graph, args.repeats),
        }
        protocols = {
            "push-pull": PushPullGossip(),
            "fast-gossiping": FastGossiping(),
            "memory": MemoryGossiping(leader=0),
        }
        for name, protocol in protocols.items():
            print(f"n={n}: timing {name} ...", flush=True)
            entry[name] = protocol_entry(
                protocol, graph, PROTOCOL_SEEDS[name], args.repeats
            )
            # Peak RSS of one isolated run (fresh subprocess: ru_maxrss is a
            # process-lifetime high-water mark and would otherwise report
            # whatever earlier measurement was biggest).
            rss_row = measure_in_subprocess(n, name, PROTOCOL_SEEDS[name])
            entry[name]["peak_rss_mb"] = rss_row["peak_rss_mb"]
            entry[name]["storage_mb"] = rss_row["storage_mb"]
            seed_ms = SEED_REFERENCE_MS.get(str(n), {}).get(name)
            if seed_ms is not None:
                entry[name]["seed_wall_clock_ms"] = seed_ms
                entry[name]["speedup_vs_seed"] = round(
                    seed_ms / (entry[name]["wall_clock_s"] * 1000), 2
                )
        report["sizes"][str(n)] = entry

    print("simd: per-ISA kernel timings ...", flush=True)
    simd = simd_entry(max(sizes), args.repeats)
    if simd is not None:
        report["simd"] = simd

    if not (args.quick or args.skip_large):
        report["large_n"] = large_n_entry(LARGE_N, repeats=1)

    print("aggregate-query: JSONL scan vs SQLite index ...", flush=True)
    aggregate_query = aggregate_query_entry(args.repeats)
    if aggregate_query is not None:
        report["aggregate_query"] = aggregate_query

    output = os.path.abspath(args.output)
    with open(output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"wrote {output}")
    for n, entry in report["sizes"].items():
        for proto in ("push-pull", "fast-gossiping", "memory"):
            row = entry[proto]
            print(
                f"  n={n:>6} {proto:<15} rounds={row['rounds']:>4} "
                f"wall={row['wall_clock_s']*1000:8.1f}ms "
                f"({row['rounds_per_s']} rounds/s) "
                f"rss={row['peak_rss_mb']}MB"
            )
        mk = entry["memory_kernel"]
        print(
            f"  n={n:>6} {'memory-kernel':<15} tree={mk['tree_build_ms']:.2f}ms "
            f"replay={mk['replay_ms']:.2f}ms "
            f"replay-frontier={mk['replay_frontier_ms']:.2f}ms"
        )
        kr = entry["kernel"]
        print(
            f"  n={n:>6} {'frontier-early5':<15} dense={kr['early5_dense_ms']:.2f}ms "
            f"frontier={kr['early5_frontier_ms']:.2f}ms "
            f"({kr['early5_frontier_speedup']}x)"
        )
        if kr["thread_scaling"]:
            scaling = "  ".join(
                f"t={t}:{ms:.2f}ms" for t, ms in kr["thread_scaling"].items()
            )
            print(f"  n={n:>6} {'exchange-threads':<15} {scaling}")
    simd_report = report.get("simd")
    if simd_report:
        lines = "  ".join(
            f"{name}:{row['exchange_round_ms']:.2f}ms"
            for name, row in simd_report["levels"].items()
        )
        print(
            f"  simd (n={simd_report['n']}, detected={simd_report['detected']}) "
            f"exchange {lines}"
        )
    for n, entry in report["sizes"].items():
        for proto in ("push-pull", "fast-gossiping", "memory"):
            sat = entry[proto].get("saturation_filter")
            if sat:
                print(
                    f"  n={n:>6} {proto:<15} filter: {sat['filtered_rounds']} rounds "
                    f"drop_rate={sat['drop_rate']} promotions={sat['promotions']}"
                )
    aq = report.get("aggregate_query")
    if aq:
        print(
            f"  aggregate-query ({aq['records']} records) "
            f"scan={aq['scan_aggregate_ms']:.2f}ms "
            f"index={aq['index_aggregate_ms']:.2f}ms "
            f"({aq['index_speedup']}x)  stats={aq['index_stats_ms']:.2f}ms"
        )
    large = report.get("large_n")
    if large:
        print(f"  large-n={large['n']} push-pull per storage layout:")
        for layout, row in large["layouts"].items():
            print(
                f"    {layout:<7} rounds={row['rounds']:>3} "
                f"wall={row['wall_clock_s']:7.2f}s "
                f"rss={row['peak_rss_mb']:>8}MB "
                f"storage={row['storage_mb']:>8}MB"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
