"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of each ``repro`` layer from the outside
(no change to ``src/``): every wrapped call records a span with its name,
layer, start, end, parent span, process id and run id, plus the counts
measured at the same boundary (edges per kernel call, bytes per store
append, ...).  Spans stay in memory; the benchmark process writes them to
``trace-<workload>.jsonl`` at the end of the run.

Sweep pool workers are forked while the wrappers are installed, so they
inherit them.  A worker detects the fork by its process id, starts an empty
span list, and appends its spans to ``spans-<pid>.jsonl`` whenever its
outermost span closes; :meth:`Tracer.collect` merges those files.  Task
functions themselves are never wrapped: the supervisor pickles them by
reference, and a wrapper would no longer be the object the module holds.

A span's *self time* is its duration minus the time its child spans (same
process) cover.  :func:`summarize` turns the spans of the traced operations
into the per-layer metrics listed in :data:`PER_LAYER`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Per-layer metrics reported by a traced run, as ``(name, unit)``.
#: ``self_frac`` is a layer function's self time over the traced operations'
#: wall time (pool workers add their own busy time, so the fractions of a
#: sweep can sum past 1); ``.frac`` on phases and reads is the inclusive
#: time.  Counts are per traced operation.
PER_LAYER: List[Tuple[str, str]] = [
    ("setup.import_s", "s"),
    ("setup.inputs_s", "s"),
    ("host.calib_ms", "ms"),
    ("op_ms", "ms"),
    ("traced_op_ms", "ms"),
    ("trace_overhead_frac", "ratio"),
    ("graphs.make_graph.self_frac", "ratio"),
    ("graphs.make_graph.calls", "count/op"),
    ("graphs.edges_per_s", "1/s"),
    ("graphs.sample_neighbors.self_frac", "ratio"),
    ("graphs.sample_neighbors_avoiding_many.self_frac", "ratio"),
    ("engine.knowledge.apply_exchange.self_frac", "ratio"),
    ("engine.knowledge.apply_exchange.calls", "count/op"),
    ("engine.knowledge.apply_exchange.edges", "count/op"),
    ("engine.knowledge.apply_transmissions.self_frac", "ratio"),
    ("engine.knowledge.apply_transmissions.calls", "count/op"),
    ("engine.knowledge.apply_transmissions.edges", "count/op"),
    ("engine.knowledge.count_missing.self_frac", "ratio"),
    ("engine.knowledge.count_missing.calls", "count/op"),
    ("engine.knowledge.scatter_rows.self_frac", "ratio"),
    ("engine.knowledge.rows.self_frac", "ratio"),
    ("engine.knowledge.bytes_computed", "B/op"),
    ("engine.knowledge.bytes_per_s", "B/s"),
    ("engine.knowledge.filter_drop_rate", "ratio"),
    ("engine.layouts.make_knowledge.self_frac", "ratio"),
    ("engine.layouts.storage_mb", "MB"),
    ("core.push_pull.run.self_frac", "ratio"),
    ("core.fast_gossiping.run.self_frac", "ratio"),
    ("core.memory_gossiping.run.self_frac", "ratio"),
    ("core.phase.push-pull.push-pull.frac", "ratio"),
    ("core.phase.fast-gossiping.phase1-distribution.frac", "ratio"),
    ("core.phase.fast-gossiping.phase2-random-walks.frac", "ratio"),
    ("core.phase.fast-gossiping.phase3-broadcast.frac", "ratio"),
    ("core.phase.memory.phase1-tree-construction.frac", "ratio"),
    ("core.phase.memory.phase2-gather.frac", "ratio"),
    ("core.phase.memory.phase3-broadcast.frac", "ratio"),
    ("core.completion.refresh.self_frac", "ratio"),
    ("core.completion.refresh.calls", "count/op"),
    ("core.completion.update.self_frac", "ratio"),
    ("core.completion.update.calls", "count/op"),
    ("analysis.supervisor.self_frac", "ratio"),
    ("analysis.supervisor.wait_frac", "ratio"),
    ("analysis.supervisor.retries", "count/op"),
    ("analysis.worker_busy_frac", "ratio"),
    ("analysis.task_overhead_ms", "ms"),
    ("experiments.scenarios.run_scenario.self_frac", "ratio"),
    ("experiments.runner.save.self_frac", "ratio"),
    ("experiments.cache.hits", "count/op"),
    ("experiments.cache.executed", "count/op"),
    ("io.store.append.self_frac", "ratio"),
    ("io.store.append.calls", "count/op"),
    ("io.store.append.bytes", "B/op"),
    ("io.index.note_append.self_frac", "ratio"),
    ("io.index.note_append.calls", "count/op"),
    ("io.store.completed_entries.frac", "ratio"),
    ("io.index.refresh.frac", "ratio"),
    ("io.index.aggregate.self_frac", "ratio"),
]

#: Span names whose self time is reported as ``<name>.self_frac``.
_SELF_FRAC = {
    "graphs.make_graph",
    "graphs.sample_neighbors",
    "graphs.sample_neighbors_avoiding_many",
    "engine.knowledge.apply_exchange",
    "engine.knowledge.apply_transmissions",
    "engine.knowledge.count_missing",
    "engine.knowledge.scatter_rows",
    "engine.knowledge.rows",
    "engine.layouts.make_knowledge",
    "core.push_pull.run",
    "core.fast_gossiping.run",
    "core.memory_gossiping.run",
    "core.completion.refresh",
    "core.completion.update",
    "experiments.scenarios.run_scenario",
    "experiments.runner.save",
    "io.store.append",
    "io.index.note_append",
    "io.index.aggregate",
}
#: Span names whose call count per operation is reported as ``<name>.calls``.
_CALLS = {
    "graphs.make_graph",
    "engine.knowledge.apply_exchange",
    "engine.knowledge.apply_transmissions",
    "engine.knowledge.count_missing",
    "core.completion.refresh",
    "core.completion.update",
    "io.store.append",
    "io.index.note_append",
}
#: Span names whose inclusive time is reported as ``<name>.frac``.
_INCLUSIVE_FRAC = {"io.store.completed_entries", "io.index.refresh"}

_SUPERVISOR = "analysis.supervisor.run_supervised_sweep"
_WAIT = "analysis.supervisor.wait"
_RUNS = ("core.push_pull.run", "core.fast_gossiping.run", "core.memory_gossiping.run")
_PHASE = "core.phase."
_KERNELS = ("engine.knowledge.apply_exchange", "engine.knowledge.apply_transmissions")


class Span:
    """One open or closed span of the current process."""

    __slots__ = ("id", "name", "start", "end", "parent", "attrs")

    def __init__(self, span_id: int, name: str, parent: Optional[int]) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.attrs: Dict[str, Any] = {}
        self.start = time.perf_counter()
        self.end: Optional[float] = None


class Tracer:
    """Records spans from wrappers installed around ``repro`` layer functions.

    ``span_dir`` receives the per-PID span files of forked pool workers;
    ``run_id`` tags every span of one benchmark run.
    """

    def __init__(self, span_dir: Path, run_id: str) -> None:
        self.span_dir = Path(span_dir)
        self.run_id = run_id
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def open(self, name: str) -> Span:
        if os.getpid() != self.pid:
            # First span in a forked worker: drop the parent's inherited spans.
            self.pid = os.getpid()
            self.spans, self.stack, self.next_id = [], [], 0
        span = Span(self.next_id, name, self.stack[-1].id if self.stack else None)
        self.next_id += 1
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        """Close ``span`` and any span left open inside it (e.g. a phase)."""
        end = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            top.end = end
            if top is span:
                break
        if not self.stack and self.pid != self.main_pid:
            self._flush_worker()

    def _flush_worker(self) -> None:
        path = self.span_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(self._as_dict(span)) + "\n")
        self.spans = []

    def _as_dict(self, span: Span) -> Dict[str, Any]:
        parent = None if span.parent is None else f"{self.pid}:{span.parent}"
        out = {
            "id": f"{self.pid}:{span.id}",
            "name": span.name,
            "layer": ".".join(span.name.split(".")[:2]),
            "start": span.start,
            "end": span.end,
            "parent": parent,
            "pid": self.pid,
            "run": self.run_id,
        }
        out.update(span.attrs)
        return out

    def collect(self) -> List[Dict[str, Any]]:
        """All spans of the run: this process's plus the workers' files."""
        spans = [self._as_dict(span) for span in self.spans if span.end is not None]
        for path in sorted(self.span_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
            path.unlink()
        return spans

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    def _wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
        tag: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``fn`` in a span called ``name``.

        ``before(args, kwargs)`` runs ahead of the call and its return value
        reaches ``after(attrs, args, kwargs, result, state)``, which records
        counts on the span; ``tag(args)`` gives attributes set when the span
        opens.
        """
        tracer = self
        main_thread = threading.main_thread

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.current_thread() is not main_thread() or (
                tracer.stack and tracer.stack[-1].name == name and tracer.pid == os.getpid()
            ):
                # Other threads, and a layout calling its base class's
                # implementation of the same operation, stay inside one span.
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            span = tracer.open(name)
            if tag is not None:
                span.attrs.update(tag(args))
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span.attrs, args, kwargs, result, state)
                return result
            finally:
                tracer.close(span)

        traced.__wrapped_by_bench__ = fn
        return traced

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_function(self, name: str, module: Any, attr: str, **hooks) -> None:
        """Wrap ``module.attr`` at every ``repro`` module that imported it."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and mod_name.split(".")[0] == "repro":
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, wrapper)

    def _patch_method(self, name: str, cls: type, attr: str, **hooks) -> None:
        if attr in cls.__dict__:
            self._patch(cls, attr, self._wrap(name, cls.__dict__[attr], **hooks))

    def install(self) -> None:
        """Wrap every traced layer function (see :func:`_install_targets`)."""
        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")
        _install_targets(self)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Ledger phases: spans opened and closed by begin_phase/end_phase
    # ------------------------------------------------------------------ #
    def begin_phase(self, phase: str) -> None:
        if os.getpid() == self.pid and self.stack and self.stack[-1].name.startswith(_PHASE):
            self.close(self.stack[-1])
        protocol = next(
            (s.attrs["protocol"] for s in reversed(self.stack) if "protocol" in s.attrs),
            "unknown",
        )
        self.open(f"{_PHASE}{protocol}.{phase}")

    def end_phase(self) -> None:
        if os.getpid() == self.pid and self.stack and self.stack[-1].name.startswith(_PHASE):
            self.close(self.stack[-1])


def leftover_wrappers() -> List[str]:
    """Attributes of loaded ``repro`` modules and classes that hold a wrapper."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod_name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(mod).items()):
            owners = [(f"{mod_name}.{attr}", value)]
            if isinstance(value, type) and value.__module__ == mod_name:
                owners += [(f"{mod_name}.{attr}.{a}", v) for a, v in vars(value).items()]
            found += [name for name, v in owners if hasattr(v, "__wrapped_by_bench__")]
    return found


# ---------------------------------------------------------------------- #
# What is wrapped
# ---------------------------------------------------------------------- #
def _graph_edges(attrs, args, kwargs, graph, state) -> None:
    attrs["edges"] = int(graph.num_edges)


def _exchange_edges(attrs, args, kwargs, result, state) -> None:
    storage, callers = args[0], args[1]
    # One exchange is a push and a pull: two directed row transmissions.
    attrs["edges"] = 2 * int(len(callers))
    attrs["bytes"] = attrs["edges"] * int(storage.words) * 8


def _transmission_edges(attrs, args, kwargs, result, state) -> None:
    storage, senders = args[0], args[1]
    attrs["edges"] = int(len(senders))
    attrs["bytes"] = attrs["edges"] * int(storage.words) * 8


def _protocol_label(args) -> Dict[str, str]:
    return {"protocol": args[0].name}


def _run_outcome(attrs, args, kwargs, result, state) -> None:
    knowledge = result.knowledge
    stats = getattr(knowledge, "filter_stats", None) or {}
    attrs["filter_edges"] = int(stats.get("edges", 0))
    attrs["filter_dropped"] = int(stats.get("edges_dropped", 0))
    attrs["storage_bytes"] = int(knowledge.storage_nbytes())
    attrs["storage_class"] = type(knowledge).__name__


def _scenario_outcome(attrs, args, kwargs, result, state) -> None:
    cache = result.metadata.get("cache") or {}
    report = result.metadata.get("sweep_report") or {}
    attrs["cache_hits"] = int(cache.get("hits", 0))
    attrs["executed"] = int(cache.get("executed", 0))
    attrs["retries"] = int(report.get("retries", 0))


def _store_size(args, kwargs) -> Tuple[Path, int]:
    store, scenario = args[0], args[1]
    path = store.path_for(scenario)
    return path, (path.stat().st_size if path.exists() else 0)


def _append_bytes(attrs, args, kwargs, result, state) -> None:
    path, before = state
    attrs["bytes"] = path.stat().st_size - before


def _install_targets(tracer: Tracer) -> None:
    from repro.analysis import supervisor
    from repro.core import completion, fast_gossiping, memory_gossiping, push_pull
    from repro.engine import knowledge, layouts, metrics
    from repro.experiments import runner, scenarios
    from repro.graphs import adjacency, generators
    from repro.io import index, store

    tracer._patch_function("graphs.make_graph", generators, "make_graph", after=_graph_edges)
    for attr in ("sample_neighbors", "sample_neighbors_avoiding_many"):
        tracer._patch_method(f"graphs.{attr}", adjacency.Adjacency, attr)

    storages = [knowledge.KnowledgeStorage]
    for cls in storages:
        storages.extend(sub for sub in cls.__subclasses__() if sub not in storages)
    hooks = {"apply_exchange": _exchange_edges, "apply_transmissions": _transmission_edges}
    for cls in storages:
        for attr in ("apply_exchange", "apply_transmissions", "count_missing", "scatter_rows", "rows"):
            tracer._patch_method(f"engine.knowledge.{attr}", cls, attr, after=hooks.get(attr))
    tracer._patch_function("engine.layouts.make_knowledge", layouts, "make_knowledge")

    for name, cls in (
        ("core.push_pull.run", push_pull.PushPullGossip),
        ("core.fast_gossiping.run", fast_gossiping.FastGossiping),
        ("core.memory_gossiping.run", memory_gossiping.MemoryGossiping),
    ):
        tracer._patch_method(name, cls, "run", tag=_protocol_label, after=_run_outcome)
    for attr in ("refresh", "update"):
        tracer._patch_method(f"core.completion.{attr}", completion.CompletionTracker, attr)
    ledger = metrics.TransmissionLedger
    begin, end = ledger.begin_phase, ledger.end_phase

    def begin_phase(self, name):
        begin(self, name)
        tracer.begin_phase(name)

    def end_phase(self):
        end(self)
        tracer.end_phase()

    begin_phase.__wrapped_by_bench__ = begin
    end_phase.__wrapped_by_bench__ = end
    tracer._patch(ledger, "begin_phase", begin_phase)
    tracer._patch(ledger, "end_phase", end_phase)

    tracer._patch_function(_SUPERVISOR, supervisor, "run_supervised_sweep")
    tracer._patch(supervisor, "wait", tracer._wrap(_WAIT, supervisor.wait))
    tracer._patch_function(
        "experiments.scenarios.run_scenario", scenarios, "run_scenario", after=_scenario_outcome
    )
    tracer._patch_method("experiments.runner.save", runner.ExperimentResult, "save")

    tracer._patch_method(
        "io.store.append", store.ResultStore, "append", before=_store_size, after=_append_bytes
    )
    tracer._patch_method("io.store.completed_entries", store.ResultStore, "completed_entries")
    for attr in ("note_append", "refresh", "aggregate"):
        tracer._patch_method(f"io.index.{attr}", index.QueryIndex, attr)


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #
def self_times(spans: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Map span id to its self time: duration minus its children's.

    Ledger phase spans mark a stretch of a protocol run rather than a call,
    so they are transparent: their children count against the run span and
    they take nothing from it themselves.
    """
    spans = list(spans)
    by_id = {span["id"]: span for span in spans}
    covered: Dict[str, float] = {}
    for span in spans:
        if span["name"].startswith(_PHASE):
            continue
        parent = span["parent"]
        while parent is not None and by_id[parent]["name"].startswith(_PHASE):
            parent = by_id[parent]["parent"]
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (span["end"] - span["start"])
    return {
        span["id"]: (span["end"] - span["start"]) - covered.get(span["id"], 0.0)
        for span in spans
        if not span["name"].startswith(_PHASE)
    }


def summarize(
    spans: List[Dict[str, Any]],
    selfs: Dict[str, float],
    *,
    main_pid: int,
    ops_start: float,
    n_ops: int,
    wall_s: float,
    workers: int,
) -> Dict[str, float]:
    """Per-layer metrics of the traced operations.

    ``spans`` are all spans of the run, ``selfs`` their :func:`self_times`;
    spans starting before ``ops_start`` belong to set-up and only feed
    ``graphs.edges_per_s``.  ``n_ops`` and ``wall_s`` are the traced
    operations' count and summed wall time; ``workers`` is the sweep pool
    size, used when spans came from pool workers (processes other than
    ``main_pid``).
    """
    graph_edges = sum(s.get("edges", 0) for s in spans if s["name"] == "graphs.make_graph")
    graph_time = sum(s["end"] - s["start"] for s in spans if s["name"] == "graphs.make_graph")
    ops = [s for s in spans if s["start"] >= ops_start]
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for span in ops:
        by_name.setdefault(span["name"], []).append(span)

    def spans_of(name: str) -> List[Dict[str, Any]]:
        return by_name.get(name, [])

    def self_of(name: str) -> float:
        return sum(selfs[s["id"]] for s in spans_of(name))

    def inclusive(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans_of(name))

    def total(name: str, key: str) -> float:
        return sum(s.get(key, 0) for s in spans_of(name))

    out: Dict[str, float] = {}
    for name in _SELF_FRAC:
        out[f"{name}.self_frac"] = self_of(name) / wall_s
    for name in _CALLS:
        out[f"{name}.calls"] = len(spans_of(name)) / n_ops
    for name in _INCLUSIVE_FRAC:
        out[f"{name}.frac"] = inclusive(name) / wall_s
    for metric, _unit in PER_LAYER:
        if metric.startswith(_PHASE):
            out[metric] = inclusive(metric[: -len(".frac")]) / wall_s

    out["graphs.edges_per_s"] = graph_edges / graph_time if graph_time > 0 else 0.0
    for name in _KERNELS:
        out[f"{name}.edges"] = total(name, "edges") / n_ops
    kernel_bytes = sum(total(name, "bytes") for name in _KERNELS)
    kernel_time = sum(self_of(name) for name in _KERNELS)
    out["engine.knowledge.bytes_computed"] = kernel_bytes / n_ops
    out["engine.knowledge.bytes_per_s"] = kernel_bytes / kernel_time if kernel_time > 0 else 0.0
    runs = [s for name in _RUNS for s in spans_of(name)]
    offered = sum(s.get("filter_edges", 0) for s in runs)
    dropped = sum(s.get("filter_dropped", 0) for s in runs)
    out["engine.knowledge.filter_drop_rate"] = dropped / offered if offered else 0.0
    out["engine.layouts.storage_mb"] = max((s.get("storage_bytes", 0) for s in runs), default=0) / 1e6

    out["analysis.supervisor.self_frac"] = self_of(_SUPERVISOR) / wall_s
    out["analysis.supervisor.wait_frac"] = inclusive(_WAIT) / wall_s
    out["analysis.supervisor.retries"] = total("experiments.scenarios.run_scenario", "retries") / n_ops
    # Task time: what pool workers spent inside traced calls, or, without a
    # pool, the protocol runs the benchmark process made itself.
    worker_roots = [s for s in ops if s["pid"] != main_pid and s["parent"] is None]
    if worker_roots:
        busy = sum(s["end"] - s["start"] for s in worker_roots)
        pool_wall = inclusive(_SUPERVISOR)
    else:
        busy = sum(s["end"] - s["start"] for s in runs)
        pool_wall, workers = wall_s, 1
    capacity = workers * pool_wall
    out["analysis.worker_busy_frac"] = busy / capacity if capacity > 0 else 0.0
    out["analysis.task_overhead_ms"] = (
        1000.0 * max(capacity - busy, 0.0) / len(runs) if runs else 0.0
    )
    out["experiments.cache.hits"] = total("experiments.scenarios.run_scenario", "cache_hits") / n_ops
    out["experiments.cache.executed"] = total("experiments.scenarios.run_scenario", "executed") / n_ops
    out["io.store.append.bytes"] = total("io.store.append", "bytes") / n_ops
    return out
