"""One benchmark workload run: set-up, timed operations and output checks.

``bench/run.py`` starts this module as ``python -m bench.workloads SPEC``
from the repository root, with ``PYTHONPATH`` naming ``src`` only; ``SPEC``
is the JSON object ``run.run_workload`` builds.  A ``setup`` child imports
the package, builds the workload's inputs and exits.  A ``full`` child then
repeats operations until ``seconds`` have passed, checks every output and
prints one JSON result as its last line.  Before the first operation and
after each one it prints ``REF`` and waits for a line on standard input,
while the driver times its reference loop.

Operations use only the public API, with the same calls a user makes:
``run_scenario(..., store=..., supervise=True, n_jobs=...)`` for sweeps,
``QueryIndex.aggregate`` and ``ExperimentResult.save`` on the store, and
``Protocol.run`` on a prebuilt graph.  In a traced run every second
operation runs with the :mod:`bench.trace` wrappers installed.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Outputs at the default seed, per workload and scale (see :func:`check_pins`).
PINS = ROOT / "bench" / "pins.json"
DEFAULT_SEED = 20150525
#: Operations a run makes at least, so repeated outputs can be compared
#: (and, in a traced run, one operation is traced and one is not).
MIN_OPS = 2


def derive(seed: int, label: str) -> int:
    """A 32-bit seed for ``label``, derived from the run's ``--seed``."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def sha256(obj: Any) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


class Checks:
    """Counts checked operations and the ones whose output was wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"check failed: {what}: {problem}", file=sys.stderr)


class Stages:
    """Times the stages of one operation.

    In a traced operation each stage runs with the tracer's wrappers
    installed and is its root span; they are removed again before any
    check runs, so checks are neither timed nor traced.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.traced = False
        self.wall = 0.0
        self.times: Dict[str, List[float]] = {}

    @contextmanager
    def stage(self, name: str):
        if self.traced:
            self.tracer.install()
            span = self.tracer.open(f"bench.{name}")
            try:
                yield
            finally:
                self.tracer.close(span)
                self.tracer.uninstall()
            wall = span.end - span.start
        else:
            start = time.perf_counter()
            yield
            wall = time.perf_counter() - start
            self.times.setdefault(name, []).append(wall)
        self.wall += wall


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
class Workload:
    """Set-up and one operation of a workload; subclasses fill them in."""

    name = ""

    def __init__(self, seed: int, smoke: bool, work_dir: Path, n_jobs: int) -> None:
        self.seed = seed
        self.smoke = smoke
        self.work_dir = work_dir
        self.n_jobs = n_jobs
        #: First value of each pinned output (compared with bench/pins.json).
        self.observed: Dict[str, Any] = {}

    def setup(self) -> None:
        """Build the workload's inputs (timed as part of set-up)."""

    def op(self, index: int, stages: Stages, checks: Checks) -> None:
        raise NotImplementedError

    def header(self) -> Dict[str, Any]:
        return {}

    def observe(self, checks: Checks, what: str, problems: List[str], values: Dict[str, Any]) -> None:
        """Count an operation; its ``values`` must equal those of earlier repeats."""
        for key, value in values.items():
            first = self.observed.setdefault(key, value)
            if first != value:
                problems.append(f"{key} changed between repeated runs: {first} != {value}")
        checks.record(what, problems)


def sweep_problems(result, executed: int) -> List[str]:
    """Problems with a sweep result: quarantined tasks or a wrong task count."""
    problems = []
    report = result.metadata.get("sweep_report") or {}
    if report.get("quarantined"):
        problems.append(f"{len(report['quarantined'])} tasks quarantined")
    cache = result.metadata.get("cache") or {}
    if cache.get("executed") != executed:
        problems.append(f"executed {cache.get('executed')} tasks, expected {executed}")
    if not all(row.get("completed", True) for row in result.rows):
        problems.append("a configuration did not complete")
    return problems


class PaperSweep(Workload):
    """Cold ``figure1`` and ``density`` sweeps through the supervised pool."""

    name = "paper-sweep"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        from repro.experiments.config import DensitySweepConfig, SizeSweepConfig

        sizes, repetitions, size = ((128, 256), 1, 256) if self.smoke else ((2048, 8192), 2, 2048)
        base = math.log2(size) ** 2
        self.configs = {
            "figure1": SizeSweepConfig(
                sizes=sizes, repetitions=repetitions, seed=derive(self.seed, "figure1")
            ),
            "density": DensitySweepConfig(
                size=size,
                expected_degrees=(base, (2 if self.smoke else 4) * base),
                include_complete=True,
                repetitions=1,
                seed=derive(self.seed, "density"),
            ),
        }

    def op(self, index, stages, checks):
        from repro.experiments import scenarios
        from repro.io.store import ResultStore

        store_dir = self.work_dir / f"store-{index}"
        store = ResultStore(store_dir)
        results = {}
        for name, config in self.configs.items():
            with stages.stage(name):
                results[name] = scenarios.run_scenario(
                    name, config=config, store=store, supervise=True, n_jobs=self.n_jobs
                )
        store.close()
        for name, result in results.items():
            total = result.metadata["cache"]["total"]
            self.observe(
                checks, f"{name} sweep", sweep_problems(result, executed=total),
                {f"{name}.rows_sha256": sha256(result.rows)},
            )
        shutil.rmtree(store_dir)

    def header(self):
        from repro.engine import adaptive_knowledge

        sizes = set(self.configs["figure1"].sizes) | {self.configs["density"].size}
        return {
            "storage_class": {
                str(n): type(adaptive_knowledge(n)).__name__ for n in sorted(sizes)
            }
        }


class StoreSweep(Workload):
    """Many tiny tasks: cold sweep (writes), warm re-runs (reads), queries, save."""

    name = "store-sweep"
    GROUP_BY = ["n", "protocol"]
    METRICS = ["messages_per_node", "rounds", "opens_per_node", "strict_cost_per_node"]

    def __init__(self, *args) -> None:
        super().__init__(*args)
        from repro.experiments.config import SizeSweepConfig

        self.config = SizeSweepConfig(
            sizes=(64, 96, 128),
            repetitions=4 if self.smoke else 30,
            seed=derive(self.seed, "store"),
        )
        # Enough reads and queries that they weigh in the operation's time
        # beside the cold writes (cold ~53 %, queries ~37 %, warm ~9 %).
        self.warm_runs = 2 if self.smoke else 10
        self.queries = 5 if self.smoke else 100

    def op(self, index, stages, checks):
        from repro.analysis.statistics import aggregate_records
        from repro.experiments import scenarios
        from repro.io.store import ResultStore

        op_dir = self.work_dir / f"store-{index}"
        store = ResultStore(op_dir / "store")
        sweep = dict(config=self.config, store=store, supervise=True, n_jobs=self.n_jobs)
        with stages.stage("cold_sweep"):
            cold = scenarios.run_scenario("figure1", **sweep)
        total = cold.metadata["cache"]["total"]
        self.observe(
            checks, "cold sweep", sweep_problems(cold, executed=total),
            {"figure1.rows_sha256": sha256(cold.rows)},
        )
        for _ in range(self.warm_runs):
            with stages.stage("warm_sweep"):
                warm = scenarios.run_scenario("figure1", resume=True, **sweep)
            problems = sweep_problems(warm, executed=0)
            if warm.metadata["cache"]["hits"] != total:
                problems.append(f"{warm.metadata['cache']['hits']} cache hits of {total}")
            if warm.rows != cold.rows:
                problems.append("warm rows differ from cold rows")
            checks.record("warm sweep", problems)
        scan_store = ResultStore(op_dir / "store", index=False)
        pairs = scan_store.completed_entries("figure1")
        scan_store.close()
        scanned = aggregate_records(
            [pairs[pair]["record"] for pair in sorted(pairs)], self.GROUP_BY, self.METRICS
        )
        index_ = store.query_index
        for _ in range(self.queries):
            with stages.stage("query"):
                answer = index_.aggregate("figure1", self.GROUP_BY, self.METRICS)
            self.observe(
                checks, "index aggregate",
                [] if answer == scanned else ["index aggregate differs from the JSONL scan"],
                {"figure1.aggregate_sha256": sha256(answer)},
            )
        with stages.stage("save"):
            paths = cold.save(op_dir / "export")
        checks.record("save", [f"{p} missing" for p in paths.values() if not Path(p).is_file()])
        store.close()
        shutil.rmtree(op_dir)


class Protocols(Workload):
    """Push-pull, fast-gossiping and memory on one prebuilt paper graph."""

    n = 0
    smoke_n = 0
    layout: Optional[str] = None

    def setup(self):
        from repro import FastGossiping, MemoryGossiping, PushPullGossip, make_graph, paper_graph_spec

        n = self.smoke_n if self.smoke else self.n
        self.graph = make_graph(paper_graph_spec(n), rng=derive(self.seed, "graph"))
        self.protocols = [PushPullGossip(), FastGossiping(), MemoryGossiping(leader=0)]
        self.seeds = {p.name: derive(self.seed, p.name) for p in self.protocols}
        self.storage: Dict[str, str] = {}

    def op(self, index, stages, checks):
        from repro.engine import layouts

        k = index % len(self.protocols)
        # Interleaved: each operation starts with the next protocol.
        for protocol in self.protocols[k:] + self.protocols[:k]:
            with layouts.use(self.layout) if self.layout else nullcontext():
                with stages.stage(protocol.name):
                    result = protocol.run(self.graph, rng=self.seeds[protocol.name])
            storage = type(result.knowledge)
            self.storage[protocol.name] = storage.__name__
            problems = [] if result.completed else ["did not complete"]
            expected = self.layout or "dense"
            if storage.layout != expected:
                problems.append(f"ran on the {storage.layout} layout, expected {expected}")
            self.observe(
                checks, f"{protocol.name} run", problems,
                {
                    f"{protocol.name}.outcome": [
                        bool(result.completed), int(result.rounds), int(result.total_messages())
                    ]
                },
            )
            del result

    def header(self):
        return {"n": self.graph.n, "storage_class": dict(sorted(self.storage.items()))}


class Protocols20k(Protocols):
    name = "protocols-20k"
    n, smoke_n = 20000, 1500


class Paged32k(Protocols):
    name = "paged-32k"
    n, smoke_n = 32768, 1500
    layout = "paged"


WORKLOADS = {cls.name: cls for cls in (PaperSweep, StoreSweep, Protocols20k, Paged32k)}


# ---------------------------------------------------------------------- #
# Child entry point
# ---------------------------------------------------------------------- #
def check_pins(spec: Dict[str, Any], workload: Workload, checks: Checks) -> None:
    """Compare the run's outputs with the committed pins at the default seed."""
    if spec["seed"] != DEFAULT_SEED:
        return
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    scale = "smoke" if spec["smoke"] else "full"
    if spec["record_pins"]:
        pins.setdefault(workload.name, {})[scale] = workload.observed
        PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
        return
    expected = pins.get(workload.name, {}).get(scale)
    if expected is None:
        checks.record("pins", [f"no pins for {workload.name} ({scale}) in {PINS}"])
        return
    problems = [
        f"{key}: expected {value}, got {workload.observed.get(key)}"
        for key, value in sorted(expected.items())
        if workload.observed.get(key) != value
    ]
    checks.record("pins", problems)


def request_reference() -> None:
    """Let the driver time its reference loop while this process waits."""
    print("REF", flush=True)
    sys.stdin.readline()


def main(spec: Dict[str, Any]) -> int:
    import numpy as np

    import repro
    from repro.engine import _ckernel, backends

    import_s = time.monotonic() - STARTED
    src = (ROOT / "src").resolve()
    if Path(repro.__file__).resolve().parents[1] != src:
        print(f"error: imported repro from {repro.__file__}, not from {src}", file=sys.stderr)
        return 2
    if not _ckernel.available():
        # The NumPy fallback is several times slower; recording it would
        # look like a code regression.
        print("error: the C kernels are not available (compile failed)", file=sys.stderr)
        return 3

    from bench import trace

    work_dir = Path(spec["work_dir"])
    n_jobs = min(2, os.cpu_count() or 1)
    workload = WORKLOADS[spec["workload"]](spec["seed"], spec["smoke"], work_dir, n_jobs)
    full = spec["role"] == "full"
    tracer = None
    if full and spec["trace"]:
        span_dir = work_dir / "spans"
        span_dir.mkdir(parents=True, exist_ok=True)
        tracer = trace.Tracer(span_dir, f"{workload.name}-{spec['seed']}-{os.getpid()}")
        tracer.install()
        setup_span = tracer.open("bench.setup")
    inputs0 = time.monotonic()
    workload.setup()
    ready_at = time.monotonic()
    out: Dict[str, Any] = {
        "role": spec["role"],
        "ready_at": ready_at,
        "import_s": import_s,
        "inputs_s": ready_at - inputs0,
    }
    if tracer is not None:
        tracer.close(setup_span)
        tracer.uninstall()
    if not full:
        print(json.dumps(out))
        return 0

    checks = Checks()
    stages = Stages(tracer)
    request_reference()
    walls, traced = [], []
    ops_start = time.perf_counter()
    deadline = ops_start + spec["seconds"]
    while len(walls) < MIN_OPS or time.perf_counter() < deadline:
        stages.traced = tracer is not None and len(walls) % 2 == 1
        stages.wall = 0.0
        workload.op(len(walls), stages, checks)
        request_reference()
        walls.append(stages.wall)
        traced.append(stages.traced)
    check_pins(spec, workload, checks)
    traced_walls = [w for w, t in zip(walls, traced) if t]

    header = {
        "cpu_count": os.cpu_count(),
        "n_jobs": n_jobs,
        "backend": backends.active().describe(),
        "simd": backends.simd_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **workload.header(),
    }
    # This process's own high-water mark comes from VmHWM: its ru_maxrss
    # also holds the RSS of the driver it was started from.  Pool workers'
    # peaks arrive through RUSAGE_CHILDREN once they are reaped.
    with open("/proc/self/status", encoding="ascii") as fh:
        own_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    rss = max(own_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out.update(
        header=header,
        attempted=checks.attempted,
        failed=checks.failed,
        op_walls=walls,
        op_traced=traced,
        peak_rss_mb=rss / 1024.0,
        stages_ms={
            name: {"median": 1000.0 * statistics.median(times), "samples": len(times)}
            for name, times in stages.times.items()
        },
    )
    if tracer is not None:
        spans = tracer.collect()
        trace_path = Path(spec["out_dir"]) / f"trace-{workload.name}.jsonl"
        with open(trace_path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        selfs = trace.self_times(spans)
        per_layer = trace.summarize(
            spans,
            selfs,
            main_pid=os.getpid(),
            ops_start=ops_start,
            n_ops=len(traced_walls),
            wall_s=sum(traced_walls),
            workers=n_jobs,
        )
        out.update(
            per_layer=per_layer,
            trace_file=str(trace_path),
            # Sum of this process's self times inside the traced operations;
            # it cannot exceed their wall time.
            op_self_s=sum(
                selfs[span["id"]]
                for span in spans
                if span["pid"] == os.getpid() and span["start"] >= ops_start and span["id"] in selfs
            ),
            min_self_s=min(selfs.values(), default=0.0),
            traced_wall_s=sum(traced_walls),
            wrappers_left=trace.leftover_wrappers(),
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(json.loads(sys.argv[1])))
