#!/usr/bin/env python3
"""End-to-end benchmark: paper sweeps, the result store and large runs.

Usage, from the repository root::

    python3 bench/run.py                                   # every workload
    python3 bench/run.py --workload protocols-20k --seed 7
    python3 bench/run.py --workload store-sweep --trace 1  # per-layer metrics
    python3 bench/run.py --smoke --seconds 1               # seconds-long scale

Load model: this driver runs one workload at a time, a closed loop of batch
jobs.  Each run starts ``SETUPS`` set-up children one after another, each
with empty ``HOME`` and ``TMPDIR`` (so ``import repro`` compiles the C
kernels into an empty cache), ``PYTHONPATH`` naming ``src`` only and no
``REPRO_*`` variables; each imports the package, builds the workload's
inputs and exits.  A last, measuring child does the same with the kernel
cache of the previous one, then repeats the workload's operation for
``--seconds`` and checks every output (``bench/workloads.py``).  Sweeps use
the program's supervised pool with ``min(2, cpu_count)`` workers.

``setup_s`` is the median over the set-up children of the time from
starting the child to the timed region; ``op_adj_ms`` is the median time of
one operation, adjusted for the host's speed (see :class:`Reference`);
``peak_rss_mb`` is the measuring child's peak RSS or its pool workers'.
With ``--trace 0`` the run reports these end-to-end metrics; with
``--trace 1`` every second operation runs under the
span tracer (``bench/trace.py``), ``DIR/trace-<workload>.jsonl`` is written
and the per-layer metrics are reported instead.  Each run appends its result
to ``DIR/results.jsonl`` (``--out``, default ``bench/.work/out``), the input
of ``bench/compare.py``.  The last line of output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is nonzero when a check failed or a child did not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space of the children, and the default ``--out``.
WORK = ROOT / "bench" / ".work"
sys.path.insert(0, str(ROOT))

from bench.trace import PER_LAYER  # noqa: E402
from bench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

END_TO_END = [("setup_s", "s"), ("op_adj_ms", "ms"), ("peak_rss_mb", "MB")]
DEFAULT_SECONDS = 15
#: Cold set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Wall-clock limit of one workload run, all children included.
TIME_LIMIT_S = 170.0
#: Nominal seconds of one :class:`Reference` pass (typical on the 2-core
#: Xeon host the benchmark was built on); it only scales ``op_adj_ms``.
REFERENCE_S = 0.075
#: How strongly ``op_adj_ms`` follows the reference loop (1 would divide by
#: it), fitted on that host (``bench/README.md``).
REFERENCE_EXPONENT = 0.75


class BenchError(RuntimeError):
    """A run that produced no result (a child failed or ran out of time)."""


class Reference:
    """A fixed loop that uses no ``repro`` code, timed between operations.

    On a shared host the machine's speed drifts by tens of percent within
    minutes, and a run's operations are timed in one such stretch.  The loop
    mixes the kinds of work the workloads do (streaming 64 MiB through
    memory, NumPy arithmetic in cache, interpreted Python), so its time
    drifts with theirs, but only partly.  ``op_adj_ms`` therefore scales the
    median operation time by ``(REFERENCE_S / median loop time) **
    REFERENCE_EXPONENT``, the exponent that left the smallest worst-case
    run-to-run spread of those measured (``bench/README.md``).  A code change
    still scales the result by its own factor, as the loop runs no ``repro``
    code.  The loop runs in this driver process while the measuring child
    waits, so its memory never counts in the child's RSS.  Timing it between
    operations, rather than only before and after the child, tracks the
    drift within a run (``bench/README.md`` compares the two).
    """

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.big = np.arange(1 << 22, dtype=np.uint64)
        self.out = self.big[::-1].copy()
        self.small = np.arange(1 << 14, dtype=np.uint64)

    def measure(self) -> float:
        """Seconds of one pass of the loop."""
        np = self.np
        start = time.perf_counter()
        for _ in range(8):
            np.bitwise_or(self.big, self.out, out=self.out)
        x = self.small
        for _ in range(500):
            x = (x * np.uint64(6364136223846793005) + np.uint64(1442695040888963407)) ^ (
                x >> np.uint64(29)
            )
        counts: Dict[int, int] = {}
        for i in range(100_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        return time.perf_counter() - start


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_child(
    spec: Dict[str, Any], home: Path, tmp: Path, deadline: float, reference: Reference
) -> "tuple[float, List[float], Dict[str, Any]]":
    """Run one child with the given ``HOME``/``TMPDIR``.

    The child prints ``REF`` and waits whenever it wants a reference pass;
    its last line is its result.  Returns the start time, the reference
    times and the result.
    """
    env = {
        k: v for k, v in os.environ.items() if not k.startswith("REPRO_") and k != "PYTHONPATH"
    }
    env.update(HOME=str(home), TMPDIR=str(tmp), PYTHONPATH=str(ROOT / "src"))
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.workloads", json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    expired = threading.Event()

    def expire() -> None:
        expired.set()
        # The child leads its own process group, pool workers included.
        os.killpg(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), expire)
    timer.start()
    refs: List[float] = []
    last = ""
    try:
        for line in proc.stdout:
            if line == "REF\n":
                refs.append(reference.measure())
                proc.stdin.write("\n")
                proc.stdin.flush()
            elif line.strip():
                last = line
        proc.wait()
    finally:
        timer.cancel()
        proc.stdin.close()
    what = f"{spec['workload']} ({spec['role']})"
    if expired.is_set():
        raise BenchError(f"{what} exceeded {TIME_LIMIT_S:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with code {proc.returncode}")
    if not last:
        raise BenchError(f"{what} printed no result")
    return started, refs, json.loads(last)


def run_workload(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """One run of one workload; returns the record appended to results.jsonl."""
    out_dir = Path(args.out).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    reference = Reference()
    setups: List[Dict[str, Any]] = []
    setup_s: List[float] = []
    try:
        for k in range(SETUPS + 1):
            child = work / f"child-{k}"
            for sub in ("home", "tmp", "work"):
                (child / sub).mkdir(parents=True)
            spec = {
                "workload": name,
                "role": "setup" if k < SETUPS else "full",
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": bool(args.trace),
                "smoke": args.smoke,
                "work_dir": str(child / "work"),
                "out_dir": str(out_dir),
                "record_pins": args.record_pins,
            }
            # The measuring child reuses the last set-up's kernel cache: a
            # compiler run would otherwise count in its children's peak RSS.
            tmp = child / "tmp" if k < SETUPS else work / f"child-{k - 1}" / "tmp"
            started, refs, result = run_child(spec, child / "home", tmp, deadline, reference)
            if k < SETUPS:
                setups.append(result)
                setup_s.append(result["ready_at"] - started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    full = result

    walls, traced = full["op_walls"], full["op_traced"]
    op_ms = 1000.0 * statistics.median(w for w, t in zip(walls, traced) if not t)
    calib_ms = 1000.0 * statistics.median(refs)
    adjust = (1000.0 * REFERENCE_S / calib_ms) ** REFERENCE_EXPONENT
    for summary in full["stages_ms"].values():
        summary["adj_median"] = summary["median"] * adjust
    if args.trace:
        traced_ms = 1000.0 * statistics.median(w for w, t in zip(walls, traced) if t)
        values = dict(
            full["per_layer"],
            **{
                "setup.import_s": statistics.median(s["import_s"] for s in setups),
                "setup.inputs_s": statistics.median(s["inputs_s"] for s in setups),
                "host.calib_ms": calib_ms,
                "op_ms": op_ms,
                "traced_op_ms": traced_ms,
                "trace_overhead_frac": traced_ms / op_ms - 1.0,
            },
        )
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "op_adj_ms": op_ms * adjust,
            "peak_rss_mb": full["peak_rss_mb"],
        }
        units = END_TO_END
    result = {
        "correct": full["failed"] == 0,
        "attempted": full["attempted"],
        "failed": full["failed"],
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in units},
    }
    header = dict(
        full["header"],
        workload=name,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        git=git_revision(),
        ops=len(walls),
        setup_samples_s=setup_s,
        op_ms=op_ms,
        host_calib_ms=calib_ms,
    )
    record = {"header": header, "stages_ms": full["stages_ms"], "result": result}
    if args.trace:
        for key in ("trace_file", "op_self_s", "min_self_s", "traced_wall_s", "wrappers_left"):
            record[key] = full[key]
    with open(out_dir / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return record


def print_record(record: Dict[str, Any]) -> None:
    header = record["header"]
    print(f"# {header['workload']}: seed {header['seed']}, {header['ops']} operations")
    for key, value in sorted(header.items()):
        print(f"#   {key}: {json.dumps(value)}")
    for stage, summary in sorted(record["stages_ms"].items()):
        print(
            f"#   stage {stage}: median {summary['median']:.3f} ms "
            f"(adjusted {summary['adj_median']:.3f} ms) over {summary['samples']} samples"
        )
    for metric, entry in record["result"]["metrics"].items():
        print(f"{header['workload']:<14} {metric:<52} {entry['value']:>16.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all of them")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", default=str(WORK / "out"))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs for the self-test")
    parser.add_argument(
        "--record-pins", action="store_true", help="write this run's outputs as the pins"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args))
            print_record(records[-1])
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if len(records) == 1:
        final = records[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {
                f"{r['header']['workload']}.{metric}": entry
                for r in records
                for metric, entry in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
