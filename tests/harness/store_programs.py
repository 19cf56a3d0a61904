"""Seeded random programs over the result-store / query-index contract.

A *program* is a plain-data op sequence (dicts of ints/strings only, so it
prints and replays verbatim) exercising the write side of
:class:`repro.io.ResultStore` together with every external mutation the
JSONL files can suffer in the wild: record appends (through the store,
which leaves the index to catch up on the next read), ``failure``
quarantine entries, crc-less legacy lines written straight to the file,
same-length in-place garbles (valid JSON, caught only by the line CRC and
the index's prefix-CRC chain), raw byte garbles, and tail truncation.

At every ``check`` op :func:`run_program` compares the index-served
answers — completed view, record list, active failures, counts, exports
(byte-for-byte), grouped aggregates and metric statistics, and all of it
again after ``rebuild()`` — against a fresh full-JSONL-scan recompute via
``ResultStore(dir, index=False)``.  ``None`` means every answer was
identical.  :func:`shrink_program` delta-debugs a failing program down to a
locally-minimal op sequence and :func:`describe_failure` renders it with
exact replay instructions.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.statistics import aggregate_records, summarize
from repro.io import ResultStore
from repro.io.results import canonical_json
from repro.io.store import config_hash

__all__ = [
    "OP_KINDS",
    "Failure",
    "describe_failure",
    "generate_program",
    "run_program",
    "shrink_program",
]

#: Every op kind the generator can emit.
OP_KINDS = (
    "record",
    "failure",
    "legacy",
    "garble_value",
    "garble_raw",
    "truncate",
    "check",
)

#: Scenario name every program writes to.
SCENARIO = "prog"

#: Grouping key / metric names the checks aggregate over.  ``n`` is present
#: in every record the generator emits (aggregate_records requires group
#: keys); ``rounds`` is sometimes omitted so the missing-metric paths run.
GROUP_BY = ("n",)
METRICS = ("n", "rounds")

_PROTOCOLS = ("push", "pull", "push–pull")


# ---------------------------------------------------------------------- #
# Generation
# ---------------------------------------------------------------------- #
def _gen_record_fields(rng: np.random.Generator, config: int) -> Dict[str, Any]:
    fields: Dict[str, Any] = {"n": 64 * (config + 1)}
    if rng.random() < 0.75:
        fields["rounds"] = float(round(float(rng.uniform(0.0, 50.0)), 3))
    if rng.random() < 0.6:
        fields["proto"] = str(rng.choice(_PROTOCOLS))
    if rng.random() < 0.5:
        fields["ok"] = bool(rng.random() < 0.5)
    if rng.random() < 0.2:
        fields["series"] = [config, int(rng.integers(0, 10))]
    if rng.random() < 0.15:
        # Wider than 64 bits: absent from the index's statistics but must
        # still round-trip through completed / records / export comparisons
        # bit-for-bit.
        fields["wide"] = 2**70 + int(rng.integers(0, 1000))
    return fields


def _gen_op(
    rng: np.random.Generator, n_configs: int, repetitions: int
) -> Tuple[str, Dict[str, Any]]:
    kind = str(
        rng.choice(
            OP_KINDS, p=(0.42, 0.12, 0.08, 0.10, 0.08, 0.08, 0.12)
        )
    )
    config = int(rng.integers(0, n_configs))
    rep = int(rng.integers(0, repetitions))
    if kind == "record":
        return kind, {
            "config": config,
            "rep": rep,
            "fields": _gen_record_fields(rng, config),
        }
    if kind == "failure":
        return kind, {"config": config, "rep": rep, "code": int(rng.integers(0, 100))}
    if kind == "legacy":
        return kind, {"config": config, "rep": rep, "value": int(rng.integers(0, 100))}
    if kind in ("garble_value", "garble_raw"):
        return kind, {"pick": int(rng.integers(0, 1_000_000))}
    if kind == "truncate":
        return kind, {"drop": int(rng.integers(1, 40))}
    if kind == "check":
        return kind, {}
    raise AssertionError(kind)


def generate_program(seed: int) -> Dict[str, Any]:
    """The seeded random program for ``seed`` (pure function of the seed)."""
    rng = np.random.default_rng(seed)
    n_configs = int(rng.integers(2, 5))
    repetitions = int(rng.integers(1, 4))
    ops = [
        _gen_op(rng, n_configs, repetitions)
        for _ in range(int(rng.integers(4, 15)))
    ]
    ops.append(("check", {}))
    return {
        "seed": seed,
        "n_configs": n_configs,
        "repetitions": repetitions,
        "ops": ops,
    }


# ---------------------------------------------------------------------- #
# Interpretation
# ---------------------------------------------------------------------- #
class Failure:
    """A divergence between the query index and the full-scan recompute."""

    def __init__(self, op_index: int, stage: str, detail: str) -> None:
        self.op_index = op_index
        self.stage = stage
        self.detail = detail

    def __repr__(self) -> str:
        return f"Failure(op={self.op_index} stage={self.stage!r}: {self.detail})"


def _pair_key(config: int, rep: int) -> Tuple[Any, Dict[str, int], int]:
    """Key, params and seed for a (config, repetition) slot — deterministic."""
    return ["cfg", config], {"c": config}, config * 1000 + rep


def _apply_store_op(
    store: ResultStore, path: Path, kind: str, arg: Dict[str, Any]
) -> None:
    if kind == "record":
        key, params, seed = _pair_key(arg["config"], arg["rep"])
        store.append(
            SCENARIO,
            key=key,
            params=params,
            repetition=arg["rep"],
            seed=seed,
            record=arg["fields"],
        )
        return
    if kind == "failure":
        key, params, seed = _pair_key(arg["config"], arg["rep"])
        store.append_failure(
            SCENARIO,
            key=key,
            params=params,
            repetition=arg["rep"],
            seed=seed,
            failure={"kind": "error", "message": f"boom-{arg['code']}"},
        )
        return
    if kind == "legacy":
        # A pre-CRC line appended behind the store's back: no "crc" field,
        # still a valid entry every scanner (and the index) must accept.
        key, params, seed = _pair_key(arg["config"], arg["rep"])
        entry = {
            "config": config_hash(key, params),
            "key": key,
            "repetition": arg["rep"],
            "seed": seed,
            "record": {"n": 64 * (arg["config"] + 1), "rounds": float(arg["value"])},
        }
        with open(path, "ab") as handle:
            handle.write((canonical_json(entry) + "\n").encode("utf-8"))
        return
    if kind == "garble_value":
        if not path.exists():
            return
        lines = path.read_bytes().splitlines(keepends=True)
        if not lines:
            return
        pick = arg["pick"] % len(lines)
        line = lines[pick]
        # Same-length digit swap keeps the line valid JSON: only the line
        # CRC (and the index's prefix-CRC chain) can notice the tamper.
        for offset, byte in enumerate(line):
            if ord("0") <= byte <= ord("9"):
                swapped = ord("9") - byte + ord("0")
                lines[pick] = line[:offset] + bytes([swapped]) + line[offset + 1:]
                break
        path.write_bytes(b"".join(lines))
        return
    if kind == "garble_raw":
        if not path.exists():
            return
        lines = path.read_bytes().splitlines(keepends=True)
        if not lines:
            return
        pick = arg["pick"] % len(lines)
        tail = b"\n" if lines[pick].endswith(b"\n") else b""
        lines[pick] = b"\xff" * (len(lines[pick]) - len(tail)) + tail
        path.write_bytes(b"".join(lines))
        return
    if kind == "truncate":
        if not path.exists():
            return
        size = path.stat().st_size
        with open(path, "ab") as handle:
            handle.truncate(max(0, size - arg["drop"]))
        return
    raise AssertionError(kind)


def _scan_answers(directory: Path) -> Dict[str, Any]:
    """The full-JSONL-scan recompute the index must match bit-for-bit."""
    scan = ResultStore(directory, index=False)
    try:
        pairs = scan.completed_entries(SCENARIO)
        # Completed view: latest record per pair, pair-sorted — feeds the
        # aggregate/stats/export comparisons.  ``records``/``counts`` are
        # over ALL record entries in append order, like the scanner's.
        completed = [pairs[pair]["record"] for pair in sorted(pairs)]
        record_entries = [e for e in scan.entries(SCENARIO) if e.kind == "record"]
        failures = scan.failures(SCENARIO)
        answers: Dict[str, Any] = {
            "completed": {pair: pairs[pair]["record"] for pair in sorted(pairs)},
            "records": [entry["record"] for entry in record_entries],
            "failures": failures,
            "counts": {
                "records": len(record_entries),
                "configurations": len({entry["config"] for entry in record_entries}),
                "failures": len(failures),
            },
            "aggregate": aggregate_records(
                completed, group_by=list(GROUP_BY), metrics=["rounds"]
            ),
            "stats": _scan_stats(completed),
        }
        return answers
    finally:
        scan.close()


def _scan_stats(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Re-derive index.stats() from scan records: ascending-sorted floats of
    each scalar numeric field over the completed view, summarized plus
    nearest-rank percentiles."""
    rows: List[Dict[str, Any]] = []
    for name in METRICS:
        values = sorted(
            float(record[name])
            for record in records
            if isinstance(record.get(name), (int, float))
            and not isinstance(record.get(name), bool)
            and abs(record[name]) <= 2**63 - 1
        )
        if not values:
            continue
        stats = summarize(values)
        row: Dict[str, Any] = {
            "metric": name,
            "count": stats.count,
            "mean": stats.mean,
            "std": stats.std,
            "min": stats.minimum,
            "max": stats.maximum,
        }
        for q in (50, 90, 99):
            rank = min(len(values), max(int(math.ceil(q / 100.0 * len(values))), 1))
            row[f"p{q:g}"] = values[rank - 1]
        rows.append(row)
    return rows


def _compare(
    op_index: int,
    directory: Path,
    index,
    exports: Path,
) -> Optional[Failure]:
    expected = _scan_answers(directory)

    def diverged(stage: str, got: Any, want: Any) -> Optional[Failure]:
        if got != want:
            return Failure(op_index, stage, f"index {got!r} != scan {want!r}")
        return None

    completed = index.completed(SCENARIO)
    checks = [
        diverged("completed", completed, expected["completed"]),
        diverged("records", index.records(SCENARIO), expected["records"]),
        diverged("failures", index.failures(SCENARIO), expected["failures"]),
        diverged("counts", index.counts(SCENARIO), expected["counts"]),
        diverged(
            "aggregate",
            index.aggregate(SCENARIO, list(GROUP_BY), ["rounds"]),
            expected["aggregate"],
        ),
        diverged("stats", index.stats(SCENARIO, list(METRICS)), expected["stats"]),
    ]
    for failure in checks:
        if failure is not None:
            return failure
    if expected["records"]:
        scan_dir = exports / f"scan_{op_index}"
        index_dir = exports / f"index_{op_index}"
        ResultStore(directory, index=False).export(SCENARIO, scan_dir)
        index.export(SCENARIO, index_dir)
        for name in (f"{SCENARIO}_records.json", f"{SCENARIO}_records.csv"):
            got = (index_dir / name).read_bytes()
            want = (scan_dir / name).read_bytes()
            if got != want:
                return Failure(
                    op_index, "export", f"{name}: {len(got)}B != scan {len(want)}B"
                )
    # The incrementally-maintained state must equal a from-scratch rebuild.
    index.rebuild(SCENARIO)
    failure = diverged("rebuild-completed", index.completed(SCENARIO), expected["completed"])
    if failure is not None:
        return failure
    return diverged("rebuild-failures", index.failures(SCENARIO), expected["failures"])


def run_program(program: Dict[str, Any]) -> Optional[Failure]:
    """Replay ``program`` in a temp store; None means index == scan throughout."""
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "store"
        exports = Path(tmp) / "exports"
        store = ResultStore(directory)
        if store.query_index is None:  # pragma: no cover - sqlite always present
            store.close()
            return None
        path = directory / f"{SCENARIO}.jsonl"
        try:
            for i, (kind, arg) in enumerate(program["ops"]):
                if kind == "check":
                    failure = _compare(i, directory, store.query_index, exports)
                    if failure is not None:
                        return failure
                else:
                    _apply_store_op(store, path, kind, arg)
        finally:
            store.close()
    return None


# ---------------------------------------------------------------------- #
# Shrinking
# ---------------------------------------------------------------------- #
def shrink_program(
    program: Dict[str, Any], fails: Callable[[Dict[str, Any]], bool]
) -> Dict[str, Any]:
    """Delta-debug the op list to a locally-minimal failing program.

    Repeatedly tries to delete spans of ops (halving span length down to
    single ops), keeping any deletion under which ``fails`` still holds.
    Purely structural — op payloads are kept intact so the result replays
    exactly.
    """
    ops = list(program["ops"])

    def with_ops(candidate: List[Tuple[str, Dict[str, Any]]]) -> Dict[str, Any]:
        trimmed = dict(program)
        trimmed["ops"] = candidate
        return trimmed

    span = max(1, len(ops) // 2)
    while span >= 1:
        i, progress = 0, False
        while i < len(ops):
            candidate = ops[:i] + ops[i + span:]
            if candidate and fails(with_ops(candidate)):
                ops = candidate
                progress = True
            else:
                i += span
        span = span // 2 if not progress else span
    return with_ops(ops)


def describe_failure(program: Dict[str, Any], failure: Failure) -> str:
    """Render the minimal failing program with exact replay instructions."""
    lines = [
        "store/index differential harness failure:",
        f"  seed={program['seed']} n_configs={program['n_configs']} "
        f"repetitions={program['repetitions']}",
        f"  {failure!r}",
        "  minimal op sequence:",
    ]
    for i, (kind, arg) in enumerate(program["ops"]):
        lines.append(f"    [{i}] {kind}: {arg}")
    lines += [
        "  replay with:",
        "    from store_programs import generate_program, run_program, shrink_program",
        f"    prog = generate_program({program['seed']})",
        "    run_program(prog)  # compares QueryIndex vs ResultStore(dir, index=False)",
    ]
    return "\n".join(lines)
