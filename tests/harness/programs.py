"""Seeded random programs over the knowledge-storage contract.

A *program* is a plain-data op sequence (lists and ints only, so it prints
and replays verbatim) exercising every bulk primitive of
:class:`repro.engine.knowledge.KnowledgeMatrix`: directed transmissions,
push–pull exchanges with and without the saturation filter, external-row
scatters, two-way merges with external rows, row assignment, point adds,
deficit recounts and event-clock batches grouped by
:func:`repro.engine.event_clock.group_events`.  Programs carry 1 to 1024
messages (up to 16 words), and row assignments often write the full row,
so that the saturation filter meets complete rows.

:func:`run_program` replays a program against the engine and the
set-based :class:`oracle.OracleKnowledge` side by side, comparing the packed
state, and any rows or counts an op returns, after every op.
:func:`shrink_program` delta-debugs a failing program down to a
locally-minimal op sequence, and :func:`describe_failure` renders the
minimal program plus exact replay instructions.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.engine import KnowledgeMatrix, group_events

from oracle import OracleKnowledge

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
    "transmissions",
    "exchange",
    "exchange_complete",
    "event_batch",
    "scatter_rows",
    "merge_rows",
    "assign_rows",
    "add",
    "add_many",
    "count_missing",
)

#: Message counts that exercise 64-bit word boundaries.
_WORD_EDGE_MESSAGES = (63, 64, 65, 127, 128)

#: Largest message count (16 words).
_WIDE_MESSAGES = 1024


# ---------------------------------------------------------------------- #
# Generation
# ---------------------------------------------------------------------- #
def _distinct_partner(rng: np.random.Generator, node: int, n: int) -> int:
    """A uniform node different from ``node`` (n >= 2)."""
    other = int(rng.integers(0, n - 1))
    return other if other < node else other + 1


def _gen_pairs(rng: np.random.Generator, n: int, k: int) -> Tuple[List[int], List[int]]:
    a = [int(x) for x in rng.integers(0, n, size=k)]
    b = [_distinct_partner(rng, x, n) for x in a]
    return a, b


def _gen_message_rows(rng: np.random.Generator, m: int, count: int) -> List[List[int]]:
    """``count`` small external rows, each a sorted message-id list."""
    return [
        sorted(int(x) for x in rng.choice(m, size=int(rng.integers(0, min(m, 8) + 1)), replace=False))
        for _ in range(count)
    ]


def _gen_assign(
    rng: np.random.Generator, n: int, m: int, full: bool
) -> Tuple[str, Dict[str, Any]]:
    """Assign one row to up to a quarter of the nodes: the full row
    (complete rows for the saturation filter) or a few messages."""
    k = int(rng.integers(1, max(2, n // 4 + 1)))
    nodes = sorted(int(x) for x in rng.choice(n, size=k, replace=False))
    if full:
        messages = list(range(m))
    else:
        messages = sorted(
            int(x) for x in rng.choice(m, size=int(rng.integers(0, min(m, 12) + 1)), replace=False)
        )
    return "assign_rows", {"nodes": nodes, "messages": messages}


def _gen_op(rng: np.random.Generator, n: int, m: int) -> Tuple[str, Dict[str, Any]]:
    kind = str(rng.choice(OP_KINDS))
    if kind == "transmissions":
        senders, receivers = _gen_pairs(rng, n, int(rng.integers(1, n + 1)))
        return kind, {"senders": senders, "receivers": receivers}
    if kind in ("exchange", "exchange_complete"):
        k = int(rng.integers(1, max(2, n // 2 + 1)))
        callers = sorted(int(x) for x in rng.choice(n, size=k, replace=False))
        targets = [_distinct_partner(rng, c, n) for c in callers]
        return kind, {"callers": callers, "targets": targets}
    if kind == "event_batch":
        callers, targets = _gen_pairs(rng, n, int(rng.integers(1, 3 * n + 1)))
        return kind, {"callers": callers, "targets": targets}
    if kind == "scatter_rows":
        k_src = int(rng.integers(1, 5))
        source = _gen_message_rows(rng, m, k_src)
        k = int(rng.integers(1, n + 1))
        return kind, {
            "source": source,
            "src_idx": [int(x) for x in rng.integers(0, k_src, size=k)],
            "receivers": [int(x) for x in rng.integers(0, n, size=k)],
        }
    if kind == "merge_rows":
        # A walk-style delivery: distinct external rows, and nodes drawn
        # from a few hosts so that several rows meet at one node.
        k_ext = int(rng.integers(1, 7))
        k = int(rng.integers(1, k_ext + 1))
        hosts = rng.integers(0, n, size=int(rng.integers(1, k + 1)))
        return kind, {
            "external": _gen_message_rows(rng, m, k_ext),
            "ext_rows": [int(x) for x in rng.choice(k_ext, size=k, replace=False)],
            "nodes": [int(x) for x in rng.choice(hosts, size=k)],
        }
    if kind == "assign_rows":
        return _gen_assign(rng, n, m, full=rng.random() < 0.5)
    if kind == "add":
        return kind, {"node": int(rng.integers(0, n)), "message": int(rng.integers(0, m))}
    if kind == "add_many":
        k = int(rng.integers(1, n + 1))
        nodes = sorted(int(x) for x in rng.choice(n, size=k, replace=False))
        return kind, {"nodes": nodes, "message": int(rng.integers(0, m))}
    if kind == "count_missing":
        k = int(rng.integers(1, n + 1))
        return kind, {"rows": [int(x) for x in rng.integers(0, n, size=k)]}
    raise AssertionError(kind)


def generate_program(seed: int) -> Dict[str, Any]:
    """The seeded random program for ``seed`` (pure function of the seed)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 41))
    # Word-boundary message counts are over-represented on purpose: the
    # packed kernels' edge cases live at multiples of 64 bits.  A quarter
    # of the programs are wide.
    draw = rng.random()
    if draw < 0.5:
        m = int(rng.choice(_WORD_EDGE_MESSAGES))
    elif draw < 0.75:
        m = int(rng.integers(1, 161))
    else:
        m = int(rng.integers(161, _WIDE_MESSAGES + 1))
    ops = [_gen_op(rng, n, m) for _ in range(int(rng.integers(3, 13)))]
    if rng.random() < 0.25:
        # Start from a few complete rows, so that the program's filtered
        # exchanges meet the saturation filter.
        ops.insert(0, _gen_assign(rng, n, m, full=True))
    return {
        "seed": seed,
        "n_nodes": n,
        "n_messages": m,
        "ops": ops,
    }


# ---------------------------------------------------------------------- #
# Interpretation
# ---------------------------------------------------------------------- #
class Failure:
    """A divergence between the engine and the oracle."""

    def __init__(self, op_index: int, kind: str, detail: str) -> None:
        self.op_index = op_index
        self.kind = kind
        self.detail = detail

    def __repr__(self) -> str:
        return f"Failure(op={self.op_index} kind={self.kind!r}: {self.detail})"


def _apply_engine(engine: KnowledgeMatrix, kind: str, arg: Dict[str, Any]) -> Optional[np.ndarray]:
    """Run one op on the engine; return its output (deficits, merged rows)."""
    i64 = lambda xs: np.asarray(xs, dtype=np.int64)  # noqa: E731
    if kind == "transmissions":
        engine.apply_transmissions(i64(arg["senders"]), i64(arg["receivers"]))
        return None
    if kind == "exchange":
        engine.apply_exchange(i64(arg["callers"]), i64(arg["targets"]))
        return None
    if kind == "exchange_complete":
        mask = engine.full_row_mask()
        complete = engine.count_missing(mask, np.arange(engine.n_nodes)) == 0
        engine.apply_exchange(
            i64(arg["callers"]),
            i64(arg["targets"]),
            complete=complete,
            complete_row=mask,
        )
        return None
    if kind == "event_batch":
        for grp_callers, grp_targets in group_events(
            i64(arg["callers"]), i64(arg["targets"]), engine.n_nodes
        ):
            engine.apply_exchange(grp_callers, grp_targets)
        return None
    if kind == "scatter_rows":
        source = np.stack([engine.row_with(row) for row in arg["source"]])
        engine.scatter_rows(source, i64(arg["src_idx"]), i64(arg["receivers"]))
        return None
    if kind == "merge_rows":
        external = np.stack([engine.row_with(row) for row in arg["external"]])
        engine.merge_rows(external, i64(arg["ext_rows"]), i64(arg["nodes"]))
        return external
    if kind == "assign_rows":
        engine.assign_rows(i64(arg["nodes"]), engine.row_with(arg["messages"]))
        return None
    if kind == "add":
        engine.add(arg["node"], arg["message"])
        return None
    if kind == "add_many":
        engine.add_many(i64(arg["nodes"]), arg["message"])
        return None
    if kind == "count_missing":
        return engine.count_missing(engine.full_row_mask(), i64(arg["rows"]))
    raise AssertionError(kind)


def _apply_oracle(oracle: OracleKnowledge, kind: str, arg: Dict[str, Any]) -> Optional[Any]:
    """Run one op on the oracle; return the output the engine must match."""
    if kind == "transmissions":
        oracle.apply_transmissions(arg["senders"], arg["receivers"])
        return None
    if kind in ("exchange", "exchange_complete"):
        # The saturation filter is a bit-exact engine shortcut; the oracle's
        # plain snapshot exchange is the semantics it must preserve.
        oracle.apply_exchange(arg["callers"], arg["targets"])
        return None
    if kind == "event_batch":
        for c, t in zip(arg["callers"], arg["targets"]):
            oracle.apply_event(c, t)
        return None
    if kind == "scatter_rows":
        oracle.scatter_rows(arg["source"], arg["src_idx"], arg["receivers"])
        return None
    if kind == "merge_rows":
        return oracle.merge_rows(arg["external"], arg["ext_rows"], arg["nodes"])
    if kind == "assign_rows":
        oracle.assign_rows(arg["nodes"], arg["messages"])
        return None
    if kind == "add":
        oracle.add(arg["node"], arg["message"])
        return None
    if kind == "add_many":
        oracle.add_many(arg["nodes"], arg["message"])
        return None
    if kind == "count_missing":
        return oracle.count_missing(range(oracle.n_messages), arg["rows"])
    raise AssertionError(kind)


def run_program(program: Dict[str, Any]) -> Optional[Failure]:
    """Replay ``program`` on the engine vs the oracle; None means bit-identical."""
    engine = KnowledgeMatrix(program["n_nodes"], program["n_messages"])
    oracle = OracleKnowledge(program["n_nodes"], program["n_messages"])
    everyone = np.arange(program["n_nodes"], dtype=np.int64)
    for i, (kind, arg) in enumerate(program["ops"]):
        engine_out = _apply_engine(engine, kind, arg)
        oracle_out = _apply_oracle(oracle, kind, arg)
        if oracle_out is not None and not np.array_equal(engine_out, oracle_out):
            return Failure(
                i,
                kind,
                f"output {np.asarray(engine_out).tolist()} != oracle "
                f"{np.asarray(oracle_out).tolist()}",
            )
        got, want = engine.rows(everyone), oracle.packed()
        if not np.array_equal(got, want):
            bad = np.flatnonzero((got != want).any(axis=1))
            return Failure(
                i, kind, f"state diverged at rows {bad.tolist()[:8]}"
            )
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


def describe_failure(program: Dict[str, Any], backend: Any, failure: Failure) -> str:
    """Render the minimal failing program with exact replay instructions.

    ``backend`` is the kernel backend the program ran under; its ``repr``
    is the constructor call the replay line uses.
    """
    lines = [
        f"differential harness failure: backend={backend!r}",
        f"  seed={program['seed']} n_nodes={program['n_nodes']} "
        f"n_messages={program['n_messages']}",
        f"  {failure!r}",
        "  minimal op sequence:",
    ]
    for i, (kind, arg) in enumerate(program["ops"]):
        lines.append(f"    [{i}] {kind}: {arg}")
    lines += [
        "  replay with:",
        "    from programs import generate_program, run_program, shrink_program",
        "    from repro.engine import backends",
        f"    prog = generate_program({program['seed']})",
        f"    with backends.use(backends.{backend!r}):",
        "        run_program(prog)",
    ]
    return "\n".join(lines)
