"""Absolute trajectory pins of the three synchronous protocol drivers.

Most trajectory tests compare two configurations within one run, so a
change made on both sides passes them.  These tests pin one run of each
protocol to committed values instead: the rounds, the completion flag, the
ledger's total and per-phase packets, a SHA-256 of the per-node packet
counts and a SHA-256 of the per-round coverage curve.

The graph has n = 6208 nodes, so each knowledge row is 97 words wide: past
the 96 words from which a word-sparse representation used to run.  The
values were recorded with it and hold without it.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import FastGossiping, MemoryGossiping, PushPullGossip, erdos_renyi
from repro.graphs import paper_edge_probability

N = 6208

PROTOCOLS = {
    "push-pull": PushPullGossip,
    "fast-gossiping": FastGossiping,
    "memory": lambda: MemoryGossiping(leader=0),
}

#: Per protocol: rounds, completed, ledger total, packets per phase, and the
#: SHA-256 digests of ``ledger.per_node()`` (int64 bytes) and of
#: ``trace.coverage_curve()`` (float64 bytes).
PINS = {
    "push-pull": (
        13,
        True,
        161408,
        {"push-pull": 161408},
        "caf35615fa05923809ebd5b8b1b6f3cf322120bfb5412efaa50562b29251eb4a",
        "dbd93e615c0b78bc5894e0524931e6e4f28b7775eff45d3a33f68fae22c03331",
    ),
    "fast-gossiping": (
        44,
        True,
        87775,
        {
            "phase1-distribution": 31040,
            "phase2-random-walks": 19487,
            "phase3-broadcast": 37248,
        },
        "e83a19ac061e17ca842c80964cce917a07e024238f23a0868aa3c1a495962525",
        "6f1e5f7f3cfbe27bffb99ac79e98b00b163b8db0c0a0225f4e2061dcd0ea062b",
    ),
    "memory": (
        93,
        True,
        41754,
        {
            "phase1-tree-construction": 13918,
            "phase2-gather": 13918,
            "phase3-broadcast": 13918,
        },
        "87f2941d0d5cf89d249d61a4a56a4e19d859ad93f82f0b3c28607802a9316a91",
        "5f0e8bb3bd4dd2ae8022a321eba8b8783ce8fe80083c73500113f9c0000ea467",
    ),
}


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(N, paper_edge_probability(N), rng=9, require_connected=True)


@pytest.mark.parametrize("protocol_name", list(PINS))
def test_trajectory_matches_its_pin(graph, protocol_name):
    result = PROTOCOLS[protocol_name]().run(graph, rng=41, record_trace=True)
    ledger = result.ledger
    got = (
        result.rounds,
        result.completed,
        ledger.total(),
        {phase: ledger.phase_totals(phase).packets for phase in ledger.phases},
        sha256(ledger.per_node().astype(np.int64)),
        sha256(result.trace.coverage_curve()),
    )
    assert got == PINS[protocol_name]
