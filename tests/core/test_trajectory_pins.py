"""Absolute trajectory pins of the protocol drivers.

Most trajectory tests compare two configurations within one run, so a
change made on both sides passes them.  These tests pin runs to committed
values instead: the rounds, the completion flag, the ledger's per-phase
packets, a SHA-256 of the per-node packet counts and a SHA-256 of the
per-round coverage curve.

:data:`PINS` holds one failure-free run of each synchronous driver on a
graph of n = 6208 nodes, so each knowledge row is 97 words wide: past the
96 words from which a word-sparse representation used to run.  The values
were recorded with it and hold without it.

:data:`RUN_PINS` holds the event clock (with and without a seeded churn
plan) and crash runs (every protocol with crashes at ``start``, and the
memory model with crashes ``before_gather``) at n = 256 and at n = 333, whose
last knowledge word is ragged.  They also pin the final knowledge
``fingerprint()``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import FastGossiping, MemoryGossiping, PushPullGossip, erdos_renyi
from repro.core import PushPullParameters
from repro.engine.event_clock import sample_churn_plan
from repro.engine.failures import sample_uniform_failures
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


def _event_run(n, churn):
    protocol = PushPullGossip(PushPullParameters(clock="event"))
    plan = None
    if churn:
        plan = sample_churn_plan(
            n, leavers=n // 8, rng=7, horizon=protocol.params.max_events(n) // 4
        )
    return protocol, {"churn": plan}


def _crash_run(factory, inject_at):
    def build(n):
        plan = sample_uniform_failures(
            n, n // 16, rng=5, inject_at=inject_at, protect=[0]
        )
        return factory(), {"failures": plan}

    return build


#: Per configuration: ``n -> (protocol, run keyword arguments)``.
RUNS = {
    "event": lambda n: _event_run(n, churn=False),
    "event-churn": lambda n: _event_run(n, churn=True),
    "push-pull-start": _crash_run(PushPullGossip, "start"),
    "fast-gossiping-start": _crash_run(FastGossiping, "start"),
    "memory-start": _crash_run(lambda: MemoryGossiping(leader=0), "start"),
    "memory-before-gather": _crash_run(
        lambda: MemoryGossiping(leader=0), "before_gather"
    ),
}

#: Per (configuration, n): rounds, completed, packets per phase, the SHA-256
#: digests of ``ledger.per_node()`` and of ``trace.coverage_curve()``, and
#: the final ``knowledge.fingerprint()``.  The graph uses rng ``n`` and the
#: run rng ``n + 1``.
RUN_PINS = {
    ("event", 256): (
        255,
        True,
        {"push-pull": 5002},
        "c2550b221fd7738cbe211cb8a4b45427171c0d30f944dd48512a66c3617b0f75",
        "2f6c202f99fc334d325d42fd3f352dceec609e033d2d98000af7c3e0f775c488",
        "97c9325b18b8264a7dfd35e6eb895cfe9f8bca05600a44bf0e7a188b7baf15f9",
    ),
    ("event", 333): (
        288,
        True,
        {"push-pull": 6472},
        "a91530108b536ffd52232731983c3a14434b9b3fd030694ae9fa486be8791fbf",
        "913e5a908b072234576728f0ac0f2dd96280e4a10e3d0e294ef5fa336e203170",
        "194464321bf1231c00a7fc36322e3cb8d67eabb4e00da05603bd86aab335341e",
    ),
    ("event-churn", 256): (
        296,
        True,
        {"push-pull": 5234},
        "9dc48f0e611df8f347814f5f64f29a8ce3c6b9b6e92c635b2b5895e157905194",
        "3368e0a41729075cd5e7470f9914e421108b199bb35ba7a4e85f7da398f15420",
        "51f33ce3ebe3a4ae001189061a6abd5dd676b562bfef4f77e9ac62c8a0e2891a",
    ),
    ("event-churn", 333): (
        405,
        True,
        {"push-pull": 8328},
        "48e628b6f1e5810399a09d377b39e7e2b8a8aca0b83ea74b17f86b9c04e5289f",
        "f86ee7e7c52b6543ba4fa101a9201bda7ac08c9b1a6a4fba10f207ce15f16fbc",
        "48b85c729eb7a12e877639ea71d5c1de160ba330407174dd7fab7554f59bce86",
    ),
    ("push-pull-start", 256): (
        10,
        True,
        {"push-pull": 4522},
        "b5e0ce570b2415695bff815958b4dc97ed525d3af04b129d16f5e667853fd84f",
        "10c799ac94f7c71499f944c4ca9824916ab9f5e5b812d141aa293675006ba2a3",
        "e29c3a9dcd2193da0050049d30cc96d82734aff5de0a938295d8d47515a8e5d5",
    ),
    ("push-pull-start", 333): (
        12,
        True,
        {"push-pull": 7070},
        "7640f13e78e4d3741d005ffdf4af8dbe5c6ff8d8c5daa0c1584db4abea17aa2f",
        "60d76df9ba483fc03ad478fdf300915cb90593c1cee6d818a1720acb49195bf4",
        "b0f31b6f19fae4edb611014c8e3cf5ccfc64c84109882a75796ce4b6740325cb",
    ),
    ("fast-gossiping-start", 256): (
        32,
        True,
        {
            "phase1-distribution": 906,
            "phase2-random-walks": 618,
            "phase3-broadcast": 1802,
        },
        "f650a3e395c6c6e8d972effd53d67ff5bbe3b6318c182618a76ad8be99dfd8ed",
        "bd8ef2454d4aeca8b1e6f3bb1077ad92e6233fa946542a7dbf8ce8ed0074c028",
        "e29c3a9dcd2193da0050049d30cc96d82734aff5de0a938295d8d47515a8e5d5",
    ),
    ("fast-gossiping-start", 333): (
        32,
        True,
        {
            "phase1-distribution": 1184,
            "phase2-random-walks": 729,
            "phase3-broadcast": 2370,
        },
        "e452b8dfd68babf7c18abce390960033fa8d4aa3c267e12db45e4a2108e4ad0b",
        "d8cc4de84e16baf5ec50d327b1f959275abff58482eb89cc64d0cd99989b3cd5",
        "b0f31b6f19fae4edb611014c8e3cf5ccfc64c84109882a75796ce4b6740325cb",
    ),
    ("memory-start", 256): (
        60,
        True,
        {
            "phase1-tree-construction": 310,
            "phase2-gather": 300,
            "phase3-broadcast": 310,
        },
        "b34abebda20275a93a9bee8647e161ec04b3febfb33944667ba7f508730e9b02",
        "c712faac5d97efdf82fdd8fdc793b21642c92dc61a4de24d22eb591b7ccc3e45",
        "e29c3a9dcd2193da0050049d30cc96d82734aff5de0a938295d8d47515a8e5d5",
    ),
    ("memory-start", 333): (
        69,
        True,
        {
            "phase1-tree-construction": 689,
            "phase2-gather": 660,
            "phase3-broadcast": 689,
        },
        "a82a8af05c16ab41e96ad4bb254e7c07e94ada22efe647b13006782eab4e547e",
        "7a779c30a5f12fdbb025675353a364b4f511b385af50fd1cc09afd93d5d0c4ec",
        "b0f31b6f19fae4edb611014c8e3cf5ccfc64c84109882a75796ce4b6740325cb",
    ),
    ("memory-before-gather", 256): (
        57,
        False,
        {
            "phase1-tree-construction": 365,
            "phase2-gather": 331,
            "phase3-broadcast": 340,
        },
        "60fc0e8b4ecdd5eb76595622173a63ec0a4f6ed2e5bd51626ec150c4984fa247",
        "3f4efc34509fba722ca30b91626ac8db955c7b93810505b67625689e60b24641",
        "6c76dcb17cd8e1f1e03a4d6f2f1c84f82ec08257a461a9242f4b1e3122b0671d",
    ),
    ("memory-before-gather", 333): (
        66,
        False,
        {
            "phase1-tree-construction": 761,
            "phase2-gather": 670,
            "phase3-broadcast": 715,
        },
        "3a450107f884659a576f653e856ce7006759aacce26e3841ba88ec0afcbfffed",
        "ec30b6ca3f965cac6300f198cdd2ba2fb98270d3f88f99fe140c50b892ee72c0",
        "8baeb38a0d567ce7110f7ed24f97fee17036d0cc83ffd667f36d252464bd926f",
    ),
}


@pytest.fixture(scope="module")
def small_graphs():
    return {
        n: erdos_renyi(n, paper_edge_probability(n), rng=n, require_connected=True)
        for n in sorted({n for _, n in RUN_PINS})
    }


@pytest.mark.parametrize("name,n", list(RUN_PINS))
def test_run_matches_its_pin(small_graphs, name, n):
    protocol, kwargs = RUNS[name](n)
    result = protocol.run(small_graphs[n], rng=n + 1, record_trace=True, **kwargs)
    ledger = result.ledger
    got = (
        result.rounds,
        result.completed,
        {phase: ledger.phase_totals(phase).packets for phase in ledger.phases},
        sha256(ledger.per_node().astype(np.int64)),
        sha256(result.trace.coverage_curve()),
        result.knowledge.fingerprint(),
    )
    assert got == RUN_PINS[name, n]
