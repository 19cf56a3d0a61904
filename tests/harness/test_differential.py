"""Property-based differential harness: layouts x backends vs a set oracle.

Seeded random programs (:mod:`programs`) exercise every knowledge-storage
bulk primitive — transmissions, filtered and unfiltered exchanges, scatter,
two-way merges, assignment, point adds, deficit recounts and event-clock
batches — and each program is replayed on every layout x backend
combination against the pure Python set-per-node oracle (:mod:`oracle`),
comparing the packed state bit-for-bit after every op.

The SAME program seeds run under every configuration, so a divergence
pinpoints the (layout, backend) pair at fault.  On failure the program is
delta-debugged to a locally-minimal op sequence and the assertion message
prints it along with the seed and replay instructions.

``REPRO_HARNESS_PROGRAMS`` scales the number of programs per configuration
(default 15 locally; CI runs 200+).  A call-count test pins that a fixed
set of programs reaches the word-sparse frontier kernel and both branches
of the saturation-filtered exchange.
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np
import pytest

from repro.engine import _ckernel, backends
from repro.engine.knowledge import KnowledgeMatrix

from programs import (
    HARNESS_LAYOUTS,
    describe_failure,
    generate_program,
    run_program,
    shrink_program,
)

#: Programs per (layout, backend) configuration.  The local default keeps
#: `pytest -q` fast; the CI harness leg raises it to 200+.
N_PROGRAMS = int(os.environ.get("REPRO_HARNESS_PROGRAMS", "15"))

#: Base seed; program k uses BASE_SEED + k under every configuration.
BASE_SEED = 990000

#: Backend configurations: the NumPy kernels, the compiled kernels on one
#: thread, and the compiled kernels forced to two shards on every batch.
BACKENDS = {
    "numpy": backends.NumpyBackend(),
    "c": backends.CBackend(max_threads=1),
    "c-sharded": backends.CBackend(max_threads=2, shard_work=1),
}


def _require_backend(name: str) -> None:
    if name != "numpy" and not _ckernel.available():
        pytest.skip("compiled kernel unavailable on this machine")


@pytest.mark.parametrize("backend", list(BACKENDS))
@pytest.mark.parametrize("layout", HARNESS_LAYOUTS)
def test_programs_match_oracle(layout: str, backend: str) -> None:
    _require_backend(backend)
    with backends.use(BACKENDS[backend]) as active:
        for k in range(N_PROGRAMS):
            program = generate_program(BASE_SEED + k)
            failure = run_program(program, layout)
            if failure is None:
                continue
            # Shrink before reporting: re-run smaller candidate programs and
            # keep deletions that still diverge anywhere.
            minimal = shrink_program(
                program, lambda p: run_program(p, layout) is not None
            )
            final = run_program(minimal, layout)
            pytest.fail(describe_failure(minimal, layout, active, final or failure))


@pytest.mark.parametrize("layout", HARNESS_LAYOUTS)
def test_programs_match_oracle_across_simd_levels(layout: str) -> None:
    """The same programs, replayed at every SIMD level the CPU supports.

    The harness's small matrices take the production kernels, whose word
    loops hold the SIMD dispatch: nothing gates the swap-form exchange or
    the in-place push by matrix size.
    """
    _require_backend("c")
    if _ckernel.simd_detected() == 0:
        pytest.skip("CPU supports no SIMD level beyond scalar")
    original = _ckernel.simd_active()
    try:
        with backends.use("c") as active:
            for level in range(_ckernel.simd_detected() + 1):
                _ckernel.set_simd_level(level)
                for k in range(max(1, N_PROGRAMS // 3)):
                    program = generate_program(BASE_SEED + k)
                    failure = run_program(program, layout)
                    if failure is None:
                        continue
                    minimal = shrink_program(
                        program, lambda p: run_program(p, layout) is not None
                    )
                    final = run_program(minimal, layout)
                    pytest.fail(
                        f"simd level {_ckernel.simd_name(level)}: "
                        + describe_failure(minimal, layout, active, final or failure)
                    )
    finally:
        _ckernel.set_simd_level(original)


#: Programs the call-count test replays (fixed, whatever the environment asks).
COVERAGE_PROGRAMS = 40


def test_programs_reach_the_frontier_kernel_and_both_filter_branches(
    monkeypatch,
) -> None:
    """The generated programs reach the kernels they exist to check.

    Each counted ``_ckernel`` entry point is wrapped to count its calls,
    keyed by layout and by whether an ``apply_exchange`` that met a complete
    row made them.  A filtered exchange runs the swap-form
    ``exchange_filtered`` while at least half the rows are in play and
    gathers the surviving edges into ``scatter_or`` otherwise; the frontier
    layout's sparse batches run ``frontier_scatter``.
    """
    _require_backend("c")
    calls = Counter()
    context = []
    for name in ("exchange_filtered", "scatter_or", "frontier_scatter"):

        def counted(*args, _kernel=getattr(_ckernel, name), _name=name, **kwargs):
            calls[context[-1] if context else "unfiltered", _name] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(_ckernel, name, counted)
    exchange = KnowledgeMatrix.apply_exchange

    def tracked(self, callers, targets, **kwargs):
        complete = kwargs.get("complete")
        filtered = complete is not None and np.any(complete)
        context.append("filtered" if filtered else "unfiltered")
        try:
            return exchange(self, callers, targets, **kwargs)
        finally:
            context.pop()

    monkeypatch.setattr(KnowledgeMatrix, "apply_exchange", tracked)
    with backends.use(BACKENDS["c"]):
        for layout in HARNESS_LAYOUTS:
            calls.clear()
            for k in range(COVERAGE_PROGRAMS):
                assert run_program(generate_program(BASE_SEED + k), layout) is None
            assert calls["filtered", "exchange_filtered"] > 0, (layout, calls)
            assert calls["filtered", "scatter_or"] > 0, (layout, calls)
            if layout == "frontier":
                assert calls["unfiltered", "frontier_scatter"] > 0, calls


def test_program_generation_is_deterministic() -> None:
    a = generate_program(BASE_SEED)
    b = generate_program(BASE_SEED)
    assert a == b


def test_generator_covers_all_op_kinds() -> None:
    from programs import OP_KINDS

    seen = set()
    for k in range(200):
        seen.update(kind for kind, _ in generate_program(BASE_SEED + k)["ops"])
    assert seen == set(OP_KINDS)


def test_generator_hits_word_boundaries() -> None:
    sizes = {generate_program(BASE_SEED + k)["n_messages"] for k in range(200)}
    assert sizes & {63, 64, 65, 127, 128}


def test_shrinker_minimizes_injected_failure() -> None:
    """The shrinker reduces a synthetic failure to its single guilty op."""
    program = generate_program(BASE_SEED)
    assert len(program["ops"]) >= 3
    poison = ("add", {"node": 0, "message": program["n_messages"] - 1})

    def fails(p) -> bool:
        return poison in p["ops"]

    program = dict(program)
    program["ops"] = program["ops"][:2] + [poison] + program["ops"][2:]
    minimal = shrink_program(program, fails)
    assert minimal["ops"] == [poison]
