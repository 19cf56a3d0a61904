"""Boundary tests for knowledge-layout auto-selection.

The ``auto`` layout compares :func:`repro.engine.layouts.estimate_bytes`
against the ``REPRO_KNOWLEDGE_DENSE_BUDGET`` byte budget with ``<=``, so the
exact-budget problem must stay dense and one byte less must page.  An empty
layout variable counts as unset, and a malformed budget names its variable.
The estimates themselves are pinned to the measured peak of a full exchange
loop, each in a fresh interpreter.
"""

from __future__ import annotations

import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import _ckernel, layouts
from repro.engine.layouts import PagedKnowledge, estimate_bytes, make_knowledge

#: n = m = 128 gives words = 2, so the dense estimate is exactly
#: 16 * 128 * 2 + 8 * (3 * 128 + 1) = 7176 bytes: matrix, swap buffer and
#: an exchange's CSR (no frontier bookkeeping below 96 words).
N = 128
DENSE_BYTES = estimate_bytes("dense", N, N)

#: The exchange loop whose peak ``estimate_bytes`` models.
SMOKE = Path(__file__).resolve().parents[2] / "scripts" / "run_large_n_smoke.py"


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    """Boundary tests control the env vars explicitly."""
    monkeypatch.delenv("REPRO_KNOWLEDGE_LAYOUT", raising=False)
    monkeypatch.delenv("REPRO_KNOWLEDGE_DENSE_BUDGET", raising=False)


class TestBudgetBoundary:
    def test_estimate_is_exact_for_the_probe_size(self):
        assert DENSE_BYTES == 16 * N * 2 + 8 * (3 * N + 1)

    def test_exactly_at_budget_stays_dense(self, monkeypatch):
        monkeypatch.setenv("REPRO_KNOWLEDGE_DENSE_BUDGET", str(DENSE_BYTES))
        assert make_knowledge(N, N).layout == "dense"

    def test_one_byte_under_budget_pages(self, monkeypatch):
        monkeypatch.setenv("REPRO_KNOWLEDGE_DENSE_BUDGET", str(DENSE_BYTES - 1))
        storage = make_knowledge(N, N)
        assert storage.layout == "paged"
        assert isinstance(storage, PagedKnowledge)

    def test_explicit_layout_beats_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_KNOWLEDGE_DENSE_BUDGET", "0")
        assert make_knowledge(N, N, layout="dense").layout == "dense"

    def test_use_scope_beats_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_KNOWLEDGE_DENSE_BUDGET", str(DENSE_BYTES))
        with layouts.use("paged"):
            assert isinstance(make_knowledge(N, N), PagedKnowledge)


class TestEmptyAndMalformedVariables:
    @pytest.mark.parametrize("value", ["", "  "])
    def test_empty_budget_is_the_default(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_KNOWLEDGE_DENSE_BUDGET", value)
        assert layouts.dense_budget() == layouts.DEFAULT_DENSE_BUDGET
        assert make_knowledge(N, N).layout == "dense"

    @pytest.mark.parametrize("value", ["", "  "])
    def test_empty_layout_is_auto(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_KNOWLEDGE_LAYOUT", value)
        assert layouts.resolve_layout() == "auto"
        monkeypatch.setenv("REPRO_KNOWLEDGE_DENSE_BUDGET", str(DENSE_BYTES - 1))
        assert make_knowledge(N, N).layout == "paged"

    def test_malformed_budget_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_KNOWLEDGE_DENSE_BUDGET", "1GiB")
        with pytest.raises(ValueError, match="REPRO_KNOWLEDGE_DENSE_BUDGET.*'1GiB'"):
            make_knowledge(N, N)


class TestEstimateIsThePeak:
    """``estimate_bytes`` against the measured peak of the exchange loop.

    The large-n smoke runs the loop at n = m = 16384 in a fresh interpreter
    and reports its VmHWM above the RSS it had before allocating the matrix.
    On a 2-core x86-64 VM that peak is 0.93-0.94 x the dense estimate and
    1.02-1.03 x the paged one, after three push rounds (0.96-0.97 x dense
    without them); the estimates before they modelled the swap buffer, the
    CSR and the frontier's pair buffers were 1.13 x and 2.04 x.  A paged run
    also fails unless its push rounds stay within the tolerance of one
    matrix plus the in-place plan.
    """

    @pytest.mark.parametrize("layout", ["dense", "paged"])
    def test_within_tolerance(self, layout):
        if not _ckernel.available():
            pytest.skip("the estimate models the compiled kernels")
        if not Path("/proc/self/status").exists():
            pytest.skip("peak RSS is read from /proc")
        tolerance = runpy.run_path(str(SMOKE))["ESTIMATE_TOLERANCE"]
        # The default backend: compiled, since the library is available.
        env = {k: v for k, v in os.environ.items() if k != "REPRO_KERNEL_BACKEND"}
        n = 16384
        run = subprocess.run(
            [sys.executable, str(SMOKE), "--n", str(n), "--messages", str(n),
             "--layout", layout],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        ratio = re.search(r"= ([0-9.]+) x (\w+) estimate", run.stdout)
        assert ratio is not None, run.stdout + run.stderr
        assert ratio.group(2) == layout
        assert abs(float(ratio.group(1)) - 1) <= tolerance, run.stdout
        assert run.returncode == 0, run.stdout
