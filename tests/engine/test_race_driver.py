"""The shard pool under ThreadSanitizer, through ``tests/c/race_driver.c``.

``libtsan`` cannot be preloaded into the Python interpreter, so a small C
driver is compiled together with both kernel units under
``-fsanitize=thread`` and calls the sharded kernels and the fork path
directly.  The test is skipped where the compiler cannot build and run a
ThreadSanitizer program (no compiler, or no ``libtsan``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.engine import _ckernel

DRIVER = Path(__file__).resolve().parents[1] / "c" / "race_driver.c"

#: The compiler ``_ckernel._build`` would pick.
COMPILER = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")

TSAN_FLAGS = ("-fsanitize=thread", "-O1", "-g", "-pthread")

#: A sanitizer runtime preloaded into this process (say, ASan) must not
#: reach the compiler or the driver.
ENV = {k: v for k, v in os.environ.items() if k != "LD_PRELOAD"}


def _run(args, **env: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [str(arg) for arg in args], capture_output=True, text=True, timeout=300, env={**ENV, **env}
    )


def _tsan_runs(tmp_path: Path) -> bool:
    """Whether the compiler builds a ThreadSanitizer program that runs here."""
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    build = _run([COMPILER, *TSAN_FLAGS, probe, "-o", tmp_path / "probe"])
    return build.returncode == 0 and _run([tmp_path / "probe"]).returncode == 0


@pytest.mark.skipif(COMPILER is None, reason="no C compiler on this machine")
def test_sharded_kernels_and_fork_are_race_free(tmp_path):
    if not _tsan_runs(tmp_path):
        pytest.skip(f"{COMPILER} cannot build and run a ThreadSanitizer program")
    units = [Path(_ckernel._KERNEL_DIR) / unit for unit in _ckernel._UNITS]
    driver = tmp_path / "race_driver"
    build = _run([COMPILER, *TSAN_FLAGS, DRIVER, *units, "-o", driver])
    assert build.returncode == 0, build.stderr
    run = _run([driver], TSAN_OPTIONS="halt_on_error=1")
    assert run.returncode == 0, run.stderr
    assert "ThreadSanitizer" not in run.stderr, run.stderr
    assert run.stdout == "race_driver: all shard counts agree\n"
