"""The compiled-kernel build: failure reasons, import fallback, cold-cache race.

``_ckernel._build()`` never raises: every failure returns ``(None, reason)``,
the import falls back to NumPy, logs the reason once at WARNING and shows it
in every backend's ``describe()``.  ``REPRO_DISABLE_CKERNEL`` is a choice,
not a failure: its reason is ``"disabled"`` and nothing is logged.  A
compile logs one INFO record.  Two guards keep the cold build cheap and the
SIMD forms vectorized: the source includes only libc headers, and the
compiled library's vector forms use the registers of their level.
"""

from __future__ import annotations

import json
import logging
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path
from subprocess import PIPE

import pytest

import repro
from repro.engine import _ckernel

SRC = str(Path(repro.__file__).resolve().parents[1])

#: The compiler ``_ckernel._build`` would pick.
COMPILER = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")

needs_compiler = pytest.mark.skipif(COMPILER is None, reason="no C compiler on this machine")


def _child_env(**overrides: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    return {**env, "PYTHONPATH": SRC, **overrides}


def test_missing_compiler_is_reported(monkeypatch):
    monkeypatch.delenv("REPRO_DISABLE_CKERNEL", raising=False)
    monkeypatch.setattr(shutil, "which", lambda name: None)
    assert _ckernel._build() == (None, "no C compiler (cc, gcc or clang) on PATH")


def _fresh_cache(monkeypatch, tmp_path) -> Path:
    """Point the kernel cache at an empty ``~/.cache`` under ``tmp_path``."""
    monkeypatch.delenv("REPRO_DISABLE_CKERNEL", raising=False)
    monkeypatch.setenv("HOME", str(tmp_path))
    (tmp_path / ".cache").mkdir()
    return tmp_path / ".cache"


@needs_compiler
def test_build_failures_report_their_reason(monkeypatch, tmp_path):
    cache = _fresh_cache(monkeypatch, tmp_path)

    monkeypatch.setattr(_ckernel, "_SOURCE", "this is not C\n")
    lib, reason = _ckernel._build()
    assert lib is None and reason.startswith("compiler error: ")
    (cache_dir,) = cache.glob("repro-ckernel-*")
    assert list(cache_dir.iterdir()) == []  # no temp source or library left

    cache_dir.chmod(0o777)
    lib, reason = _ckernel._build()
    assert lib is None and reason.startswith("cache directory refused: ")

    # Compiles and loads but has none of the kernels: the import must
    # still survive it.
    monkeypatch.setattr(_ckernel, "_SOURCE", "int repro_placeholder;\n")
    lib, reason = _ckernel._build()
    assert lib is None and reason.startswith("missing symbol: ")


@needs_compiler
def test_a_compile_logs_one_info_record(monkeypatch, tmp_path, caplog):
    """A cache miss names the compiler, its seconds and the library; a hit logs nothing."""
    _fresh_cache(monkeypatch, tmp_path)
    caplog.set_level(logging.INFO, logger=_ckernel.__name__)
    lib, reason = _ckernel._build()
    assert lib is not None and reason is None
    (record,) = caplog.records
    assert record.name == _ckernel.__name__ and record.levelno == logging.INFO
    compiler, seconds, lib_path = record.args
    assert compiler == COMPILER
    assert 0 < seconds < 120
    assert lib_path == _ckernel.library_path() and os.path.exists(lib_path)
    caplog.clear()
    lib, reason = _ckernel._build()
    assert lib is not None and reason is None
    assert caplog.records == []


def test_source_includes_only_libc_headers():
    """No intrinsics header: parsing one took most of the cold build."""
    includes = re.findall(r"^\s*#\s*include\s*[<\"]([^>\"]+)", _ckernel._SOURCE, re.M)
    assert sorted(includes) == ["pthread.h", "stdint.h", "stdlib.h", "string.h"]


def _disassembly(lib_path: Path) -> dict:
    """``objdump -d`` of ``lib_path``: function name -> its instruction text."""
    listing = subprocess.run(
        ["objdump", "-d", str(lib_path)], check=True, capture_output=True, text=True
    ).stdout
    functions: dict = {}
    name = None
    for line in listing.splitlines():
        header = re.match(r"^[0-9a-f]+ <([^>]+)>:$", line)
        if header:
            name = header.group(1)
            functions[name] = []
        elif name is not None and line.count("\t") >= 2:
            functions[name].append(line.split("\t", 2)[2])
    return {name: "\n".join(body) for name, body in functions.items()}


@needs_compiler
@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="x86-64 only")
@pytest.mark.skipif(shutil.which("objdump") is None, reason="no objdump on this machine")
def test_vector_forms_use_their_registers(tmp_path):
    """Each SIMD level compiles to its own register width.

    Built with the module's own ``_compile`` and ``_CFLAGS``.  A compiler
    that stopped vectorizing a generic-vector OR or the popcount loop would
    otherwise only show as a slower run.
    """
    lib_path = tmp_path / "libreprokernel.so"
    _ckernel._compile(COMPILER, str(lib_path))
    code = _disassembly(lib_path)
    for name in ("repro_or2_avx512", "repro_oracc_avx512", "repro_missing_avx512"):
        assert "zmm" in code[name], name
    assert "vpopcntq" in code["repro_missing_avx512"]
    for name in ("repro_or2_avx2", "repro_oracc_avx2"):
        assert "ymm" in code[name] and "zmm" not in code[name], name
    for name in ("repro_or2_scalar", "repro_oracc_scalar", "repro_missing_plain",
                 "repro_missing_popcnt"):
        assert "ymm" not in code[name] and "zmm" not in code[name], name


def _hang(cmd, **kwargs):
    raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])


def _emit_garbage(cmd, **kwargs):
    Path(cmd[cmd.index("-o") + 1]).write_bytes(b"not a shared object\n")


@pytest.mark.parametrize(
    "compiler_run,expected",
    [(_hang, "compiler timed out after 120 s"), (_emit_garbage, "library not built or loaded: ")],
    ids=["timeout", "unloadable"],
)
def test_compile_failures_report_their_reason(monkeypatch, tmp_path, compiler_run, expected):
    """A compiler that hangs, or emits something other than a shared object."""
    cache = _fresh_cache(monkeypatch, tmp_path)
    monkeypatch.setattr(shutil, "which", lambda name: "cc")
    monkeypatch.setattr(subprocess, "run", compiler_run)
    lib, reason = _ckernel._build()
    assert lib is None and reason.startswith(expected)
    assert list(cache.glob("*/*.tmp*")) == []  # no temp source or library left


def test_build_loads_the_file_at_library_path(monkeypatch, tmp_path):
    """A library placed at ``library_path()`` beforehand is loaded, not rebuilt.

    The sanitizer CI job relies on this to run its own build.
    """
    _fresh_cache(monkeypatch, tmp_path)
    monkeypatch.setattr(shutil, "which", lambda name: "cc")
    monkeypatch.setattr(subprocess, "run", _hang)  # a compile would time out
    Path(_ckernel.library_path()).write_bytes(b"not a shared object\n")
    lib, reason = _ckernel._build()
    assert lib is None and reason.startswith("library not built or loaded: ")


@pytest.mark.parametrize("disabled", [False, True])
def test_import_falls_back_with_reason(tmp_path, disabled):
    if disabled:
        env = _child_env(REPRO_DISABLE_CKERNEL="1")
    else:
        (tmp_path / "bin").mkdir()
        env = _child_env(PATH=str(tmp_path / "bin"))  # no compiler to find
    code = "import json; from repro.engine import backends; print(json.dumps(backends.active().describe()))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    described = json.loads(proc.stdout)
    assert described["name"] == "numpy" and not described["compiled"]
    if disabled:
        assert described["ckernel"] == "disabled"
        assert proc.stderr == ""
    else:
        assert described["ckernel"].startswith("no C compiler")
        logged = [line for line in proc.stderr.splitlines() if "unavailable" in line]
        assert len(logged) == 1, proc.stderr
        assert described["ckernel"] in logged[0]


@pytest.mark.slow
@needs_compiler
def test_concurrent_cold_cache_imports_all_load(tmp_path):
    """Eight imports racing to build into one empty cache all get the kernels.

    Each child must compile its own source file: a shared one can be
    truncated under another child's compiler, which then installs a library
    without symbols.
    """
    cmd = [sys.executable, "-c", "from repro.engine import _ckernel; print(_ckernel.available())"]
    for trial in range(3):
        home = tmp_path / f"trial{trial}"
        (home / "tmp").mkdir(parents=True)
        env = _child_env(HOME=str(home), TMPDIR=str(home / "tmp"))
        procs = [subprocess.Popen(cmd, env=env, stdout=PIPE, stderr=PIPE, text=True) for _ in range(8)]
        try:
            outputs = [proc.communicate(timeout=300) for proc in procs]
        finally:
            for proc in procs:
                proc.kill()
                proc.wait()
        results = [(proc.returncode, out.strip()) for proc, (out, _) in zip(procs, outputs)]
        assert results == [(0, "True")] * 8, [err for _, err in outputs if err]
