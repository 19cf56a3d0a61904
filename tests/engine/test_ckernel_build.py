"""The compiled-kernel build: failure reasons, import fallback, cold-cache race.

``_ckernel._build()`` never raises: every failure returns ``(None, reason)``,
the import falls back to NumPy, logs the reason once at WARNING and shows it
in every backend's ``describe()``.  ``REPRO_DISABLE_CKERNEL`` is a choice,
not a failure: its reason is ``"disabled"`` and nothing is logged; it and
``REPRO_DISABLE_SIMD`` count a blank or ``0`` value as unset.  A compile
logs one INFO record.  A cached library is used when it loads and rebuilt
once when it does not.  The build compiles every unit under
``kernels/`` at once and links them; a failing or hanging unit is named,
and no compiler, compiler child or temporary file outlives the build.  Two
guards keep the cold build cheap and the SIMD forms vectorized: the sources
include only libc headers (and their own), and the compiled library's
vector forms use the registers of their level.
"""

from __future__ import annotations

import fnmatch
import json
import logging
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import time
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


def _kernel_copy(monkeypatch, tmp_path, replaced=None) -> Path:
    """Point the build at a copy of ``kernels/``, the files named in ``replaced`` rewritten."""
    kernels = tmp_path / "kernels"
    shutil.copytree(_ckernel._KERNEL_DIR, kernels)
    for name, text in (replaced or {}).items():
        (kernels / name).write_text(text)
    monkeypatch.setattr(_ckernel, "_KERNEL_DIR", str(kernels))
    return kernels


class _Recorder:
    """Stands in for ``subprocess.Popen`` and keeps every process started.

    ``rewrite(args)`` may swap the command before it runs; ``popen`` is the
    class that runs it.  ``commands`` keeps the commands as the build gave
    them, ``procs`` the processes.
    """

    def __init__(self, rewrite=None, popen=subprocess.Popen):
        self.commands, self.procs = [], []
        self.rewrite = rewrite
        self.popen = popen

    def __call__(self, args, **kwargs):
        self.commands.append(args)
        proc = self.popen(args if self.rewrite is None else self.rewrite(args), **kwargs)
        self.procs.append(proc)
        return proc


def _unit_of(args) -> str:
    """The unit a compile command compiles (``"link"`` for the link)."""
    return os.path.basename(args[args.index("-c") + 1]) if "-c" in args else "link"


@needs_compiler
@pytest.mark.parametrize("unit", _ckernel._UNITS)
def test_a_unit_that_does_not_compile_is_named(monkeypatch, tmp_path, unit):
    """The reason names the unit; no compiler is left running or unreaped."""
    cache = _fresh_cache(monkeypatch, tmp_path)
    _kernel_copy(monkeypatch, tmp_path, {unit: "this is not C\n"})
    started = _Recorder()
    monkeypatch.setattr(subprocess, "Popen", started)
    lib, reason = _ckernel._build()
    assert lib is None and reason.startswith(f"compiler error: {unit}: "), reason
    (cache_dir,) = cache.glob("repro-ckernel-*")
    assert list(cache_dir.iterdir()) == []  # no object or library left
    assert sorted(map(_unit_of, started.commands)) == sorted(_ckernel._UNITS)  # no link
    assert all(proc.returncode is not None for proc in started.procs)


@needs_compiler
def test_build_failures_report_their_reason(monkeypatch, tmp_path):
    cache = _fresh_cache(monkeypatch, tmp_path)

    kernels = _kernel_copy(monkeypatch, tmp_path, {"simd.c": "this is not C\n"})
    lib, reason = _ckernel._build()
    assert lib is None and reason.startswith("compiler error: ")
    (cache_dir,) = cache.glob("repro-ckernel-*")
    assert list(cache_dir.iterdir()) == []  # no temp object or library left

    cache_dir.chmod(0o777)
    lib, reason = _ckernel._build()
    assert lib is None and reason.startswith("cache directory refused: ")

    # Compiles and loads but has none of the kernels: the import must
    # still survive it.
    for unit in _ckernel._UNITS:
        (kernels / unit).write_text(f"int repro_placeholder_{unit[0]};\n")
    lib, reason = _ckernel._build()
    assert lib is None and reason.startswith("missing symbol: ")

    # A package installed without its sources.
    (kernels / "simd.h").unlink()
    lib, reason = _ckernel._build()
    assert lib is None and reason.startswith("kernel source unreadable: ")


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


def test_sources_include_only_libc_headers():
    """No intrinsics header: parsing one took most of the cold build.

    Every unit and header includes libc headers or the package's own
    header, nothing else.
    """
    system, local = set(), set()
    for name in (*_ckernel._UNITS, *_ckernel._HEADERS):
        text = (Path(_ckernel._KERNEL_DIR) / name).read_text()
        system.update(re.findall(r"^\s*#\s*include\s*<([^>]+)>", text, re.M))
        local.update(re.findall(r'^\s*#\s*include\s*"([^"]+)"', text, re.M))
    assert sorted(system) == ["pthread.h", "stdint.h", "stdlib.h", "string.h"]
    assert sorted(local) == sorted(_ckernel._HEADERS)


def test_the_kernel_directory_holds_exactly_the_build_files():
    """A C file dropped in ``kernels/`` and never compiled would go unnoticed."""
    files = sorted(os.listdir(_ckernel._KERNEL_DIR))
    assert files == sorted((*_ckernel._UNITS, *_ckernel._HEADERS))


def test_package_data_ships_every_file_the_build_reads():
    """An installed package must carry its C sources, or no build can run."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(SRC).parent / "pyproject.toml"
    package_data = tomllib.loads(pyproject.read_text())["tool"]["setuptools"]["package-data"]
    globs = package_data["repro.engine"]
    for name in (*_ckernel._UNITS, *_ckernel._HEADERS):
        relative = f"kernels/{name}"
        assert any(fnmatch.fnmatchcase(relative, pattern) for pattern in globs), relative


def test_library_path_follows_every_source_byte_and_flag(monkeypatch, tmp_path):
    """Any unit, the header, a compile flag or a link flag: a new cache key."""
    _fresh_cache(monkeypatch, tmp_path)
    kernels = _kernel_copy(monkeypatch, tmp_path)
    seen = {_ckernel.library_path()}
    for name in (*_ckernel._UNITS, *_ckernel._HEADERS):
        path = kernels / name
        original = path.read_bytes()
        path.write_bytes(original + b"\n")
        seen.add(_ckernel.library_path())
        path.write_bytes(original)
        assert _ckernel.library_path() in seen
    cflags = _ckernel._CFLAGS
    monkeypatch.setattr(_ckernel, "_CFLAGS", (*cflags, "-g"))
    seen.add(_ckernel.library_path())
    monkeypatch.setattr(_ckernel, "_CFLAGS", cflags)
    monkeypatch.setattr(_ckernel, "_LDFLAGS", (*_ckernel._LDFLAGS, "-s"))
    seen.add(_ckernel.library_path())
    n_files = len(_ckernel._UNITS) + len(_ckernel._HEADERS)
    assert len({os.path.basename(os.path.dirname(path)) for path in seen}) == 1 + n_files + 2


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


class _Hangs(subprocess.Popen):
    """A process whose every wait with a timeout finds the deadline passed.

    Stands in for the whole 120 s wait; the reap after the kill is real.
    """

    def communicate(self, input=None, timeout=None):
        if timeout is not None:
            raise subprocess.TimeoutExpired(self.args, timeout)
        return super().communicate(input)


#: A compiler whose own child hangs, as ``cc`` waits on a hung ``cc1``.  The
#: child inherits the stderr pipe.  The stand-in leaves a file in its
#: ``TMPDIR``, as ``cc`` leaves its assembly there, writes the child's pid
#: to ``argv[1]`` and waits.
_HUNG_CHILD = """\
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
open(os.path.join(os.environ["TMPDIR"], "cc.s"), "w").close()
with open(sys.argv[1] + ".tmp", "w") as fh:
    fh.write(str(child.pid))
os.replace(sys.argv[1] + ".tmp", sys.argv[1])
child.wait()
"""


class _HungChildren:
    """Stands in for ``Popen``: the units in ``hanging`` hang in a child, the rest fail.

    A hanging unit runs :data:`_HUNG_CHILD` through ``popen`` and is returned
    once its child runs; ``children`` keeps the children's pids.  Any other
    command exits 1 with ``error: not C``.
    """

    def __init__(self, tmp_path, hanging, popen=subprocess.Popen):
        self.dir, self.hanging, self.popen = tmp_path, set(hanging), popen
        self.children = []

    def __call__(self, args, **kwargs):
        unit = _unit_of(args)
        if unit not in self.hanging:
            return self.popen([sys.executable, "-c", "import sys; sys.exit('error: not C')"], **kwargs)
        pid_file = self.dir / f"{unit}.pid"
        proc = self.popen([sys.executable, "-c", _HUNG_CHILD, str(pid_file)], **kwargs)
        deadline = time.monotonic() + 60
        while not pid_file.exists():
            assert proc.poll() is None and time.monotonic() < deadline, "the stand-in never started its child"
            time.sleep(0.01)
        self.children.append(int(pid_file.read_text()))
        return proc


def _exits(pid, within=10.0) -> bool:
    """Whether process ``pid`` is gone or a zombie within ``within`` seconds."""
    deadline = time.monotonic() + within
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                if fh.read().rpartition(")")[2].split()[0] == "Z":
                    return True
        except FileNotFoundError:
            return True
        time.sleep(0.01)
    return False


needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="no /proc to see a process exit")


def _emit_garbage(args):
    """Write something other than an object or a shared object at ``-o``."""
    out = args[args.index("-o") + 1]
    return [sys.executable, "-c", f"open({out!r}, 'wb').write(b'not a shared object')"]


@needs_proc
def test_a_hanging_unit_times_out_and_every_compile_is_killed(monkeypatch, tmp_path):
    """Both compiles and the children holding their stderr are killed at the deadline."""
    cache = _fresh_cache(monkeypatch, tmp_path)
    monkeypatch.setattr(shutil, "which", lambda name: "cc")
    hung = _HungChildren(tmp_path, _ckernel._UNITS, popen=_Hangs)
    started = _Recorder(popen=hung)
    monkeypatch.setattr(subprocess, "Popen", started)
    begin = time.monotonic()
    lib, reason = _ckernel._build()
    assert time.monotonic() - begin < 10  # no wait on a pipe a child still holds
    assert lib is None and reason == f"compiler timed out after 120 s: {_ckernel._UNITS[0]}"
    assert list(map(_unit_of, started.commands)) == list(_ckernel._UNITS)  # at once, no link
    assert [proc.returncode for proc in started.procs] == [-signal.SIGKILL] * len(_ckernel._UNITS)
    assert len(hung.children) == len(_ckernel._UNITS)
    assert all(_exits(pid) for pid in hung.children)
    (cache_dir,) = cache.glob("repro-ckernel-*")
    assert list(cache_dir.iterdir()) == []  # no object, library or compiler temp file left


@needs_proc
def test_a_failing_unit_kills_the_other_compile(monkeypatch, tmp_path):
    """The first unit fails at once; the second, hung in a child, is killed whole."""
    cache = _fresh_cache(monkeypatch, tmp_path)
    monkeypatch.setattr(shutil, "which", lambda name: "cc")
    failing, hanging = _ckernel._UNITS
    hung = _HungChildren(tmp_path, [hanging])
    started = _Recorder(popen=hung)
    monkeypatch.setattr(subprocess, "Popen", started)
    begin = time.monotonic()
    lib, reason = _ckernel._build()
    assert time.monotonic() - begin < 10
    assert lib is None and reason == f"compiler error: {failing}: error: not C"
    assert [proc.returncode for proc in started.procs] == [1, -signal.SIGKILL]
    assert len(hung.children) == 1 and _exits(hung.children[0])
    (cache_dir,) = cache.glob("repro-ckernel-*")
    assert list(cache_dir.iterdir()) == []


def test_an_unloadable_library_reports_its_reason(monkeypatch, tmp_path):
    """A compiler that emits something other than a shared object."""
    cache = _fresh_cache(monkeypatch, tmp_path)
    monkeypatch.setattr(shutil, "which", lambda name: "cc")
    started = _Recorder(_emit_garbage)
    monkeypatch.setattr(subprocess, "Popen", started)
    lib, reason = _ckernel._build()
    assert lib is None and reason.startswith("library not built or loaded: ")
    assert list(map(_unit_of, started.commands)) == [*_ckernel._UNITS, "link"]
    assert all(proc.returncode == 0 for proc in started.procs)
    (cache_dir,) = cache.glob("repro-ckernel-*")
    assert [path.name for path in cache_dir.iterdir()] == ["libreprokernel.so"]  # no temp file left


def _stale_library(path: Path, kind: str) -> None:
    """Leave at ``path`` a file that does not load, or one that lacks the kernels."""
    if kind == "junk":
        path.write_bytes(b"not a shared object\n")
    else:
        subprocess.run(
            [COMPILER, "-shared", "-fPIC", "-x", "c", "-", "-o", str(path)],
            input=b"int repro_placeholder;\n", check=True,
        )


@needs_compiler
@pytest.mark.parametrize("kind", ["junk", "no-symbols"])
def test_a_cached_library_that_does_not_load_is_rebuilt_once(monkeypatch, tmp_path, kind):
    """One compile round (both units, then the link) replaces it; the rebuild loads.

    A library that loads but lacks a symbol stays loaded under its path,
    so the rebuild would bind it again unless it was closed first.
    """
    _fresh_cache(monkeypatch, tmp_path)
    lib_path = Path(_ckernel.library_path())
    _stale_library(lib_path, kind)
    started = _Recorder()
    monkeypatch.setattr(subprocess, "Popen", started)
    lib, reason = _ckernel._build()
    assert lib is not None and reason is None, reason
    assert list(map(_unit_of, started.commands)) == [*_ckernel._UNITS, "link"]
    assert list(lib_path.parent.iterdir()) == [lib_path]


def test_a_loadable_library_at_library_path_is_used_as_is(monkeypatch, tmp_path):
    """A library placed at ``library_path()`` that loads is loaded, not rebuilt.

    The sanitizer CI job relies on this to run its own build.
    """
    if not _ckernel.available():
        pytest.skip("no compiled library loaded to copy")
    _fresh_cache(monkeypatch, tmp_path)
    monkeypatch.setattr(shutil, "which", lambda name: "cc")
    started = _Recorder()  # records any compile
    monkeypatch.setattr(subprocess, "Popen", started)
    lib_path = _ckernel.library_path()
    shutil.copyfile(_ckernel._LIB._name, lib_path)
    lib, reason = _ckernel._build()
    assert lib is not None and reason is None, reason
    assert lib._name == lib_path
    assert started.commands == []


#: Each value of an on/off switch, and whether it sets the switch.
FLAG_VALUES = [("", False), (" ", False), ("0", False), ("1", True)]

#: Prints what the import made of ``REPRO_DISABLE_CKERNEL`` and ``REPRO_DISABLE_SIMD``.
_REPORT_FLAGS = (
    "import json; from repro.engine import _ckernel, backends; "
    "print(json.dumps({'status': _ckernel.status(), 'simd': backends.simd_info()}))"
)


@pytest.mark.parametrize("value,is_set", FLAG_VALUES, ids=["empty", "blank", "zero", "one"])
@pytest.mark.parametrize("switch", ["REPRO_DISABLE_CKERNEL", "REPRO_DISABLE_SIMD"])
def test_a_blank_or_zero_switch_is_unset(switch, value, is_set):
    """The import and ``simd_info()`` read both switches by one rule."""
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_FLAGS], env=_child_env(**{switch: value}),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    if switch == "REPRO_DISABLE_CKERNEL":
        assert (report["status"] == "disabled") is is_set, report
        return
    assert report["simd"]["disabled"] is is_set, report
    if report["status"] == "loaded":
        expected = "scalar" if is_set else report["simd"]["detected"]
        assert report["simd"]["active"] == expected, report


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

    Each child must write its own objects and library: a shared one can be
    truncated under another child's compiler or linker, which then installs
    a library without symbols.
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
