"""Self-test of the benchmark at the ``--smoke`` scale.

Run from the repository root with ``python -m pytest bench -q``.  Every
workload runs once untraced and once traced, each for about a second, in
fresh child processes exactly as ``bench/run.py`` runs them for real.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench import run, workloads  # noqa: E402
from bench.trace import PER_LAYER  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def final_line(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """One untraced and one traced smoke run of every workload."""
    out = tmp_path_factory.mktemp("out")
    runs = {}
    for name in WORKLOADS:
        for traced in ("0", "1"):
            done = bench(
                "--workload", name, "--smoke", "--seconds", "1", "--trace", traced, "--out", str(out)
            )
            assert done.returncode == 0, done.stderr
            runs[name, traced == "1"] = final_line(done)
    records = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    return runs, records, out


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS
    names = [w["name"] for w in SPEC["workloads"]] + [
        m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(SPEC["workloads"]) <= 4
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(UNIT.match(m["unit"]) for m in SPEC["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == PER_LAYER


def test_every_metric_is_reported(smoke_runs):
    runs, _, _ = smoke_runs
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    for (name, traced), result in runs.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == (per_layer if traced else end_to_end), name
        if not traced:
            assert all(entry["value"] > 0 for entry in result["metrics"].values()), name


def test_traced_self_times_fit_in_the_wall_time(smoke_runs):
    _, records, out = smoke_runs
    traced = [r for r in records if r["header"]["trace"]]
    assert len(traced) == len(WORKLOADS)
    for record in traced:
        assert record["min_self_s"] >= -1e-9
        assert record["op_self_s"] <= record["traced_wall_s"] + 1e-9
        spans = [json.loads(line) for line in Path(record["trace_file"]).read_text().splitlines()]
        assert {"id", "name", "layer", "start", "end", "parent", "pid", "run"} <= set(spans[0])
        if record["header"]["workload"].endswith("sweep"):
            # Pool workers wrote their own spans and the driver merged them.
            assert len({span["pid"] for span in spans}) > 1
    assert not list(out.glob("spans-*.jsonl"))


def test_no_wrapper_is_left_installed(smoke_runs):
    _, records, _ = smoke_runs
    assert all(r["wrappers_left"] == [] for r in records if r["header"]["trace"])


def test_compare_finds_no_change_against_itself(smoke_runs):
    _, _, out = smoke_runs
    results = str(out / "results.jsonl")
    done = subprocess.run(
        [sys.executable, "bench/compare.py", results, results],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert " worse" not in done.stdout and " improved" not in done.stdout
    assert "stage.cold_sweep" in done.stdout and "stage.memory" in done.stdout


def test_compare_judges_each_stage(tmp_path):
    def write(path, query_ms):
        records = [
            {
                "header": {"workload": "store-sweep", "trace": False, "seed": seed},
                "stages_ms": {
                    "cold_sweep": {"adj_median": 900.0 + seed},
                    "query": {"adj_median": query_ms + seed / 10},
                },
                "result": {
                    "metrics": {m["name"]: {"value": 100.0 + seed} for m in SPEC["end_to_end"]}
                },
            }
            for seed in range(5)
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))

    write(tmp_path / "a.jsonl", 6.0)
    write(tmp_path / "b.jsonl", 12.0)  # queries twice as slow, everything else equal
    done = subprocess.run(
        [sys.executable, "bench/compare.py", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
    verdicts = {line.split()[0]: line.split()[-1] for line in done.stdout.splitlines()[1:]}
    assert verdicts.pop("stage.query") == "worse"
    assert set(verdicts.values()) == {"unchanged"}


def test_pins_are_enforced(tmp_path, capsys):
    class Stub(workloads.Workload):
        name = "protocols-20k"

    pinned = json.loads(workloads.PINS.read_text())["protocols-20k"]["smoke"]
    spec = {"seed": workloads.DEFAULT_SEED, "smoke": True, "record_pins": False}
    stub = Stub(workloads.DEFAULT_SEED, True, tmp_path, 1)
    stub.observed = dict(pinned)
    checks = workloads.Checks()
    workloads.check_pins(spec, stub, checks)
    assert (checks.attempted, checks.failed) == (1, 0)
    key = sorted(pinned)[0]
    stub.observed[key] = [False, 0, 0]
    workloads.check_pins(spec, stub, checks)
    assert (checks.attempted, checks.failed) == (2, 1)
    assert f"check failed: pins: {key}" in capsys.readouterr().err


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work")
    )
    done = bench("--workload", "protocols-20k", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
