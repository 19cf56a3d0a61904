"""Smoke tests for the runnable examples.

Each example runs once as a script at its default size (``runpy`` with
``__name__ == "__main__"``, as ``python examples/<name>.py`` would) and once
through its ``main()`` at a tiny size with its output checked.
"""

from __future__ import annotations

import importlib.util
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))


def load_example(name: str):
    """Import an example script as a module without executing __main__."""
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_examples_present(self):
        expected = {
            "quickstart.py",
            "replicated_database.py",
            "p2p_aggregation.py",
            "robustness_study.py",
            "density_comparison.py",
        }
        assert expected <= {p.name for p in EXAMPLES_DIR.glob("*.py")}

    @pytest.mark.parametrize("path", EXAMPLE_SCRIPTS, ids=lambda path: path.stem)
    def test_runs_as_script(self, path, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", [str(path)])
        runpy.run_path(str(path), run_name="__main__")
        assert capsys.readouterr().out.strip()

    def test_quickstart(self, capsys):
        load_example("quickstart").main(128, seed=1)
        out = capsys.readouterr().out
        assert "push-pull" in out
        assert "memory model" in out

    def test_replicated_database(self, capsys):
        load_example("replicated_database").main(128, seed=2)
        out = capsys.readouterr().out
        assert "anti-entropy" in out
        assert "consistent" in out

    def test_p2p_aggregation(self, capsys):
        load_example("p2p_aggregation").main(128, seed=3)
        out = capsys.readouterr().out
        assert "Leader election" in out
        assert "agree with the exact aggregates: True" in out

    def test_density_comparison(self, capsys):
        load_example("density_comparison").main(128, seed=4)
        out = capsys.readouterr().out
        assert "broadcast (single message)" in out
        assert "gossiping (memory model)" in out

    def test_robustness_study(self, capsys):
        load_example("robustness_study").main(128, repetitions=1)
        out = capsys.readouterr().out
        assert "Figure 2 style" in out
        assert "Figure 5 style" in out
