"""Tests for the Markdown report builder."""

from __future__ import annotations

import pytest

from repro.experiments.report import (
    build_report,
    experiment_section,
    markdown_table,
    write_report,
)
from repro.experiments.runner import ExperimentResult


def sample_result(name: str = "demo") -> ExperimentResult:
    return ExperimentResult(
        name=name,
        description=f"{name} description",
        rows=[{"n": 256, "cost": 1.5}, {"n": 512, "cost": 2.5}],
        metadata={"sizes": [256, 512], "seed": 1},
    )


class TestMarkdownTable:
    def test_basic_table(self):
        table = markdown_table([{"a": 1, "b": 2.5}], ["a", "b"])
        lines = table.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1].startswith("|")
        assert "2.500" in lines[2]

    def test_empty_rows(self):
        assert markdown_table([]) == "*(no rows)*"

    def test_default_columns(self):
        table = markdown_table([{"x": 1, "y": 2}])
        assert "| x | y |" in table


class TestSections:
    def test_section_contains_table_and_metadata(self):
        section = experiment_section(sample_result())
        assert "## demo" in section
        assert "demo description" in section
        assert "| n | cost |" in section
        assert "configuration" in section

    def test_section_shows_tuple_metadata(self):
        """A sweep's metadata holds its config's fields, tuples included."""
        result = sample_result()
        result.metadata = {"sizes": (256, 512)}
        assert '"sizes"' in experiment_section(result)

    def test_section_with_plot_and_notes(self):
        section = experiment_section(sample_result(), plot="ASCII", notes="a note")
        assert "```text" in section and "ASCII" in section
        assert "a note" in section


class TestFullReport:
    def test_build_report_ordering(self):
        report = build_report(
            [sample_result("one"), sample_result("two")],
            title="T",
            preamble="intro",
        )
        assert report.startswith("# T")
        assert report.index("## one") < report.index("## two")
        assert "intro" in report

    def test_write_report(self, tmp_path):
        path = write_report([sample_result()], tmp_path / "sub" / "REPORT.md", title="X")
        assert path.exists()
        assert path.read_text().startswith("# X")

    def test_column_selection(self):
        report = build_report([sample_result()], columns={"demo": ["cost"]})
        assert "| cost |" in report
        assert "| n | cost |" not in report
