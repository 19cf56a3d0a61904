"""Combined reproduction report builder.

Collects several :class:`~repro.experiments.runner.ExperimentResult` objects
into one Markdown document: per experiment a short description, the aggregated
rows as a Markdown table, an optional ASCII plot, and the sweep metadata.  The
``scripts/generate_results.py`` helper uses it to leave a single human-readable
`results/REPORT.md` next to the raw JSON/CSV rows.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from ..analysis.ascii_plot import plot_experiment_rows
from ..io.results import save_json, to_jsonable
from ..io.tables import format_value
from .runner import ExperimentResult

__all__ = [
    "markdown_table",
    "experiment_section",
    "scenario_plot",
    "scenario_columns",
    "store_overview",
    "build_report",
    "write_report",
]


def _spec_for(result: ExperimentResult):
    """Look up the scenario spec that produced ``result`` (or ``None``)."""
    from .scenarios import all_scenarios

    for spec in all_scenarios():
        if spec.result_name == result.name:
            return spec
    return None


def scenario_columns(result: ExperimentResult) -> Optional[Sequence[str]]:
    """Preferred column order declared on the result's scenario spec."""
    spec = _spec_for(result)
    return list(spec.columns) if spec is not None and spec.columns else None


def scenario_plot(result: ExperimentResult) -> Optional[str]:
    """Render the ASCII plot declared by the result's scenario spec."""
    spec = _spec_for(result)
    if spec is None or not spec.render or not result.rows:
        return None
    hints = dict(spec.render)
    try:
        return plot_experiment_rows(
            result.rows,
            x=hints["x"],
            y=hints["y"],
            group_by=hints.get("group_by"),
            log_x=bool(hints.get("log_x", False)),
            title=result.description,
        )
    except (KeyError, ValueError, TypeError):
        return None


def markdown_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Optional[Sequence[str]] = None,
    *,
    float_digits: int = 3,
) -> str:
    """Render record dicts as a GitHub-flavoured Markdown table."""
    if not rows:
        return "*(no rows)*"
    if columns is None:
        columns = list(rows[0].keys())
    header = "| " + " | ".join(str(c) for c in columns) + " |"
    separator = "|" + "|".join(" --- " for _ in columns) + "|"
    body = [
        "| " + " | ".join(format_value(row.get(c), float_digits) for c in columns) + " |"
        for row in rows
    ]
    return "\n".join([header, separator, *body])


def experiment_section(
    result: ExperimentResult,
    *,
    columns: Optional[Sequence[str]] = None,
    plot: Optional[str] = None,
    notes: str = "",
) -> str:
    """One Markdown section for a single experiment result."""
    lines: List[str] = [f"## {result.name}", "", result.description, ""]
    lines.append(markdown_table(result.rows, columns))
    lines.append("")
    if plot:
        lines.extend(["```text", plot, "```", ""])
    if notes:
        lines.extend([notes, ""])
    interesting_metadata = {
        key: value
        for key, value in result.metadata.items()
        if isinstance(value, (int, float, str, bool, list, tuple, dict)) and key != "seed"
    }
    if interesting_metadata:
        lines.append("<details><summary>configuration</summary>")
        lines.append("")
        lines.append("```json")
        import json

        lines.append(json.dumps(to_jsonable(interesting_metadata), indent=2, sort_keys=True))
        lines.append("```")
        lines.append("</details>")
        lines.append("")
    return "\n".join(lines)


def store_overview(store) -> str:
    """Markdown section summarising a result store's scenario files.

    Served from the store's SQLite query index when enabled (no JSONL
    re-scan); falls back to :meth:`ResultStore.index` otherwise.
    """
    index = store.query_index
    if index is not None:
        rows = [
            {"scenario": name, **index.counts(name)}
            for name in index.scenario_names()
        ]
        source = "SQLite query index"
    else:
        rows = [
            {
                "scenario": name,
                "records": summary["records"],
                "configurations": summary["configurations"],
                "failures": summary["failures"],
            }
            for name, summary in store.index().items()
        ]
        source = "full JSONL scan"
    lines = [
        "## Result store",
        "",
        f"Per-run records persisted under `{store.directory}` "
        f"(counts served by the {source}; see `docs/caching.md`).",
        "",
        markdown_table(rows),
        "",
    ]
    return "\n".join(lines)


def build_report(
    results: Sequence[ExperimentResult],
    *,
    title: str = "Reproduction report",
    preamble: str = "",
    columns: Optional[Mapping[str, Sequence[str]]] = None,
    plots: Optional[Mapping[str, str]] = None,
    auto_plots: bool = False,
    store=None,
) -> str:
    """Assemble the full Markdown report from experiment results.

    Parameters
    ----------
    results:
        Experiment results in the order they should appear.
    title / preamble:
        Document heading and optional introduction paragraph.
    columns:
        Optional per-experiment column selections, keyed by experiment name;
        defaults to the column order declared on the scenario spec.
    plots:
        Optional per-experiment pre-rendered ASCII plots, keyed by name.
    auto_plots:
        Render each experiment's ASCII plot from its scenario spec's render
        hints when no explicit plot is supplied.
    store:
        Optional :class:`~repro.io.store.ResultStore`; when given, a
        :func:`store_overview` section (index-served counts) is appended.
    """
    lines: List[str] = [f"# {title}", ""]
    if preamble:
        lines.extend([preamble, ""])
    for result in results:
        plot = (plots or {}).get(result.name)
        if plot is None and auto_plots:
            plot = scenario_plot(result)
        selected = (columns or {}).get(result.name)
        if selected is None:
            selected = scenario_columns(result)
        lines.append(experiment_section(result, columns=selected, plot=plot))
    if store is not None:
        lines.append(store_overview(store))
    return "\n".join(lines)


def write_report(
    results: Sequence[ExperimentResult],
    path: Union[str, Path],
    **kwargs,
) -> Path:
    """Build the report and write it to ``path`` (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(build_report(results, **kwargs))
    return path
