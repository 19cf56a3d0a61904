"""Dependency-free ASCII plotting of experiment series.

The original paper presents its results as line plots; this reproduction runs
in terminals and CI logs where matplotlib may not be available, so a small
character-based plotter renders the same series directly into the benchmark
output and the CLI.  It supports multiple named series on a shared axis,
optional logarithmic x scaling (the paper's Figure 1 uses a log-x axis) and is
deliberately simple: one character cell per (column, row), series markers
assigned in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["Series", "AsciiPlot", "plot_series", "plot_experiment_rows"]

#: Markers assigned to series in the order they are added.
_MARKERS = "*o+x#@%&"


@dataclass
class Series:
    """One named data series of (x, y) points."""

    label: str
    xs: List[float] = field(default_factory=list)
    ys: List[float] = field(default_factory=list)


class AsciiPlot:
    """A fixed-size character canvas onto which series are drawn.

    Parameters
    ----------
    width / height:
        Plot area size in characters (axes and labels are added around it).
    log_x:
        Use a base-2 logarithmic x axis (appropriate for graph-size sweeps).
    title:
        Optional plot title.
    y_label / x_label:
        Axis captions printed around the canvas.
    """

    def __init__(
        self,
        width: int = 60,
        height: int = 18,
        *,
        log_x: bool = False,
        title: str = "",
        x_label: str = "",
        y_label: str = "",
    ) -> None:
        if width < 10 or height < 4:
            raise ValueError("plot area must be at least 10x4 characters")
        self.width = int(width)
        self.height = int(height)
        self.log_x = bool(log_x)
        self.title = title
        self.x_label = x_label
        self.y_label = y_label
        self.series: List[Series] = []

    # ------------------------------------------------------------------ #
    def add_series(self, label: str, xs: Sequence[float], ys: Sequence[float]) -> Series:
        """Add a named series; returns the stored :class:`Series`."""
        xs = [float(x) for x in xs]
        ys = [float(y) for y in ys]
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have equal lengths")
        if len(self.series) >= len(_MARKERS):
            raise ValueError(f"at most {len(_MARKERS)} series supported")
        series = Series(label=label, xs=xs, ys=ys)
        self.series.append(series)
        return series

    # ------------------------------------------------------------------ #
    def _x_transform(self, x: float) -> float:
        if self.log_x:
            return math.log2(max(x, 1e-12))
        return x

    def _bounds(self) -> Tuple[float, float, float, float]:
        xs = [self._x_transform(x) for s in self.series for x in s.xs]
        ys = [y for s in self.series for y in s.ys]
        if not xs:
            raise ValueError("cannot render an empty plot")
        x_min, x_max = min(xs), max(xs)
        y_min, y_max = min(ys), max(ys)
        if math.isclose(x_min, x_max):
            x_min, x_max = x_min - 0.5, x_max + 0.5
        if math.isclose(y_min, y_max):
            y_min, y_max = y_min - 0.5, y_max + 0.5
        # Always include zero on the y axis when close, for honest scaling.
        if y_min > 0 and y_min < 0.25 * y_max:
            y_min = 0.0
        return x_min, x_max, y_min, y_max

    def render(self) -> str:
        """Render the plot as a multi-line string."""
        if not self.series:
            raise ValueError("cannot render an empty plot")
        x_min, x_max, y_min, y_max = self._bounds()
        canvas = [[" "] * self.width for _ in range(self.height)]

        def to_col(x: float) -> int:
            frac = (self._x_transform(x) - x_min) / (x_max - x_min)
            return min(self.width - 1, max(0, int(round(frac * (self.width - 1)))))

        def to_row(y: float) -> int:
            frac = (y - y_min) / (y_max - y_min)
            return min(self.height - 1, max(0, int(round((1.0 - frac) * (self.height - 1)))))

        for index, series in enumerate(self.series):
            marker = _MARKERS[index]
            for x, y in zip(series.xs, series.ys):
                canvas[to_row(y)][to_col(x)] = marker

        lines: List[str] = []
        if self.title:
            lines.append(self.title)
        if self.y_label:
            lines.append(f"[y: {self.y_label}]")
        top_label = f"{y_max:.3g}"
        bottom_label = f"{y_min:.3g}"
        gutter = max(len(top_label), len(bottom_label)) + 1
        for row_index, row in enumerate(canvas):
            if row_index == 0:
                prefix = top_label.rjust(gutter)
            elif row_index == self.height - 1:
                prefix = bottom_label.rjust(gutter)
            else:
                prefix = " " * gutter
            lines.append(f"{prefix}|{''.join(row)}")
        lines.append(" " * gutter + "+" + "-" * self.width)
        left = f"{(2 ** x_min if self.log_x else x_min):.3g}"
        right = f"{(2 ** x_max if self.log_x else x_max):.3g}"
        axis_line = " " * (gutter + 1) + left + " " * max(1, self.width - len(left) - len(right)) + right
        lines.append(axis_line)
        if self.x_label:
            lines.append(f"[x: {self.x_label}{' (log scale)' if self.log_x else ''}]")
        legend = "  ".join(
            f"{_MARKERS[i]} {series.label}" for i, series in enumerate(self.series)
        )
        lines.append(f"legend: {legend}")
        return "\n".join(lines)


def plot_series(
    series: Mapping[str, Sequence[Tuple[float, float]]],
    *,
    width: int = 60,
    height: int = 18,
    log_x: bool = False,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render a mapping ``label -> [(x, y), ...]`` as an ASCII plot."""
    plot = AsciiPlot(
        width, height, log_x=log_x, title=title, x_label=x_label, y_label=y_label
    )
    for label, points in series.items():
        if points:
            xs, ys = zip(*points)
        else:
            xs, ys = (), ()
        plot.add_series(label, xs, ys)
    return plot.render()


def plot_experiment_rows(
    rows: Sequence[Mapping[str, object]],
    *,
    x: str,
    y: str,
    group_by: Optional[str] = None,
    log_x: bool = True,
    title: str = "",
) -> str:
    """Plot aggregated experiment rows (as produced by the harness).

    Parameters
    ----------
    rows:
        Aggregated experiment rows.
    x / y:
        Column names for the axes.
    group_by:
        Optional column whose distinct values become separate series
        (e.g. ``"protocol"`` for a Figure 1-style plot).
    log_x:
        Use a logarithmic x axis.
    title:
        Plot title.
    """
    series: Dict[str, List[Tuple[float, float]]] = {}
    for row in rows:
        label = str(row[group_by]) if group_by else y
        series.setdefault(label, []).append((float(row[x]), float(row[y])))
    for points in series.values():
        points.sort(key=lambda p: p[0])
    return plot_series(
        series, log_x=log_x, title=title, x_label=x, y_label=y
    )
