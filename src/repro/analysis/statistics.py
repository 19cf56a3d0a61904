"""Statistics over repeated protocol runs.

Every experiment repeats each configuration a few times with independent
seeds; this module aggregates the repetitions into means, standard deviations
and normal-approximation confidence intervals, which is what the experiment
reports print next to the paper's reference values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

__all__ = [
    "SampleStatistics",
    "aggregate_records",
    "summarize",
]


@dataclass(frozen=True)
class SampleStatistics:
    """Summary of a sample of scalar measurements."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float

    def confidence_interval(self, z: float = 1.96) -> tuple:
        """Normal-approximation confidence interval of the mean."""
        if self.count <= 1:
            return (self.mean, self.mean)
        half = z * self.std / math.sqrt(self.count)
        return (self.mean - half, self.mean + half)

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for reporting."""
        low, high = self.confidence_interval()
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "ci_low": low,
            "ci_high": high,
        }


def summarize(values: Iterable[float]) -> SampleStatistics:
    """Compute :class:`SampleStatistics` for ``values``."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarise an empty sample")
    return SampleStatistics(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )


def aggregate_records(
    records: Sequence[Mapping[str, Any]],
    group_by: Sequence[str],
    metrics: Sequence[str],
) -> List[Dict[str, Any]]:
    """Group per-run records and average the named metrics within each group.

    The output row contains the group keys, ``<metric>`` (mean),
    ``<metric>_std`` and ``repetitions``.  Groups appear in first-seen
    (record) order.  This single implementation backs both the experiment
    harness and the store's query index, so scan-served and index-served
    aggregates are computed by literally the same code.
    """
    groups: Dict[Tuple, List[Mapping[str, Any]]] = {}
    order: List[Tuple] = []
    for record in records:
        key = tuple(record[k] for k in group_by)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(record)
    rows: List[Dict[str, Any]] = []
    for key in order:
        members = groups[key]
        row: Dict[str, Any] = {k: v for k, v in zip(group_by, key)}
        row["repetitions"] = len(members)
        for metric in metrics:
            try:
                values = [float(m[metric]) for m in members if metric in m and m[metric] is not None]
            except ValueError as error:
                raise ValueError(f"metric {metric!r} is not numeric: {error}") from None
            if not values:
                continue
            stats = summarize(values)
            row[metric] = stats.mean
            row[f"{metric}_std"] = stats.std
        rows.append(row)
    return rows
