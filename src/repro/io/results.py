"""Persistence of experiment results as JSON and CSV.

Experiment results are lists of flat record dictionaries (one per run or per
aggregated configuration).  Saving them next to the benchmark output makes the
reproduction auditable: EXPERIMENTS.md references the same numbers the harness
wrote to disk.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

__all__ = [
    "to_jsonable",
    "canonical_json",
    "save_json",
    "load_json",
    "save_csv",
    "load_csv",
]


#: Exact types :func:`to_jsonable` returns unchanged (subclasses such as
#: ``np.float64`` or an ``IntEnum`` take the general branches below).
_PLAIN = frozenset({str, int, float, bool, type(None)})


def to_jsonable(value: Any) -> Any:
    """Convert numpy scalars/arrays and nested containers to JSON-safe types."""
    kind = type(value)
    if kind in _PLAIN:
        return value
    if kind is dict:
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if kind is list:
        return [to_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, Mapping):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        # Sets have no order; sort so repeated serializations of the same
        # value are byte-identical (mixed types fall back to a repr sort).
        try:
            items = sorted(value)
        except TypeError:
            items = sorted(value, key=repr)
        return [to_jsonable(v) for v in items]
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    # Fall back to the string representation for exotic objects (e.g. trees).
    return str(value)


def canonical_json(value: Any) -> str:
    """Serialize ``value`` to a canonical, deterministic JSON string.

    Keys are sorted, separators are minimal and numpy types are converted
    first, so structurally equal inputs always produce byte-equal output —
    the basis for sweep seed derivation and the result store's config hashes.
    """
    return json.dumps(to_jsonable(value), sort_keys=True, separators=(",", ":"))


def save_json(records: Any, path: Union[str, Path]) -> Path:
    """Write ``records`` to ``path`` as pretty-printed JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_jsonable(records), indent=2, sort_keys=True))
    return path


def load_json(path: Union[str, Path]) -> Any:
    """Load JSON previously written by :func:`save_json`."""
    return json.loads(Path(path).read_text())


def save_csv(
    records: Sequence[Mapping[str, Any]],
    path: Union[str, Path],
    *,
    columns: Optional[Sequence[str]] = None,
) -> Path:
    """Write record dicts to ``path`` as CSV.

    Parameters
    ----------
    records:
        Flat record dictionaries.
    path:
        Output file path (parent directories are created).
    columns:
        Column order; defaults to the union of keys in first-seen order.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if columns is None:
        seen: List[str] = []
        for record in records:
            for key in record:
                if key not in seen:
                    seen.append(key)
        columns = seen
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(columns), extrasaction="ignore")
        writer.writeheader()
        for record in records:
            writer.writerow({k: to_jsonable(record.get(k)) for k in columns})
    return path


def load_csv(path: Union[str, Path]) -> List[Dict[str, str]]:
    """Load a CSV written by :func:`save_csv` (values come back as strings)."""
    with Path(path).open() as handle:
        return [dict(row) for row in csv.DictReader(handle)]
