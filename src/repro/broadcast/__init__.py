"""Single-message broadcasting baseline: Karp et al.'s age-based push–pull."""

from .age_based import AgeBasedBroadcast
from .results import BroadcastResult

__all__ = [
    "AgeBasedBroadcast",
    "BroadcastResult",
]
