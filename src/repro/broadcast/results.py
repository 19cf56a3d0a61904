"""Result record of the single-message broadcasting baseline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..engine.knowledge import SingleMessageState
from ..engine.metrics import MessageAccounting, TransmissionLedger
from ..engine.trace import SpreadingTrace

__all__ = ["BroadcastResult"]


@dataclass
class BroadcastResult:
    """Outcome of one broadcasting run.

    Attributes
    ----------
    protocol:
        Name of the broadcasting algorithm.
    n_nodes:
        Network size.
    source:
        The initially informed node.
    completed:
        Whether every node got the rumour.
    rounds:
        Number of synchronous steps executed.
    ledger:
        Communication-cost accounting.
    state:
        Final informed/uninformed state (includes per-node informing times).
    trace:
        Optional per-round progress trace.
    extras:
        Algorithm-specific extra outputs.
    """

    protocol: str
    n_nodes: int
    source: int
    completed: bool
    rounds: int
    ledger: TransmissionLedger
    state: SingleMessageState
    trace: Optional[SpreadingTrace] = None
    extras: Dict[str, Any] = field(default_factory=dict)

    def messages_per_node(
        self, accounting: MessageAccounting = MessageAccounting.PACKETS
    ) -> float:
        """Average communication cost per node under the chosen accounting."""
        return self.ledger.average_per_node(accounting)

    def total_messages(
        self, accounting: MessageAccounting = MessageAccounting.PACKETS
    ) -> int:
        """Total communication cost under the chosen accounting."""
        return self.ledger.total(accounting)
