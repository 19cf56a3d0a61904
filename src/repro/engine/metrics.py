"""Communication-complexity accounting for the random phone call model.

The paper (following Berenbrink et al., ICALP 2010) counts two kinds of cost:

* *channel opens* — a node opening a communication channel in a step, and
* *packet transmissions* — sending one packet through an open channel,
  counted once regardless of how many original messages are combined in it.

Different figures in the literature report different combinations of these
(the plain push–pull plot in the paper effectively reports rounds, while the
analytical bounds count transmissions).  :class:`TransmissionLedger` therefore
keeps separate per-node counters for opens, push packets and pull packets, per
protocol phase, and lets the caller choose the accounting via
:class:`MessageAccounting` when summarising.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

import numpy as np

__all__ = ["MessageAccounting", "PhaseTotals", "TransmissionLedger"]


class MessageAccounting(str, enum.Enum):
    """Which cost components are summed when reporting message complexity."""

    #: Packet transmissions only (push + pull packets).  This is the metric
    #: reported per node in the paper's Figure 1 style plots.
    PACKETS = "packets"
    #: Channel opens only.
    OPENS = "opens"
    #: The strict Berenbrink et al. accounting: opens + packets.
    OPENS_AND_PACKETS = "opens_and_packets"
    #: Push packets only.
    PUSHES = "pushes"
    #: Pull packets only.
    PULLS = "pulls"


@dataclass
class PhaseTotals:
    """Aggregated counters for one protocol phase."""

    channel_opens: int = 0
    push_packets: int = 0
    pull_packets: int = 0
    rounds: int = 0

    @property
    def packets(self) -> int:
        """Total packet transmissions in the phase."""
        return self.push_packets + self.pull_packets

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view used for serialisation."""
        return {
            "channel_opens": self.channel_opens,
            "push_packets": self.push_packets,
            "pull_packets": self.pull_packets,
            "packets": self.packets,
            "rounds": self.rounds,
        }


class TransmissionLedger:
    """Per-node, per-phase communication counters.

    Parameters
    ----------
    n_nodes:
        Number of nodes; all counters are arrays of this length.

    Notes
    -----
    The ledger is deliberately protocol-agnostic.  Protocols call
    :meth:`record_opens`, :meth:`record_pushes` and :meth:`record_pulls` with
    arrays of node identifiers (repetition allowed — a node sending two pull
    packets in one step appears twice), and :meth:`end_round` once per
    synchronous step.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        self.n_nodes = int(n_nodes)
        self.channel_opens = np.zeros(n_nodes, dtype=np.int64)
        self.push_packets = np.zeros(n_nodes, dtype=np.int64)
        self.pull_packets = np.zeros(n_nodes, dtype=np.int64)
        self.rounds = 0
        self._phase: Optional[str] = None
        self._phase_totals: Dict[str, PhaseTotals] = {}
        self._phase_order: List[str] = []

    # ------------------------------------------------------------------ #
    # Phase management
    # ------------------------------------------------------------------ #
    def begin_phase(self, name: str) -> None:
        """Start attributing subsequent costs to phase ``name``."""
        if name not in self._phase_totals:
            self._phase_totals[name] = PhaseTotals()
            self._phase_order.append(name)
        self._phase = name

    def end_phase(self) -> None:
        """Stop attributing costs to the current phase."""
        self._phase = None

    @property
    def phases(self) -> List[str]:
        """Phase names in the order they were first seen."""
        return list(self._phase_order)

    def phase_totals(self, name: str) -> PhaseTotals:
        """Aggregated counters for phase ``name``."""
        return self._phase_totals[name]

    def _phase_bucket(self) -> Optional[PhaseTotals]:
        if self._phase is None:
            return None
        return self._phase_totals[self._phase]

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _accumulate(self, target: np.ndarray, nodes: np.ndarray) -> int:
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return 0
        np.add.at(target, nodes, 1)
        return int(nodes.size)

    def record_opens(self, nodes: np.ndarray) -> None:
        """Record one channel open per entry of ``nodes``."""
        count = self._accumulate(self.channel_opens, nodes)
        bucket = self._phase_bucket()
        if bucket is not None:
            bucket.channel_opens += count

    def record_pushes(self, nodes: np.ndarray) -> None:
        """Record one push packet sent per entry of ``nodes``."""
        count = self._accumulate(self.push_packets, nodes)
        bucket = self._phase_bucket()
        if bucket is not None:
            bucket.push_packets += count

    def record_pulls(self, nodes: np.ndarray) -> None:
        """Record one pull packet sent per entry of ``nodes``."""
        count = self._accumulate(self.pull_packets, nodes)
        bucket = self._phase_bucket()
        if bucket is not None:
            bucket.pull_packets += count

    def end_round(self) -> None:
        """Mark the end of one synchronous step."""
        self.rounds += 1
        bucket = self._phase_bucket()
        if bucket is not None:
            bucket.rounds += 1

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def per_node(self, accounting: MessageAccounting = MessageAccounting.PACKETS) -> np.ndarray:
        """Per-node cost under the chosen accounting."""
        accounting = MessageAccounting(accounting)
        if accounting is MessageAccounting.PACKETS:
            return self.push_packets + self.pull_packets
        if accounting is MessageAccounting.OPENS:
            return self.channel_opens.copy()
        if accounting is MessageAccounting.OPENS_AND_PACKETS:
            return self.channel_opens + self.push_packets + self.pull_packets
        if accounting is MessageAccounting.PUSHES:
            return self.push_packets.copy()
        if accounting is MessageAccounting.PULLS:
            return self.pull_packets.copy()
        raise ValueError(f"unknown accounting {accounting!r}")  # pragma: no cover

    def total(self, accounting: MessageAccounting = MessageAccounting.PACKETS) -> int:
        """Total cost across all nodes under the chosen accounting."""
        return int(self.per_node(accounting).sum())

    def average_per_node(
        self, accounting: MessageAccounting = MessageAccounting.PACKETS
    ) -> float:
        """Average cost per node — the y-axis of the paper's Figure 1."""
        return self.total(accounting) / float(self.n_nodes)

    def max_per_node(self, accounting: MessageAccounting = MessageAccounting.PACKETS) -> int:
        """Maximum cost incurred by any single node."""
        return int(self.per_node(accounting).max())

    def summary(self) -> Dict[str, object]:
        """Serializable summary of all counters."""
        return {
            "n_nodes": self.n_nodes,
            "rounds": self.rounds,
            "total_channel_opens": int(self.channel_opens.sum()),
            "total_push_packets": int(self.push_packets.sum()),
            "total_pull_packets": int(self.pull_packets.sum()),
            "total_packets": int(self.push_packets.sum() + self.pull_packets.sum()),
            "avg_packets_per_node": self.average_per_node(MessageAccounting.PACKETS),
            "avg_opens_per_node": self.average_per_node(MessageAccounting.OPENS),
            "phases": {
                name: self._phase_totals[name].as_dict() for name in self._phase_order
            },
        }

    def merge(self, other: "TransmissionLedger") -> "TransmissionLedger":
        """Combine two ledgers (e.g. leader election + gossiping) into a new one."""
        if self.n_nodes != other.n_nodes:
            raise ValueError("cannot merge ledgers with different node counts")
        merged = TransmissionLedger(self.n_nodes)
        merged.channel_opens = self.channel_opens + other.channel_opens
        merged.push_packets = self.push_packets + other.push_packets
        merged.pull_packets = self.pull_packets + other.pull_packets
        merged.rounds = self.rounds + other.rounds
        for source in (self, other):
            for name in source._phase_order:
                totals = source._phase_totals[name]
                if name not in merged._phase_totals:
                    merged._phase_totals[name] = PhaseTotals()
                    merged._phase_order.append(name)
                dst = merged._phase_totals[name]
                dst.channel_opens += totals.channel_opens
                dst.push_packets += totals.push_packets
                dst.pull_packets += totals.pull_packets
                dst.rounds += totals.rounds
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransmissionLedger(n_nodes={self.n_nodes}, rounds={self.rounds}, "
            f"packets={self.total(MessageAccounting.PACKETS)})"
        )
