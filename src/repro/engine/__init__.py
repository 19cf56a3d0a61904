"""Random phone call model execution substrate.

This package provides the building blocks shared by every protocol in the
library: deterministic randomness management (:mod:`repro.engine.rng`), packed
bitset knowledge tracking (:mod:`repro.engine.knowledge`), the kernel backend
registry that selects between NumPy and compiled-C execution
(:mod:`repro.engine.backends`), per-step channel bookkeeping and the
synchronous round source (:mod:`repro.engine.channels`), the event clock
(:mod:`repro.engine.event_clock`), communication-cost accounting
(:mod:`repro.engine.metrics`), crash-failure plans
(:mod:`repro.engine.failures`) and per-round progress traces
(:mod:`repro.engine.trace`).
"""

from . import backends
from .channels import ChannelRound, ChannelSet, SyncRounds, open_channels
from .event_clock import (
    ChurnPlan,
    EventGroup,
    EventScheduler,
    group_events,
    sample_churn_plan,
)
from .chaos import (
    ChaosError,
    ChaosSpec,
    Fault,
    FaultPlan,
    NO_CHAOS,
    parse_chaos_counts,
    sample_fault_plan,
)
from .failures import (
    KNOWN_INJECTION_POINTS,
    NO_FAILURES,
    FailurePlan,
    sample_uniform_failures,
)
from .knowledge import (
    KnowledgeMatrix,
    SingleMessageState,
    WORD_BITS,
    adaptive_knowledge,
)
from .metrics import MessageAccounting, PhaseTotals, TransmissionLedger
from .rng import RandomState, derive_seed, ensure_rng, make_rng, spawn_rngs
from .trace import RoundRecord, SpreadingTrace

__all__ = [
    "backends",
    "ChannelRound",
    "ChannelSet",
    "SyncRounds",
    "open_channels",
    "ChurnPlan",
    "EventGroup",
    "EventScheduler",
    "group_events",
    "sample_churn_plan",
    "ChaosError",
    "ChaosSpec",
    "Fault",
    "FaultPlan",
    "NO_CHAOS",
    "parse_chaos_counts",
    "sample_fault_plan",
    "KNOWN_INJECTION_POINTS",
    "NO_FAILURES",
    "FailurePlan",
    "sample_uniform_failures",
    "KnowledgeMatrix",
    "SingleMessageState",
    "WORD_BITS",
    "adaptive_knowledge",
    "MessageAccounting",
    "PhaseTotals",
    "TransmissionLedger",
    "RandomState",
    "derive_seed",
    "ensure_rng",
    "make_rng",
    "spawn_rngs",
    "RoundRecord",
    "SpreadingTrace",
]
