"""Configurations of the reproduction experiments.

The paper simulates graphs of up to a million nodes on 64-core, 0.5–1 TB
machines; the default configurations here are scaled down so that the full
suite finishes on a laptop in minutes while preserving the growth trends over
a decade of sizes.  The dataclass defaults are the scale ``run_scenario``
uses when called without a config (Figure 4 and the graph-model comparison
pick their own :class:`SizeSweepConfig` sizes); pass larger sizes to run
closer to the paper's ranges (bounded by the O(n²/8) knowledge matrices, and
by twice that on the exchange protocols, whose rounds keep a swap buffer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = [
    "ChurnConfig",
    "PushSumConfig",
    "ScaleConfig",
    "SizeSweepConfig",
    "RobustnessConfig",
    "RobustnessDetailConfig",
    "DensitySweepConfig",
    "BroadcastAblationConfig",
    "ParameterAblationConfig",
    "LeaderElectionConfig",
]


@dataclass(frozen=True)
class SizeSweepConfig:
    """Configuration of the Figure 1 / Figure 4 size sweeps.

    Attributes
    ----------
    sizes:
        Graph sizes (the paper sweeps 10^3 … 10^6; we default to powers of two
        spanning roughly a decade).
    repetitions:
        Independent runs per (size, protocol) pair.
    seed:
        Base seed; all runs derive their seeds deterministically from it.
    protocols:
        Protocols included in the sweep.
    density_exponent:
        The sweep uses ``G(n, log^density_exponent(n) / n)``; the paper uses 2.
    n_jobs:
        Worker processes for the sweep.
    """

    sizes: Tuple[int, ...] = (256, 512, 1024, 2048, 4096)
    repetitions: int = 3
    seed: Optional[int] = 20150525
    protocols: Tuple[str, ...] = ("push-pull", "fast-gossiping", "memory")
    density_exponent: float = 2.0
    n_jobs: int = 1


@dataclass(frozen=True)
class ScaleConfig:
    """Configuration of the large-n scale scenario.

    Attributes
    ----------
    sizes:
        Graph sizes; the point of the scenario is large sizes, where the
        matrix and its swap buffer dominate the run's memory.
    repetitions:
        Independent runs per size.
    seed:
        Base seed; all runs derive their seeds deterministically from it.
    protocol:
        The gossiping protocol to scale (push-pull by default — the one
        whose cost the paper's Figure 1 anchors).
    density_exponent:
        The sweep uses ``G(n, log^density_exponent(n) / n)``.
    n_jobs:
        Worker processes for the sweep (keep at 1 for honest per-run
        memory readings).
    """

    sizes: Tuple[int, ...] = (4096, 16384)
    repetitions: int = 1
    seed: Optional[int] = 20150525
    protocol: str = "push-pull"
    density_exponent: float = 2.0
    n_jobs: int = 1


@dataclass(frozen=True)
class PushSumConfig:
    """Configuration of the push-sum averaging scenario.

    Attributes
    ----------
    sizes:
        Graph sizes of the sweep.
    clocks:
        Execution clocks compared per size
        (:data:`repro.core.protocol.CLOCKS` names).  Seeds derive from the
        size alone, so both clocks run on the same graph.
    tolerance:
        Convergence threshold on the estimate spread.
    repetitions:
        Independent runs per (size, clock) pair.
    seed:
        Base seed; all runs derive their seeds deterministically from it.
    density_exponent:
        The sweep uses ``G(n, log^density_exponent(n) / n)``.
    n_jobs:
        Worker processes for the sweep.
    """

    sizes: Tuple[int, ...] = (256, 512, 1024)
    clocks: Tuple[str, ...] = ("sync", "event")
    tolerance: float = 1e-8
    repetitions: int = 3
    seed: Optional[int] = 20150532
    density_exponent: float = 2.0
    n_jobs: int = 1


@dataclass(frozen=True)
class ChurnConfig:
    """Configuration of the node-churn scenario (event-clock push-pull).

    Attributes
    ----------
    sizes:
        Graph sizes of the sweep.
    churn_fractions:
        Fractions of the nodes that leave mid-run (a ``rejoin_fraction``
        share of them returns, keeping their knowledge).
    rejoin_fraction:
        Probability that a leaving node rejoins later.
    repetitions:
        Independent runs per (size, fraction) pair.
    seed:
        Base seed; all runs derive their seeds deterministically from it.
    density_exponent:
        The sweep uses ``G(n, log^density_exponent(n) / n)``.
    n_jobs:
        Worker processes for the sweep.
    """

    sizes: Tuple[int, ...] = (256, 512)
    churn_fractions: Tuple[float, ...] = (0.0, 0.05, 0.15)
    rejoin_fraction: float = 0.5
    repetitions: int = 3
    seed: Optional[int] = 20150533
    density_exponent: float = 2.0
    n_jobs: int = 1


@dataclass(frozen=True)
class RobustnessConfig:
    """Configuration of the Figure 2 / Figure 3 robustness sweeps.

    Attributes
    ----------
    size:
        Graph size (the paper uses 10^6 for Figure 2 and 10^5 / 5*10^5 for
        Figure 3).
    failed_fractions:
        Failed-node counts expressed as fractions of ``size``.
    num_trees:
        Independently built communication trees (3 in the paper).
    repetitions:
        Runs per failure count.
    """

    size: int = 2048
    failed_fractions: Tuple[float, ...] = (0.0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
    num_trees: int = 3
    repetitions: int = 3
    seed: Optional[int] = 20150526
    density_exponent: float = 2.0
    n_jobs: int = 1

    def failed_counts(self) -> List[int]:
        """Absolute failed-node counts derived from the fractions."""
        return [int(round(self.size * fraction)) for fraction in self.failed_fractions]


@dataclass(frozen=True)
class RobustnessDetailConfig:
    """Configuration of the Figure 5 threshold-exceedance study.

    Attributes
    ----------
    sizes:
        Graph sizes (the paper uses 10^5 and 5*10^5).
    thresholds:
        Additional-loss thresholds T; the paper reports T in {0, 10, 100}.
    failed_fractions:
        Failure counts as fractions of each size.
    repetitions:
        Runs per (size, failure count); the paper uses at least 5.
    """

    sizes: Tuple[int, ...] = (1024, 2048)
    thresholds: Tuple[int, ...] = (0, 10, 100)
    failed_fractions: Tuple[float, ...] = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
    num_trees: int = 3
    repetitions: int = 5
    seed: Optional[int] = 20150527
    density_exponent: float = 2.0
    n_jobs: int = 1


@dataclass(frozen=True)
class DensitySweepConfig:
    """Configuration of the density-sweep extension (E7).

    The titular question of the paper: how does the communication overhead of
    gossiping depend on the graph density?  We fix ``n`` and sweep the
    expected degree from ``log^2 n`` up to the complete graph.
    """

    size: int = 1024
    expected_degrees: Tuple[float, ...] = ()
    include_complete: bool = True
    protocols: Tuple[str, ...] = ("push-pull", "fast-gossiping", "memory")
    repetitions: int = 3
    seed: Optional[int] = 20150528
    n_jobs: int = 1

    def degrees(self) -> List[float]:
        """Expected degrees of the sweep (defaults to log²n · {1, 2, 4, 8, …})."""
        if self.expected_degrees:
            return list(self.expected_degrees)
        import math

        base = math.log2(self.size) ** 2
        degrees: List[float] = []
        factor = 1.0
        while base * factor < self.size / 2:
            degrees.append(base * factor)
            factor *= 4.0
        return degrees


@dataclass(frozen=True)
class BroadcastAblationConfig:
    """Configuration of the broadcast-vs-gossip separation ablation (E8)."""

    sizes: Tuple[int, ...] = (256, 512, 1024, 2048, 4096)
    repetitions: int = 3
    seed: Optional[int] = 20150529
    density_exponent: float = 2.0
    n_jobs: int = 1


@dataclass(frozen=True)
class ParameterAblationConfig:
    """Configuration of the fast-gossiping parameter ablation (E9)."""

    size: int = 1024
    walk_probability_factors: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    broadcast_steps_factors: Tuple[float, ...] = (0.25, 0.5, 1.0)
    repetitions: int = 3
    seed: Optional[int] = 20150530
    density_exponent: float = 2.0
    n_jobs: int = 1


@dataclass(frozen=True)
class LeaderElectionConfig:
    """Configuration of the leader-election cost experiment (E10)."""

    sizes: Tuple[int, ...] = (256, 512, 1024, 2048, 4096)
    repetitions: int = 3
    seed: Optional[int] = 20150531
    density_exponent: float = 2.0
    n_jobs: int = 1


