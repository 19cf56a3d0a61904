"""repro — reproduction of "On the Influence of Graph Density on Randomized Gossiping".

The package implements the random phone call model, the paper's gossiping
algorithms (plain push–pull, ``fast-gossiping`` and the memory model with
leader election), the random-graph substrates they run on, broadcasting
baselines, an analysis toolkit and the experiment harness that regenerates
every table and figure of the paper's empirical section.

Quick start::

    from repro import FastGossiping, PushPullGossip, erdos_renyi

    graph = erdos_renyi(1024, expected_degree=100, rng=1, require_connected=True)
    result = FastGossiping().run(graph, rng=2)
    print(result.completed, result.messages_per_node())

Performance notes
-----------------
The simulation kernel is fully vectorized: no per-node, per-transmission or
per-walk Python loop survives on the per-round hot path.

* Knowledge updates (:meth:`repro.engine.KnowledgeMatrix.apply_transmissions`
  / ``apply_exchange``) cost ``O(channels * words)`` word operations per
  round (``words = ceil(n_messages / 64)``) instead of ``O(n)`` Python
  iterations: transmissions are applied either through one compiled
  scatter-OR pass (see below) or through a sort-by-receiver layered NumPy
  scatter whose layer count is the maximum in-degree, not the channel count.
  Start-of-step snapshot semantics are preserved by gathering sender rows
  (or filling a reusable double buffer) before the first write — never by
  copying the full matrix per round.
* Completion checking is incremental
  (:class:`repro.core.completion.CompletionTracker`): per-node missing-bit
  deficits are recounted only for rows touched in the round, making the
  every-round check ``O(receivers * words)`` with an ``O(1)`` verdict, and
  saturated rows are dropped from the transmission batch outright
  (bit-exact), so late rounds cost ``O(incomplete nodes)``.
* Random-walk queues (:class:`repro.core.WalkPool`) live in flat arrays:
  deliveries merge payloads by destination in one vectorised pass and each
  forwarding step pops the oldest walk per host with a single lexsort.
* Early rounds are sparsity-aware: protocols run on
  :class:`repro.engine.FrontierKnowledge`, which tracks each row's nonzero
  words as an index frontier and scatters only the words actually in flight
  while batches are sparse, falling back (one-way) to the dense kernels as
  rows saturate past the crossover threshold (bit-identical to the dense
  path).
* Kernel execution is pluggable: :mod:`repro.engine.backends` exposes one
  dispatch surface over three interchangeable backends — ``numpy``, ``c``
  (the serial compiled kernels built by :mod:`repro.engine._ckernel` at
  first import, cached per machine) and ``c-threads`` (the same kernels
  sharded by receiver rows across a persistent worker pool).  Selection is
  ``REPRO_KERNEL_BACKEND`` (default ``auto``) with the thread budget in
  ``REPRO_KERNEL_THREADS``; trajectories are bit-identical across backends
  and thread counts.  ``REPRO_DISABLE_CKERNEL=1`` remains the kill switch
  that forces the pure-NumPy fallback.
* Experiments are declarative scenarios: every paper figure/table and
  extension is a :class:`repro.experiments.ScenarioSpec` executed by a
  streaming, resumable sweep engine (``repro scenarios run`` with
  ``--jobs`` for process parallelism and ``--out``/``--resume`` for the
  JSONL result store that makes interrupted sweeps resume bit-identically;
  see ``docs/experiments.md``).

Run ``PYTHONPATH=src python scripts/run_benchmarks.py`` to reproduce the
committed ``BENCH_kernel.json`` baseline (full protocol runs plus raw kernel
micro-timings at n in {1000, 5000, 20000}); performance PRs should rerun it
and extend the perf trajectory.
"""

from .core import (
    FastGossiping,
    FastGossipingParameters,
    GossipProtocol,
    GossipResult,
    LeaderElection,
    LeaderElectionParameters,
    LeaderElectionResult,
    MemoryGossiping,
    MemoryGossipingParameters,
    PushPullGossip,
    PushPullParameters,
    table1_rows,
    theory_fast_gossiping,
    tuned_fast_gossiping,
    tuned_memory_gossiping,
)
from .engine import (
    FailurePlan,
    FrontierKnowledge,
    KnowledgeMatrix,
    MessageAccounting,
    NO_FAILURES,
    SingleMessageState,
    TransmissionLedger,
    make_rng,
    sample_uniform_failures,
)
from .graphs import (
    Adjacency,
    GraphSpec,
    complete_graph,
    configuration_model,
    erdos_renyi,
    hypercube,
    make_graph,
    paper_edge_probability,
    paper_expected_degree,
    paper_graph_spec,
    power_law_graph,
    random_regular,
)

__version__ = "1.0.0"

__all__ = [
    "FastGossiping",
    "FastGossipingParameters",
    "GossipProtocol",
    "GossipResult",
    "LeaderElection",
    "LeaderElectionParameters",
    "LeaderElectionResult",
    "MemoryGossiping",
    "MemoryGossipingParameters",
    "PushPullGossip",
    "PushPullParameters",
    "table1_rows",
    "theory_fast_gossiping",
    "tuned_fast_gossiping",
    "tuned_memory_gossiping",
    "FailurePlan",
    "FrontierKnowledge",
    "KnowledgeMatrix",
    "MessageAccounting",
    "NO_FAILURES",
    "SingleMessageState",
    "TransmissionLedger",
    "make_rng",
    "sample_uniform_failures",
    "Adjacency",
    "GraphSpec",
    "complete_graph",
    "configuration_model",
    "erdos_renyi",
    "hypercube",
    "make_graph",
    "paper_edge_probability",
    "paper_expected_degree",
    "paper_graph_spec",
    "power_law_graph",
    "random_regular",
    "__version__",
]
