"""Tests for push-sum averaging under both execution clocks.

Push-sum carries two exact invariants that make it a sharp correctness
probe for the event-clock engine: total mass ``sum(s)`` / ``sum(w)`` never
changes (every update only moves halves around) and the estimate spread
``max(s/w) - min(s/w)`` is monotone non-increasing (every update forms
convex combinations of existing ratios).  Per-step variance is *not*
monotone — only overall decay is required.  The event-mode group update is
additionally pinned bit-identical to a one-event-at-a-time sequential
replay of the same stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PushSumGossip, PushSumParameters
from repro.engine.event_clock import EventScheduler
from repro.engine.failures import sample_uniform_failures
from repro.graphs import complete_graph, erdos_renyi, paper_edge_probability


@pytest.fixture(scope="module")
def graph():
    n = 96
    return erdos_renyi(n, paper_edge_probability(n), rng=7, require_connected=True)


@pytest.fixture(scope="module", params=["sync", "event"])
def converged(request, graph):
    """One converged run per clock, shared by the invariant tests."""
    result = PushSumGossip().run(graph, rng=31, clock=request.param)
    assert result.completed
    return result


class TestInvariants:
    def test_mass_is_conserved(self, converged):
        assert converged.extras["mass_error"] <= 1e-12
        assert max(converged.extras["series"]["mass_error"]) <= 1e-12

    def test_spread_is_monotone_nonincreasing(self, converged):
        spread = converged.extras["series"]["spread"]
        for before, after in zip(spread, spread[1:]):
            assert after <= before + 1e-12

    def test_spread_converges_below_tolerance(self, converged):
        assert converged.extras["spread"] <= PushSumParameters().tolerance

    def test_variance_decays_overall(self, converged):
        assert (
            converged.extras["variance_final"]
            < converged.extras["variance_initial"]
        )

    def test_estimates_converge_to_true_mean(self, converged):
        assert converged.extras["true_mean"] == pytest.approx(0.5)
        assert converged.extras["estimate_error"] <= 1e-7

    def test_times_increase(self, converged):
        times = converged.extras["series"]["time"]
        assert all(b > a for a, b in zip(times, times[1:]))


class TestEventModeBitIdentity:
    def test_group_update_matches_sequential_replay(self, graph):
        """The vectorised group update performs the same float additions in
        the same order as per-event application: identical bits, not just
        identical up to tolerance."""
        n = graph.n
        x = np.arange(n, dtype=np.float64) / float(n - 1)
        s_batched, w_batched = x.copy(), np.ones(n)
        s_seq, w_seq = x.copy(), np.ones(n)
        scheduler = EventScheduler(
            graph, np.random.default_rng(13), max_events=6 * n
        )
        for group in scheduler.rounds():
            if not group.size:
                continue
            callers, targets = group.callers, group.targets
            s_half = 0.5 * s_batched[callers]
            w_half = 0.5 * w_batched[callers]
            s_batched[callers] = s_half
            w_batched[callers] = w_half
            s_batched[targets] += s_half
            w_batched[targets] += w_half
            for c, t in zip(callers.tolist(), targets.tolist()):
                sh, wh = 0.5 * s_seq[c], 0.5 * w_seq[c]
                s_seq[c] = sh
                w_seq[c] = wh
                s_seq[t] += sh
                w_seq[t] += wh
        assert np.array_equal(s_batched, s_seq)
        assert np.array_equal(w_batched, w_seq)

    def test_event_runs_are_deterministic(self, graph):
        a = PushSumGossip().run(graph, rng=31, clock="event")
        b = PushSumGossip().run(graph, rng=31, clock="event")
        assert a.extras["series"] == b.extras["series"]
        assert a.rounds == b.rounds
        assert a.extras["events"] == b.extras["events"]


class TestConfiguration:
    def test_uniform_values_preset(self, graph):
        result = PushSumGossip(PushSumParameters(values="uniform")).run(
            graph, rng=31
        )
        assert result.completed
        assert result.extras["true_mean"] != pytest.approx(0.5, abs=1e-6)
        assert result.extras["mass_error"] <= 1e-12

    def test_unknown_values_preset_rejected(self):
        with pytest.raises(ValueError, match="values preset"):
            PushSumGossip(PushSumParameters(values="gaussian"))

    def test_unknown_clock_rejected(self, graph):
        with pytest.raises(ValueError, match="unknown clock"):
            PushSumGossip().run(graph, rng=1, clock="warped")

    def test_failure_plans_rejected(self, graph):
        plan = sample_uniform_failures(graph.n, 4, rng=1)
        with pytest.raises(ValueError, match="failure plans"):
            PushSumGossip().run(graph, rng=1, failures=plan)

    def test_params_clock_default(self, graph):
        result = PushSumGossip(PushSumParameters(clock="event")).run(graph, rng=9)
        assert result.extras["clock"] == "event"

    def test_result_shape(self, graph):
        result = PushSumGossip().run(graph, rng=31)
        assert result.protocol == "push-sum"
        assert result.knowledge is None
        assert result.rounds == len(result.extras["series"]["spread"])

    def test_works_on_complete_graph(self):
        result = PushSumGossip().run(complete_graph(64), rng=3, clock="event")
        assert result.completed

    def test_max_rounds_abort(self, graph):
        params = PushSumParameters(tolerance=0.0, max_rounds_factor=0.5)
        result = PushSumGossip(params).run(graph, rng=31)
        assert not result.completed
        assert result.rounds == params.max_rounds(graph.n)
