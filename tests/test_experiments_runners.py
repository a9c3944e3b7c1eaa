"""Tests for the experiment runner machinery."""

import logging

import numpy as np
import pytest

from repro.adversary.dropping import DroppingRelays
from repro.contacts.graph import ContactGraph
from repro.contacts.synthetic import cambridge_like_trace
from repro.contacts.traces import ContactRecord, ContactTrace
from repro.core.route import OnionRoute
from repro.experiments.runners import (
    analysis_delivery_curve,
    estimate_active_span,
    run_fused_graph_sweep,
    run_fused_trace_sweep,
    sample_endpoints,
    security_montecarlo,
    select_overlapping_route,
    simulated_delivery_curve,
    trace_contact_graph,
)
from tests.helpers import one_variant
from tests.oracles import sample_copy_paths
from repro.faults.failstop import FailStopSchedule
from repro.faults.churn import NodeChurnSchedule
from repro.faults.recovery import RecoveryPolicy
from repro.utils.rng import ensure_rng


class TestSampleEndpoints:
    def test_distinct(self):
        rng = ensure_rng(0)
        for _ in range(50):
            source, destination = sample_endpoints(10, rng)
            assert source != destination
            assert 0 <= source < 10 and 0 <= destination < 10


class TestSelectOverlappingRoute:
    def test_excludes_endpoints(self):
        rng = ensure_rng(1)
        route = select_overlapping_route(12, 0, 11, 3, 10, rng)
        for members in route.groups:
            assert 0 not in members
            assert 11 not in members
            assert len(members) == 10

    def test_groups_may_overlap(self):
        rng = ensure_rng(2)
        route = select_overlapping_route(12, 0, 11, 3, 10, rng)
        # 10 eligible nodes, groups of 10: all three groups identical
        assert route.groups[0] == route.groups[1] == route.groups[2]

    def test_too_large_group_rejected(self):
        rng = ensure_rng(3)
        with pytest.raises(ValueError, match="eligible"):
            select_overlapping_route(5, 0, 4, 2, 4, rng)


class TestRandomGraphBatch:
    def test_batch_shape_and_outcomes(self):
        graph = ContactGraph.complete(30, 0.05)
        [batch] = run_fused_graph_sweep(
            graph, one_variant(5, 2), horizon=500.0, sessions_per_variant=10,
            rng=0,
        )
        assert len(batch) == 10
        for route, outcome in batch:
            assert isinstance(route, OnionRoute)
            if outcome.delivered:
                assert outcome.delay <= 500.0
                assert outcome.transmissions == route.eta

    def test_multicopy_batch_costs_more(self):
        graph = ContactGraph.complete(30, 0.05)
        [single] = run_fused_graph_sweep(
            graph, one_variant(5, 2, 1), horizon=2000.0,
            sessions_per_variant=15, rng=1,
        )
        [multi] = run_fused_graph_sweep(
            graph, one_variant(5, 2, 3), horizon=2000.0,
            sessions_per_variant=15, rng=1,
        )
        mean = lambda batch: np.mean([o.transmissions for _, o in batch])
        assert mean(multi) > mean(single)


class TestDeliveryCurves:
    def test_analysis_curve_monotone(self):
        graph = ContactGraph.complete(30, 0.02)
        [batch] = run_fused_graph_sweep(graph, one_variant(5, 2), 400.0, 5, rng=2)
        routes = [route for route, _ in batch]
        curve = analysis_delivery_curve(graph, routes, [50.0, 150.0, 400.0])
        values = [y for _, y in curve]
        assert values == sorted(values)
        assert all(0 <= y <= 1 for y in values)

    def test_unreachable_route_contributes_zero(self):
        rates = np.zeros((4, 4))
        rates[0, 1] = rates[1, 0] = 0.5
        graph = ContactGraph(rates)
        route = OnionRoute(source=0, destination=3, group_ids=(0,), groups=((1,),))
        curve = analysis_delivery_curve(graph, [route], [100.0])
        assert curve == [(100.0, 0.0)]

    def test_simulated_curve_from_outcomes(self):
        graph = ContactGraph.complete(30, 0.05)
        [batch] = run_fused_graph_sweep(graph, one_variant(5, 2), 800.0, 20, rng=3)
        outcomes = [o for _, o in batch]
        curve = simulated_delivery_curve(outcomes, [100.0, 800.0])
        assert curve[0][1] <= curve[1][1]


class TestSecurityMonteCarlo:
    def test_zero_compromise(self):
        traceable, anonymity = security_montecarlo(
            100, 5, 3, copies=1, compromise_rate=0.0, trials=50, rng=0
        )
        assert traceable == 0.0
        assert anonymity == pytest.approx(1.0)

    def test_matches_models_at_moderate_rate(self):
        from repro.analysis.anonymity import path_anonymity
        from repro.analysis.traceable import traceable_rate_model

        traceable, anonymity = security_montecarlo(
            100, 5, 3, copies=1, compromise_rate=0.2, trials=4000, rng=1
        )
        assert traceable == pytest.approx(traceable_rate_model(4, 0.2), abs=0.02)
        assert anonymity == pytest.approx(
            path_anonymity(100, 4, 5, 0.2, form="exact"), abs=0.02
        )

    def test_multicopy_lowers_anonymity(self):
        _, single = security_montecarlo(100, 5, 3, 1, 0.2, trials=1500, rng=2)
        _, multi = security_montecarlo(100, 5, 3, 5, 0.2, trials=1500, rng=2)
        assert multi < single

    def test_overlapping_mode(self):
        traceable, anonymity = security_montecarlo(
            12, 10, 3, copies=1, compromise_rate=0.25, trials=300, rng=3,
            overlapping=True,
        )
        assert 0.0 < traceable < 1.0
        assert 0.0 < anonymity <= 1.0


class TestSampleCopyPaths:
    def test_shapes(self):
        route = OnionRoute(
            source=0, destination=9, group_ids=(0, 1), groups=((1, 2, 3), (4, 5, 6))
        )
        paths = sample_copy_paths(route, 3, ensure_rng(0))
        assert len(paths) == 3
        for path in paths:
            assert len(path) == route.eta
            assert path[0] == 0

    def test_copies_use_distinct_members_when_possible(self):
        route = OnionRoute(
            source=0, destination=9, group_ids=(0,), groups=((1, 2, 3),)
        )
        paths = sample_copy_paths(route, 3, ensure_rng(1))
        members = [path[1] for path in paths]
        assert sorted(members) == [1, 2, 3]

    def test_wraps_when_copies_exceed_group(self):
        route = OnionRoute(source=0, destination=9, group_ids=(0,), groups=((1, 2),))
        paths = sample_copy_paths(route, 5, ensure_rng(2))
        assert {path[1] for path in paths} == {1, 2}


class TestTraceBatch:
    def test_trace_pipeline(self):
        trace = cambridge_like_trace(days=2, rng=0)
        [batch] = run_fused_trace_sweep(
            trace, one_variant(10, 3), deadline=3600.0,
            sessions_per_variant=5, rng=0, overlapping=True,
        )
        assert len(batch) == 5
        for route, outcome in batch:
            assert route.eta == 4
            if outcome.delivered:
                assert outcome.delay <= 3600.0

    def test_trace_graph_and_active_span(self):
        trace = cambridge_like_trace(days=2, rng=1)
        span = estimate_active_span(trace)
        assert 0 < span <= trace.normalized().end + 3600
        graph = trace_contact_graph(trace, span)
        assert graph.n == 12
        assert graph.mean_rate() > 0


class TestFaultyGraphBatch:
    def _graph(self):
        return ContactGraph.complete(20, 0.05)

    def test_faultless_matches_plain_batch_shape(self):
        [batch] = run_fused_graph_sweep(
            self._graph(), one_variant(3, 2), horizon=400.0,
            sessions_per_variant=10, rng=5,
        )
        assert len(batch) == 10
        for route, outcome in batch:
            assert route.eta == 3
            assert outcome.status in {"delivered", "pending", "expired"}

    def test_churn_reduces_delivery(self):
        kwargs = dict(
            variants=one_variant(3, 2), horizon=300.0, sessions_per_variant=40,
        )
        [plain] = run_fused_graph_sweep(self._graph(), rng=6, **kwargs)
        [churned] = run_fused_graph_sweep(
            self._graph(), rng=6,
            churn=NodeChurnSchedule.from_availability(20, 0.3, 20.0, rng=7),
            **kwargs,
        )
        delivered = lambda batch: sum(o.delivered for _, o in batch)
        assert delivered(churned) < delivered(plain)

    def test_blackhole_relays_drop_sessions(self):
        relays = DroppingRelays.blackholes(set(range(20)))
        [batch] = run_fused_graph_sweep(
            self._graph(), one_variant(3, 2), horizon=400.0,
            sessions_per_variant=15, rng=8, relays=relays,
        )
        statuses = {outcome.status for _, outcome in batch}
        assert "dropped" in statuses
        assert not any(outcome.delivered for _, outcome in batch)

    def test_recovery_with_failstop_runs(self):
        [batch] = run_fused_graph_sweep(
            self._graph(), one_variant(3, 2, 2), horizon=400.0,
            sessions_per_variant=15, rng=9,
            failstop=FailStopSchedule(20, death_rate=0.002, rng=10),
            relays=DroppingRelays(range(0, 20, 5), 0.5),
            recovery=RecoveryPolicy(custody_timeout=30.0, max_retries=2),
        )
        assert len(batch) == 15
        for _, outcome in batch:
            assert outcome.status in {
                "delivered", "pending", "expired", "dropped", "failed",
            }


class TestSparseTrace:
    def test_partial_batch_with_warning(self, caplog):
        # Only nodes 0 and 1 ever contact in the first half of the trace,
        # so almost no sampled source can be placed: the batch must come
        # back partial instead of raising.
        records = [ContactRecord(0, 1, 0.0, 1.0)]
        for i in range(2, 300, 2):
            records.append(ContactRecord(i, i + 1, 900.0 + i, 905.0 + i))
        trace = ContactTrace(records)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.runners"):
            [batch] = run_fused_trace_sweep(
                trace, one_variant(5, 2), deadline=100.0,
                sessions_per_variant=8, rng=3, overlapping=True,
            )
        assert len(batch) < 8  # partial, not empty-handed ...
        assert any("trace too sparse" in r.message for r in caplog.records)
        for route, outcome in batch:  # ... and the placed sessions are real
            assert route.eta == 3
