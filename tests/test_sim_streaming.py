"""Windowed runs must equal one-shot runs and the oracle, bit for bit.

The engine drains the event source window by window through
:func:`~repro.contacts.events.stream_event_blocks` (one horizon-wide
window unless ``stream_window`` / ``max_window_events`` say otherwise)
and invokes the batch kernels once per window. Because the kernels compose across successive
``run`` calls (they rebuild per-session candidate state each call and
skip finished sessions), a windowed drain must reproduce the one-shot
kernel outcomes exactly — including sessions whose TTL or delivery spans
a window boundary. These tests pin that equivalence (against the
per-event oracle too), the memory-ceiling knobs, and the generator's own
windowing arithmetic.
"""

import numpy as np
import pytest

from repro.contacts.events import (
    ColumnarEventSource,
    EventBlock,
    ExponentialContactProcess,
    stream_event_blocks,
)
from repro.contacts.random_graph import random_contact_graph
from repro.core.onion_groups import OnionGroupDirectory
from repro.core.single_copy import SingleCopySession
from repro.experiments.runners import run_fused_graph_sweep
from repro.sim.engine import SimulationEngine
from repro.sim.message import Message
from repro.sim.metrics import status_counts
from tests.helpers import one_variant
from tests.oracles import IteratorEngine, runners_using


def batch_fields(pairs):
    return [
        (
            o.delivered,
            o.delivery_time,
            o.transmissions,
            o.expired_copies,
            o.lost_copies,
            o.created_at,
            o.status,
            tuple(tuple(p) for p in o.paths),
            tuple(o.transfers),
        )
        for _, o in pairs
    ]


@pytest.fixture
def graph():
    return random_contact_graph(
        30, (10.0, 120.0), rng=np.random.default_rng(13)
    )


# ----------------------------------------------------------------------
# stream_event_blocks: the windowing generator itself
# ----------------------------------------------------------------------


class TestStreamEventBlocks:
    def _source(self, graph, horizon=480.0):
        process = ExponentialContactProcess(
            graph, rng=np.random.default_rng(21)
        )
        return ColumnarEventSource(process.events_until_columnar(horizon))

    def test_concatenation_equals_one_shot(self, graph):
        one_shot = self._source(graph).events_until_columnar(480.0)
        windows = list(
            stream_event_blocks(self._source(graph), 480.0, window=60.0)
        )
        assert all(isinstance(w, EventBlock) for w in windows)
        np.testing.assert_array_equal(
            np.concatenate([w.times for w in windows]), one_shot.times
        )
        np.testing.assert_array_equal(
            np.concatenate([w.a for w in windows]), one_shot.a
        )
        np.testing.assert_array_equal(
            np.concatenate([w.b for w in windows]), one_shot.b
        )

    def test_ceiling_bounds_every_window(self, graph):
        one_shot = self._source(graph).events_until_columnar(480.0)
        windows = list(
            stream_event_blocks(
                self._source(graph), 480.0, window=120.0, max_window_events=40
            )
        )
        assert max(len(w) for w in windows) <= 40
        np.testing.assert_array_equal(
            np.concatenate([w.times for w in windows]), one_shot.times
        )

    def test_window_span_adapts_downward(self, graph):
        # A huge first window blows the ceiling once; the span then shrinks
        # so later windows are produced near the ceiling, not sliced from
        # ever-larger one-shot pulls.
        pulls = []
        inner = self._source(graph)

        class Spy:
            def events_until_columnar(self, now):
                pulls.append(now)
                return inner.events_until_columnar(now)

        list(
            stream_event_blocks(
                Spy(), 480.0, window=240.0, max_window_events=25
            )
        )
        assert pulls[0] == 240.0
        assert len(pulls) > 3  # the span contracted after the first blowout
        assert pulls[1] - pulls[0] < 240.0

    def test_validates_arguments(self, graph):
        source = self._source(graph)
        with pytest.raises(ValueError):
            next(stream_event_blocks(source, 0.0, window=10.0))
        with pytest.raises(ValueError):
            next(stream_event_blocks(source, 100.0, window=-1.0))
        with pytest.raises(ValueError):
            next(
                stream_event_blocks(
                    source, 100.0, window=10.0, max_window_events=0
                )
            )


# ----------------------------------------------------------------------
# engine windows: equivalence and observability
# ----------------------------------------------------------------------


def _run(graph, seed, **engine_knobs):
    return run_fused_graph_sweep(
        graph,
        one_variant(4, 2),
        horizon=360.0,
        sessions_per_variant=40,
        rng=np.random.default_rng(seed),
        **engine_knobs,
    )[0]


def _oracle(graph, seed):
    with runners_using(IteratorEngine):
        return _run(graph, seed)


class TestStreamConsume:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_stream_matches_kernel_and_columnar(self, graph, seed):
        kernel = batch_fields(_run(graph, seed))
        oracle = batch_fields(_oracle(graph, seed))
        stream = batch_fields(_run(graph, seed, stream_window=45.0))
        assert stream == kernel == oracle

    def test_stream_matches_kernel_multicopy(self, graph):
        def run(**knobs):
            return batch_fields(
                run_fused_graph_sweep(
                    graph, one_variant(4, 2, 3),
                    horizon=360.0, sessions_per_variant=30,
                    rng=np.random.default_rng(7),
                    **knobs,
                )[0]
            )

        assert run(stream_window=30.0) == run()

    def test_stream_without_kernels_matches_columnar(self, graph):
        # kernel=False keeps the windowed drain but routes every session
        # through the columnar object loop — outcomes stay identical.
        stream = batch_fields(_run(graph, 5, stream_window=45.0, kernel=False))
        assert stream == batch_fields(_oracle(graph, 5))

    def test_ttl_spanning_window_boundary(self, graph):
        # Tiny windows force every session's delivery/expiry to happen many
        # windows after its creation; the composed outcomes must not drift.
        stream = batch_fields(_run(graph, 17, stream_window=5.0))
        kernel = batch_fields(_run(graph, 17))
        assert stream == kernel
        assert status_counts([]) == {}

    def test_event_ceiling_matches_unbounded(self, graph):
        bounded = batch_fields(
            _run(graph, 23, stream_window=90.0, max_window_events=16)
        )
        assert bounded == batch_fields(_run(graph, 23))


class TestStreamEngineInternals:
    def _engine_and_sessions(self, graph, deadline=300.0, **knobs):
        rng = np.random.default_rng(41)
        directory = OnionGroupDirectory(graph.n, 4, rng=rng)
        process = ExponentialContactProcess(graph, rng=rng)
        engine = SimulationEngine(process, horizon=300.0, **knobs)
        sessions = []
        for _ in range(20):
            src, dst = rng.choice(graph.n, size=2, replace=False)
            route = directory.select_route(int(src), int(dst), 2, rng=rng)
            session = SingleCopySession(
                Message(
                    source=int(src), destination=int(dst),
                    created_at=0.0, deadline=deadline,
                ),
                route,
            )
            engine.add_session(session)
            sessions.append(session)
        return engine, sessions

    def test_stream_stats_report_windows_and_peak(self, graph):
        engine, _ = self._engine_and_sessions(
            graph, stream_window=30.0, max_window_events=32
        )
        engine.run()
        windows, peak = engine.stream_stats
        assert windows >= 2
        assert 0 < peak <= 32

    def test_early_exit_when_all_sessions_finish(self, graph):
        # With a deadline far short of the horizon everything delivers or
        # expires early; the drain must stop rather than pull empty
        # windows all the way to the horizon.
        engine, sessions = self._engine_and_sessions(
            graph, deadline=100.0, stream_window=10.0
        )
        engine.run()
        assert all(s.done for s in sessions)
        windows, _ = engine.stream_stats
        assert windows < 20  # 300.0 / 10.0 windows would mean no early exit

    def test_stream_counts_dispatch_modes(self, graph):
        engine, _ = self._engine_and_sessions(graph, stream_window=30.0)
        engine.run()
        assert engine.dispatch_mode_counts.get("kernel-single", 0) == 20

    def test_iterator_source_falls_back(self, graph):
        class IteratorOnly:
            # Resumable like every source: windowed reads continue where
            # the previous call stopped.
            def __init__(self, block):
                self._inner = ColumnarEventSource(block)

            def events_until(self, horizon):
                return iter(self._inner.events_until(horizon))

        block = ExponentialContactProcess(
            graph, rng=np.random.default_rng(41)
        ).events_until_columnar(300.0)

        rng = np.random.default_rng(41)
        directory = OnionGroupDirectory(graph.n, 4, rng=rng)
        # Consume the process pre-draw position exactly as the fixture did.
        ExponentialContactProcess(graph, rng=rng)
        outcomes = {}
        for label, source in (
            ("stream", ColumnarEventSource(block)),
            ("iterator", IteratorOnly(block)),
        ):
            session_rng = np.random.default_rng(41)
            OnionGroupDirectory(graph.n, 4, rng=session_rng)
            engine = SimulationEngine(source, horizon=300.0, stream_window=30.0)
            placement = np.random.default_rng(8)
            sessions = []
            for _ in range(10):
                src, dst = placement.choice(graph.n, size=2, replace=False)
                route = directory.select_route(
                    int(src), int(dst), 2, rng=np.random.default_rng(9)
                )
                session = SingleCopySession(
                    Message(
                        source=int(src), destination=int(dst),
                        created_at=0.0, deadline=300.0,
                    ),
                    route,
                )
                engine.add_session(session)
                sessions.append(session)
            engine.run()
            outcomes[label] = [
                (s.outcome().delivered, s.outcome().delivery_time)
                for s in sessions
            ]
        assert outcomes["stream"] == outcomes["iterator"]

    def test_stream_knob_validation(self, graph):
        process = ExponentialContactProcess(
            graph, rng=np.random.default_rng(1)
        )
        with pytest.raises(ValueError):
            SimulationEngine(process, horizon=100.0, stream_window=-5.0)
        with pytest.raises(ValueError):
            SimulationEngine(process, horizon=100.0, max_window_events=0)
