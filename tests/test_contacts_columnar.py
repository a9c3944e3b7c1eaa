"""Columnar event pipeline: block format, producer equivalence, engine loop.

The load-bearing property of the whole pipeline is *seed-exactness*: for a
fixed seed, the columnar producers must emit exactly the events the legacy
iterators emit — same times, same pairs, same order — and leave the
process (cursor state, RNG state) where the iterator would have left it,
so columnar and iterator consumption are interchangeable mid-stream.
"""

import math

import numpy as np
import pytest

from repro.contacts.events import (
    ColumnarEventSource,
    ContactEvent,
    EventBlock,
    ExponentialContactProcess,
    TraceReplayProcess,
    as_event_source,
)
from repro.contacts.random_graph import random_contact_graph
from repro.contacts.synthetic import cambridge_like_trace
from repro.contacts.traces import ContactRecord, ContactTrace
from repro.experiments.runners import run_fused_graph_sweep, run_fused_trace_sweep
from repro.sim.engine import SimulationEngine
from tests.helpers import one_variant
from tests.oracles import ORACLES, runners_using


def _events_tuples(events):
    return [(e.time, e.a, e.b) for e in events]


def _block_tuples(block):
    return list(zip(block.times.tolist(), block.a.tolist(), block.b.tolist()))


class TestEventBlock:
    def test_from_events_roundtrip(self):
        events = [
            ContactEvent(time=1.0, a=0, b=1),
            ContactEvent(time=2.5, a=2, b=3),
        ]
        block = EventBlock.from_events(events)
        assert len(block) == 2
        assert _events_tuples(block) == _events_tuples(events)

    def test_bytes_roundtrip_is_exact(self):
        block = EventBlock(
            times=np.array([0.25, 1.5, 7.125]),
            a=np.array([3, 1, 2]),
            b=np.array([9, 4, 5]),
        )
        clone = EventBlock.from_bytes(block.to_bytes())
        assert np.array_equal(clone.times, block.times)
        assert np.array_equal(clone.a, block.a)
        assert np.array_equal(clone.b, block.b)

    def test_rejects_mismatched_columns(self):
        with pytest.raises(ValueError):
            EventBlock(
                times=np.array([1.0, 2.0]), a=np.array([0]), b=np.array([1])
            )

    def test_empty(self):
        block = EventBlock.empty()
        assert len(block) == 0
        assert list(block) == []

    def test_coerces_dtypes(self):
        block = EventBlock(times=[1, 2], a=[0, 1], b=[2, 3])
        assert block.times.dtype == np.float64
        assert block.a.dtype == np.int64


class TestColumnarEventSource:
    def _block(self):
        return EventBlock(
            times=np.array([1.0, 2.0, 3.0, 4.0]),
            a=np.array([0, 1, 2, 3]),
            b=np.array([4, 5, 6, 7]),
        )

    def test_replays_in_windows(self):
        source = ColumnarEventSource(self._block())
        first = source.events_until_columnar(2.0)
        second = source.events_until_columnar(10.0)
        assert _block_tuples(first) == [(1.0, 0, 4), (2.0, 1, 5)]
        assert _block_tuples(second) == [(3.0, 2, 6), (4.0, 3, 7)]

    def test_iterator_and_columnar_share_cursor(self):
        source = ColumnarEventSource(self._block())
        assert _events_tuples(source.events_until(1.5)) == [(1.0, 0, 4)]
        rest = source.events_until_columnar(10.0)
        assert _block_tuples(rest) == [(2.0, 1, 5), (3.0, 2, 6), (4.0, 3, 7)]

    def test_as_event_source_wraps_blocks(self):
        source = as_event_source(self._block())
        assert isinstance(source, ColumnarEventSource)
        # Pass-through for anything that already streams events.
        assert as_event_source(source) is source


class TestExponentialColumnarEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize("n,horizon", [(12, 300.0), (30, 720.0)])
    def test_matches_legacy_iterator_stream(self, seed, n, horizon):
        graph = random_contact_graph(
            n, (10.0, 120.0), rng=np.random.default_rng(seed)
        )
        legacy = ExponentialContactProcess(
            graph, rng=np.random.default_rng(seed)
        )
        columnar = ExponentialContactProcess(
            graph, rng=np.random.default_rng(seed)
        )
        expected = _events_tuples(legacy.events_until(horizon))
        block = columnar.events_until_columnar(horizon)
        assert _block_tuples(block) == expected

    def test_windowed_reads_match_one_shot(self):
        graph = random_contact_graph(
            20, (10.0, 120.0), rng=np.random.default_rng(1)
        )
        one_shot = ExponentialContactProcess(
            graph, rng=np.random.default_rng(9)
        ).events_until_columnar(600.0)
        windowed = ExponentialContactProcess(
            graph, rng=np.random.default_rng(9)
        )
        merged = []
        for horizon in (150.0, 300.0, 450.0, 600.0):
            merged.extend(_block_tuples(windowed.events_until_columnar(horizon)))
        assert merged == _block_tuples(one_shot)

    def test_mixed_mode_stays_seed_exact(self):
        # Columnar window first, legacy iterator for the rest — the stream
        # must be the same one the pure iterator would have produced.
        graph = random_contact_graph(
            15, (10.0, 120.0), rng=np.random.default_rng(2)
        )
        pure = ExponentialContactProcess(graph, rng=np.random.default_rng(3))
        expected = _events_tuples(pure.events_until(500.0))

        mixed = ExponentialContactProcess(graph, rng=np.random.default_rng(3))
        head = _block_tuples(mixed.events_until_columnar(200.0))
        tail = _events_tuples(mixed.events_until(500.0))
        assert head + tail == expected

        # And the other way round: iterator first invalidates the pristine
        # fast path, the generic columnar path must still agree.
        mixed2 = ExponentialContactProcess(graph, rng=np.random.default_rng(3))
        head2 = _events_tuples(mixed2.events_until(200.0))
        tail2 = _block_tuples(mixed2.events_until_columnar(500.0))
        assert head2 + tail2 == expected

    def test_rng_state_matches_iterator_after_window(self):
        # Interchangeability is stronger than equal output: the generator
        # must be bit-identical after either consumption style.
        graph = random_contact_graph(
            10, (10.0, 120.0), rng=np.random.default_rng(4)
        )
        legacy = ExponentialContactProcess(graph, rng=np.random.default_rng(5))
        columnar = ExponentialContactProcess(
            graph, rng=np.random.default_rng(5)
        )
        list(legacy.events_until(400.0))
        columnar.events_until_columnar(400.0)
        assert (
            legacy._rng.bit_generator.state
            == columnar._rng.bit_generator.state
        )


class TestTraceColumnarEquivalence:
    def _trace(self):
        return cambridge_like_trace(rng=np.random.default_rng(14))

    def test_matches_legacy_iterator_stream(self):
        trace = self._trace()
        legacy = TraceReplayProcess(trace)
        columnar = TraceReplayProcess(trace)
        horizon = float(trace.records[-1].start)
        expected = _events_tuples(legacy.events_until(horizon))
        assert _block_tuples(columnar.events_until_columnar(horizon)) == expected

    def test_simultaneous_records_keep_stable_order(self):
        # Ties must replay in the trace's stable record order, not be
        # re-sorted by node ids.
        trace = ContactTrace(
            [
                ContactRecord(start=1.0, end=2.0, a=5, b=6),
                ContactRecord(start=1.0, end=2.0, a=0, b=1),
                ContactRecord(start=3.0, end=4.0, a=2, b=3),
            ]
        )
        legacy = _events_tuples(TraceReplayProcess(trace).events_until(10.0))
        block = TraceReplayProcess(trace).events_until_columnar(10.0)
        assert _block_tuples(block) == legacy

    def test_windowed_reads_consume_cursor(self):
        trace = self._trace()
        process = TraceReplayProcess(trace)
        horizon = float(trace.records[-1].start)
        first = process.events_until_columnar(horizon / 2)
        second = process.events_until_columnar(horizon)
        expected = _events_tuples(TraceReplayProcess(trace).events_until(horizon))
        assert _block_tuples(first) + _block_tuples(second) == expected


def _signature(pairs):
    return [
        (o.delivered, o.delivery_time, o.transmissions, o.status,
         tuple(tuple(p) for p in o.paths))
        for _, o in pairs
    ]


class TestEngineConsumeModes:
    def test_consume_validation(self):
        graph = random_contact_graph(
            10, (10.0, 120.0), rng=np.random.default_rng(0)
        )
        process = ExponentialContactProcess(graph, rng=np.random.default_rng(0))
        with pytest.raises(TypeError):
            SimulationEngine(process, horizon=10.0, consume="bogus")

        class IteratorOnly:
            def events_until(self, horizon):
                return iter(())

        with pytest.raises(TypeError, match="event source"):
            SimulationEngine(object(), horizon=10.0)
        # An iterator-only source is adapted to columnar windows.
        SimulationEngine(IteratorOnly(), horizon=10.0)
        assert len(as_event_source(IteratorOnly()).events_until_columnar(10.0)) == 0

    @pytest.mark.parametrize("seed", [11, 29])
    def test_random_batch_modes_identical(self, seed):
        graph = random_contact_graph(
            25, (10.0, 120.0), rng=np.random.default_rng(seed)
        )
        sigs = {}
        for mode in ("broadcast", "iterator", "columnar"):
            with runners_using(ORACLES.get(mode, SimulationEngine)):
                [pairs] = run_fused_graph_sweep(
                    graph, one_variant(4, 2), horizon=360.0,
                    sessions_per_variant=60,
                    rng=np.random.default_rng(seed), kernel=False,
                )
            sigs[mode] = _signature(pairs)
        assert sigs["broadcast"] == sigs["iterator"] == sigs["columnar"]

    def test_multicopy_batch_modes_identical(self):
        # Multi-copy sessions do not override the scalar hook, exercising
        # the lazy per-event ContactEvent materialisation.
        graph = random_contact_graph(
            20, (10.0, 120.0), rng=np.random.default_rng(8)
        )
        sigs = {}
        for mode in ("iterator", "columnar"):
            with runners_using(ORACLES.get(mode, SimulationEngine)):
                [pairs] = run_fused_graph_sweep(
                    graph, one_variant(4, 2, 3), horizon=360.0,
                    sessions_per_variant=30,
                    rng=np.random.default_rng(8), kernel=False,
                )
            sigs[mode] = _signature(pairs)
        assert sigs["iterator"] == sigs["columnar"]

    def test_trace_batch_modes_identical(self):
        trace = cambridge_like_trace(rng=np.random.default_rng(21))
        sigs = {}
        for mode in ("iterator", "columnar"):
            with runners_using(ORACLES.get(mode, SimulationEngine)):
                [pairs] = run_fused_trace_sweep(
                    trace, one_variant(4, 2), deadline=3600.0,
                    sessions_per_variant=25,
                    rng=np.random.default_rng(21), kernel=False,
                )
            sigs[mode] = _signature(pairs)
        assert sigs["iterator"] == sigs["columnar"]

    def test_columnar_counts_dispatched_events(self):
        from repro.sim.metrics import DeliveryOutcome
        from repro.sim.protocol import ProtocolSession

        class Recorder(ProtocolSession):
            def __init__(self):
                self.seen = []
                self._outcome = DeliveryOutcome(paths=[[0]], created_at=0.0)

            def on_contact(self, event):
                self.seen.append((event.time, event.a, event.b))

            @property
            def done(self):
                return False

            def outcome(self):
                return self._outcome

        graph = random_contact_graph(
            12, (10.0, 120.0), rng=np.random.default_rng(6)
        )
        counts, streams = {}, {}
        for mode in ("iterator", "columnar"):
            process = ExponentialContactProcess(
                graph, rng=np.random.default_rng(6)
            )
            engine_cls = ORACLES.get(mode, SimulationEngine)
            engine = engine_cls(process, horizon=120.0)
            recorder = engine.add_session(Recorder())
            engine.run()
            counts[mode] = engine.events_processed
            streams[mode] = recorder.seen
        assert counts["iterator"] == counts["columnar"] > 0
        assert streams["iterator"] == streams["columnar"]
