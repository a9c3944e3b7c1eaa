"""The engine must match the broadcast oracle outcome for outcome.

The watched-nodes contract promises that every event the indexed engine
skips would have been a no-op under broadcast. These tests check the
promise end-to-end: the same seeded batch, run by the production engine
and by :class:`tests.oracles.BroadcastEngine`, must produce byte-identical
``DeliveryOutcome`` sequences — including under faults (greyhole relays,
fail-stop deaths, custody recovery), where the shared-RNG draw order is
the easiest thing to get subtly wrong.
"""

import math

import numpy as np
import pytest

from repro.adversary.dropping import DroppingRelays
from repro.contacts.events import ContactEvent
from repro.contacts.random_graph import random_contact_graph
from repro.faults.failstop import FailStopSchedule
from repro.faults.recovery import RecoveryPolicy
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import DeliveryOutcome
from repro.sim.protocol import ProtocolSession
from repro.experiments.runners import run_fused_graph_sweep
from tests.helpers import one_variant
from tests.oracles import BroadcastEngine, runners_using


def outcome_fields(pairs):
    """Every DeliveryOutcome field, fully materialised for == comparison."""
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


@pytest.fixture(scope="module")
def graph():
    return random_contact_graph(40, (10.0, 120.0), rng=np.random.default_rng(7))


def both_modes(graph, seed, copies, make_kwargs=dict):
    """Run the batch under the broadcast oracle and the engine alike.

    ``make_kwargs`` builds per-run keyword arguments — fault objects like
    :class:`FailStopSchedule` carry state and must be constructed fresh
    for each run, or the first run perturbs the second.
    """

    def run():
        return outcome_fields(
            run_fused_graph_sweep(
                graph,
                one_variant(4, 2, copies),
                horizon=360.0,
                sessions_per_variant=30,
                rng=np.random.default_rng(seed),
                **make_kwargs(),
            )[0]
        )

    with runners_using(BroadcastEngine):
        broadcast = run()
    return [broadcast, run()]


class TestDispatchEquivalence:
    def test_single_copy_batch(self, graph):
        broadcast, indexed = both_modes(graph, 11, copies=1)
        assert broadcast == indexed

    def test_multi_copy_batch(self, graph):
        broadcast, indexed = both_modes(graph, 12, copies=3)
        assert broadcast == indexed

    def test_greyhole_with_recovery_batch(self, graph):
        # Dropping relays draw from one RNG stream, so any difference in
        # dispatch order or count between modes shows up immediately.
        for copies in (1, 3):
            broadcast, indexed = both_modes(
                graph,
                13,
                copies=copies,
                make_kwargs=lambda: {
                    "relays": DroppingRelays(frozenset(range(5, 15)), 0.6),
                    "recovery": RecoveryPolicy(
                        custody_timeout=30.0, max_retries=2
                    ),
                },
            )
            assert broadcast == indexed

    def test_failstop_batch(self, graph):
        # Fail-stop sessions opt out of indexing (watched_nodes -> None);
        # equivalence must still hold through the broadcast fallback.
        broadcast, indexed = both_modes(
            graph,
            14,
            copies=3,
            make_kwargs=lambda: {
                "failstop": FailStopSchedule(
                    graph.n, death_rate=0.002, rng=np.random.default_rng(5)
                )
            },
        )
        assert broadcast == indexed


class FaultyWatchedSession(ProtocolSession):
    """Watches node 0 and raises on its second dispatched contact."""

    def __init__(self):
        self.seen = 0

    def watched_nodes(self):
        return frozenset({0})

    def on_contact(self, event):
        self.seen += 1
        if self.seen >= 2:
            raise RuntimeError("boom")

    @property
    def done(self):
        return False

    def outcome(self):
        return DeliveryOutcome()


class WatchingRecorder(ProtocolSession):
    """Records dispatched events for one watched node."""

    def __init__(self, node):
        self.node = node
        self.seen = []

    def watched_nodes(self):
        return frozenset({self.node})

    def on_contact(self, event):
        self.seen.append(event.time)

    @property
    def done(self):
        return False

    def outcome(self):
        return DeliveryOutcome()


class ScriptedEvents:
    def __init__(self, events):
        self._events = sorted(events, key=lambda e: e.time)
        self._cursor = 0

    def events_until(self, horizon):
        while self._cursor < len(self._events):
            event = self._events[self._cursor]
            if event.time > horizon:
                return
            self._cursor += 1
            yield event


class TestQuarantineUnderIndexing:
    def events(self):
        return [
            ContactEvent(time=float(t), a=0, b=1) for t in range(1, 6)
        ] + [ContactEvent(time=6.0, a=2, b=3)]

    @pytest.mark.parametrize("dispatch", ["broadcast", "indexed"])
    def test_raising_session_is_quarantined(self, dispatch):
        engine_cls = BroadcastEngine if dispatch == "broadcast" else SimulationEngine
        engine = engine_cls(ScriptedEvents(self.events()), horizon=10.0)
        faulty = FaultyWatchedSession()
        healthy = WatchingRecorder(0)
        engine.add_session(faulty)
        engine.add_session(healthy)
        engine.run()
        assert [s for s, _ in engine.quarantined] == [faulty]
        assert faulty.seen == 2  # stopped at the raising event
        # Indexed dispatch skips the final (2, 3) contact for a session
        # watching node 0; broadcast delivers everything.
        expected = [1.0, 2.0, 3.0, 4.0, 5.0]
        if dispatch == "broadcast":
            expected.append(6.0)
        assert healthy.seen == expected

    def test_quarantined_session_not_redispatched_by_index(self):
        engine = SimulationEngine(ScriptedEvents(self.events()), horizon=10.0)
        faulty = FaultyWatchedSession()
        engine.add_session(faulty)
        engine.run()
        assert faulty.seen == 2
        assert [s for s, _ in engine.quarantined] == [faulty]


class TestWakeupPolling:
    def test_next_poll_time_triggers_on_unrelated_event(self):
        class ExpiringSession(ProtocolSession):
            """Ignores node activity; flips done once time passes 3.5."""

            def __init__(self):
                self.expired_at = None

            def watched_nodes(self):
                return frozenset({99})  # never meets anyone

            def next_poll_time(self):
                return math.inf if self.expired_at is not None else 3.5

            def on_contact(self, event):
                if event.time > 3.5 and self.expired_at is None:
                    self.expired_at = event.time

            @property
            def done(self):
                return self.expired_at is not None

            def outcome(self):
                return DeliveryOutcome()

        events = [ContactEvent(time=float(t), a=0, b=1) for t in range(1, 7)]
        engine = SimulationEngine(ScriptedEvents(events), horizon=10.0)
        session = ExpiringSession()
        engine.add_session(session)
        engine.run()
        # The first event past the poll time (t=4) must reach the session
        # even though neither party is watched.
        assert session.expired_at == 4.0
