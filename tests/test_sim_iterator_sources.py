"""Sources with only ``events_until`` must run byte-identically when adapted.

Fault filters and impairments transform the contact stream one event at a
time; the engine reads them through
:class:`~repro.contacts.events.IteratorWindowSource`, which drains each
window into an :class:`~repro.contacts.events.EventBlock` before any
session sees it. Each source and each relay set here draws from its own
generator — the adapter's contract — so the windowed engine must match
the lazy per-event oracle for every windowing.
"""

import numpy as np
import pytest

from repro.adversary.dropping import DroppingRelays
from repro.contacts.events import ExponentialContactProcess, IteratorWindowSource
from repro.contacts.impairments import JitteredContactProcess, ThinnedContactProcess
from repro.contacts.random_graph import random_contact_graph
from repro.core.multi_copy import MultiCopySession
from repro.core.onion_groups import OnionGroupDirectory
from repro.core.single_copy import SingleCopySession
from repro.faults.churn import NodeChurnProcess, NodeChurnSchedule
from repro.faults.failstop import FailStopContactProcess, FailStopSchedule
from repro.faults.recovery import FaultPlan, RecoveryPolicy
from repro.sim.engine import SimulationEngine
from repro.sim.message import Message
from tests.oracles import IteratorEngine
from tests.test_sim_kernel_equivalence import outcome_fields

N = 30
HORIZON = 360.0

GRAPH = random_contact_graph(N, (10.0, 120.0), rng=np.random.default_rng(7))


def _base():
    return ExponentialContactProcess(GRAPH, rng=np.random.default_rng(21))


SOURCES = {
    "churn": lambda: NodeChurnProcess(
        _base(),
        NodeChurnSchedule.from_availability(
            N, 0.8, 20.0, rng=np.random.default_rng(31)
        ),
    ),
    "failstop": lambda: FailStopContactProcess(
        _base(), FailStopSchedule(N, death_rate=0.002, rng=np.random.default_rng(32))
    ),
    "thinned": lambda: ThinnedContactProcess(
        _base(), 0.3, rng=np.random.default_rng(33)
    ),
    "jittered": lambda: JitteredContactProcess(
        _base(), 4.0, rng=np.random.default_rng(34)
    ),
}


def make_sessions():
    """Eligible, multi-copy, and greyhole-faulted sessions, freshly seeded."""
    rng = np.random.default_rng(13)
    directory = OnionGroupDirectory(N, 3, rng=rng)
    plan = FaultPlan(
        relays=DroppingRelays(
            frozenset(range(5, 12)), 0.6, rng=np.random.default_rng(99)
        )
    )
    sessions = []
    for index in range(12):
        source, destination = rng.choice(N, size=2, replace=False)
        route = directory.select_route(int(source), int(destination), 2, rng=rng)
        message = Message(
            source=int(source),
            destination=int(destination),
            created_at=0.0,
            deadline=HORIZON,
        )
        kind = index % 3
        if kind == 0:
            sessions.append(SingleCopySession(message, route))
        elif kind == 1:
            sessions.append(MultiCopySession(message, route, copies=3))
        else:
            sessions.append(
                SingleCopySession(
                    message,
                    route,
                    faults=plan,
                    recovery=RecoveryPolicy(custody_timeout=30.0, max_retries=2),
                )
            )
    return sessions


def run(engine):
    sessions = make_sessions()
    for session in sessions:
        engine.add_session(session)
    engine.run()
    return outcome_fields(session.outcome() for session in sessions)


@pytest.mark.parametrize("max_window_events", [None, 50])
@pytest.mark.parametrize(
    "stream_window", [None, HORIZON / 7], ids=["one-window", "horizon/7"]
)
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_adapted_source_matches_per_event_oracle(
    name, stream_window, max_window_events
):
    source = SOURCES[name]()
    assert not hasattr(source, "events_until_columnar")
    oracle = run(IteratorEngine(SOURCES[name](), horizon=HORIZON))
    engine = SimulationEngine(
        source,
        horizon=HORIZON,
        stream_window=stream_window,
        max_window_events=max_window_events,
    )
    assert run(engine) == oracle
    assert engine.dispatch_mode_counts.get("kernel-single", 0) > 0


def test_windowed_reads_equal_one_shot_read():
    one_shot = IteratorWindowSource(SOURCES["jittered"]()).events_until_columnar(
        HORIZON
    )
    source = IteratorWindowSource(SOURCES["jittered"]())
    windows = [
        source.events_until_columnar(HORIZON * k / 7) for k in range(1, 8)
    ]
    np.testing.assert_array_equal(
        np.concatenate([w.times for w in windows]), one_shot.times
    )
    np.testing.assert_array_equal(np.concatenate([w.a for w in windows]), one_shot.a)


def test_default_run_consumes_one_horizon_wide_window():
    engine = SimulationEngine(SOURCES["thinned"](), horizon=HORIZON)
    run(engine)
    whole = IteratorWindowSource(SOURCES["thinned"]()).events_until_columnar(HORIZON)
    assert engine.stream_stats == (1, len(whole))
