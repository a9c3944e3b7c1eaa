"""Kernel vs columnar dispatch must be outcome-for-outcome identical.

The :class:`~repro.sim.kernel.BatchKernel` claims that for fault-free
single-copy sessions only two kinds of event change state — the first
meeting with a next-group member and the first event past the TTL — and
dispatches exactly those through the session's own scalar hook. These
tests check the claim end-to-end: the same seeded batch, run by the
per-event oracle (:class:`tests.oracles.IteratorEngine`) and by the
engine's kernel path, must produce byte-identical ``DeliveryOutcome`` sequences across graph sizes, group
sizes, route lengths, and seeds; including mixed batches where faulted /
keyring sessions fall back to the object path (multi-copy sessions now
route to their own kernel — see
``tests/test_sim_multicopy_kernel_equivalence.py``).
"""

import numpy as np
import pytest

from repro.contacts.events import ColumnarEventSource, EventBlock
from repro.contacts.random_graph import random_contact_graph
from repro.core.multi_copy import MultiCopySession
from repro.core.onion_groups import OnionGroupDirectory
from repro.core.route import OnionRoute
from repro.core.single_copy import SingleCopySession
from repro.adversary.dropping import DroppingRelays
from repro.faults.recovery import FaultPlan, RecoveryPolicy
from repro.experiments.runners import run_fused_graph_sweep
from repro.sim.engine import SimulationEngine
from repro.sim.kernel import BatchKernel
from repro.sim.message import Message
from repro.sim.metrics import status_counts
from tests.helpers import one_variant
from tests.oracles import IteratorEngine, runners_using


def outcome_fields(outcomes):
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
        for o in outcomes
    ]


def batch_fields(pairs):
    return outcome_fields(outcome for _, outcome in pairs)


# ----------------------------------------------------------------------
# the parametrized sweep: 2 n × 2 g × 2 K × 3 seeds = 24 cases
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [20, 50])
@pytest.mark.parametrize("group_size", [1, 4])
@pytest.mark.parametrize("onion_routers", [1, 3])
@pytest.mark.parametrize("seed", [3, 11, 29])
def test_kernel_matches_columnar(n, group_size, onion_routers, seed):
    graph = random_contact_graph(
        n, (10.0, 120.0), rng=np.random.default_rng(seed)
    )
    runs = []
    counts = []
    for engine_cls in (IteratorEngine, SimulationEngine):
        with runners_using(engine_cls):
            pairs = run_fused_graph_sweep(
                graph,
                one_variant(group_size, onion_routers),
                horizon=360.0,
                sessions_per_variant=30,
                rng=np.random.default_rng(seed),
            )[0]
        runs.append(batch_fields(pairs))
        counts.append(status_counts([outcome for _, outcome in pairs]))
    assert runs[0] == runs[1]
    assert counts[0] == counts[1]


def test_kernel_knob_defaults_on():
    graph = random_contact_graph(
        25, (10.0, 120.0), rng=np.random.default_rng(17)
    )
    default = run_fused_graph_sweep(
        graph, one_variant(3, 2), horizon=240.0, sessions_per_variant=20,
        rng=np.random.default_rng(17),
    )
    knobbed = run_fused_graph_sweep(
        graph, one_variant(3, 2), horizon=240.0, sessions_per_variant=20,
        rng=np.random.default_rng(17), kernel=True,
    )
    assert batch_fields(default[0]) == batch_fields(knobbed[0])


# ----------------------------------------------------------------------
# TTL expiry and late creation, on a hand-built window
# ----------------------------------------------------------------------


def scripted_block():
    """A tiny window where sessions can deliver, expire, or stall."""
    events = [
        (1.0, 0, 9),   # before any session exists
        (4.0, 0, 1),   # hop 1 for the early route
        (6.0, 1, 2),   # hop 2 → delivery for the early route
        (12.0, 0, 3),  # hop 1 for the late route
        (30.0, 5, 6),  # unrelated traffic past the short TTLs
        (31.0, 3, 4),  # too late: the late route has expired by now
    ]
    return EventBlock(
        times=np.array([t for t, _, _ in events]),
        a=np.array([a for _, a, _ in events]),
        b=np.array([b for _, _, b in events]),
    )


def expiry_sessions():
    """Deliver-in-time, expire-mid-route, and never-started sessions."""
    delivered = SingleCopySession(
        Message(source=0, destination=2, created_at=0.0, deadline=100.0),
        OnionRoute(source=0, destination=2, group_ids=(0,), groups=((1,),)),
    )
    expires = SingleCopySession(
        Message(source=0, destination=4, created_at=2.0, deadline=20.0),
        OnionRoute(source=0, destination=4, group_ids=(1,), groups=((3,),)),
    )
    stalled = SingleCopySession(
        Message(source=7, destination=8, created_at=0.0, deadline=1000.0),
        OnionRoute(source=7, destination=8, group_ids=(2,), groups=((5,),)),
    )
    return [delivered, expires, stalled]


def run_scripted(engine_cls):
    engine = engine_cls(ColumnarEventSource(scripted_block()), horizon=500.0)
    sessions = expiry_sessions()
    for session in sessions:
        engine.add_session(session)
    engine.run()
    return [session.outcome() for session in sessions]


def test_ttl_expiry_and_late_creation_match_columnar():
    columnar = run_scripted(IteratorEngine)
    kernel = run_scripted(SimulationEngine)
    assert outcome_fields(columnar) == outcome_fields(kernel)
    assert [o.status for o in kernel] == ["delivered", "expired", "pending"]
    # The expiring session died at the first event past its deadline
    # (t=30), not at its literal deadline — same semantics as the loops.
    assert kernel[1].expired_copies == 1


# ----------------------------------------------------------------------
# mixed batches: ineligible sessions fall back and still match
# ----------------------------------------------------------------------


def mixed_sessions(n, seed):
    """Eligible, multi-copy, keyring, faulted, and recovery sessions."""
    rng = np.random.default_rng(seed)
    directory = OnionGroupDirectory(n, 3, rng=rng)
    keyring = directory.build_keyring(b"master")
    plan = FaultPlan(
        relays=DroppingRelays(
            frozenset(range(5, 12)), 0.6, rng=np.random.default_rng(99)
        )
    )
    sessions = []
    for index in range(12):
        source, destination = rng.choice(n, size=2, replace=False)
        route = directory.select_route(
            int(source), int(destination), 2, rng=rng
        )
        message = Message(
            source=int(source),
            destination=int(destination),
            created_at=0.0,
            deadline=360.0,
        )
        kind = index % 4
        if kind == 0:
            sessions.append(SingleCopySession(message, route))
        elif kind == 1:
            sessions.append(MultiCopySession(message, route, copies=3))
        elif kind == 2:
            sessions.append(SingleCopySession(message, route, keyring=keyring))
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


def test_mixed_batch_fallback_matches_columnar():
    n = 30
    graph = random_contact_graph(n, (10.0, 120.0), rng=np.random.default_rng(7))
    from repro.contacts.events import ExponentialContactProcess

    block = ExponentialContactProcess(
        graph, rng=np.random.default_rng(21)
    ).events_until_columnar(360.0)
    runs = []
    for engine_cls in (IteratorEngine, SimulationEngine):
        engine = engine_cls(ColumnarEventSource(block), horizon=360.0)
        sessions = mixed_sessions(n, seed=13)
        for session in sessions:
            engine.add_session(session)
        engine.run()
        runs.append(outcome_fields(s.outcome() for s in sessions))
    assert runs[0] == runs[1]


def test_iterator_source_degrades_to_object_loop():
    # A source without events_until_columnar is adapted window by window;
    # the kernels sweep the adapted windows with identical outcomes.
    class IteratorOnly:
        def __init__(self, block):
            self._inner = ColumnarEventSource(block)

        def events_until(self, horizon):
            return self._inner.events_until(horizon)

    block = scripted_block()
    engine = SimulationEngine(IteratorOnly(block), horizon=500.0)
    sessions = expiry_sessions()
    for session in sessions:
        engine.add_session(session)
    engine.run()
    assert outcome_fields(s.outcome() for s in sessions) == outcome_fields(
        run_scripted(IteratorEngine)
    )


# ----------------------------------------------------------------------
# eligibility and engine plumbing
# ----------------------------------------------------------------------


class TestSupports:
    def route(self):
        return OnionRoute(
            source=0, destination=3, group_ids=(0,), groups=((1, 2),)
        )

    def message(self):
        return Message(source=0, destination=3, created_at=0.0, deadline=10.0)

    def test_plain_single_copy_supported(self):
        assert BatchKernel.supports(SingleCopySession(self.message(), self.route()))

    def test_multi_copy_rejected(self):
        session = MultiCopySession(self.message(), self.route(), copies=2)
        assert not BatchKernel.supports(session)

    def test_faulted_rejected(self):
        plan = FaultPlan(relays=DroppingRelays(frozenset({1}), 1.0))
        session = SingleCopySession(self.message(), self.route(), faults=plan)
        assert not BatchKernel.supports(session)

    def test_recovery_rejected(self):
        session = SingleCopySession(
            self.message(),
            self.route(),
            recovery=RecoveryPolicy(custody_timeout=5.0, max_retries=1),
        )
        assert not BatchKernel.supports(session)

    def test_subclass_rejected(self):
        class Tweaked(SingleCopySession):
            pass

        assert not BatchKernel.supports(Tweaked(self.message(), self.route()))

    def test_constructor_rejects_ineligible(self):
        session = MultiCopySession(self.message(), self.route(), copies=2)
        with pytest.raises(ValueError, match="SingleCopySession"):
            BatchKernel([session])

    def test_dispatch_counter(self):
        block = scripted_block()
        kernel = BatchKernel(expiry_sessions())
        dispatched = kernel.run(block)
        # Delivery = forwards at t=4 and t=6; the expiring session forwards
        # at t=12 then expires at t=30; the stalled session never fires.
        assert dispatched == 4
        assert kernel.dispatches == 4


class TestEnginePlumbing:
    # The engine has one run path: the old mode knobs are gone, not
    # silently ignored.
    def test_dispatch_kernel_alias(self):
        with pytest.raises(TypeError, match="dispatch"):
            SimulationEngine(
                ColumnarEventSource(scripted_block()),
                horizon=10.0,
                dispatch="kernel",
            )

    def test_unknown_consume_rejected(self):
        for value in ("kernel", "vector"):
            with pytest.raises(TypeError, match="consume"):
                SimulationEngine(
                    ColumnarEventSource(scripted_block()),
                    horizon=10.0,
                    consume=value,
                )
