"""Multi-copy kernel vs the per-event oracle: outcome-for-outcome identity.

The :class:`~repro.sim.kernel.MultiCopyBatchKernel` claims that for
fault-free :class:`~repro.core.multi_copy.MultiCopySession` batches the
only state-changing events are the first meeting between some live
copy's holder and one of that copy's next-group members, and the first
event strictly past the TTL — and that dispatching exactly those through
``on_contact_scalar`` reproduces the per-event oracle
(:class:`tests.oracles.IteratorEngine`) byte-for-byte. These
tests check the claim across spray policies, copy counts (including
ticket exhaustion when L saturates the spray), TTL expiry, reclaiming
(recovery) sessions falling back to the object path, and mixed
eligible/ineligible batches — mirroring
``tests/test_sim_kernel_equivalence.py`` for the single-copy kernel.
"""

import numpy as np
import pytest

from repro.adversary.dropping import DroppingRelays
from repro.contacts.events import (
    ColumnarEventSource,
    EventBlock,
    ExponentialContactProcess,
)
from repro.contacts.random_graph import random_contact_graph
from repro.core.multi_copy import MultiCopySession, SprayPolicy
from repro.core.onion_groups import OnionGroupDirectory
from repro.core.route import OnionRoute
from repro.core.single_copy import SingleCopySession
from repro.faults.recovery import FaultPlan, RecoveryPolicy
from repro.experiments.runners import run_fused_graph_sweep
from repro.sim.engine import SimulationEngine
from repro.sim.kernel import BatchKernel, MultiCopyBatchKernel, kernel_class_for
from repro.sim.message import Message
from repro.sim.metrics import status_counts

from tests.helpers import one_variant
from tests.oracles import IteratorEngine, runners_using
from tests.test_sim_kernel_equivalence import batch_fields, outcome_fields


# ----------------------------------------------------------------------
# the parametrized sweep: copies × spray policy × seeds
# ----------------------------------------------------------------------


@pytest.mark.parametrize("copies", [2, 3, 6])
@pytest.mark.parametrize("policy", [SprayPolicy.SOURCE, SprayPolicy.BINARY])
@pytest.mark.parametrize("seed", [3, 29])
def test_multicopy_kernel_matches_columnar(copies, policy, seed):
    graph = random_contact_graph(
        40, (10.0, 120.0), rng=np.random.default_rng(seed)
    )
    runs = []
    counts = []
    for engine_cls in (IteratorEngine, SimulationEngine):
        with runners_using(engine_cls):
            pairs = run_fused_graph_sweep(
                graph,
                one_variant(4, 2, copies, spray_policy=policy),
                horizon=360.0,
                sessions_per_variant=25,
                rng=np.random.default_rng(seed),
            )[0]
        runs.append(batch_fields(pairs))
        counts.append(status_counts([outcome for _, outcome in pairs]))
    assert runs[0] == runs[1]
    assert counts[0] == counts[1]


def test_ticket_exhaustion_copies_saturate_group():
    # L equal to the group size: the source can spray every ticket away
    # and every replica relays with a single ticket — the exhaustion
    # branches (_spray removing the drained source copy, single-ticket
    # _relay) must dispatch identically under both paths.
    seed = 5
    graph = random_contact_graph(
        30, (5.0, 60.0), rng=np.random.default_rng(seed)
    )
    runs = []
    for engine_cls in (IteratorEngine, SimulationEngine):
        with runners_using(engine_cls):
            pairs = run_fused_graph_sweep(
                graph,
                one_variant(4, 2, 4),
                horizon=720.0,
                sessions_per_variant=20,
                rng=np.random.default_rng(seed),
            )[0]
        runs.append(batch_fields(pairs))
    assert runs[0] == runs[1]


def test_overlapping_groups_noop_dispatches_match():
    # Tiny graph with big groups: copies routinely meet peers that
    # already hold a replica, so the kernel dispatches no-op winners
    # (Forward refused) and must still advance without divergence.
    seed = 23
    graph = random_contact_graph(
        16, (5.0, 45.0), rng=np.random.default_rng(seed)
    )
    runs = []
    for engine_cls in (IteratorEngine, SimulationEngine):
        with runners_using(engine_cls):
            pairs = run_fused_graph_sweep(
                graph,
                one_variant(4, 2, 4),
                horizon=720.0,
                sessions_per_variant=15,
                rng=np.random.default_rng(seed),
            )[0]
        runs.append(batch_fields(pairs))
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# TTL expiry and late creation, on a hand-built window
# ----------------------------------------------------------------------


def scripted_block():
    events = [
        (1.0, 0, 9),    # before any session exists
        (4.0, 0, 1),    # spray to the first group member
        (5.0, 0, 2),    # second spray from the source
        (7.0, 1, 3),    # replica advances to the destination group
        (9.0, 3, 4),    # unrelated
        (30.0, 8, 9),   # first event past the short TTL
        (33.0, 2, 5),   # after expiry: must not resurrect the session
    ]
    return EventBlock(
        times=np.array([t for t, _, _ in events]),
        a=np.array([a for _, a, _ in events]),
        b=np.array([b for _, _, b in events]),
    )


def scripted_sessions():
    """Deliver-in-time, expire-mid-spray, and never-started sessions."""
    delivered = MultiCopySession(
        Message(source=0, destination=3, created_at=0.0, deadline=100.0),
        OnionRoute(source=0, destination=3, group_ids=(0,), groups=((1, 2),)),
        copies=2,
    )
    expires = MultiCopySession(
        Message(source=0, destination=6, created_at=2.0, deadline=20.0),
        OnionRoute(source=0, destination=6, group_ids=(1,), groups=((2, 5),)),
        copies=2,
    )
    stalled = MultiCopySession(
        Message(source=7, destination=8, created_at=0.0, deadline=1000.0),
        OnionRoute(source=7, destination=8, group_ids=(2,), groups=((6,),)),
        copies=3,
    )
    return [delivered, expires, stalled]


def run_scripted(engine_cls):
    engine = engine_cls(ColumnarEventSource(scripted_block()), horizon=500.0)
    sessions = scripted_sessions()
    for session in sessions:
        engine.add_session(session)
    engine.run()
    return [session.outcome() for session in sessions]


def test_ttl_expiry_and_late_creation_match_columnar():
    columnar = run_scripted(IteratorEngine)
    kernel = run_scripted(SimulationEngine)
    assert outcome_fields(columnar) == outcome_fields(kernel)
    assert [o.status for o in kernel] == ["delivered", "expired", "pending"]
    # Every live copy of the expiring session died at the first event
    # past its deadline (t=30), not at its literal deadline.
    assert kernel[1].expired_copies >= 1


# ----------------------------------------------------------------------
# mixed batches: reclaim/faulted sessions fall back and still match
# ----------------------------------------------------------------------


def mixed_sessions(n, seed):
    """Eligible multi-copy, reclaiming, faulted, and single-copy sessions."""
    rng = np.random.default_rng(seed)
    directory = OnionGroupDirectory(n, 3, rng=rng)
    plan = FaultPlan(
        relays=DroppingRelays(
            frozenset(range(5, 12)), 0.6, rng=np.random.default_rng(99)
        )
    )
    sessions = []
    for index in range(12):
        source, destination = rng.choice(n, size=2, replace=False)
        route = directory.select_route(int(source), int(destination), 2, rng=rng)
        message = Message(
            source=int(source),
            destination=int(destination),
            created_at=0.0,
            deadline=360.0,
        )
        kind = index % 4
        if kind == 0:
            sessions.append(MultiCopySession(message, route, copies=3))
        elif kind == 1:
            # Ticket reclamation armed: ineligible, must fall back to the
            # columnar object loop inside the same engine pass.
            sessions.append(
                MultiCopySession(
                    message,
                    route,
                    copies=3,
                    recovery=RecoveryPolicy(custody_timeout=30.0, max_retries=2),
                )
            )
        elif kind == 2:
            sessions.append(
                MultiCopySession(message, route, copies=2, faults=plan)
            )
        else:
            sessions.append(SingleCopySession(message, route))
    return sessions


def test_mixed_batch_fallback_matches_columnar():
    n = 30
    graph = random_contact_graph(n, (10.0, 120.0), rng=np.random.default_rng(7))
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

    def test_plain_multi_copy_supported(self):
        session = MultiCopySession(self.message(), self.route(), copies=2)
        assert MultiCopyBatchKernel.supports(session)

    def test_both_spray_policies_supported(self):
        for policy in (SprayPolicy.SOURCE, SprayPolicy.BINARY):
            session = MultiCopySession(
                self.message(), self.route(), copies=3, spray_policy=policy
            )
            assert MultiCopyBatchKernel.supports(session)

    def test_single_copy_rejected(self):
        assert not MultiCopyBatchKernel.supports(
            SingleCopySession(self.message(), self.route())
        )

    def test_faulted_rejected(self):
        plan = FaultPlan(relays=DroppingRelays(frozenset({1}), 1.0))
        session = MultiCopySession(
            self.message(), self.route(), copies=2, faults=plan
        )
        assert not MultiCopyBatchKernel.supports(session)

    def test_recovery_rejected(self):
        session = MultiCopySession(
            self.message(),
            self.route(),
            copies=2,
            recovery=RecoveryPolicy(custody_timeout=5.0, max_retries=1),
        )
        assert not MultiCopyBatchKernel.supports(session)

    def test_subclass_rejected(self):
        class Tweaked(MultiCopySession):
            pass

        assert not MultiCopyBatchKernel.supports(
            Tweaked(self.message(), self.route(), copies=2)
        )

    def test_constructor_rejects_ineligible(self):
        session = SingleCopySession(self.message(), self.route())
        with pytest.raises(ValueError, match="MultiCopySession"):
            MultiCopyBatchKernel([session])

    def test_kernel_class_for_partitions(self):
        single = SingleCopySession(self.message(), self.route())
        multi = MultiCopySession(self.message(), self.route(), copies=2)
        reclaiming = MultiCopySession(
            self.message(),
            self.route(),
            copies=2,
            recovery=RecoveryPolicy(custody_timeout=5.0, max_retries=1),
        )
        assert kernel_class_for(single) is BatchKernel
        assert kernel_class_for(multi) is MultiCopyBatchKernel
        assert kernel_class_for(reclaiming) is None

    def test_dispatch_counter(self):
        kernel = MultiCopyBatchKernel(scripted_sessions())
        dispatched = kernel.run(scripted_block())
        assert dispatched == kernel.dispatches
        assert dispatched >= 3  # sprays + delivery + expiry at minimum


class TestEnginePlumbing:
    def test_dispatch_mode_counts_multicopy(self):
        engine = SimulationEngine(
            ColumnarEventSource(scripted_block()), horizon=500.0
        )
        for session in scripted_sessions():
            engine.add_session(session)
        engine.run()
        assert engine.dispatch_mode_counts == {"kernel-multicopy": 3}

    def test_dispatch_mode_counts_partitioned(self):
        n = 30
        graph = random_contact_graph(
            n, (10.0, 120.0), rng=np.random.default_rng(7)
        )
        block = ExponentialContactProcess(
            graph, rng=np.random.default_rng(21)
        ).events_until_columnar(360.0)
        engine = SimulationEngine(ColumnarEventSource(block), horizon=360.0)
        sessions = mixed_sessions(n, seed=13)
        for session in sessions:
            engine.add_session(session)
        engine.run()
        counts = engine.dispatch_mode_counts
        # 12 sessions: 3 eligible multi-copy, 3 reclaiming + 3 faulted
        # (columnar fallback), 3 eligible single-copy.
        assert counts["kernel-multicopy"] == 3
        assert counts["kernel-single"] == 3
        assert counts["columnar"] == 6
