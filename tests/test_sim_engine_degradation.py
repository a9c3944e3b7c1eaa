"""Degradation-ladder tests: kernel failures must degrade byte-identically.

The resilience contract has two levels. Inside the engine, a kernel that
fails *before dispatching anything* routes its whole group through the
columnar object loop (and a partially-dispatched kernel must refuse to —
replaying advanced sessions would violate causality). Inside a parallel
chunk, :func:`repro.experiments.parallel._run_chunk_with_ladder` retries
the chunk on the next rung (kernel → object loop), rebuilding all chunk
state from the seed. Both levels promise outcomes byte-identical to the
per-event oracle (:class:`tests.oracles.IteratorEngine`) — these tests mix
kernel-eligible and fault-carrying sessions in one batch and check
exactly that.
"""

import numpy as np
import pytest

from repro.adversary.dropping import DroppingRelays
from repro.contacts.events import ColumnarEventSource, ExponentialContactProcess
from repro.contacts.random_graph import random_contact_graph
from repro.core.multi_copy import MultiCopySession
from repro.core.onion_groups import OnionGroupDirectory
from repro.core.single_copy import SingleCopySession
from repro.experiments.parallel import (
    _ChunkPayload,
    _degradation_rungs,
    _run_chunk,
)
from repro.faults.recovery import FaultPlan, RecoveryPolicy
from repro.sim.engine import SimulationEngine
from repro.sim.kernel import BatchKernel
from repro.sim.message import Message
from repro.utils.resilience import KERNEL_FALLBACK
from tests.oracles import IteratorEngine


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


N = 30
HORIZON = 360.0


def mixed_sessions(seed):
    """Kernel-eligible sessions interleaved with fault-carrying ones."""
    rng = np.random.default_rng(seed)
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
            sessions.append(SingleCopySession(message, route))  # kernel-eligible
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


@pytest.fixture(scope="module")
def block():
    graph = random_contact_graph(N, (10.0, 120.0), rng=np.random.default_rng(7))
    return ExponentialContactProcess(
        graph, rng=np.random.default_rng(21)
    ).events_until_columnar(HORIZON)


def run_mixed(block, engine_cls=SimulationEngine, **knobs):
    engine = engine_cls(ColumnarEventSource(block), horizon=HORIZON, **knobs)
    sessions = mixed_sessions(seed=13)
    for session in sessions:
        engine.add_session(session)
    engine.run()
    return engine, [session.outcome() for session in sessions]


class TestEngineKernelFallback:
    def test_predispatch_kernel_error_matches_iterator_path(
        self, block, monkeypatch
    ):
        """Satellite acceptance: a mid-batch kernel error on a mixed batch
        degrades to the object loop with outcomes byte-identical to the
        iterator path."""
        _, via_iterator = run_mixed(block, IteratorEngine)

        def refuse(self, block, on_session_error=None):
            raise RuntimeError("injected kernel failure")  # dispatches == 0

        monkeypatch.setattr(BatchKernel, "run", refuse)
        engine, via_kernel = run_mixed(block)

        assert outcome_fields(via_kernel) == outcome_fields(via_iterator)
        fallbacks = engine.fallback_events
        assert len(fallbacks) == 1
        assert fallbacks[0].kind == KERNEL_FALLBACK
        assert fallbacks[0].where == "BatchKernel"
        assert "injected kernel failure" in fallbacks[0].detail
        # The single-copy group fell back to the columnar loop; nothing ran
        # under the single-copy kernel.
        assert engine.dispatch_mode_counts.get("kernel-single", 0) == 0
        assert engine.dispatch_mode_counts.get("columnar", 0) > 0

    def test_windowed_predispatch_kernel_error_matches_iterator_path(
        self, block, monkeypatch
    ):
        # The rejected group joins an object loop that already holds the
        # ineligible sessions and carries its state across the windows.
        _, via_iterator = run_mixed(block, IteratorEngine)

        def refuse(self, block, on_session_error=None):
            raise RuntimeError("injected kernel failure")

        monkeypatch.setattr(BatchKernel, "run", refuse)
        engine, windowed = run_mixed(block, stream_window=HORIZON / 5)

        assert outcome_fields(windowed) == outcome_fields(via_iterator)
        assert [e.where for e in engine.fallback_events] == ["BatchKernel"]
        assert engine.stream_stats[0] > 1
        assert engine.dispatch_mode_counts.get("kernel-single", 0) == 0
        assert engine.dispatch_mode_counts["kernel-multicopy"] > 0

    def test_clean_kernel_run_matches_iterator_and_records_nothing(self, block):
        engine, via_kernel = run_mixed(block)
        _, via_iterator = run_mixed(block, IteratorEngine)
        assert outcome_fields(via_kernel) == outcome_fields(via_iterator)
        assert engine.fallback_events == ()
        assert engine.dispatch_mode_counts.get("kernel-single", 0) > 0

    def test_partial_kernel_failure_refuses_to_degrade(self, block, monkeypatch):
        # Once the kernel has dispatched state changes, falling back would
        # replay advanced sessions — the engine must propagate instead,
        # pointing at the chunk-level remedy.
        original = BatchKernel.run

        def dispatch_then_die(self, block, on_session_error=None):
            original(self, block, on_session_error=on_session_error)
            assert self.dispatches > 0
            raise RuntimeError("injected post-dispatch failure")

        monkeypatch.setattr(BatchKernel, "run", dispatch_then_die)
        with pytest.raises(RuntimeError, match="post-dispatch") as excinfo:
            run_mixed(block)
        assert any("kernel=False" in note for note in excinfo.value.__notes__)


# ----------------------------------------------------------------------
# the chunk-level ladder (kernel → object loop inside a retry)
# ----------------------------------------------------------------------


def _ladder_probe(sessions, rng, fail_on=(), kernel=True):
    """A stand-in batch fn whose failures are selected per rung."""
    rung = "kernel" if kernel else "object"
    if rung in fail_on:
        raise RuntimeError(f"injected failure on rung {rung!r}")
    return [(rung, sessions, float(rng.random()))]


def _no_knobs_probe(sessions, rng):
    raise RuntimeError("no rungs to degrade to")


class TestChunkLadder:
    def seed(self):
        return np.random.SeedSequence(42)

    def test_kernel_failure_degrades_to_next_rung_seed_exact(self):
        payload = _run_chunk(
            _ladder_probe,
            "sessions",
            5,
            self.seed(),
            None,
            {"fail_on": ("kernel",), "kernel": True},
        )
        assert isinstance(payload, _ChunkPayload)
        # The degraded rung re-ran from the chunk seed: same draw as a
        # clean kernel=False call.
        clean = _ladder_probe(
            sessions=5, rng=np.random.default_rng(self.seed()), kernel=False
        )
        assert payload.result == clean
        assert [e["kind"] for e in payload.events] == [KERNEL_FALLBACK]
        assert payload.events[0]["resolution"] == "degraded"
        assert "kernel=False" in payload.events[0]["detail"]

    def test_exhausted_ladder_raises_last_rung_error(self):
        with pytest.raises(RuntimeError, match="rung 'object'"):
            _run_chunk(
                _ladder_probe,
                "sessions",
                5,
                self.seed(),
                None,
                {"fail_on": ("kernel", "object"), "kernel": True},
            )

    def test_clean_chunk_records_no_events(self):
        payload = _run_chunk(
            _ladder_probe, "sessions", 5, self.seed(), None, {"kernel": True}
        )
        assert payload.events == []
        assert payload.result[0][0] == "kernel"

    def test_rungs_respect_pinned_knobs(self):
        two = _degradation_rungs(_ladder_probe, {"kernel": True})
        assert [label for label, _ in two] == [
            "requested configuration",
            "kernel=False",
        ]
        assert two[1][1] == {"kernel": False}

        pinned_off = _degradation_rungs(_ladder_probe, {"kernel": False})
        assert [label for label, _ in pinned_off] == [
            "requested configuration"
        ]

    def test_fn_without_knobs_has_no_ladder(self):
        rungs = _degradation_rungs(_no_knobs_probe, {})
        assert [label for label, _ in rungs] == ["requested configuration"]
        with pytest.raises(RuntimeError, match="no rungs"):
            _run_chunk(_no_knobs_probe, "sessions", 5, self.seed(), None, {})
