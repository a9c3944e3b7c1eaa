"""Shared-memory arena lifecycle: round-trips, ownership, crash safety.

The zero-copy transport has one invariant that matters above all others:
after the owner releases an arena, ``/dev/shm`` holds no ``reproarena-*``
segment — no matter how many workers were SIGKILLed mid-chunk. These
tests exercise the descriptor round-trip, the idempotent ownership API,
the pool-owned and per-call arena lifecycles, and the crash path through
the supervised dispatcher (worker functions live at module level so the
``fork`` start method pickles them by reference).
"""

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.contacts.events import (
    ColumnarEventSource,
    EventBlock,
    ExponentialContactProcess,
)
from repro.contacts.random_graph import random_contact_graph
from repro.experiments import shm
from repro.experiments.parallel import WorkerPool, run_parallel_fused_sweep
from repro.experiments.runners import run_fused_graph_sweep
from repro.experiments.shm import (
    BlockDescriptor,
    SharedBlockArena,
    attach_block,
    detach_attached,
    leaked_arena_segments,
)
from repro.utils.resilience import WORKER_CRASH, ExecutionReport, RetryPolicy
from tests.helpers import one_variant


@pytest.fixture
def graph():
    return random_contact_graph(20, (4.0, 30.0), rng=np.random.default_rng(7))


@pytest.fixture
def event_block(graph):
    return ExponentialContactProcess(
        graph, rng=np.random.default_rng(5)
    ).events_until_columnar(240.0)


def _force_worker_attach(descriptor: BlockDescriptor):
    """Attach as a worker would: bypass the owner-process shortcut."""
    original = shm._OWNED.pop(descriptor.shm_name)
    try:
        return attach_block(descriptor)
    finally:
        shm._OWNED[descriptor.shm_name] = original


class TestRoundTrip:
    def test_event_block_round_trips_bitwise(self, event_block):
        arena = SharedBlockArena()
        try:
            descriptor = arena.register(event_block)
            rebuilt = _force_worker_attach(descriptor)
            assert rebuilt is not event_block
            np.testing.assert_array_equal(rebuilt.times, event_block.times)
            np.testing.assert_array_equal(rebuilt.a, event_block.a)
            np.testing.assert_array_equal(rebuilt.b, event_block.b)
        finally:
            detach_attached()
            arena.unlink()
        assert leaked_arena_segments() == []

    def test_attached_views_are_read_only(self, event_block):
        arena = SharedBlockArena()
        try:
            rebuilt = _force_worker_attach(arena.register(event_block))
            with pytest.raises(ValueError):
                rebuilt.times[0] = -1.0
        finally:
            detach_attached()
            arena.unlink()

    def test_owner_process_attach_returns_registered_object(self, event_block):
        arena = SharedBlockArena()
        try:
            descriptor = arena.register(event_block)
            assert attach_block(descriptor) is event_block
        finally:
            arena.unlink()

    def test_descriptor_is_small(self, event_block):
        import pickle

        arena = SharedBlockArena()
        try:
            descriptor = arena.register(event_block)
            assert len(pickle.dumps(descriptor)) < 1024
            assert descriptor.nbytes >= event_block.times.nbytes
        finally:
            arena.unlink()


class TestOwnership:
    def test_register_is_idempotent_per_block(self, event_block):
        arena = SharedBlockArena()
        try:
            first = arena.register(event_block)
            second = arena.register(event_block)
            assert first == second
            assert len(arena) == 1
        finally:
            arena.unlink()

    def test_unlink_is_idempotent(self, event_block):
        arena = SharedBlockArena()
        arena.register(event_block)
        arena.unlink()
        arena.unlink()
        assert leaked_arena_segments() == []

    def test_dropped_arena_releases_segments(self, event_block):
        arena = SharedBlockArena()
        name = arena.register(event_block).shm_name
        assert any(name in leaked for leaked in leaked_arena_segments())
        del arena  # the weakref.finalize backstop must fire
        assert leaked_arena_segments() == []

    def test_register_rejects_foreign_types(self):
        arena = SharedBlockArena()
        with pytest.raises(TypeError):
            arena.register(np.zeros(4))

    def test_attach_rejects_unknown_kind(self, event_block):
        arena = SharedBlockArena()
        try:
            descriptor = arena.register(event_block)._replace(kind="mystery")
            shm._OWNED.pop(descriptor.shm_name)
            with pytest.raises(ValueError, match="mystery"):
                attach_block(descriptor)
        finally:
            detach_attached()
            arena.unlink()


def _kill_once_batch(
    graph, variants, horizon,
    sessions_per_variant=None, rng=None, events=None, fuse_dir=None,
):
    """One chunk SIGKILLs its worker mid-run; retries replay cleanly."""
    fuse = Path(fuse_dir) / "kill.fuse"
    try:
        fuse.unlink()
        os.kill(os.getpid(), signal.SIGKILL)
    except FileNotFoundError:
        pass
    return run_fused_graph_sweep(
        graph, variants, horizon=horizon,
        sessions_per_variant=sessions_per_variant, rng=rng, events=events,
    )


def _signature(pairs):
    return [
        (o.delivered, o.delivery_time, o.transmissions, o.status)
        for _, o in pairs
    ]


class TestCrashSafety:
    def test_sigkilled_worker_chunk_requeues_identically(
        self, graph, event_block, tmp_path
    ):
        kwargs = dict(
            graph=graph, variants=one_variant(4, 2), horizon=240.0,
            fuse_dir=str(tmp_path),
        )

        def run(pool_args):
            return _signature(
                run_parallel_fused_sweep(
                    _kill_once_batch,
                    sessions_per_variant=12,
                    rng=np.random.default_rng(23),
                    shared_events=event_block,
                    **pool_args,
                    **kwargs,
                )[0]
            )

        clean = run(dict(workers=2))
        (tmp_path / "kill.fuse").write_text("armed")
        report = ExecutionReport()
        with WorkerPool(
            2,
            max_processes=2,
            policy=RetryPolicy(max_retries=2, backoff=0.0, jitter=0.0),
            report=report,
        ) as pool:
            crashed = run(dict(workers=pool))
            # The arena outlives the crash-restart: segments stay mapped
            # until close(), which runs on the with-exit below.
            assert len(pool.arena) == 1
        assert crashed == clean
        assert report.counts().get(WORKER_CRASH, 0) >= 1
        assert leaked_arena_segments() == []

    def test_int_workers_arena_released_on_completion(self, graph, event_block):
        run_parallel_fused_sweep(
            run_fused_graph_sweep,
            variants=one_variant(4, 2),
            sessions_per_variant=8,
            workers=2,
            rng=np.random.default_rng(3),
            shared_events=event_block,
            graph=graph,
            horizon=240.0,
        )
        assert leaked_arena_segments() == []

    def test_int_workers_arena_released_on_chunk_error(self, graph, event_block):
        def boom(**kwargs):
            raise RuntimeError("synthetic failure")

        boom.__name__ = "boom"
        with pytest.raises(RuntimeError):
            run_parallel_fused_sweep(
                boom,
                variants=one_variant(4, 2),
                sessions_per_variant=8,
                workers=1,  # workers=1 calls inline; use 2 for the arena path
                rng=np.random.default_rng(3),
                graph=graph,
            )
        # The shared path's try/finally is what the next assert exercises.
        with pytest.raises(Exception):
            run_parallel_fused_sweep(
                _kill_once_batch,
                variants=one_variant(400, 2),  # invalid: every chunk raises
                sessions_per_variant=8,
                workers=2,
                rng=np.random.default_rng(3),
                shared_events=event_block,
                graph=graph,
                horizon=240.0,
                fuse_dir="/nonexistent",
            )
        assert leaked_arena_segments() == []


# The pool forks lazily at its first submit, i.e. *after* the first
# share_block has started the owner's resource tracker, so the workers
# share that tracker. The second block is registered after the fork, so
# the workers must really attach it (the first one they inherit).
_FORK_AFTER_SHARE = """
import numpy as np
from repro.contacts.events import ExponentialContactProcess
from repro.contacts.random_graph import random_contact_graph
from repro.experiments.parallel import WorkerPool
from repro.experiments.runners import SweepVariant, run_fused_graph_sweep

graph = random_contact_graph(20, (4.0, 30.0), rng=np.random.default_rng(7))
with WorkerPool(2, max_processes=2) as pool:
    for seed in (3, 4):
        block = ExponentialContactProcess(
            graph, rng=np.random.default_rng(seed)
        ).events_until_columnar(240.0)
        run_fused_graph_sweep(
            graph, [SweepVariant("only", group_size=4, onion_routers=2)],
            horizon=240.0, sessions_per_variant=8, rng=seed, events=block,
            workers=pool,
        )
"""


class TestResourceTracker:
    def test_pool_forked_after_share_leaves_tracker_clean(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        done = subprocess.run(
            [sys.executable, "-c", _FORK_AFTER_SHARE],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        tracebacks = done.stderr.split("Traceback (most recent call last):")[1:]
        tracker_errors = [
            tb for tb in tracebacks
            if "resource_tracker" in tb and re.search(r"^KeyError", tb, re.M)
        ]
        assert tracker_errors == [], done.stderr
        assert leaked_arena_segments() == []
