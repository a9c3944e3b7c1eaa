"""Perf bench: engine dispatch strategies on a fixed seeded workload.

Times the same seeded session batch under the broadcast and per-event
reference oracles (``tests/oracles.py``), the engine's object loop
(``kernel=False``), its kernel path, and the parallel batch layer,
records events/sec in the benchmark extra-info, and asserts the
strategies agree outcome-for-outcome.
Wall-time is archived, not gated — machine speed varies; the invariants
(identical outcomes, indexed not slower than broadcast) do not.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.contacts.random_graph import random_contact_graph
from repro.experiments.config import DEFAULT_CONFIG
from repro.experiments.parallel import run_parallel_fused_sweep
from repro.experiments.runners import SweepVariant, run_fused_graph_sweep
from scripts.bench_engine import count_events, outcome_signature
from tests.oracles import BroadcastEngine, IteratorEngine, runners_using

SESSIONS = 200
HORIZON = 360.0
SEED = 42
VARIANTS = [SweepVariant("g=5 K=3", group_size=5, onion_routers=3)]


@pytest.fixture(scope="module")
def workload_graph():
    return random_contact_graph(
        100, DEFAULT_CONFIG.mean_intercontact_range, rng=np.random.default_rng(SEED)
    )


def _batch(graph, **knobs):
    return run_fused_graph_sweep(
        graph,
        VARIANTS,
        horizon=HORIZON,
        sessions_per_variant=SESSIONS,
        rng=np.random.default_rng(SEED),
        **knobs,
    )[0]


def _timed(benchmark, fn):
    """Run ``fn`` under the benchmark for three rounds; ``(result, mean wall)``.

    Under ``--benchmark-disable`` the fixture runs ``fn`` once and keeps no
    stats, so the wall falls back to that single timed run.
    """
    start = time.perf_counter()
    result = benchmark.pedantic(fn, rounds=3, iterations=1)
    elapsed = time.perf_counter() - start
    stats = benchmark.stats
    return result, stats["mean"] if stats is not None else elapsed


def _run(graph, dispatch):
    """``broadcast``: the reference scan; ``indexed``: the engine's
    interest-indexed object loop."""
    if dispatch == "broadcast":
        with runners_using(BroadcastEngine):
            return _batch(graph)
    return _batch(graph, kernel=False)


def test_perf_indexed_vs_broadcast(benchmark, workload_graph):
    events = count_events(workload_graph, 5, 3, SESSIONS, HORIZON, SEED)

    start = time.perf_counter()
    broadcast = _run(workload_graph, "broadcast")
    broadcast_wall = time.perf_counter() - start

    indexed, indexed_wall = _timed(
        benchmark, lambda: _run(workload_graph, "indexed")
    )

    assert outcome_signature(broadcast) == outcome_signature(indexed)
    assert indexed_wall < broadcast_wall

    benchmark.extra_info["events"] = events
    benchmark.extra_info["events_per_second_indexed"] = round(
        events / indexed_wall, 1
    )
    benchmark.extra_info["events_per_second_broadcast"] = round(
        events / broadcast_wall, 1
    )
    benchmark.extra_info["speedup"] = round(broadcast_wall / indexed_wall, 2)


def test_perf_parallel_batch(benchmark, workload_graph):
    pairs = benchmark.pedantic(
        lambda: run_parallel_fused_sweep(
            run_fused_graph_sweep,
            variants=VARIANTS,
            sessions_per_variant=SESSIONS,
            workers=2,
            rng=np.random.default_rng(SEED),
            graph=workload_graph,
            horizon=HORIZON,
        )[0],
        rounds=1,
        iterations=1,
    )
    assert len(pairs) == SESSIONS

    # Parallel chunks draw endpoints/routes from spawned SeedSequence
    # children — a different (equally valid) sample than the serial master
    # stream — so the delivered count may drift slightly from serial
    # (BENCH_engine.json records 945 vs 946 on the reference workload).
    # That divergence is *by design* and cannot be closed: ``workers=1``
    # contractually consumes the caller's generator itself (seed-exact
    # with the serial path), so the chunked layout necessarily draws from
    # different streams. What must hold is (a) the drift stays a
    # statistical wobble, not a systematic loss of deliveries, and (b)
    # the chunked outcome is byte-identical across *worker counts*: the
    # default chunk layout is a pure function of ``sessions``.
    serial = _run(workload_graph, "indexed")
    delivered_serial = sum(1 for _, o in serial if o.delivered)
    delivered_parallel = sum(1 for _, o in pairs if o.delivered)
    tolerance = max(5, int(0.05 * SESSIONS))
    assert abs(delivered_parallel - delivered_serial) <= tolerance

    four_workers = run_parallel_fused_sweep(
        run_fused_graph_sweep,
        variants=VARIANTS,
        sessions_per_variant=SESSIONS,
        workers=4,
        rng=np.random.default_rng(SEED),
        graph=workload_graph,
        horizon=HORIZON,
    )[0]
    assert outcome_signature(four_workers) == outcome_signature(pairs)

    benchmark.extra_info["workers"] = 2
    benchmark.extra_info["delivered_serial"] = delivered_serial
    benchmark.extra_info["delivered_parallel"] = delivered_parallel


def test_perf_columnar_consume(benchmark, workload_graph):
    events = count_events(workload_graph, 5, 3, SESSIONS, HORIZON, SEED)

    with runners_using(IteratorEngine):
        iterator = _batch(workload_graph)
    columnar, columnar_wall = _timed(
        benchmark, lambda: _batch(workload_graph, kernel=False)
    )
    assert outcome_signature(iterator) == outcome_signature(columnar)
    benchmark.extra_info["events"] = events
    benchmark.extra_info["events_per_second_columnar"] = round(
        events / columnar_wall, 1
    )


def test_perf_kernel_consume(benchmark, workload_graph):
    events = count_events(workload_graph, 5, 3, SESSIONS, HORIZON, SEED)

    start = time.perf_counter()
    columnar = _batch(workload_graph, kernel=False)
    columnar_wall = time.perf_counter() - start

    kernel, kernel_wall = _timed(benchmark, lambda: _batch(workload_graph))

    assert outcome_signature(columnar) == outcome_signature(kernel)
    # The end-to-end walls share the generation phase, so the ratio here
    # understates the dispatch-only speedup BENCH_engine.json records; the
    # kernel must still win end-to-end on this workload.
    assert kernel_wall < columnar_wall

    benchmark.extra_info["events"] = events
    benchmark.extra_info["events_per_second_kernel"] = round(
        events / kernel_wall, 1
    )
    benchmark.extra_info["speedup_vs_columnar"] = round(
        columnar_wall / kernel_wall, 2
    )


def test_perf_shared_stream_parallel(benchmark, workload_graph):
    import pickle

    from repro.contacts.events import ExponentialContactProcess
    from repro.experiments.parallel import WorkerPool
    from repro.experiments.shm import leaked_arena_segments

    block = ExponentialContactProcess(
        workload_graph, rng=np.random.default_rng(SEED)
    ).events_until_columnar(HORIZON)
    with WorkerPool(2) as pool:
        pairs = benchmark.pedantic(
            lambda: run_parallel_fused_sweep(
                run_fused_graph_sweep,
                variants=VARIANTS,
                sessions_per_variant=SESSIONS,
                workers=pool,
                rng=np.random.default_rng(SEED),
                shared_events=block,
                graph=workload_graph,
                horizon=HORIZON,
            )[0],
            rounds=2,
            iterations=1,
        )
        # Zero-copy transport: the per-chunk pickle carries a descriptor a
        # few hundred bytes long, not the block's serialized columns.
        descriptor = pool.share_block(block)
        descriptor_bytes = len(pickle.dumps(descriptor))
    assert len(pairs) == SESSIONS
    assert descriptor_bytes < 1024
    assert leaked_arena_segments() == []
    benchmark.extra_info["stream_bytes"] = len(block.to_bytes())
    benchmark.extra_info["descriptor_bytes"] = descriptor_bytes


def test_perf_stream_consume(benchmark, workload_graph):
    events = count_events(workload_graph, 5, 3, SESSIONS, HORIZON, SEED)

    kernel = _batch(workload_graph)
    stream, stream_wall = _timed(
        benchmark, lambda: _batch(workload_graph, stream_window=HORIZON / 8)
    )
    assert outcome_signature(kernel) == outcome_signature(stream)
    benchmark.extra_info["events"] = events
    benchmark.extra_info["events_per_second_stream"] = round(
        events / stream_wall, 1
    )
