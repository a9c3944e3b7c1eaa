"""Sweep fusion: grid points batched into one engine pass.

``run_fused_graph_sweep`` / ``run_fused_trace_sweep`` register every
grid point's sessions in one engine over one shared contact window, so
one struct-of-arrays kernel invocation per kernel class advances the
whole grid. The contracts tested here:

* a single-variant fused sweep reproduces, on the same seed, the outcome
  digests recorded from the single-configuration batch runners it
  replaced (draw-order preservation);
* kernel and columnar consumption of the same fused sweep agree
  outcome-for-outcome, including mixed single-/multi-copy grids;
* the parallel wrapper merges chunk results per variant, and the
  figure runners actually take the kernel path by default (observable
  via the engine's dispatch-mode counters).
"""

import hashlib

import numpy as np
import pytest

from repro.adversary.dropping import DroppingRelays
from repro.contacts.random_graph import random_contact_graph
from repro.contacts.synthetic import cambridge_like_trace
from repro.core.multi_copy import SprayPolicy
from repro.experiments import runners as runners_module
from repro.experiments.parallel import run_parallel_fused_sweep
from repro.faults.churn import NodeChurnSchedule
from repro.faults.failstop import FailStopSchedule
from repro.faults.recovery import RecoveryPolicy
from repro.experiments.runners import (
    SweepVariant,
    run_fused_graph_sweep,
    run_fused_trace_sweep,
)
from repro.sim.engine import SimulationEngine

from tests.oracles import IteratorEngine, runners_using
from tests.test_sim_kernel_equivalence import batch_fields


GRID = [
    SweepVariant(label="L=1", group_size=4, onion_routers=2, copies=1),
    SweepVariant(label="L=3", group_size=4, onion_routers=2, copies=3),
    SweepVariant(
        label="L=4/binary",
        group_size=4,
        onion_routers=2,
        copies=4,
        spray_policy=SprayPolicy.BINARY,
    ),
]


def small_graph(seed=8):
    return random_contact_graph(30, (10.0, 90.0), rng=np.random.default_rng(seed))


def outcome_digest(pairs):
    """SHA-256 over every outcome field and every route of a batch."""
    routes = [(r.source, r.destination, r.groups) for r, _ in pairs]
    return hashlib.sha256(repr((batch_fields(pairs), routes)).encode()).hexdigest()


# Recorded from the single-configuration graph and trace batch runners
# the fused sweeps replaced, on the configurations and seeds below
# (graph: g=4, K=2, L=3, horizon 360, 20 sessions; trace: g=3, K=2, L=2,
# deadline 1800, 10 sessions).
PLAIN_GRAPH_DIGEST = (
    "5c6ff54d78eb2e27579b3a77f528cef7b86658694b7456573140faf00168cdbe"
)
PLAIN_TRACE_DIGEST = (
    "03da9bcffcb42eb4739f1d4d798bb4e4dcea28589c22101ad43ffd32dc6ce10a"
)


def test_single_variant_fused_matches_plain_batch():
    graph = small_graph()
    fused = run_fused_graph_sweep(
        graph,
        [SweepVariant(label="only", group_size=4, onion_routers=2, copies=3)],
        horizon=360.0,
        sessions_per_variant=20,
        rng=np.random.default_rng(5),
    )
    assert len(fused) == 1
    assert outcome_digest(fused[0]) == PLAIN_GRAPH_DIGEST


def test_fused_graph_sweep_kernel_matches_columnar():
    graph = small_graph()
    runs = []
    for engine_cls in (IteratorEngine, SimulationEngine):
        with runners_using(engine_cls):
            sweep = run_fused_graph_sweep(
                graph,
                GRID,
                horizon=360.0,
                sessions_per_variant=15,
                rng=np.random.default_rng(11),
            )
        runs.append([batch_fields(batch) for batch in sweep])
    assert runs[0] == runs[1]


def test_fused_sweep_shares_common_random_numbers():
    # Same seed, same graph: the L=1 slot of a fused grid must equal a
    # single-variant fused run of that slot *only* when it is the first
    # variant (later variants sit deeper in the shared draw sequence) —
    # the grid shares one stream rather than resampling per point.
    graph = small_graph()
    full = run_fused_graph_sweep(
        graph, GRID, horizon=360.0, sessions_per_variant=15,
        rng=np.random.default_rng(11),
    )
    first_only = run_fused_graph_sweep(
        graph, GRID[:1], horizon=360.0, sessions_per_variant=15,
        rng=np.random.default_rng(11),
    )
    assert batch_fields(full[0]) == batch_fields(first_only[0])


def test_fault_sweep_is_stream_window_independent():
    # Churn and fail-stop are pure filters over the sampled stream and the
    # relays draw their drops from a stream of their own, so windowed
    # consumption must not change a single outcome.
    graph = small_graph()

    def run(stream_window):
        sweep = run_fused_graph_sweep(
            graph,
            GRID,
            horizon=360.0,
            sessions_per_variant=12,
            rng=np.random.default_rng(21),
            stream_window=stream_window,
            churn=NodeChurnSchedule.from_availability(graph.n, 0.7, 20.0, rng=4),
            failstop=FailStopSchedule(graph.n, death_rate=0.002, rng=5),
            relays=DroppingRelays(range(0, graph.n, 3), 0.5),
            recovery=RecoveryPolicy(custody_timeout=30.0, max_retries=2),
        )
        return [batch_fields(batch) for batch in sweep]

    whole = run(None)
    statuses = {fields[6] for batch in whole for fields in batch}
    assert {"delivered", "dropped"} <= statuses
    assert run(360.0 / 7) == whole


def test_fused_sweep_rejects_empty_grid():
    with pytest.raises(ValueError, match="at least one variant"):
        run_fused_graph_sweep(
            small_graph(), [], horizon=100.0, sessions_per_variant=5
        )


def test_fused_trace_sweep_kernel_matches_columnar():
    trace = cambridge_like_trace(rng=np.random.default_rng(14)).normalized()
    variants = [
        SweepVariant(label="L=1", group_size=3, onion_routers=2, copies=1),
        SweepVariant(label="L=2", group_size=3, onion_routers=2, copies=2),
    ]
    runs = []
    for engine_cls in (IteratorEngine, SimulationEngine):
        with runners_using(engine_cls):
            sweep = run_fused_trace_sweep(
                trace,
                variants,
                deadline=1800.0,
                sessions_per_variant=10,
                rng=np.random.default_rng(2),
            )
        runs.append([batch_fields(batch) for batch in sweep])
    assert runs[0] == runs[1]


def test_single_variant_fused_trace_matches_plain_batch():
    trace = cambridge_like_trace(rng=np.random.default_rng(14)).normalized()
    fused = run_fused_trace_sweep(
        trace,
        [SweepVariant(label="only", group_size=3, onion_routers=2, copies=2)],
        deadline=1800.0,
        sessions_per_variant=10,
        rng=np.random.default_rng(2),
    )
    assert outcome_digest(fused[0]) == PLAIN_TRACE_DIGEST


# ----------------------------------------------------------------------
# the parallel wrapper
# ----------------------------------------------------------------------


def test_parallel_fused_sweep_serial_equals_direct_call():
    graph = small_graph()
    direct = run_fused_graph_sweep(
        graph, GRID, horizon=360.0, sessions_per_variant=12,
        rng=np.random.default_rng(9),
    )
    wrapped = run_parallel_fused_sweep(
        run_fused_graph_sweep,
        variants=GRID,
        sessions_per_variant=12,
        workers=1,
        rng=np.random.default_rng(9),
        graph=graph,
        horizon=360.0,
    )
    assert [batch_fields(b) for b in wrapped] == [batch_fields(b) for b in direct]


def test_parallel_fused_sweep_merges_chunks_per_variant():
    graph = small_graph()
    sweep = run_parallel_fused_sweep(
        run_fused_graph_sweep,
        variants=GRID,
        sessions_per_variant=10,
        workers=2,
        rng=np.random.default_rng(9),
        graph=graph,
        horizon=240.0,
    )
    assert len(sweep) == len(GRID)
    for batch in sweep:
        assert len(batch) == 10
        for route, outcome in batch:
            assert outcome.status in {"pending", "delivered", "expired"}


# ----------------------------------------------------------------------
# figure runners select the kernel path by default
# ----------------------------------------------------------------------


class _RecordingEngine(SimulationEngine):
    instances = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        _RecordingEngine.instances.append(self)


@pytest.fixture
def recorded_engines(monkeypatch):
    _RecordingEngine.instances = []
    monkeypatch.setattr(runners_module, "SimulationEngine", _RecordingEngine)
    return _RecordingEngine.instances


def test_figure_10_runs_through_kernels_by_default(recorded_engines):
    from repro.experiments.delivery_figs import figure_10

    figure_10(
        copy_counts=(1, 2),
        graphs=1,
        sessions_per_graph=6,
        seed=10,
    )
    assert recorded_engines, "figure_10 never built an engine"
    for engine in recorded_engines:
        counts = engine.dispatch_mode_counts
        # The fused L grid: the L=1 slot through the single-copy kernel,
        # L=2 through the multi-copy kernel, nothing on the object loops.
        assert counts.get("kernel-single", 0) == 6
        assert counts.get("kernel-multicopy", 0) == 6
        assert "columnar" not in counts
        assert "iterator" not in counts


def test_figure_14_runs_through_kernel_by_default(recorded_engines):
    from repro.experiments.trace_figs import figure_14

    figure_14(sessions=5, seed=14)
    assert recorded_engines, "figure_14 never built an engine"
    for engine in recorded_engines:
        counts = engine.dispatch_mode_counts
        assert counts.get("kernel-single", 0) == 5
        assert "columnar" not in counts


def test_explicit_opt_out_falls_back_to_columnar(recorded_engines):
    graph = small_graph()
    run_fused_graph_sweep(
        graph,
        GRID[:1],
        horizon=120.0,
        sessions_per_variant=4,
        rng=np.random.default_rng(3),
        kernel=False,
    )
    assert recorded_engines
    for engine in recorded_engines:
        counts = engine.dispatch_mode_counts
        assert "kernel-single" not in counts
        assert counts.get("columnar", 0) == 4
