"""Tests for the parallel batch layer: chunking, seeding, determinism."""

import numpy as np
import pytest

from repro.adversary.dropping import DroppingRelays
from repro.cli import main
from repro.contacts.random_graph import random_contact_graph
from repro.contacts.events import (
    ColumnarEventSource,
    ExponentialContactProcess,
)
from repro.experiments.parallel import (
    WorkerPool,
    chunk_sizes,
    default_chunk_count,
    parallel_map,
    run_parallel_fused_sweep,
    run_parallel_montecarlo,
    spawn_chunk_seeds,
)
from repro.experiments.runners import (
    SweepVariant,
    run_fused_graph_sweep,
    security_montecarlo,
)
from repro.experiments.shm import leaked_arena_segments
from repro.utils.resilience import RetryPolicy
from tests.helpers import one_variant


class TestChunkSizes:
    def test_partitions_exactly(self):
        for total, chunks in [(10, 3), (7, 7), (100, 4), (5, 9), (1, 1)]:
            sizes = chunk_sizes(total, chunks)
            assert sum(sizes) == total
            assert all(size >= 1 for size in sizes)
            assert len(sizes) == min(chunks, total)
            assert max(sizes) - min(sizes) <= 1

    def test_deterministic_layout(self):
        assert chunk_sizes(10, 3) == chunk_sizes(10, 3) == [4, 3, 3]

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            chunk_sizes(0, 3)
        with pytest.raises(ValueError):
            chunk_sizes(10, 0)


class TestSpawnChunkSeeds:
    def test_reproducible_from_int_seed(self):
        first = [s.entropy for s in spawn_chunk_seeds(123, 4)]
        second = [s.entropy for s in spawn_chunk_seeds(123, 4)]
        assert first == second

    def test_children_are_distinct(self):
        seeds = spawn_chunk_seeds(7, 8)
        streams = [np.random.default_rng(s).random() for s in seeds]
        assert len(set(streams)) == len(streams)


def _square(x):
    return x * x


class TestParallelMap:
    def test_inline_and_pooled_agree(self):
        tasks = [(k,) for k in range(6)]
        assert parallel_map(_square, tasks, 1) == parallel_map(_square, tasks, 2)

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            parallel_map(_square, [(1,)], 0)


@pytest.fixture(scope="module")
def graph():
    return random_contact_graph(30, (10.0, 120.0), rng=np.random.default_rng(3))


def _parallel_batch(workers, rng, **kwargs):
    """One-variant (g=4, K=2) graph sweep through the parallel wrapper."""
    return run_parallel_fused_sweep(
        run_fused_graph_sweep,
        variants=one_variant(4, 2),
        workers=workers,
        rng=rng,
        horizon=240.0,
        **kwargs,
    )[0]


def _batch(graph, workers, seed=17):
    pairs = _parallel_batch(workers, seed, sessions_per_variant=24, graph=graph)
    return [
        (o.delivered, o.delivery_time, o.transmissions, o.status)
        for _, o in pairs
    ]


class TestRunParallelBatch:
    def test_workers_1_is_seed_exact_with_serial(self, graph):
        [serial] = run_fused_graph_sweep(
            graph, one_variant(4, 2), horizon=240.0, sessions_per_variant=24,
            rng=np.random.default_rng(17),
        )
        wrapped = _parallel_batch(
            1, np.random.default_rng(17), sessions_per_variant=24, graph=graph
        )
        assert [o.delivered for _, o in serial] == [
            o.delivered for _, o in wrapped
        ]
        assert [o.delivery_time for _, o in serial] == [
            o.delivery_time for _, o in wrapped
        ]

    def test_workers_4_repeated_runs_identical(self, graph):
        # The determinism contract: fixed master seed -> identical merged
        # batch, independent of pool scheduling.
        assert _batch(graph, workers=4) == _batch(graph, workers=4)

    def test_session_count_preserved(self, graph):
        assert len(_batch(graph, workers=3)) == 24


class TestRunParallelMontecarlo:
    def kwargs(self):
        return dict(
            n=60, group_size=4, onion_routers=2, copies=1,
            compromise_rate=0.2,
        )

    def test_repeated_runs_identical(self):
        first = run_parallel_montecarlo(
            security_montecarlo, trials=40, workers=4, rng=5, **self.kwargs()
        )
        second = run_parallel_montecarlo(
            security_montecarlo, trials=40, workers=4, rng=5, **self.kwargs()
        )
        assert first == second

    def test_estimates_are_probabilities(self):
        values = run_parallel_montecarlo(
            security_montecarlo, trials=40, workers=2, rng=6, **self.kwargs()
        )
        assert all(0.0 <= v <= 1.0 for v in values)


class TestCliWorkersValidation:
    def test_rejects_zero_workers(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "6", "--trials", "10", "--workers", "0"])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_rejects_negative_workers(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "6", "--trials", "10", "--workers", "-3"])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_accepts_workers_for_figure(self):
        assert main(["figure", "6", "--trials", "20", "--workers", "2"]) == 0


def _boom(x):
    if x == 2:
        raise RuntimeError("chunk exploded")
    return x


class TestWorkerPool:
    def test_requested_vs_effective(self):
        pool = WorkerPool(8, max_processes=2)
        assert pool.workers == 8
        assert pool.processes == 2
        pool.close()

    def test_inline_when_effective_is_one(self):
        with WorkerPool(4, max_processes=1) as pool:
            assert pool.processes == 1
            assert parallel_map(_square, [(k,) for k in range(4)], pool) == [
                0, 1, 4, 9
            ]
            assert pool._executor is None  # never forked

    def test_pool_reuse_matches_inline(self):
        tasks = [(k,) for k in range(6)]
        with WorkerPool(2, max_processes=2) as pool:
            pooled_first = parallel_map(_square, tasks, pool)
            pooled_second = parallel_map(_square, tasks, pool)
        assert pooled_first == pooled_second == parallel_map(_square, tasks, 1)

    def test_requested_workers_fix_chunk_layout(self, graph):
        # A pool constrained to one process must still produce the
        # requested-parallelism merge, not the serial stream.
        chunked = _batch(graph, workers=4)
        with WorkerPool(4, max_processes=1) as pool:
            constrained = _batch(graph, workers=pool)
        assert constrained == chunked

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            WorkerPool(0)
        with pytest.raises(ValueError):
            WorkerPool(2, max_processes=0)


class TestParallelMapErrors:
    def test_inline_failure_notes_chunk_index(self):
        tasks = [(k,) for k in range(4)]
        with pytest.raises(RuntimeError) as excinfo:
            parallel_map(_boom, tasks, 1)
        assert any("chunk 2/4" in note for note in excinfo.value.__notes__)

    def test_pooled_failure_notes_chunk_and_cancels(self):
        tasks = [(k,) for k in range(4)]
        with WorkerPool(2, max_processes=2) as pool:
            with pytest.raises(RuntimeError) as excinfo:
                parallel_map(_boom, tasks, pool)
        notes = "\n".join(excinfo.value.__notes__)
        assert "chunk 2/4" in notes
        assert "cancelled" in notes


def _empty_mc(trials, rng):
    return ()


def _widening_mc(trials, rng):
    # Width depends on the chunk's trial count -> mismatched chunks.
    return tuple(0.5 for _ in range(trials))


class TestMontecarloValidation:
    def test_empty_chunk_raises_value_error(self):
        with pytest.raises(ValueError) as excinfo:
            run_parallel_montecarlo(_empty_mc, trials=10, workers=2, rng=1)
        assert "_empty_mc" in str(excinfo.value)
        assert "chunk 0" in str(excinfo.value)

    def test_width_mismatch_raises_value_error(self):
        with pytest.raises(ValueError):
            run_parallel_montecarlo(
                _widening_mc, trials=9, workers=2, rng=1, chunks=2
            )


def _shared_signature(pairs):
    return [
        (o.delivered, o.delivery_time, o.transmissions, o.status)
        for _, o in pairs
    ]


class TestSharedStreamParallel:
    def _block(self, graph, horizon=240.0):
        return ExponentialContactProcess(
            graph, rng=np.random.default_rng(33)
        ).events_until_columnar(horizon)

    def test_matches_serial_replay_of_chunk_seeds(self, graph):
        # The shared-stream merge must equal running each spawned chunk
        # serially against a fresh cursor over the same block.
        block = self._block(graph)
        merged = _parallel_batch(
            4, np.random.default_rng(17), sessions_per_variant=24,
            shared_events=block, graph=graph,
        )
        sizes = chunk_sizes(24, default_chunk_count(24))
        seeds = spawn_chunk_seeds(np.random.default_rng(17), len(sizes))
        replayed = []
        for size, seed in zip(sizes, seeds):
            replayed.extend(
                run_fused_graph_sweep(
                    graph, one_variant(4, 2), horizon=240.0,
                    sessions_per_variant=size,
                    rng=np.random.default_rng(seed),
                    events=ColumnarEventSource(block),
                )[0]
            )
        assert _shared_signature(merged) == _shared_signature(replayed)

    def test_graph_sweep_workers_share_a_stream_drawn_first(self, graph):
        # With workers > 1 the graph sweep samples the shared stream from
        # its generator first, then spawns the chunk seeds from it.
        rng = np.random.default_rng(17)
        block = ExponentialContactProcess(graph, rng=rng).events_until_columnar(
            240.0
        )
        explicit = _parallel_batch(
            2, rng, sessions_per_variant=24, shared_events=block, graph=graph
        )
        [swept] = run_fused_graph_sweep(
            graph, one_variant(4, 2), horizon=240.0, sessions_per_variant=24,
            rng=np.random.default_rng(17), workers=2,
        )
        assert _shared_signature(swept) == _shared_signature(explicit)

    def test_pool_and_int_workers_agree(self, graph):
        block = self._block(graph)

        def run(workers):
            return _shared_signature(
                _parallel_batch(
                    workers, np.random.default_rng(17),
                    sessions_per_variant=24, shared_events=block, graph=graph,
                )
            )

        with WorkerPool(4, max_processes=2) as pool:
            pooled = run(pool)
        assert pooled == run(4)

    @pytest.mark.parametrize("entry", ["batch", "fused-sweep", "montecarlo"])
    @pytest.mark.parametrize(
        "shape", ["int", "pool", "supervised-pool", "one-process-pool"]
    )
    def test_every_pool_shape_merges_identically(self, graph, entry, shape):
        # One chunk runner and one dispatcher serve every entry point, so
        # a private pool, a shared pool, a supervised pool and an inline
        # single-process pool must all merge the same chunks to the same
        # bytes.
        block = self._block(graph)

        def run(workers):
            rng = np.random.default_rng(17)
            if entry == "batch":
                return _shared_signature(
                    _parallel_batch(
                        workers, rng, sessions_per_variant=24,
                        shared_events=block, graph=graph,
                    )
                )
            if entry == "fused-sweep":
                variants = [
                    SweepVariant("K=2", group_size=4, onion_routers=2),
                    SweepVariant("K=3 L=2", group_size=4, onion_routers=3, copies=2),
                ]
                return [
                    _shared_signature(batch)
                    for batch in run_parallel_fused_sweep(
                        run_fused_graph_sweep, variants=variants,
                        sessions_per_variant=12, workers=workers, rng=rng,
                        shared_events=block, graph=graph, horizon=240.0,
                    )
                ]
            return run_parallel_montecarlo(
                security_montecarlo, trials=40, workers=workers, rng=rng,
                n=60, group_size=4, onion_routers=2, copies=1,
                compromise_rate=0.2,
            )

        reference = run(4)
        if shape == "int":
            merged = run(4)
        elif shape == "one-process-pool":
            with WorkerPool(4, max_processes=1) as pool:
                merged = run(pool)
        else:
            policy = (
                RetryPolicy(max_retries=2, backoff=0.0, jitter=0.0)
                if shape == "supervised-pool"
                else None
            )
            with WorkerPool(4, max_processes=2, policy=policy) as pool:
                merged = run(pool)
            assert not pool.report  # nothing failed, nothing to record
        assert merged == reference
        assert leaked_arena_segments() == []

    def test_workers_1_uses_block_directly(self, graph):
        block = self._block(graph)
        [direct] = run_fused_graph_sweep(
            graph, one_variant(4, 2), horizon=240.0, sessions_per_variant=24,
            rng=np.random.default_rng(17),
            events=ColumnarEventSource(block),
        )
        wrapped = _parallel_batch(
            1, np.random.default_rng(17), sessions_per_variant=24,
            shared_events=block, graph=graph,
        )
        assert _shared_signature(direct) == _shared_signature(wrapped)

    def test_rejects_non_block_shared_events(self, graph):
        with pytest.raises(TypeError):
            _parallel_batch(
                2, 1, sessions_per_variant=8, shared_events=object(),
                graph=graph,
            )


class TestChunkDropStreams:
    def test_chunks_draw_independent_drop_streams(self, graph, monkeypatch):
        # Every chunk unpickles the same relays object; its drop decisions
        # must still come from the chunk's own spawned stream, not from
        # one generator state replayed by every chunk.
        draws = []

        def recording_drops(self, receiver):
            if receiver not in self.compromised:
                return False
            draw = self._rng.random()
            draws.append((self, draw))
            return draw < self.drop_prob

        monkeypatch.setattr(DroppingRelays, "drops", recording_drops)
        with WorkerPool(2, max_processes=1) as pool:  # inline: draws visible
            _parallel_batch(
                pool, 202, sessions_per_variant=32, chunks=4, graph=graph,
                relays=DroppingRelays(range(30), 0.5),
            )
        streams = {}
        for relays, draw in draws:
            streams.setdefault(id(relays), []).append(draw)
        heads = [tuple(stream[:3]) for stream in streams.values()]
        assert len(heads) == 4
        assert all(len(head) == 3 for head in heads)
        assert len(set(heads)) == len(heads)
