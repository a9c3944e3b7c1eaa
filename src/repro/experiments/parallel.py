"""Parallel Monte Carlo batch execution.

The figure runners (the fused delivery sweeps `run_fused_graph_sweep` and
`run_fused_trace_sweep`, and the security Monte Carlo) are embarrassingly
parallel across sessions/trials, and the paper's methodology runs
thousands of them per data point. Both ``run_parallel_*`` entry points go
through one path:

1. a *planner* splits the batch into chunks and spawns one independent
   child of the master :class:`numpy.random.SeedSequence` per chunk
   (``SeedSequence.spawn()``);
2. one module-level *chunk runner* (``_run_chunk``) runs a chunk in a
   worker — reattaching the shared event block if there is one, and
   degrading kernel → object loop on failure;
3. one *dispatcher* (:func:`parallel_map`) drives the chunks through a
   submit/wait loop on a :class:`WorkerPool` and returns them in
   submission order;
4. the entry point's *merge* step combines the chunk results
   (per-variant concatenation or a trial-weighted mean).

Seeding: the default chunk layout is a pure function of the workload
size (:func:`default_chunk_count`), *not* of the worker count, so for a
fixed master seed the merged result is byte-identical across every
requested worker count ≥ 2 and every effective process count — chunk
streams never collide, and a machine upgrade cannot silently change a
figure. ``workers=1`` bypasses chunking entirely — it calls the serial
runner with the caller's generator and returns its result untouched,
keeping historical seed-exact behaviour (and is therefore the one
layout that differs: see ``run_parallel_fused_sweep``).

Ownership: every run executes on a :class:`WorkerPool`. A pool passed as
``workers`` is reused and left running — one warm pool serves a whole
figure sweep, and the *requested* worker count only caps its effective
process count (a single-CPU host degrades to inline execution with the
same merged results). An ``int`` ``workers`` opens a private pool for
the one call and closes it on exit, normal or not. ``shared_events``
blocks are registered once in the pool's
:class:`~repro.experiments.shm.SharedBlockArena` and reattached
zero-copy by every chunk through
:class:`~repro.contacts.events.ColumnarEventSource`; only a tiny
descriptor travels through the task pickle, and closing the pool
unlinks the segments on completion, crash, and interrupt alike.

Supervision: without a :class:`~repro.utils.resilience.RetryPolicy` the
dispatcher is fail-fast — the first chunk error cancels the outstanding
chunks and re-raises. With one (passed directly or carried by the pool)
every chunk gets a wall-clock budget, a hung or SIGKILLed worker is
detected, the pool is rebuilt, and the affected chunks are re-executed
from their original ``SeedSequence.spawn`` seeds — so a sweep that
survived timeouts, crashes, and transient exceptions merges to a result
byte-identical to an unfailed run. Failures are classified
(:mod:`repro.utils.resilience`) and recorded on an
:class:`~repro.utils.resilience.ExecutionReport`; the degradation ladder
runs chunk-level (kernel → object loop inside a retried chunk)
and sweep-level (pool → serial once ``max_pool_restarts`` is exhausted).
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import inspect
import os
import pickle
import time
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any,
    Callable,
    Iterator,
    List,
    NamedTuple,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.contacts.events import ColumnarEventSource, EventBlock
from repro.experiments.shm import (
    BlockDescriptor,
    SharedBlockArena,
    attach_block,
)
from repro.utils.resilience import (
    CHUNK_ERROR,
    CHUNK_TIMEOUT,
    KERNEL_FALLBACK,
    WORKER_CRASH,
    ExecutionReport,
    ResilienceEvent,
    RetryPolicy,
)
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_positive_int


#: Default number of chunks a parallel run splits into. Fixed (instead of
#: the requested worker count) so the chunk layout — and therefore the
#: spawned per-chunk seed streams — is a pure function of the workload:
#: ``workers=2`` and ``workers=16`` merge byte-identical results. 32
#: chunks keep pools busy up to 32 effective processes and smooth load
#: imbalance; ask for more via ``chunks=`` on wider machines.
DEFAULT_CHUNK_COUNT = 32


def default_chunk_count(total: int) -> int:
    """Worker-count-independent default chunk count for ``total`` items."""
    check_positive_int(total, "total")
    return min(total, DEFAULT_CHUNK_COUNT)


def chunk_sizes(total: int, chunks: int) -> List[int]:
    """Split ``total`` work items into at most ``chunks`` non-empty parts.

    Sizes differ by at most one and are deterministic (larger parts first),
    so the chunk layout — and therefore the per-chunk seed assignment — is a
    pure function of ``(total, chunks)``.
    """
    check_positive_int(total, "total")
    check_positive_int(chunks, "chunks")
    chunks = min(chunks, total)
    base, extra = divmod(total, chunks)
    return [base + (1 if k < extra else 0) for k in range(chunks)]


def spawn_chunk_seeds(rng: RandomSource, count: int) -> List[np.random.SeedSequence]:
    """Independent per-chunk seed sequences from one master source.

    Spawning consumes the master sequence's spawn counter, so two calls with
    the same *generator instance* give different children — but re-creating
    the generator from the same int seed reproduces them, which is what the
    deterministic-parallelism contract needs.
    """
    check_positive_int(count, "count")
    seed_seq = ensure_rng(rng).bit_generator.seed_seq
    if seed_seq is None:  # pragma: no cover - generators always carry one
        raise ValueError("generator has no seed sequence to spawn from")
    return list(seed_seq.spawn(count))



class WorkerPool:
    """A persistent process pool shared across many parallel calls.

    ``workers`` is the *requested* parallelism: it fixes the default chunk
    layout and the per-chunk seed assignment, so a batch run with the same
    master seed and requested workers merges to the same result on every
    machine. The pool itself sizes its processes to
    ``min(workers, os.cpu_count())`` (override with ``max_processes``) and
    runs tasks inline — no subprocesses — when that effective size is
    one, which is both the single-CPU degradation and the cheap path for
    ``workers=1``.

    A pool constructed with a :class:`~repro.utils.resilience.RetryPolicy`
    is *supervised*: every ``parallel_map`` call through it gets per-chunk
    timeouts, crash detection with pool rebuilds, and bounded seed-exact
    retries, with incidents recorded on ``report`` (an
    :class:`~repro.utils.resilience.ExecutionReport`, created automatically
    when a policy is given).

    Use as a context manager to reuse one warm pool across a whole figure
    sweep::

        with WorkerPool(4) as pool:
            first = run_parallel_fused_sweep(fn, variants, 500, workers=pool, ...)
            second = run_parallel_fused_sweep(fn, variants, 500, workers=pool, ...)

    Passing an ``int`` as ``workers`` does the same with a private pool
    that lives for one call.
    """
    def __init__(
        self,
        workers: int,
        *,
        max_processes: int | None = None,
        policy: RetryPolicy | None = None,
        report: ExecutionReport | None = None,
    ):
        check_positive_int(workers, "workers")
        if max_processes is not None:
            check_positive_int(max_processes, "max_processes")
        cap = max_processes if max_processes is not None else (os.cpu_count() or 1)
        self._workers = workers
        self._processes = min(workers, cap)
        self._executor: concurrent.futures.ProcessPoolExecutor | None = None
        self._arena: SharedBlockArena | None = None
        self.policy = policy
        if report is None and policy is not None:
            report = ExecutionReport()
        self.report = report

    @property
    def workers(self) -> int:
        """Requested parallelism; caps the effective process count."""
        return self._workers

    @property
    def processes(self) -> int:
        """Effective pool size; ``1`` means tasks run inline."""
        return self._processes

    @property
    def arena(self) -> SharedBlockArena | None:
        """The pool-owned shared-memory arena, if any block was shared."""
        return self._arena

    def share_block(self, block) -> BlockDescriptor:
        """Register ``block`` in the pool-owned arena; returns a descriptor.

        The arena lives as long as the pool: registration is idempotent
        per block object, so every sweep point of a figure that reuses
        one window allocates a single segment, warm workers keep their
        mapping across sweep points, and :meth:`close` unlinks
        everything. ``terminate`` (the supervisor's crash-restart
        primitive) deliberately leaves the arena alone — requeued chunks
        reattach in the rebuilt workers.
        """
        if self._arena is None:
            self._arena = SharedBlockArena()
        return self._arena.register(block)

    def _ensure_executor(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._executor is None:
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self._processes
            )
        return self._executor

    def warm(self) -> None:
        """Spawn the worker processes now instead of at first use."""
        if self._processes > 1:
            pool = self._ensure_executor()
            futures = [pool.submit(int, 0) for _ in range(self._processes)]
            for future in futures:
                future.result()

    def close(self) -> None:
        """Shut the pool down; it cannot be reused afterwards.

        Unlinks the pool-owned shared-memory arena after the workers are
        gone, so no ``/dev/shm`` segment outlives the pool.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        if self._arena is not None:
            self._arena.unlink()
            self._arena = None

    def terminate(self) -> None:
        """Kill the worker processes without waiting for running chunks.

        Unlike :meth:`close`, the pool stays usable — the next submission
        lazily builds a fresh executor. This is the restart primitive the
        supervisor uses after a crash or timeout, and the prompt-shutdown
        path when a dispatch aborts (a chunk error without a policy, or
        :class:`KeyboardInterrupt`).
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        # shutdown() alone joins the workers, which hangs forever on a hung
        # or signal-blocked chunk — so the processes are terminated first,
        # then the executor is shut down without waiting, then the corpses
        # are reaped.
        processes = list((getattr(executor, "_processes", None) or {}).values())
        for process in processes:
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead race
                pass
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - uninterruptible state
                    process.kill()
                    process.join(timeout=5.0)
            except Exception:  # pragma: no cover - already-reaped race
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


Workers = Union[int, WorkerPool]


def worker_count(workers: Workers) -> int:
    """The requested parallelism of an ``int`` or :class:`WorkerPool`."""
    if isinstance(workers, WorkerPool):
        return workers.workers
    check_positive_int(workers, "workers")
    return workers


def workers_metadata(workers: Workers) -> dict:
    """JSON-safe execution metadata for run results and bench records.

    Reports the *requested* parallelism (which fixes chunk layout and
    seeds) next to the *effective* process count the machine allowed, and —
    when ``workers`` is a supervised :class:`WorkerPool` whose report holds
    incidents — the structured resilience summary.
    """
    requested = worker_count(workers)
    if isinstance(workers, WorkerPool):
        effective = workers.processes
    else:
        effective = min(requested, os.cpu_count() or 1)
    meta: dict = {"workers_requested": requested, "workers_effective": effective}
    if isinstance(workers, WorkerPool) and workers.report:
        meta["resilience"] = workers.report.summary()
    return meta


@contextlib.contextmanager
def _opened(
    workers: Workers,
    policy: RetryPolicy | None,
    report: ExecutionReport | None,
) -> Iterator[Tuple[WorkerPool, RetryPolicy | None, ExecutionReport | None]]:
    """``(pool, policy, report)`` for one call.

    A :class:`WorkerPool` is used as is and left running; an ``int`` opens
    a private pool that is closed — unlinking its arena — when the call
    exits, including on :class:`KeyboardInterrupt`. A ``policy``/``report``
    passed to the call overrides the pool's; a policy without a report
    gets a fresh :class:`~repro.utils.resilience.ExecutionReport`.
    """
    if not isinstance(workers, WorkerPool):
        with WorkerPool(workers, policy=policy, report=report) as pool:
            yield pool, pool.policy, pool.report
        return
    if policy is None:
        policy = workers.policy
    if report is None:
        report = workers.report
    if policy is not None and report is None:
        report = ExecutionReport()
    yield workers, policy, report


def _inline_supervised(
    fn: Callable[..., Any],
    task: Tuple[Any, ...],
    index: int,
    total: int,
    policy: RetryPolicy | None,
    report: ExecutionReport | None,
) -> Any:
    """Run one chunk in-process, with bounded retries under a policy.

    Serves the single-process pool, chunks whose pooled retries are
    exhausted, and a sweep degraded to serial. Every attempt works on its
    own pickled copy of the arguments — process-pool semantics, so
    stateful task state (churn schedules, fault RNGs) is never shared
    across chunks and the merged result is identical to a real
    multi-process run. Without a policy the first failure raises.
    Timeouts cannot be enforced here — an in-process chunk is
    uninterruptible — so only exceptions are retried.
    """
    attempt = 1
    while True:
        try:
            return fn(*pickle.loads(pickle.dumps(task)))
        except Exception as error:
            if policy is None:
                error.add_note(
                    f"parallel_map: chunk {index}/{total} failed (inline)"
                )
                raise
            exhausted = attempt > policy.max_retries
            report.record(
                CHUNK_ERROR,
                f"chunk {index}",
                attempt=attempt,
                detail=f"{type(error).__name__}: {error}",
                resolution="failed" if exhausted else "retried",
            )
            if exhausted:
                error.add_note(
                    f"parallel_map: chunk {index}/{total} failed after "
                    f"{attempt} inline attempts"
                )
                raise
            policy.pause(attempt, key=index)
            attempt += 1


def _dispatch(
    fn: Callable[..., Any],
    tasks: Sequence[Tuple[Any, ...]],
    pool: WorkerPool,
    policy: RetryPolicy | None,
    report: ExecutionReport | None,
) -> List[Any]:
    """The one dispatch loop: submit, wait, collect in submission order.

    Without a policy every chunk is submitted at once and the first chunk
    error cancels the outstanding chunks and re-raises. With one,
    submission is bounded to the pool's process count so a chunk's
    wall-clock budget starts ticking when it actually starts running. A
    timed-out or crashed pool is killed and rebuilt (bounded by
    ``policy.max_pool_restarts``, after which the whole sweep degrades to
    serial in-process execution), and the affected chunks re-execute from
    their original argument tuples — same seeds, byte-identical results.
    Any exception leaving the loop — :class:`KeyboardInterrupt` included —
    kills the workers so nothing keeps running a doomed batch.
    """
    total = len(tasks)
    results: List[Any] = [None] * total
    if pool.processes == 1 or (report is not None and report.degraded_to_serial):
        for index, task in enumerate(tasks):
            results[index] = _inline_supervised(fn, task, index, total, policy, report)
        return results

    capacity = total if policy is None else pool.processes
    budget = None if policy is None else policy.timeout
    pending = deque((index, 1) for index in range(total))
    inflight: dict = {}  # future -> (index, attempt, deadline)

    def requeue_inflight(kind: str, detail: str) -> None:
        # A broken or hung pool dooms every in-flight chunk; harvest the
        # ones that finished cleanly before the break, then requeue the
        # rest ahead of untouched work, in index order, burning one attempt
        # each (the culprit is not reliably attributable to one future).
        doomed = []
        for future, (index, attempt, _) in inflight.items():
            if future.done():
                try:
                    results[index] = future.result(timeout=0)
                    continue
                except BaseException:
                    pass
            doomed.append((index, attempt))
        inflight.clear()
        for index, attempt in sorted(doomed):
            report.record(
                kind,
                f"chunk {index}",
                attempt=attempt,
                detail=detail,
                resolution="retried",
            )
        for index, attempt in sorted(doomed, reverse=True):
            pending.appendleft((index, attempt + 1))

    def restart_pool() -> None:
        pool.terminate()
        report.pool_restarts += 1
        if report.pool_restarts > policy.max_pool_restarts:
            report.degraded_to_serial = True

    try:
        while pending or inflight:
            if report is not None and report.degraded_to_serial:
                # The pool kept dying; finish everything left in-process.
                for index, _ in sorted(pending):
                    results[index] = _inline_supervised(
                        fn, tasks[index], index, total, policy, report
                    )
                pending.clear()
                break
            submit_broken = False
            while pending and len(inflight) < capacity:
                index, attempt = pending.popleft()
                if attempt > 1:
                    if attempt > policy.max_retries + 1:
                        # Pooled retries exhausted: degrade this chunk to inline.
                        results[index] = _inline_supervised(
                            fn, tasks[index], index, total, policy, report
                        )
                        continue
                    policy.pause(attempt - 1, key=index)
                deadline = None if budget is None else time.monotonic() + budget
                try:
                    future = pool._ensure_executor().submit(fn, *tasks[index])
                except BrokenProcessPool:
                    if policy is None:
                        raise
                    # The pool died between waits; this chunk never started,
                    # so it goes back at the same attempt.
                    pending.appendleft((index, attempt))
                    submit_broken = True
                    break
                inflight[future] = (index, attempt, deadline)
            if submit_broken:
                requeue_inflight(
                    WORKER_CRASH, "pool broke while chunk was in flight"
                )
                restart_pool()
                continue
            if not inflight:
                continue
            timeout = None
            deadlines = [meta[2] for meta in inflight.values() if meta[2] is not None]
            if deadlines:
                timeout = max(0.0, min(deadlines) - time.monotonic())
            finished, _ = concurrent.futures.wait(
                inflight,
                timeout=timeout,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            broken = False
            for future in finished:
                index, attempt, _ = inflight.pop(future)
                try:
                    results[index] = future.result()
                except Exception as error:
                    if policy is None:
                        error.add_note(
                            f"parallel_map: chunk {index}/{total} failed; "
                            "outstanding chunks cancelled"
                        )
                        raise
                    if isinstance(error, BrokenProcessPool):
                        broken = True
                        report.record(
                            WORKER_CRASH,
                            f"chunk {index}",
                            attempt=attempt,
                            detail="worker process died while chunk was in flight",
                            resolution="retried",
                        )
                        pending.appendleft((index, attempt + 1))
                        continue
                    exhausted = attempt > policy.max_retries
                    report.record(
                        CHUNK_ERROR,
                        f"chunk {index}",
                        attempt=attempt,
                        detail=f"{type(error).__name__}: {error}",
                        resolution="inline" if exhausted else "retried",
                    )
                    pending.append((index, attempt + 1))
            if broken:
                requeue_inflight(
                    WORKER_CRASH, "pool broke while chunk was in flight"
                )
                restart_pool()
                continue
            if budget is not None and inflight:
                now = time.monotonic()
                overdue = sorted(
                    meta
                    for meta in inflight.values()
                    if meta[2] is not None and now >= meta[2]
                )
                if overdue:
                    # A hung worker cannot be interrupted individually: kill
                    # the whole pool, charge the overdue chunks an attempt,
                    # and requeue the innocent bystanders unchanged.
                    overdue_keys = {(i, a) for i, a, _ in overdue}
                    survivors = sorted(
                        meta
                        for meta in inflight.values()
                        if (meta[0], meta[1]) not in overdue_keys
                    )
                    inflight.clear()
                    for index, attempt, _ in overdue:
                        report.record(
                            CHUNK_TIMEOUT,
                            f"chunk {index}",
                            attempt=attempt,
                            detail=f"exceeded {budget:g}s wall-clock budget",
                            resolution="retried",
                        )
                    for index, attempt, _ in reversed(survivors):
                        pending.appendleft((index, attempt))
                    for index, attempt, _ in reversed(overdue):
                        pending.appendleft((index, attempt + 1))
                    restart_pool()
        return results
    except BaseException:
        for future in inflight:
            future.cancel()
        pool.terminate()
        raise


def parallel_map(
    fn: Callable[..., Any],
    tasks: Sequence[Tuple[Any, ...]],
    workers: Workers,
    *,
    policy: RetryPolicy | None = None,
    report: ExecutionReport | None = None,
) -> List[Any]:
    """Apply ``fn`` to argument tuples on a process pool; ordered results.

    ``workers`` is either an ``int`` (a private :class:`WorkerPool` is
    opened for this call and closed afterwards) or a :class:`WorkerPool`
    (reused and left running). Either way the *effective* process count
    is capped at the machine's CPU count, and an effective count of one
    runs inline. ``fn`` and every argument must be picklable.

    With a :class:`~repro.utils.resilience.RetryPolicy` (passed here or
    carried by the pool), dispatch is *supervised*: per-chunk wall-clock
    timeouts, crash detection with pool rebuilds, bounded seed-exact
    retries, and incident rows on ``report``. Without one, a chunk failure
    cancels the outstanding chunks and re-raises with the failing chunk
    index attached as a note. Either way :class:`KeyboardInterrupt`
    terminates the workers promptly instead of hanging on shutdown.
    """
    with _opened(workers, policy, report) as (pool, policy, report):
        return _dispatch(fn, tasks, pool, policy, report)


class _ChunkPayload(NamedTuple):
    """A chunk result plus the JSON-safe incident rows recorded computing it.

    The chunk runner returns this envelope so degradation events that
    happened inside a worker process survive the trip back to the parent,
    where the planner unwraps the result and feeds the rows into the
    sweep's :class:`~repro.utils.resilience.ExecutionReport`.
    """

    result: Any
    events: List[dict]


def _unwrap_chunk(part: _ChunkPayload, report: ExecutionReport | None) -> Any:
    if report is not None and part.events:
        report.extend(part.events)
    return part.result


def _supports_keyword(fn: Callable[..., Any], name: str) -> bool:
    try:
        return name in inspect.signature(fn).parameters
    except (TypeError, ValueError):  # pragma: no cover - C callables
        return False


def _degradation_rungs(
    batch_fn: Callable[..., Any], kwargs: dict
) -> List[Tuple[str, dict]]:
    """The per-chunk ladder: as requested → kernel off.

    The ``kernel=False`` rung is offered only when the batch function
    understands the knob and the caller has not already pinned it off;
    otherwise the ladder has a single rung, i.e. no degradation.
    """
    rungs = [("requested configuration", dict(kwargs))]
    if kwargs.get("kernel") is not False and _supports_keyword(batch_fn, "kernel"):
        rungs.append(("kernel=False", dict(kwargs, kernel=False)))
    return rungs


def _run_chunk_with_ladder(
    batch_fn: Callable[..., Any],
    where: str,
    kwargs: dict,
    call: Callable[[dict], Any],
) -> _ChunkPayload:
    """Run one chunk, degrading kernel → object loop on failure.

    ``call(rung_kwargs)`` must rebuild every piece of chunk state (the
    generator, the event cursor) from the chunk seed, so each rung
    re-executes from scratch and a degraded rung's outcome is byte-identical
    to a clean run of that rung — which is itself byte-identical to the
    kernel path by the dispatch-equivalence contract. Only the last rung's
    failure propagates (and is then subject to the supervisor's retries).
    """
    rungs = _degradation_rungs(batch_fn, kwargs)
    events: List[dict] = []
    for k, (label, rung_kwargs) in enumerate(rungs):
        try:
            return _ChunkPayload(call(rung_kwargs), events)
        except Exception as error:
            if k + 1 == len(rungs):
                raise
            events.append(
                ResilienceEvent(
                    kind=KERNEL_FALLBACK,
                    where=where,
                    attempt=k + 1,
                    detail=(
                        f"{type(error).__name__}: {error} under {label}; "
                        f"degrading to {rungs[k + 1][0]}"
                    ),
                    resolution="degraded",
                ).to_dict()
            )
    raise AssertionError("unreachable")  # pragma: no cover


def _run_chunk(
    fn: Callable[..., Any],
    size_keyword: str,
    size: int,
    seed_seq: np.random.SeedSequence,
    events_descriptor: BlockDescriptor | None,
    kwargs: dict,
) -> _ChunkPayload:
    """One chunk of any ``run_parallel_*`` call (module-level for pickling).

    Calls ``fn(<size_keyword>=size, rng=<chunk generator>, **kwargs)``
    through the degradation ladder. With an ``events_descriptor`` the
    shared :class:`EventBlock` is reattached once and replayed through a
    fresh :class:`ColumnarEventSource` per rung, since a partially
    consumed cursor must never be reused.
    """
    block = None if events_descriptor is None else attach_block(events_descriptor)

    def call(rung_kwargs: dict) -> Any:
        if block is not None:
            rung_kwargs = dict(rung_kwargs, events=ColumnarEventSource(block))
        return fn(
            **{size_keyword: size},
            rng=np.random.default_rng(seed_seq),
            **rung_kwargs,
        )

    return _run_chunk_with_ladder(
        fn, getattr(fn, "__name__", "chunk"), kwargs, call
    )


def _run_chunked(
    fn: Callable[..., Any],
    size_keyword: str,
    total: int,
    workers: Workers,
    rng: RandomSource,
    chunks: int | None,
    shared_events: EventBlock | None,
    policy: RetryPolicy | None,
    report: ExecutionReport | None,
    kwargs: dict,
    merge: Callable[[List[int], List[Any]], Any],
) -> Any:
    """The planner behind every ``run_parallel_*`` entry point.

    ``workers == 1`` calls ``fn`` once with the caller's generator and
    returns its result untouched — no chunking, no merge arithmetic — so
    the serial figures stay byte-identical. Otherwise ``total`` is split
    by :func:`chunk_sizes`, every chunk gets a spawned seed, the optional
    ``shared_events`` block is registered in the pool's arena, and
    ``merge(sizes, results)`` combines the per-chunk results, which
    arrive in chunk order.
    """
    if worker_count(workers) == 1:
        if shared_events is not None:
            kwargs = dict(kwargs, events=shared_events)
        return fn(**{size_keyword: total}, rng=rng, **kwargs)
    if shared_events is not None and not isinstance(shared_events, EventBlock):
        raise TypeError(
            f"shared_events must be an EventBlock, got "
            f"{type(shared_events).__name__}"
        )
    sizes = chunk_sizes(
        total, chunks if chunks is not None else default_chunk_count(total)
    )
    seeds = spawn_chunk_seeds(rng, len(sizes))
    with _opened(workers, policy, report) as (pool, policy, report):
        descriptor = (
            None if shared_events is None else pool.share_block(shared_events)
        )
        tasks = [
            (fn, size_keyword, size, seed, descriptor, kwargs)
            for size, seed in zip(sizes, seeds)
        ]
        parts = _dispatch(_run_chunk, tasks, pool, policy, report)
        results = [_unwrap_chunk(part, report) for part in parts]
    return merge(sizes, results)


def run_parallel_fused_sweep(
    sweep_fn: Callable[..., list],
    variants: Sequence[Any],
    sessions_per_variant: int,
    workers: Workers,
    rng: RandomSource = None,
    chunks: int | None = None,
    shared_events: EventBlock | None = None,
    policy: RetryPolicy | None = None,
    report: ExecutionReport | None = None,
    **kwargs: Any,
) -> list:
    """Run a fused parameter-grid sweep split across ``workers`` processes.

    Parameters
    ----------
    sweep_fn:
        A fused sweep runner taking ``variants=``, ``sessions_per_variant=``
        and ``rng=`` keywords and returning one outcome list per variant —
        :func:`~repro.experiments.runners.run_fused_graph_sweep` or
        :func:`~repro.experiments.runners.run_fused_trace_sweep`. Each chunk
        runs its share of the per-variant sessions for *every* variant, so
        the shared-window fusion happens inside every chunk.
    sessions_per_variant:
        Sessions per variant across all chunks.
    workers:
        Requested parallelism: an ``int`` (a private pool for this call)
        or a persistent :class:`WorkerPool`. ``1`` calls ``sweep_fn``
        directly with ``rng`` (seed-exact with the serial path — which is
        why ``workers=1`` is the one configuration whose outcomes differ
        from the chunked runs: the serial path consumes the caller's
        generator itself, while chunks draw from ``SeedSequence.spawn``
        children; both are equally valid samples of the same
        distribution).
    rng:
        Master seed source; chunk streams are spawned from it.
    chunks:
        Number of chunks. Defaults to :func:`default_chunk_count`, a pure
        function of ``sessions_per_variant`` — so the merged outcome is
        byte-identical for every ``workers ≥ 2``; more chunks smooth load
        imbalance at the cost of more per-chunk setup.
    shared_events:
        Optional pre-generated :class:`EventBlock` shipped to every chunk
        as ``events=`` through the pool's shared-memory arena — chunks
        reattach it zero-copy. Graph sweeps only (trace sweeps replay the
        trace themselves); without it each chunk samples its own stream
        from the chunk seed.
    policy / report:
        Optional :class:`~repro.utils.resilience.RetryPolicy` and
        :class:`~repro.utils.resilience.ExecutionReport` for supervised
        dispatch; defaults are adopted from ``workers`` when it is a
        supervised :class:`WorkerPool`. Chunk-level degradation events
        (kernel → object loop) recorded inside workers are merged
        into the report.
    **kwargs:
        Forwarded to every ``sweep_fn`` call — the workload, and knobs
        such as ``kernel=`` or ``backend=`` (backends travel by *name*,
        so each worker resolves its own instance).

    The per-variant lists are concatenated in chunk order, so the merged
    result is deterministic for a fixed master seed and — because the
    default chunk layout depends only on ``sessions_per_variant`` —
    identical for every requested worker count ≥ 2, regardless of the
    effective pool size or completion order.
    """
    variants = list(variants)

    def merge(_sizes: List[int], parts: List[list]) -> list:
        merged: list = [[] for _ in variants]
        for part in parts:
            if len(part) != len(merged):
                raise ValueError(
                    f"fused sweep chunk returned {len(part)} variant lists "
                    f"(expected {len(merged)})"
                )
            for variant_results, chunk_results in zip(merged, part):
                variant_results.extend(chunk_results)
        return merged

    return _run_chunked(
        sweep_fn, "sessions_per_variant", sessions_per_variant, workers, rng,
        chunks, shared_events, policy, report,
        dict(kwargs, variants=variants), merge,
    )


def run_parallel_montecarlo(
    mc_fn: Callable[..., Tuple[float, ...]],
    trials: int,
    workers: Workers,
    rng: RandomSource = None,
    chunks: int | None = None,
    policy: RetryPolicy | None = None,
    report: ExecutionReport | None = None,
    **kwargs: Any,
) -> Tuple[float, ...]:
    """Parallel trial-mean estimator for Monte Carlo runners.

    ``mc_fn`` (e.g. :func:`~repro.experiments.runners.security_montecarlo`)
    must take ``trials=`` / ``rng=`` keywords and return a non-empty tuple
    of per-trial means, the same width for every chunk; chunk results are
    merged as a trial-count-weighted average, so the estimate is unbiased
    for any chunking. Malformed chunk results (empty, or width-mismatched)
    raise :class:`ValueError` instead of crashing the merge. ``rng``,
    ``chunks``, ``policy``/``report`` and ``**kwargs`` follow the
    :func:`run_parallel_fused_sweep` conventions.
    """

    def merge(sizes: List[int], results: List[Tuple[float, ...]]) -> Tuple[float, ...]:
        width = None
        for index, values in enumerate(results):
            if width is None:
                width = len(values)
            if len(values) == 0 or len(values) != width:
                raise ValueError(
                    f"montecarlo chunk {index} returned {len(values)} estimates "
                    f"(expected {width or 'at least one'}): "
                    f"{getattr(mc_fn, '__name__', mc_fn)!r} must return one "
                    "fixed-width non-empty tuple per chunk"
                )
        totals = np.zeros(width)
        for size, values in zip(sizes, results):
            totals += np.asarray(values, dtype=float) * size
        merged = totals / sum(sizes)
        return tuple(float(v) for v in merged)

    return _run_chunked(
        mc_fn, "trials", trials, workers, rng, chunks, None, policy, report,
        kwargs, merge,
    )
