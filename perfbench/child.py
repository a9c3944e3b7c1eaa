"""One repetition of one workload, in a fresh process.

Started by ``run.py``; prints one JSON object on its last stdout line.
Modes:

* ``plain``: set up, run the body once, check its output (tracing off);
* ``traced``: the same with the layer wrappers installed after set-up;
* ``tracemalloc``: the body under ``tracemalloc`` (bytes per session);
* ``setup``: set up and tear down only (an extra ``setup_s`` sample);
* ``calibrate``: time :func:`calibrate` only, without importing the
  program, so nothing the program does can change the figure.

``--t0`` is the parent's ``time.perf_counter()`` just before it started
this process (``CLOCK_MONOTONIC``, shared by both processes), so
``setup_s`` includes interpreter start-up. ``--workers N`` starts and
warms a ``WorkerPool(N)`` during set-up and runs the body through it.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import platform
import resource
import sys
import time
import tracemalloc


CAL_ROUNDS = 20


def calibrate(rounds: int) -> float:
    """Wall seconds per round of a fixed mix of interpreter and numpy work.

    The host's speed drifts by tens of percent within seconds (other
    tenants share its cores). The harness times this fixed kernel in a
    process of its own between every two children, and rescales each
    child's timings by the calibrations on either side of it.
    """
    import numpy as np

    data = np.random.default_rng(0).random(100_000)
    start = time.perf_counter()
    for _ in range(rounds):
        table: dict = {}
        for i in range(100_000):
            key = i % 997
            table[key] = table.get(key, 0) + i
        for _ in range(4):
            np.sort(data)
    return (time.perf_counter() - start) / rounds


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--t0", type=float)
    parser.add_argument(
        "--mode", choices=("plain", "traced", "tracemalloc", "setup", "calibrate"), default="plain"
    )
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    if args.mode == "calibrate":
        print(json.dumps({"cal_round_s": calibrate(CAL_ROUNDS)}))
        return 0

    from layers import engine_target, targets
    from spans import SpanRecorder, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    start = time.perf_counter()
    importlib.import_module(workload.entry)
    import_s = time.perf_counter() - start
    import_modules = len(sys.modules)

    spec = workload.spec(args.seed)
    tally: dict = {}
    ctx = {"tally": tally, "pool": None}
    extras = {"import_s": import_s, "import_modules": import_modules}
    children_cpu0 = _cpu(resource.RUSAGE_CHILDREN)
    if args.workers:
        from repro.experiments.parallel import WorkerPool
        from repro.utils.resilience import RetryPolicy

        start = time.perf_counter()
        ctx["pool"] = WorkerPool(args.workers, policy=RetryPolicy())
        ctx["pool"].warm()
        extras["pool_start_s"] = time.perf_counter() - start
    setup_s = time.perf_counter() - args.t0

    record = {"mode": args.mode, "setup_s": setup_s, **extras}
    outcome = recorder = None
    if args.mode != "setup":
        # Untraced runs install the engine counters only, as wrappers that
        # open no spans; the traced run wraps every layer.
        if args.mode == "traced":
            recorder = SpanRecorder()
            tracer = Tracer(recorder)
            tracer.install(targets(tally))
            span = lambda name: recorder.span(name, "experiments", "figure")  # noqa: E731
            root = recorder.span("run", "run")
        else:
            tracer = Tracer()
            tracer.install([engine_target(tally)])
            span = lambda name: contextlib.nullcontext()  # noqa: E731
            root = contextlib.nullcontext()
        if args.mode == "tracemalloc":
            tracemalloc.start()
        cpu0 = _cpu(resource.RUSAGE_SELF)
        start = time.perf_counter()
        with root:
            outcome = workload.body(spec, ctx, span)
        record["run_s"] = time.perf_counter() - start
        record["parent_cpu_s"] = _cpu(resource.RUSAGE_SELF) - cpu0
        if args.mode == "tracemalloc":
            record["tracemalloc_peak"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        tracer.uninstall()

    pool = ctx["pool"]
    if pool is not None:
        from repro.experiments.shm import leaked_arena_segments

        pool.close()
        record["leaked_segments"] = len(leaked_arena_segments())
        record["retries"] = pool.report.retries if pool.report is not None else 0
        record["incidents"] = len(pool.report) if pool.report is not None else 0
        record["worker_cpu_s"] = _cpu(resource.RUSAGE_CHILDREN) - children_cpu0
        if outcome is not None:
            # Incidents the body already saw in the figure's metadata count once.
            unseen = record["incidents"] - outcome.metadata_events
            if unseen > 0:
                outcome.fail(unseen, f"{unseen} WorkerPool.report incidents")
            if record["leaked_segments"]:
                outcome.fail(record["leaked_segments"], "leaked shared-memory segments")

    from repro.sim.backend import resolve_backend

    import numpy
    import scipy

    record["backend"] = resolve_backend(None).name
    record["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record["peak_rss_mb"] = (self_rss + children_rss) / 1024.0
    if outcome is not None:
        record.update(
            attempted=outcome.attempted,
            failed=outcome.failed,
            unit=outcome.unit,
            failures=outcome.failures,
            checks=outcome.checks,
            digest=outcome.digest,
            sessions=outcome.attempted if outcome.unit == "sessions" else None,
        )
    record["engine"] = tally
    if recorder is not None:
        from layers import derive

        record["layers"] = derive(recorder.spans, record["run_s"], {**extras, **record})
        record["span_count"] = len(recorder.spans)
        if args.spans_out:
            with open(args.spans_out, "w") as handle:
                json.dump({"run_id": recorder.run_id, "spans": recorder.to_records()}, handle)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
