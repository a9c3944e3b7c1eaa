"""The program's layers as the traced run sees them, and the per-layer
metrics derived from their spans.

``targets()`` lists the public callables of each layer in ``src/repro``
that the traced run wraps. ``METRICS`` names every per-layer metric, its
unit, which direction is better, and — under ``moves`` — the end-to-end
metric and workload a change to that layer should move. ``derive()``
turns one traced repetition's spans into those metrics.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from spans import Span, Target, outermost, self_times

LAYERS = ("contacts", "core", "sim", "adversary", "analysis", "faults", "ipc", "experiments")

FIGURE_KEYS = tuple(str(k) for k in range(4, 20)) + ("e1", "e2", "r1", "r2")


def _metric(name, unit, better, moves):
    return {"name": name, "unit": unit, "better": better, "moves": moves}


# The IPC layer runs only with a pool: delivery-sweep's traced run adds a
# pass of its inputs through WorkerPool(2), whose times no gated
# end-to-end metric contains.
_POOLED = "ipc.pooled_run_s on delivery-sweep"

METRICS: List[dict] = [
    _metric("import.s", "s", "lower", "setup_s on every workload, most on figures"),
    _metric("import.modules", "count", "lower", "setup_s on every workload, most on figures"),
    _metric("contacts.gen_s", "s", "lower", "run_s on figures; no change on delivery-sweep"),
    _metric("contacts.events", "count", "lower", "run_s on figures; no change on delivery-sweep"),
    _metric("contacts.events_used_ratio", "ratio", "higher", "run_s on figures; no change on delivery-sweep"),
    _metric("contacts.graph_s", "s", "lower", "run_s on figures"),
    _metric("core.session_setup_s", "s", "lower", "run_s on delivery-sweep"),
    _metric("core.sessions", "count", "higher", "run_s on delivery-sweep"),
    _metric("core.bytes_per_session", "B", "lower", "peak_rss_mb on delivery-sweep"),
    _metric("sim.engine_s", "s", "lower", "run_s on figures"),
    _metric("sim.dispatch_s", "s", "lower", "run_s on figures"),
    _metric("sim.kernel_s", "s", "lower", "run_s on delivery-sweep"),
    _metric("sim.backend_op_s", "s", "lower", "run_s on delivery-sweep"),
    _metric("sim.replay_s", "s", "lower", "run_s on delivery-sweep"),
    _metric("sim.scalar_dispatches", "count", "lower", "run_s on delivery-sweep"),
    _metric("sim.kernel_session_frac", "ratio", "higher", "run_s on delivery-sweep and figures"),
    _metric("sim.fallbacks", "count", "lower", "failed_frac on every workload"),
    _metric("adversary.sample_s", "s", "lower", "run_s on security-sweep"),
    _metric("adversary.mask_s", "s", "lower", "run_s on security-sweep"),
    _metric("adversary.score_s", "s", "lower", "run_s on security-sweep"),
    _metric("adversary.trial_scores", "count", "higher", "run_s on security-sweep"),
    _metric("adversary.mask_reuse_ratio", "ratio", "higher", "run_s on security-sweep"),
    _metric("adversary.mask_bytes", "B", "lower", "run_s on security-sweep"),
    _metric("analysis.curve_s", "s", "lower", "run_s on delivery-sweep"),
    _metric("analysis.cdf_calls", "count", "lower", "run_s on delivery-sweep"),
    _metric("faults.gen_s", "s", "lower", "run_s on figures"),
]
METRICS += [
    _metric(f"figures.{key}_s", "s", "lower", "run_s on figures")
    for key in FIGURE_KEYS
]
METRICS += [
    _metric("ipc.pool_start_s", "s", "lower", "set-up of delivery-sweep's pooled pass; no gated metric"),
    _metric("ipc.pooled_run_s", "s", "lower", "none gated: run_s of delivery-sweep's pooled pass"),
    _metric("ipc.share_s", "s", "lower", _POOLED),
    _metric("ipc.wait_s", "s", "lower", _POOLED),
    _metric("ipc.parent_cpu_s", "s", "lower", _POOLED),
    _metric("ipc.worker_cpu_s", "s", "lower", _POOLED),
    _metric("ipc.efficiency", "ratio", "higher", _POOLED),
    _metric("ipc.retries", "count", "lower", "failed_frac of delivery-sweep's pooled pass"),
    _metric("ipc.leaked_segments", "count", "lower", "failed_frac of delivery-sweep's pooled pass"),
    _metric("ipc.tracker_errors", "count", "lower", "failed_frac of delivery-sweep's pooled pass"),
]
METRICS += [
    _metric(f"{layer}.self_s", "s", "lower", "run_s on the workloads that use the layer")
    for layer in LAYERS
]
METRICS += [
    _metric("trace.other_s", "s", "lower", "run_s: time no layer span covers"),
    _metric("trace.run_s", "s", "lower", "run_s, traced (the repetition these layers come from)"),
    _metric("trace.overhead_s", "s", "lower", "none: traced run_s minus untraced run_s, both rescaled"),
    _metric("trace.reconcile_frac", "ratio", "lower", "none: |layer self times + other_s - run_s| / run_s"),
    _metric("wall.setup_s", "s", "lower", "setup_s: its raw wall median, before rescaling"),
    _metric("wall.run_s", "s", "lower", "run_s: its raw wall median, before rescaling"),
]

# Per-layer metrics that the spans of a workload cannot supply, with why.
NOT_MEASURED = {
    "core.bytes_per_session": "measured by a tracemalloc pass on delivery-sweep only "
    "(0 elsewhere: the pass would multiply the run time of the larger bodies)",
    "ipc.*": "on delivery-sweep, taken from a pass of its inputs through WorkerPool(2); on "
    "the other workloads, from their serial run (no pool: pool start, share, worker CPU, "
    "pooled run and efficiency are 0); parent side only, spans inside workers are not recorded",
    "sim.fallbacks": "engine fallback events of the benchmark's own process only; fallbacks "
    "inside pool workers reach it as WorkerPool.report incidents, counted in failed_frac",
}


# ----------------------------------------------------------------------
# wrap targets


# What SimulationEngine.run changed, summed over a run. The same hooks
# feed the traced spans and the untraced runs' failure accounting.
ENGINE_COUNTERS = (
    "events_processed",
    "kernel_sessions",
    "dispatched_sessions",
    "fallbacks",
    "quarantined",
    "scalar_dispatches",
)


def engine_target(tally: Dict[str, int]) -> Target:
    """``SimulationEngine.run``, adding what each call changed to ``tally``
    (and to its span's counters when traced)."""

    def before(args, kwargs):
        engine = args[0]
        return (
            engine.events_processed,
            engine.dispatch_mode_counts,
            len(engine.fallback_events),
            len(engine.quarantined),
        )

    def after(span, args, kwargs, result, state):
        engine = args[0]
        processed, modes, fallbacks, quarantined = state
        now = engine.dispatch_mode_counts
        delta = {key: now.get(key, 0) - modes.get(key, 0) for key in now}
        counters = dict(
            events_processed=engine.events_processed - processed,
            kernel_sessions=sum(v for k, v in delta.items() if k.startswith("kernel")),
            dispatched_sessions=sum(delta.values()),
            fallbacks=len(engine.fallback_events) - fallbacks,
            quarantined=len(engine.quarantined) - quarantined,
            scalar_dispatches=sum(
                stats.get("scalar_dispatches", 0) for stats in engine.kernel_stats
            ),
        )
        for key, value in counters.items():
            tally[key] = tally.get(key, 0) + value
        if span is not None:
            span.counters.update(counters)

    return Target("repro.sim.engine:SimulationEngine.run", "sim", "engine", before=before, after=after)


def _block_events(span, args, kwargs, result, state):
    span.counters["events"] = len(result)


def _mask_cells(span, args, kwargs, result, state):
    keys = args[1] if len(args) > 1 else kwargs["keys"]
    span.counters["cells"] = int(keys.size)


def _scored_trials(span, args, kwargs, result, state):
    span.counters["trials"] = len(result[0])


def targets(tally: Dict[str, int]) -> List[Target]:
    """Every wrapped callable: its layer and the kind its time counts as.
    ``tally`` receives the engine counters (see :func:`engine_target`)."""
    from repro.sim.backend import BACKENDS

    out = [
        # contacts: event producers and graph/trace builders
        Target("repro.contacts.events:ExponentialContactProcess.events_until", "contacts", "gen", lazy=True),
        Target("repro.contacts.events:ExponentialContactProcess.events_until_columnar", "contacts", "gen", after=_block_events),
        Target("repro.contacts.events:TraceReplayProcess.events_until", "contacts", "gen", lazy=True),
        Target("repro.contacts.events:TraceReplayProcess.events_until_columnar", "contacts", "gen", after=_block_events),
        Target("repro.contacts.events:stream_event_blocks", "contacts", "stream", lazy=True),
        Target("repro.contacts.random_graph:random_contact_graph", "contacts", "graph"),
        Target("repro.contacts.synthetic:cambridge_like_trace", "contacts", "graph"),
        Target("repro.contacts.synthetic:infocom05_like_trace", "contacts", "graph"),
        # faults: churn / fail-stop / impairment producers and schedules
        Target("repro.faults.churn:FaultFilteredContactProcess.events_until", "faults", "gen", lazy=True),
        Target("repro.faults.churn:NodeChurnSchedule.__init__", "faults", "gen"),
        Target("repro.faults.churn:churned_graph", "faults", "gen"),
        Target("repro.faults.failstop:FailStopSchedule.__init__", "faults", "gen"),
        Target("repro.contacts.impairments:ThinnedContactProcess.events_until", "faults", "gen", lazy=True),
        Target("repro.contacts.impairments:JitteredContactProcess.events_until", "faults", "gen", lazy=True),
        # core: endpoint sampling, route selection, session constructors
        Target("repro.experiments.runners:sample_endpoints", "core", "setup"),
        Target("repro.experiments.runners:select_overlapping_route", "core", "setup"),
        Target("repro.core.onion_groups:OnionGroupDirectory.select_route", "core", "setup"),
        Target("repro.core.single_copy:SingleCopySession.__init__", "core", "session"),
        Target("repro.core.multi_copy:MultiCopySession.__init__", "core", "session"),
        Target("repro.core.arden:ArdenSingleCopySession.__init__", "core", "session"),
        Target("repro.routing.epidemic:EpidemicSession.__init__", "core", "session"),
        Target("repro.routing.spray_and_wait:SprayAndWaitSession.__init__", "core", "session"),
        Target("repro.routing.direct:DirectDeliverySession.__init__", "core", "session"),
        # sim: engine, kernels, backend ops
        engine_target(tally),
        Target("repro.sim.kernel:BatchKernel.run", "sim", "kernel"),
        Target("repro.sim.kernel:MultiCopyBatchKernel.run", "sim", "kernel"),
        # adversary: block sampling, masks, scoring
        Target("repro.adversary.kernel:sample_security_block", "adversary", "sample"),
        Target("repro.adversary.compromise:CompromiseModel.mask_from_keys", "adversary", "mask", after=_mask_cells),
        Target("repro.adversary.compromise:BernoulliCompromise.mask_from_keys", "adversary", "mask", after=_mask_cells),
        Target("repro.adversary.kernel:SecurityBatchKernel.score_variant", "adversary", "score", after=_scored_trials),
        # analysis: the Eq. 6/7 curve and the hypoexponential CDF
        Target("repro.experiments.runners:analysis_delivery_curve", "analysis", "curve"),
        Target("repro.analysis.hypoexponential:Hypoexponential.cdf", "analysis", "cdf"),
        # ipc (parent side): block sharing and the fused parallel sweep
        Target("repro.experiments.parallel:WorkerPool.share_block", "ipc", "share"),
        Target("repro.experiments.parallel:run_parallel_fused_sweep", "ipc", "sweep"),
        Target("repro.experiments.shm:leaked_arena_segments", "ipc", "leak"),
    ]
    ops = {
        "single_next_events": ("sim", "backend_op"),
        "single_trajectories": ("sim", "backend_op"),
        "multi_next_events": ("sim", "backend_op"),
        "smallest_k_mask": ("adversary", "mask_op"),
        "security_scores": ("adversary", "score_op"),
        "run_length_square_sums": ("adversary", "score_op"),
    }
    for cls in BACKENDS.values():
        for op, (layer, kind) in ops.items():
            if op in vars(cls):
                out.append(Target(f"{cls.__module__}:{cls.__name__}.{op}", layer, kind))
    return out


# ----------------------------------------------------------------------
# derivation


def derive(spans: Iterable[Span], run_s: float, extras: Optional[dict] = None) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``spans`` must hold exactly one root span (layer ``run``) around the
    workload body; ``run_s`` is the body wall time measured outside it.
    ``extras`` carries what spans cannot: import and pool start-up times,
    CPU times, tracemalloc bytes, leaked segments and tracker errors.
    """
    spans = list(spans)
    extras = extras or {}
    own = self_times(spans)

    def self_of(layer: str, *kinds: str) -> float:
        return sum(
            own[s.id] for s in spans if s.layer == layer and (not kinds or s.kind in kinds)
        )

    def total(layer: str, kind: str, counter: str) -> float:
        return sum(s.counters.get(counter, 0) for s in spans if s.layer == layer and s.kind == kind)

    def where(layer: str, kind: str):
        return lambda s: True if s.layer == layer and s.kind == kind else None

    def inclusive(layer: str, kind: str) -> float:
        return sum(s.duration for s in outermost(spans, where(layer, kind)))

    roots = [s for s in spans if s.layer == "run"]
    if len(roots) != 1:
        raise ValueError(f"expected one root span, got {len(roots)}")
    other = own[roots[0].id]

    # Base producers only: wrappers (churn filters, stream windows) pass
    # the same events on and would count them twice.
    generated = sum(
        s.counters.get("items", 0) + s.counters.get("events", 0)
        for s in spans
        if s.layer == "contacts" and s.kind == "gen"
    )
    processed = total("sim", "engine", "events_processed")
    dispatched = total("sim", "engine", "dispatched_sessions")
    sessions = outermost(spans, where("core", "session"))
    masks = outermost(spans, where("adversary", "mask"))
    scored = [s for s in spans if s.layer == "adversary" and s.kind == "score"]

    metrics: Dict[str, float] = {
        "import.s": extras.get("import_s", 0.0),
        "import.modules": extras.get("import_modules", 0),
        "contacts.gen_s": self_of("contacts", "gen", "stream"),
        "contacts.events": generated,
        "contacts.events_used_ratio": processed / generated if generated else 0.0,
        "contacts.graph_s": self_of("contacts", "graph"),
        "core.session_setup_s": self_of("core"),
        "core.sessions": len(sessions),
        "core.bytes_per_session": extras.get("bytes_per_session", 0.0),
        "sim.engine_s": inclusive("sim", "engine"),
        "sim.dispatch_s": self_of("sim", "engine"),
        "sim.kernel_s": inclusive("sim", "kernel"),
        "sim.backend_op_s": self_of("sim", "backend_op"),
        "sim.replay_s": self_of("sim", "kernel"),
        "sim.scalar_dispatches": total("sim", "engine", "scalar_dispatches"),
        "sim.kernel_session_frac": (
            total("sim", "engine", "kernel_sessions") / dispatched if dispatched else 0.0
        ),
        "sim.fallbacks": total("sim", "engine", "fallbacks"),
        "adversary.sample_s": self_of("adversary", "sample"),
        "adversary.mask_s": self_of("adversary", "mask", "mask_op"),
        "adversary.score_s": self_of("adversary", "score", "score_op"),
        "adversary.trial_scores": sum(s.counters.get("trials", 0) for s in scored),
        "adversary.mask_reuse_ratio": 1.0 - len(masks) / len(scored) if scored else 0.0,
        "adversary.mask_bytes": sum(s.counters.get("cells", 0) for s in masks) * 8,
        "analysis.curve_s": self_of("analysis"),
        "analysis.cdf_calls": sum(1 for s in spans if s.layer == "analysis" and s.kind == "cdf"),
        "faults.gen_s": self_of("faults"),
    }
    for key in FIGURE_KEYS:
        metrics[f"figures.{key}_s"] = sum(
            s.duration for s in spans if s.layer == "experiments" and s.name == f"figure {key}"
        )
    metrics.update(
        {
            "ipc.pool_start_s": extras.get("pool_start_s", 0.0),
            "ipc.share_s": self_of("ipc", "share"),
            "ipc.wait_s": self_of("ipc", "sweep"),
            "ipc.parent_cpu_s": extras.get("parent_cpu_s", 0.0),
            "ipc.worker_cpu_s": extras.get("worker_cpu_s", 0.0),
            "ipc.efficiency": extras.get("efficiency", 0.0),
            "ipc.retries": extras.get("retries", 0),
            "ipc.leaked_segments": extras.get("leaked_segments", 0),
            "ipc.tracker_errors": extras.get("tracker_errors", 0),
        }
    )
    layer_self = {layer: self_of(layer) for layer in LAYERS}
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_s"] = seconds
    accounted = sum(layer_self.values()) + other
    metrics["trace.other_s"] = other
    metrics["trace.run_s"] = run_s
    metrics["trace.overhead_s"] = extras.get("overhead_s", 0.0)
    metrics["trace.reconcile_frac"] = abs(accounted - run_s) / run_s if run_s else 0.0
    return metrics
