"""Shared experiment machinery: batched simulations and model curves.

The paper's methodology (§V-A): generate a contact graph, pick random
source/destination pairs plus onion routes, simulate the protocol, and
compare the averaged simulation metrics with the numerical models evaluated
on the same realisations. Batching many sessions over one event stream
keeps the discrete-event cost amortised.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.adversary.compromise import (
    CompromiseModel,
    TargetedCompromise,
    StakeWeightedCompromise,
    make_compromise_model,
)
from repro.adversary.dropping import DroppingRelays
from repro.adversary.kernel import (
    SecurityBatchKernel,
    SecuritySweepVariant,
    SecurityTrialBlock,
    sample_security_block,
)
from repro.adversary.observer import observed_path_anonymity
from repro.adversary.tracer import PathTracer
from repro.analysis.delivery import onion_path_rates
from repro.analysis.hypoexponential import Hypoexponential
from repro.contacts.events import (
    ExponentialContactProcess,
    TraceReplayProcess,
    as_event_source,
)
from repro.contacts.graph import ContactGraph
from repro.contacts.intercontact import estimate_rates_from_trace
from repro.contacts.traces import ContactTrace
from repro.core.multi_copy import MultiCopySession, SprayPolicy
from repro.core.onion_groups import OnionGroupDirectory
from repro.core.route import OnionRoute
from repro.core.single_copy import SingleCopySession
from repro.experiments.config import DEFAULT_CONFIG
from repro.experiments.parallel import (
    Workers,
    run_parallel_fused_sweep,
    worker_count,
)
from repro.faults.churn import NodeChurnProcess, NodeChurnSchedule
from repro.faults.failstop import FailStopContactProcess, FailStopSchedule
from repro.faults.recovery import FaultPlan, RecoveryPolicy
from repro.sim.engine import SimulationEngine
from repro.sim.message import Message
from repro.sim.metrics import DeliveryOutcome, delivery_rate_curve
from repro.sim.protocol import ProtocolSession
from repro.utils.rng import RandomSource, ensure_rng, spawn_rng
from repro.utils.validation import check_fraction, check_positive_int

logger = logging.getLogger(__name__)

RouteOutcome = Tuple[OnionRoute, DeliveryOutcome]


@dataclass(frozen=True)
class SweepVariant:
    """One parameter-grid point of a fused sweep.

    A fused sweep runs several grid points — e.g. the ``L`` values of
    fig. 10 or the ``K`` values of fig. 5 — against *one* shared contact
    window in one engine pass, so the kernels sweep every point's sessions
    in a single invocation instead of regenerating and re-scanning the
    window per point. Sharing the window across points is also a common
    random numbers scheme: between-point comparisons see the same contact
    realisation, which reduces the variance of their differences.
    """

    label: str
    group_size: int
    onion_routers: int
    copies: int = 1
    spray_policy: SprayPolicy = SprayPolicy.SOURCE


def sample_endpoints(
    n: int, rng: np.random.Generator
) -> Tuple[int, int]:
    """A uniformly random ordered (source, destination) pair."""
    source, destination = rng.choice(n, size=2, replace=False)
    return int(source), int(destination)


def select_overlapping_route(
    n: int,
    source: int,
    destination: int,
    onion_routers: int,
    group_size: int,
    rng: np.random.Generator,
) -> OnionRoute:
    """Per-hop random onion groups that may share members across hops.

    Needed when ``K · g`` approaches ``n`` (the paper's Cambridge setup:
    n = 12, g = 10, K = 3 cannot use disjoint groups). Each hop draws a
    fresh ``g``-subset of the nodes other than the endpoints. Virtual group
    ids ``0 … K−1`` are route-local.
    """
    eligible = [v for v in range(n) if v not in (source, destination)]
    if group_size > len(eligible):
        raise ValueError(
            f"group_size={group_size} exceeds the {len(eligible)} eligible nodes"
        )
    groups = []
    for _ in range(onion_routers):
        chosen = rng.choice(len(eligible), size=group_size, replace=False)
        groups.append(tuple(sorted(eligible[i] for i in chosen)))
    return OnionRoute(
        source=source,
        destination=destination,
        group_ids=tuple(range(onion_routers)),
        groups=tuple(groups),
    )


def _make_session(
    message: Message,
    route: OnionRoute,
    copies: int,
    spray_policy: SprayPolicy,
    faults: Optional[FaultPlan] = None,
    recovery: Optional[RecoveryPolicy] = None,
) -> ProtocolSession:
    if copies == 1:
        return SingleCopySession(message, route, faults=faults, recovery=recovery)
    return MultiCopySession(
        message,
        route,
        copies=copies,
        spray_policy=spray_policy,
        faults=faults,
        recovery=recovery,
    )


def run_fused_graph_sweep(
    graph: ContactGraph,
    variants: Sequence[SweepVariant],
    horizon: float,
    sessions_per_variant: int,
    rng: RandomSource = None,
    events=None,
    kernel: bool = True,
    stream_window: Optional[float] = None,
    max_window_events: Optional[int] = None,
    backend: Optional[str] = None,
    deadline: Optional[float] = None,
    *,
    churn: Optional[NodeChurnSchedule] = None,
    failstop: Optional[FailStopSchedule] = None,
    relays: Optional[DroppingRelays] = None,
    recovery: Optional[RecoveryPolicy] = None,
    workers: Workers = 1,
) -> List[List[RouteOutcome]]:
    """Simulate every grid point of a sweep over one shared event stream.

    All variants' sessions are registered in *one* engine and advanced in
    *one* pass over one sampled contact process — with kernels on (the
    default) that means a single struct-of-arrays invocation per kernel
    class for the entire grid. Each variant draws its own group directory,
    endpoints, and routes from the shared ``rng`` in variant order (the
    first directory before the process's pre-draws), so the draw sequence
    is deterministic. A single configuration is a one-variant list.

    ``events`` overrides the sampled contact process with a pre-generated
    source (an :class:`~repro.contacts.events.EventBlock` or any event
    source); the override skips the process's pre-draws, so the session
    draws sit at a different offset of ``rng``. ``deadline`` (default:
    ``horizon``) sets every message's deadline independently of the
    simulated window. ``stream_window`` and ``max_window_events`` bound the
    engine's resident event window; by default it consumes one
    horizon-wide window. ``kernel`` (default on) lets the engine sweep
    eligible sessions with the struct-of-arrays kernels; ``kernel=False``
    routes every session through the object loop, with byte-identical
    outcomes. ``backend`` names the kernel compute backend (see
    :mod:`repro.sim.backend`).

    Faults: ``failstop`` and ``churn`` filter the contact stream (fail-stop
    suppression inside churn suppression; both are pure filters), and
    ``failstop``/``relays`` reach every session through one
    :class:`~repro.faults.recovery.FaultPlan`, with ``recovery`` as the
    sessions' custody policy. Sessions with a plan run on the object loop.
    Only the dropping set and the drop probability of ``relays`` are used:
    the sweep draws the drop decisions from a child stream spawned from
    ``rng`` (the relays' own generator is not consumed), so every parallel
    chunk draws its own drops and the outcomes do not depend on
    ``stream_window``.

    ``workers`` above one splits the sweep across a
    :class:`~repro.experiments.parallel.WorkerPool` through
    :func:`~repro.experiments.parallel.run_parallel_fused_sweep`: the
    contact stream is sampled once from ``rng`` up to ``horizon`` and
    shared by every chunk, then the chunk seeds are spawned. The result is
    an equally valid sample that differs from the ``workers=1`` one.
    Passing this function to ``run_parallel_fused_sweep`` directly instead
    samples a stream per chunk; that stays for wrappers of the sweep (the
    chaos harness injects faults around it) and for the benches that time
    unshared chunks.

    Returns one outcome list per variant, parallel to ``variants``.
    """
    if not variants:
        raise ValueError("run_fused_graph_sweep needs at least one variant")
    generator = ensure_rng(rng)
    # One set of options for both paths, so neither can drop a parameter.
    options = dict(
        graph=graph,
        horizon=horizon,
        kernel=kernel,
        stream_window=stream_window,
        max_window_events=max_window_events,
        backend=backend,
        deadline=deadline,
        churn=churn,
        failstop=failstop,
        relays=relays,
        recovery=recovery,
    )
    if worker_count(workers) == 1:
        return _graph_sweep(
            variants, sessions_per_variant, generator, events, **options
        )
    if events is None:
        events = ExponentialContactProcess(
            graph, rng=generator
        ).events_until_columnar(horizon)
    return run_parallel_fused_sweep(
        run_fused_graph_sweep,
        variants=variants,
        sessions_per_variant=sessions_per_variant,
        workers=workers,
        rng=generator,
        shared_events=events,
        **options,
    )


def _graph_sweep(
    variants: Sequence[SweepVariant],
    sessions_per_variant: int,
    generator: np.random.Generator,
    events,
    *,
    graph: ContactGraph,
    horizon: float,
    kernel: bool,
    stream_window: Optional[float],
    max_window_events: Optional[int],
    backend: Optional[str],
    deadline: Optional[float],
    churn: Optional[NodeChurnSchedule],
    failstop: Optional[FailStopSchedule],
    relays: Optional[DroppingRelays],
    recovery: Optional[RecoveryPolicy],
) -> List[List[RouteOutcome]]:
    """The serial body of :func:`run_fused_graph_sweep`."""
    plan: Optional[FaultPlan] = None
    if failstop is not None or relays is not None:
        if relays is not None:
            (drop_rng,) = spawn_rng(generator, 1)
            relays = DroppingRelays(
                relays.compromised, relays.drop_prob, rng=drop_rng
            )
        plan = FaultPlan(failstop=failstop, relays=relays)
    message_deadline = horizon if deadline is None else deadline
    results: List[List[RouteOutcome]] = []
    engine: Optional[SimulationEngine] = None
    for variant in variants:
        directory = OnionGroupDirectory(
            graph.n, variant.group_size, rng=generator
        )
        if engine is None:
            if events is None:
                source = ExponentialContactProcess(graph, rng=generator)
            else:
                source = as_event_source(events)
            if failstop is not None:
                source = FailStopContactProcess(source, failstop)
            if churn is not None:
                source = NodeChurnProcess(source, churn)
            engine = SimulationEngine(
                source,
                horizon=horizon,
                stream_window=stream_window,
                max_window_events=max_window_events,
                kernels=kernel,
                backend=backend,
            )
        pairs: List[RouteOutcome] = []
        for _ in range(sessions_per_variant):
            src, dst = sample_endpoints(graph.n, generator)
            route = directory.select_route(
                src, dst, variant.onion_routers, rng=generator
            )
            message = Message(
                source=src,
                destination=dst,
                created_at=0.0,
                deadline=message_deadline,
            )
            session = _make_session(
                message,
                route,
                variant.copies,
                variant.spray_policy,
                faults=plan,
                recovery=recovery,
            )
            engine.add_session(session)
            pairs.append((route, session.outcome()))
        results.append(pairs)
    engine.run()
    return results


@lru_cache(maxsize=4096)
def _hypoexponential_for(rates: Tuple[float, ...]) -> Hypoexponential:
    """Memoized Hypoexponential keyed by the (boosted) rate tuple.

    Delivery-curve sweeps evaluate the same route realisation at many
    deadlines and copy counts; the instance caches its Eq. 5 coefficients
    and uniformized transition matrix, so reusing it skips both rebuilds.
    """
    return Hypoexponential(rates)


def analysis_delivery_curve(
    graph: ContactGraph,
    routes: Sequence[OnionRoute],
    deadlines: Sequence[float],
    copies: int = 1,
) -> List[Tuple[float, float]]:
    """Average the Eq. 6/7 model over concrete route realisations.

    Routes containing an unreachable hop (zero aggregate rate — possible on
    sparse trace-estimated graphs) contribute zero delivery probability,
    matching what the protocol would experience.
    """
    deadline_arr = np.asarray(list(deadlines), dtype=float)
    total = np.zeros_like(deadline_arr)
    for route in routes:
        try:
            rates = onion_path_rates(
                graph, route.source, route.groups, route.destination
            )
        except ValueError:
            continue  # unreachable hop: contributes zeros
        boosted = tuple(rate * copies for rate in rates)
        total += np.asarray(_hypoexponential_for(boosted).cdf(deadline_arr))
    mean = total / max(len(routes), 1)
    return [(float(t), float(p)) for t, p in zip(deadline_arr, mean)]


def simulated_delivery_curve(
    outcomes: Sequence[DeliveryOutcome], deadlines: Sequence[float]
) -> List[Tuple[float, float]]:
    """Delivery rate vs deadline measured from simulated outcomes."""
    return delivery_rate_curve(outcomes, deadlines)


# ----------------------------------------------------------------------
# security Monte Carlo (contact-graph independent, §V-A)
# ----------------------------------------------------------------------


@lru_cache(maxsize=32)
def reference_node_weights(n: int) -> Tuple[float, ...]:
    """Per-node aggregate contact rates on the paper's reference graph.

    The security Monte Carlo is contact-graph independent, but the
    targeted and stake-weighted adversaries need a notion of how
    "important" each node is. This derives it the same way the delivery
    experiments would see it: the row sums of the rate matrix of the
    reference ``random_contact_graph`` for size ``n`` (seeded by ``n``,
    so the weights are a deterministic property of the network size).
    """
    from repro.contacts.random_graph import random_contact_graph

    graph = random_contact_graph(
        n, DEFAULT_CONFIG.mean_intercontact_range, rng=np.random.default_rng(n)
    )
    return tuple(float(v) for v in np.asarray(graph.rates).sum(axis=1))


def _resolve_compromise_model(
    compromise_model: "str | CompromiseModel", n: int
) -> CompromiseModel:
    """Coerce a registry name or instance into a model for ``n`` nodes.

    Named targeted/stake models get their weights from
    :func:`reference_node_weights`; instances are checked for a matching
    population size. The model's own ``rate`` is a default only — every
    sweep variant overrides it per grid point.
    """
    if isinstance(compromise_model, str):
        needs_weights = compromise_model in (
            TargetedCompromise.name,
            StakeWeightedCompromise.name,
        )
        return make_compromise_model(
            compromise_model,
            n,
            rate=0.0,
            weights=reference_node_weights(n) if needs_weights else None,
        )
    if not isinstance(compromise_model, CompromiseModel):
        raise TypeError(
            "compromise_model must be a registry name or a CompromiseModel, "
            f"got {type(compromise_model).__name__}"
        )
    if compromise_model.n != n:
        raise ValueError(
            f"compromise model covers n={compromise_model.n} nodes, "
            f"the Monte Carlo runs over n={n}"
        )
    return compromise_model


def _mask_row_nodes(mask_row: np.ndarray) -> set:
    """One trial's compromised mask row as a set of node ids."""
    return {int(v) for v in np.flatnonzero(mask_row)}


def _scalar_variant_scores(
    block: SecurityTrialBlock,
    model: CompromiseModel,
    variant: SecuritySweepVariant,
) -> Tuple[np.ndarray, np.ndarray]:
    """Score one variant row-by-row through the per-trial objects.

    The scalar counterpart of
    :meth:`~repro.adversary.kernel.SecurityBatchKernel.score_variant`: the
    same block, the same compromise mask, but each trial walked through
    :class:`~repro.adversary.tracer.PathTracer` and
    :func:`~repro.adversary.observer.observed_path_anonymity` — the
    reference semantics the kernel must reproduce bit-for-bit.
    """
    eta = variant.onion_routers + 1
    mask = model.mask_from_keys(
        block.compromise_keys, rate=variant.compromise_rate
    )
    traceable = np.empty(block.trials)
    anonymity = np.empty(block.trials)
    for trial in range(block.trials):
        compromised = _mask_row_nodes(mask[trial])
        paths = block.copy_paths(trial, variant.onion_routers, variant.copies)
        tracer = PathTracer(compromised)
        traceable[trial] = tracer.traceable_rate(paths[0])
        anonymity[trial] = observed_path_anonymity(
            paths, compromised, n=block.n, eta=eta, group_size=block.group_size
        )
    return traceable, anonymity


def security_sweep_montecarlo(
    n: int,
    group_size: int,
    variants: Sequence[SecuritySweepVariant],
    trials: int,
    rng: RandomSource = None,
    overlapping: bool = False,
    kernel: bool = True,
    compromise_model: "str | CompromiseModel" = "uniform",
    backend: Optional[str] = None,
) -> Tuple[float, ...]:
    """Fused Monte Carlo over a ``(c, K, L)`` security grid.

    Samples *one* :class:`~repro.adversary.kernel.SecurityTrialBlock` at
    the grid's widest point and scores every variant against it — the
    security counterpart of the delivery layer's fused sweeps: the block
    is drawn once instead of once per grid point, and between-variant
    comparisons share endpoints, routes, copy assignments, and compromise
    keys (common random numbers).

    Returns the flattened per-variant means
    ``(traceable₀, anonymity₀, traceable₁, anonymity₁, …)`` — a fixed-width
    tuple, so :func:`~repro.experiments.parallel.run_parallel_montecarlo`
    chunk-merges fused sweeps exactly like plain Monte Carlo runners.

    ``kernel`` (default on) scores through
    :class:`~repro.adversary.kernel.SecurityBatchKernel`; ``kernel=False``
    walks the same block through the per-trial scalar objects. Both paths
    consume identical draws, so the estimates are equal to the last bit.
    ``compromise_model`` selects the adversary: a registry name
    (``uniform``, ``bernoulli``, ``targeted``, ``stake``) or a
    :class:`~repro.adversary.compromise.CompromiseModel` instance.
    """
    variants = tuple(variants)
    if not variants:
        raise ValueError("a security sweep needs at least one variant")
    check_positive_int(trials, "trials")
    for variant in variants:
        check_positive_int(variant.onion_routers, "onion_routers")
        check_positive_int(variant.copies, "copies")
        check_fraction(variant.compromise_rate, "compromise_rate")
    generator = ensure_rng(rng)
    model = _resolve_compromise_model(compromise_model, n)

    block = sample_security_block(
        n,
        group_size,
        k_max=max(v.onion_routers for v in variants),
        l_max=max(v.copies for v in variants),
        trials=trials,
        rng=generator,
        overlapping=overlapping,
    )
    if not kernel:
        scored = [
            _scalar_variant_scores(block, model, variant) for variant in variants
        ]
    else:
        scored = SecurityBatchKernel(block, model, backend=backend).score(variants)

    flat: List[float] = []
    for traceable, anonymity in scored:
        flat.append(float(traceable.sum() / trials))
        flat.append(float(anonymity.sum() / trials))
    return tuple(flat)


def security_montecarlo(
    n: int,
    group_size: int,
    onion_routers: int,
    copies: int,
    compromise_rate: float,
    trials: int,
    rng: RandomSource = None,
    overlapping: bool = False,
    kernel: bool = True,
    compromise_model: "str | CompromiseModel" = "uniform",
    backend: Optional[str] = None,
) -> Tuple[float, float]:
    """Monte Carlo estimates of (traceable rate, path anonymity).

    Mirrors the paper's security simulations: random group membership,
    random route, random compromised set; the traceable rate scores the
    first copy's path with Eq. 1, the anonymity evaluates the entropy
    ratio at the adversary's observed exposure across all copies. A
    single-point wrapper over :func:`security_sweep_montecarlo`, so the
    ``kernel`` and ``compromise_model`` knobs behave identically here and
    in the fused figure sweeps.
    """
    results = security_sweep_montecarlo(
        n,
        group_size,
        (
            SecuritySweepVariant(
                label=f"K={onion_routers} L={copies} c={compromise_rate:g}",
                onion_routers=onion_routers,
                copies=copies,
                compromise_rate=compromise_rate,
            ),
        ),
        trials=trials,
        rng=rng,
        overlapping=overlapping,
        kernel=kernel,
        compromise_model=compromise_model,
        backend=backend,
    )
    return results[0], results[1]


# ----------------------------------------------------------------------
# trace-driven batches (§V-D / §V-E)
# ----------------------------------------------------------------------


def _first_half_contact_starts(trace: ContactTrace) -> Dict[int, List[float]]:
    """Per-node start times of contacts in the trace's first half.

    "A source node initiates a message transmission at any time after it
    has a contact with any node" — sessions are created at one of these
    starts so the deadline window fits inside the recording.
    """
    midpoint = trace.start + trace.duration / 2
    contacts_by_node: Dict[int, List[float]] = {}
    for record in trace.records:
        if record.start <= midpoint:
            contacts_by_node.setdefault(record.a, []).append(record.start)
            contacts_by_node.setdefault(record.b, []).append(record.start)
    return contacts_by_node


def _place_trace_sessions(
    engine: SimulationEngine,
    n: int,
    contacts_by_node: Dict[int, List[float]],
    directory: Optional[OnionGroupDirectory],
    overlapping: bool,
    group_size: int,
    onion_routers: int,
    copies: int,
    spray_policy: SprayPolicy,
    deadline: float,
    sessions: int,
    generator: np.random.Generator,
) -> List[RouteOutcome]:
    """Register ``sessions`` trace-placed sessions; returns (route, outcome)s.

    Sparse traces degrade gracefully: when placement stalls (too few nodes
    ever have a first-half contact), the batch runs with however many
    sessions could be placed — logged as a warning — rather than
    discarding the partial work.
    """
    pairs: List[RouteOutcome] = []
    attempts = 0
    while len(pairs) < sessions:
        attempts += 1
        if attempts > sessions * 50:
            logger.warning(
                "trace too sparse: placed %d of %d sessions after %d "
                "attempts; running the partial batch",
                len(pairs),
                sessions,
                attempts - 1,
            )
            break
        source, destination = sample_endpoints(n, generator)
        if source not in contacts_by_node:
            continue
        starts = contacts_by_node[source]
        created_at = float(starts[generator.integers(len(starts))])
        if overlapping:
            route = select_overlapping_route(
                n, source, destination, onion_routers, group_size, generator
            )
        else:
            try:
                route = directory.select_route(
                    source, destination, onion_routers, rng=generator
                )
            except ValueError:
                route = select_overlapping_route(
                    n, source, destination, onion_routers, group_size, generator
                )
        message = Message(
            source=source,
            destination=destination,
            created_at=created_at,
            deadline=deadline,
        )
        session = _make_session(message, route, copies, spray_policy)
        engine.add_session(session)
        pairs.append((route, session.outcome()))
    return pairs


def run_fused_trace_sweep(
    trace: ContactTrace,
    variants: Sequence[SweepVariant],
    deadline: float,
    sessions_per_variant: int,
    rng: RandomSource = None,
    overlapping: bool = False,
    kernel: bool = True,
    stream_window: Optional[float] = None,
    max_window_events: Optional[int] = None,
    backend: Optional[str] = None,
) -> List[List[RouteOutcome]]:
    """Simulate every grid point of a trace sweep over one replay.

    The trace analogue of :func:`run_fused_graph_sweep`: all variants'
    sessions — e.g. fig. 17's ``L`` grid — run in one engine pass over a
    single :class:`~repro.contacts.events.TraceReplayProcess`, giving one
    kernel invocation per kernel class for the whole grid and common
    random numbers across the grid points. Each session's creation time is
    the start of a uniformly chosen first-half contact involving its
    source (see :func:`_first_half_contact_starts`); on a sparse trace a
    variant may place fewer than ``sessions_per_variant`` sessions.

    Returns one outcome list per variant, parallel to ``variants``.
    """
    if not variants:
        raise ValueError("run_fused_trace_sweep needs at least one variant")
    generator = ensure_rng(rng)
    trace = trace.normalized()
    n = trace.n
    if n < 3:
        raise ValueError("trace too small for onion routing")
    contacts_by_node = _first_half_contact_starts(trace)
    engine = SimulationEngine(
        TraceReplayProcess(trace),
        horizon=trace.end + 1.0,
        stream_window=stream_window,
        max_window_events=max_window_events,
        kernels=kernel,
        backend=backend,
    )
    results: List[List[RouteOutcome]] = []
    for variant in variants:
        directory = (
            None
            if overlapping
            else OnionGroupDirectory(n, variant.group_size, rng=generator)
        )
        results.append(
            _place_trace_sessions(
                engine,
                n,
                contacts_by_node,
                directory,
                overlapping,
                variant.group_size,
                variant.onion_routers,
                variant.copies,
                variant.spray_policy,
                deadline,
                sessions_per_variant,
                generator,
            )
        )
    engine.run()
    return results


def trace_contact_graph(
    trace: ContactTrace, observation_span: Optional[float] = None
) -> ContactGraph:
    """Rate-estimated contact graph for the analytical models.

    ``observation_span`` lets callers "train" the estimate on active hours
    only (the paper notes model accuracy improves with trained traces).
    """
    return estimate_rates_from_trace(trace.normalized(), observation_span)


def estimate_active_span(trace: ContactTrace) -> float:
    """Total span of hours that saw at least one contact.

    Traces recorded over several days have long idle nights; estimating
    contact rates over the *active* hours only ("training" the trace, §V-A)
    makes the exponential model describe the in-business-hours dynamics the
    delivery experiments actually exercise.
    """
    active_hours = {int(record.start // 3600) for record in trace.records}
    return max(len(active_hours), 1) * 3600.0
