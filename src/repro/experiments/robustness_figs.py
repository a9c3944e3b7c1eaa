"""Robustness experiments: delivery under injected faults, model vs sim.

* :func:`figure_r1` — delivery rate vs node availability under churn. The
  simulation runs the real :class:`~repro.faults.churn.NodeChurnProcess`;
  the analysis evaluates the unmodified Eq. 6 on
  :func:`~repro.faults.churn.churned_graph` (availability scaling), so the
  two curves coinciding *is* the availability-scaling equivalence.
* :func:`figure_r2` — delivery rate vs greyhole drop probability at a
  fixed compromised fraction. The analysis is the survival-scaled Eq. 6
  (:func:`~repro.analysis.robustness.greyhole_delivery_rate`); simulation
  runs with and without custody-timeout recovery, quantifying how much
  delivery the recovery protocol buys back.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.analysis.robustness import churned_delivery_rate, greyhole_delivery_rate
from repro.adversary.dropping import DroppingRelays
from repro.contacts.random_graph import random_contact_graph
from repro.experiments.config import DEFAULT_CONFIG, PaperConfig
from repro.experiments.result import FigureResult, Series
from repro.experiments.parallel import Workers, workers_metadata
from repro.experiments.runners import (
    RouteOutcome,
    SweepVariant,
    run_fused_graph_sweep,
)
from repro.faults.churn import NodeChurnSchedule, churned_graph
from repro.faults.recovery import RecoveryPolicy
from repro.utils.rng import RandomSource, ensure_rng, spawn_rng


def _delivered_fraction(pairs: Sequence[RouteOutcome], deadline: float) -> float:
    """Fraction of sessions delivered within ``deadline``."""
    if not pairs:
        raise ValueError("need at least one outcome")
    hits = sum(
        1
        for _, outcome in pairs
        if outcome.delivered and outcome.delay <= deadline
    )
    return hits / len(pairs)


def _paper_variant(config: PaperConfig) -> List[SweepVariant]:
    """The one-variant grid both robustness figures simulate."""
    return [
        SweepVariant(
            label="paper",
            group_size=config.group_size,
            onion_routers=config.onion_routers,
            copies=config.copies,
        )
    ]


def figure_r1(
    config: PaperConfig = DEFAULT_CONFIG,
    availabilities: Sequence[float] = (1.0, 0.9, 0.8, 0.65, 0.5),
    mean_cycle: float = 20.0,
    deadline: float = 720.0,
    sessions: int = 150,
    seed: RandomSource = 201,
    workers: Workers = 1,
) -> FigureResult:
    """Delivery rate vs node availability: churned-graph model vs churn sim.

    One substrate graph is shared across availability levels; each level
    gets an independent spawned RNG so adding a level never perturbs the
    others. ``mean_cycle`` is short relative to inter-contact times
    (Table II means are 10–360 min), putting the churn in the fast regime
    where the availability-scaling equivalence is tight. The
    struct-of-arrays kernels sweep the fault-free arms (scaled-graph
    simulation, full availability); outcomes match the object loop.

    Three series: the real churn process, a fault-free simulation of the
    availability-scaled graph (these two coinciding is the equivalence
    itself), and Eq. 6 on the scaled graph — which additionally carries
    the model's usual optimism on heterogeneous-rate graphs, widening as
    thinning pushes delivery off the saturated part of the CDF.
    """
    rng = ensure_rng(seed)
    graph = random_contact_graph(config.n, config.mean_intercontact_range, rng=rng)
    children = spawn_rng(rng, 2 * len(availabilities))
    variant = _paper_variant(config)

    model_points: List[Tuple[float, float]] = []
    churn_points: List[Tuple[float, float]] = []
    scaled_points: List[Tuple[float, float]] = []
    for index, availability in enumerate(availabilities):
        churn_rng, scaled_rng = children[2 * index], children[2 * index + 1]
        churn = (
            None
            if availability >= 1.0
            else NodeChurnSchedule.from_availability(
                config.n, availability, mean_cycle, rng=churn_rng
            )
        )
        pairs = run_fused_graph_sweep(
            graph,
            variant,
            horizon=deadline,
            sessions_per_variant=sessions,
            rng=churn_rng,
            churn=churn,
            workers=workers,
        )[0]
        churn_points.append((availability, _delivered_fraction(pairs, deadline)))
        model = sum(
            churned_delivery_rate(
                graph,
                route.source,
                route.groups,
                route.destination,
                deadline,
                availability,
                copies=config.copies,
            )
            for route, _ in pairs
        ) / len(pairs)
        model_points.append((availability, model))

        scaled = run_fused_graph_sweep(
            churned_graph(graph, availability),
            variant,
            horizon=deadline,
            sessions_per_variant=sessions,
            rng=scaled_rng,
            workers=workers,
        )[0]
        scaled_points.append((availability, _delivered_fraction(scaled, deadline)))

    return FigureResult(
        figure_id="Fig. R1",
        title="Delivery rate under node churn (deadline "
        f"{deadline:g} min, cycle {mean_cycle:g} min)",
        x_label="Node availability",
        y_label="Delivery rate",
        series=(
            Series(label="Analysis: Eq. 6 on churned graph", points=tuple(model_points)),
            Series(label="Simulation: node churn", points=tuple(churn_points)),
            Series(
                label="Simulation: churned graph",
                points=tuple(scaled_points),
            ),
        ),
        metadata=workers_metadata(workers),
    )


def figure_r2(
    config: PaperConfig = DEFAULT_CONFIG,
    drop_probs: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    compromise_rate: float = 0.2,
    deadline: float = 720.0,
    sessions: int = 150,
    custody_timeout: float = 30.0,
    max_retries: int = 3,
    seed: RandomSource = 202,
    workers: Workers = 1,
) -> FigureResult:
    """Delivery rate vs greyhole drop probability, with/without recovery.

    The compromised set is drawn once (fixed-count, the paper's sampling)
    and shared by every drop level and both simulation arms, so the curves
    differ only in ``p`` and in whether custody recovery runs. The analysis
    arm is the survival-scaled Eq. 6 averaged over the no-recovery batch's
    routes; recovery has no analytical counterpart here — the figure *is*
    the measurement of what it buys back. Greyhole sessions carry a fault
    plan, so they run through the engine's object loop.
    """
    rng = ensure_rng(seed)
    graph = random_contact_graph(config.n, config.mean_intercontact_range, rng=rng)
    compromised = DroppingRelays.sample(
        config.n, compromise_rate, 1.0, rng=rng
    ).compromised
    recovery = RecoveryPolicy(custody_timeout=custody_timeout, max_retries=max_retries)
    children = spawn_rng(rng, 2 * len(drop_probs))
    variant = _paper_variant(config)

    model_points: List[Tuple[float, float]] = []
    plain_points: List[Tuple[float, float]] = []
    recovered_points: List[Tuple[float, float]] = []
    for index, drop_prob in enumerate(drop_probs):
        plain_rng, recovery_rng = children[2 * index], children[2 * index + 1]
        # Each sweep draws the drops from a child stream of its generator.
        relays = DroppingRelays(compromised, drop_prob)
        pairs = run_fused_graph_sweep(
            graph,
            variant,
            horizon=deadline,
            sessions_per_variant=sessions,
            rng=plain_rng,
            relays=relays,
            workers=workers,
        )[0]
        plain_points.append((drop_prob, _delivered_fraction(pairs, deadline)))
        model = sum(
            greyhole_delivery_rate(
                graph,
                route.source,
                route.groups,
                route.destination,
                deadline,
                compromised,
                drop_prob,
                copies=config.copies,
            )
            for route, _ in pairs
        ) / len(pairs)
        model_points.append((drop_prob, model))

        recovered = run_fused_graph_sweep(
            graph,
            variant,
            horizon=deadline,
            sessions_per_variant=sessions,
            rng=recovery_rng,
            relays=relays,
            recovery=recovery,
            workers=workers,
        )[0]
        recovered_points.append(
            (drop_prob, _delivered_fraction(recovered, deadline))
        )

    return FigureResult(
        figure_id="Fig. R2",
        title="Delivery rate under greyhole relays "
        f"({compromise_rate:.0%} compromised, deadline {deadline:g} min)",
        x_label="Drop probability p",
        y_label="Delivery rate",
        series=(
            Series(
                label="Analysis: survival-scaled Eq. 6",
                points=tuple(model_points),
            ),
            Series(label="Simulation: no recovery", points=tuple(plain_points)),
            Series(
                label="Simulation: custody recovery",
                points=tuple(recovered_points),
            ),
        ),
        metadata=workers_metadata(workers),
    )
