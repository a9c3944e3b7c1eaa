"""Message transmission cost figure (Fig. 11)."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.analysis.cost import multi_copy_cost_bound, non_anonymous_cost
from repro.contacts.random_graph import random_contact_graph
from repro.experiments.config import DEFAULT_CONFIG, PaperConfig
from repro.experiments.result import FigureResult, Series
from repro.experiments.parallel import Workers, workers_metadata
from repro.experiments.runners import SweepVariant, run_fused_graph_sweep
from repro.utils.rng import RandomSource, ensure_rng, spawn_rng


def measured_transmissions_sweep(
    config: PaperConfig,
    onion_routers: int,
    copy_counts: Sequence[int],
    graphs: int,
    sessions_per_graph: int,
    rng: RandomSource,
    workers: Workers = 1,
) -> List[float]:
    """Mean transmissions per message for each L of one K's copy sweep.

    The whole L grid runs as one fused sweep per graph — every copy count
    measures its cost on the same contact windows (common random numbers),
    and the kernels advance the entire grid in one invocation per class.
    Sessions run to the full deadline so undelivered copies also account
    for their spray/relay cost, like the paper's cost measurements.
    """
    generator = ensure_rng(rng)
    variants = [
        SweepVariant(
            label=f"L={copies}",
            group_size=config.group_size,
            onion_routers=onion_routers,
            copies=copies,
        )
        for copies in copy_counts
    ]
    counts: List[List[int]] = [[] for _ in variants]
    for graph_rng in spawn_rng(generator, graphs):
        graph = random_contact_graph(
            config.n, config.mean_intercontact_range, rng=graph_rng
        )
        sweep = run_fused_graph_sweep(
            graph,
            variants,
            horizon=config.max_deadline,
            sessions_per_variant=sessions_per_graph,
            rng=graph_rng,
            workers=workers,
        )
        for slot, batch in enumerate(sweep):
            counts[slot].extend(outcome.transmissions for _, outcome in batch)
    return [float(np.mean(per_variant)) for per_variant in counts]


def measured_transmissions(
    config: PaperConfig,
    onion_routers: int,
    copies: int,
    graphs: int,
    sessions_per_graph: int,
    rng: RandomSource,
    workers: Workers = 1,
) -> float:
    """Mean transmissions per message for a single (K, L) variant."""
    return measured_transmissions_sweep(
        config,
        onion_routers=onion_routers,
        copy_counts=[copies],
        graphs=graphs,
        sessions_per_graph=sessions_per_graph,
        rng=rng,
        workers=workers,
    )[0]


def figure_11(
    copy_counts: Sequence[int] = (1, 2, 3, 4, 5),
    onion_router_counts: Sequence[int] = (3, 5),
    config: PaperConfig = DEFAULT_CONFIG,
    graphs: int = 3,
    sessions_per_graph: int = 30,
    seed: RandomSource = 11,
    workers: Workers = 1,
) -> FigureResult:
    """Fig. 11 — number of transmissions vs number of copies L.

    Series: the non-anonymous ``2L`` baseline, the analytical bound
    ``(K + 2)·L`` for each K, and the measured simulation cost for each K
    (g = 5 so that L ≤ g holds across the sweep).
    """
    generator = ensure_rng(seed)
    cost_config = config.with_(group_size=5)
    series: List[Series] = [
        Series(
            label="Non-anonymous",
            points=tuple((float(L), float(non_anonymous_cost(L))) for L in copy_counts),
        )
    ]
    for onion_routers in onion_router_counts:
        series.append(
            Series(
                label=f"Analysis: K={onion_routers}",
                points=tuple(
                    (float(L), float(multi_copy_cost_bound(onion_routers, L)))
                    for L in copy_counts
                ),
            )
        )
    for onion_routers in onion_router_counts:
        mean_costs = measured_transmissions_sweep(
            cost_config,
            onion_routers=onion_routers,
            copy_counts=copy_counts,
            graphs=graphs,
            sessions_per_graph=sessions_per_graph,
            rng=generator,
            workers=workers,
        )
        points = [
            (float(copies), mean_cost)
            for copies, mean_cost in zip(copy_counts, mean_costs)
        ]
        series.append(Series(label=f"Simulation: K={onion_routers}", points=tuple(points)))
    return FigureResult(
        figure_id="Fig. 11",
        title="Message transmission cost w.r.t. number of copies",
        x_label="Number of copies",
        y_label="Number of transmissions",
        series=tuple(series),
        metadata=workers_metadata(workers),
    )
