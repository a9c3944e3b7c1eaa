#!/usr/bin/env python
"""Trace-driven pipeline: from contact records to model validation.

Mirrors the paper's §V-D/§V-E methodology on the synthetic haggle-style
traces (see DESIGN.md §3 for the substitution):

1. generate (or load) a trace of ``(a, b, start, end)`` contact records,
2. estimate pairwise contact rates ("the number of nodes and the contact
   frequency are computed from a given trace file"),
3. replay the trace through the onion routing protocol (one
   configuration, i.e. a one-variant ``run_fused_trace_sweep`` grid),
4. compare the measured delivery curve against the Eq. 6 model.

To run on a real CRAWDAD file instead, replace the generator call with
``ContactTrace.load("cambridge_haggle.txt")``.

Run:  python examples/trace_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro import cambridge_like_trace, infocom05_like_trace
from repro.experiments.runners import (
    SweepVariant,
    analysis_delivery_curve,
    estimate_active_span,
    run_fused_trace_sweep,
    simulated_delivery_curve,
    trace_contact_graph,
)

SEED = 21


def describe(name, trace):
    counts = list(trace.contact_counts().values())
    print(f"{name}: {trace.n} nodes, {len(trace)} contacts over "
          f"{trace.duration / 86400:.1f} days, "
          f"{len(counts)} pairs met (mean {np.mean(counts):.1f} contacts/pair)")


def evaluate(name, trace, group_size, onion_routers, copies, deadlines,
             overlapping, sessions=40, seed=SEED):
    describe(name, trace)
    variant = SweepVariant(
        label=name,
        group_size=group_size,
        onion_routers=onion_routers,
        copies=copies,
    )
    [batch] = run_fused_trace_sweep(
        trace,
        [variant],
        deadline=max(deadlines),
        sessions_per_variant=sessions,
        rng=seed,
        overlapping=overlapping,
    )
    routes = [route for route, _ in batch]
    outcomes = [outcome for _, outcome in batch]
    graph = trace_contact_graph(trace, estimate_active_span(trace.normalized()))
    model = analysis_delivery_curve(graph, routes, deadlines, copies=copies)
    measured = simulated_delivery_curve(outcomes, deadlines)
    print(f"  {'deadline (s)':>12}  {'model':>7}  {'measured':>8}")
    for (t, m), (_, s) in zip(model, measured):
        print(f"  {t:>12g}  {m:>7.3f}  {s:>8.3f}")
    print()


def main() -> None:
    cambridge = cambridge_like_trace(rng=SEED)
    evaluate(
        "Cambridge-like trace (dense, 12 iMotes)",
        cambridge,
        group_size=10,
        onion_routers=3,
        copies=1,
        deadlines=[300.0, 600.0, 1200.0, 1800.0],
        overlapping=True,  # 12 nodes cannot host 3 disjoint groups of 10
    )

    infocom = infocom05_like_trace(rng=SEED)
    evaluate(
        "Infocom-2005-like trace (sparse, 41 iMotes, off-hours)",
        infocom,
        group_size=5,
        onion_routers=3,
        copies=3,
        deadlines=[256.0, 4096.0, 32768.0, 131072.0],
        overlapping=False,
    )
    print("Note the Infocom plateau: deadlines that end inside the night "
          "cannot beat the previous evening's delivery rate — the paper's "
          "Fig. 17 behaviour.")


if __name__ == "__main__":
    main()
