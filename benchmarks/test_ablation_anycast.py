"""Ablation: group anycast vs single-relay onion paths.

Motivates the defining term of the paper's Eq. 4 — a node may forward to
*any* member of the next onion group, so the per-hop rate is a sum over the
group instead of a single pairwise rate. Disabling anycast (g = 1) on the
same contact graph collapses delivery to the plain opportunistic-path model
and shows how much of group onion routing's performance comes from the
anycast property alone.
"""

import numpy as np

from repro.contacts.random_graph import random_contact_graph
from repro.experiments.runners import SweepVariant, run_fused_graph_sweep
from repro.sim.metrics import summarize

HORIZON = 1080.0
SESSIONS = 40
GRAPHS = 3


def _delivery(group_size: int, seed: int) -> float:
    rates = []
    for graph_seed in range(GRAPHS):
        graph = random_contact_graph(n=100, rng=seed + graph_seed)
        [batch] = run_fused_graph_sweep(
            graph,
            [SweepVariant(f"g={group_size}", group_size=group_size, onion_routers=3)],
            horizon=HORIZON,
            sessions_per_variant=SESSIONS,
            rng=seed + graph_seed,
        )
        rates.append(np.mean([o.delivered for _, o in batch]))
    return float(np.mean(rates))


def test_ablation_anycast(benchmark):
    def run():
        return {g: _delivery(g, seed=100 + g) for g in (1, 5, 10)}

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("Anycast ablation — delivery rate at T=1080 min, K=3, L=1")
    for group_size, rate in sorted(result.items()):
        print(f"  g={group_size:>2}: delivery={rate:.3f}")
    # The anycast property is the point: g=5 must clearly beat g=1.
    assert result[5] > result[1]
    assert result[10] >= result[5] - 0.05
