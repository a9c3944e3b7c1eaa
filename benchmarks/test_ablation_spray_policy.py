"""Ablation: source spray vs binary spray in Algorithm 2.

The paper leaves ``Forward()`` to the protocol designer and evaluates
source spray; binary spray (halving the ticket pool on every transfer)
spreads copies faster at the same total budget. This bench quantifies the
delivery/cost effect of that design choice.
"""

import numpy as np

from repro.contacts.random_graph import random_contact_graph
from repro.core.multi_copy import SprayPolicy
from repro.experiments.runners import SweepVariant, run_fused_graph_sweep

HORIZON = 1080.0
SESSIONS = 40
GRAPHS = 3
COPIES = 5


def _run(policy: SprayPolicy, seed: int):
    delivered, cost, delays = [], [], []
    for graph_seed in range(GRAPHS):
        graph = random_contact_graph(n=100, rng=seed + graph_seed)
        variant = SweepVariant(
            policy.name,
            group_size=5,
            onion_routers=3,
            copies=COPIES,
            spray_policy=policy,
        )
        [batch] = run_fused_graph_sweep(
            graph,
            [variant],
            horizon=HORIZON,
            sessions_per_variant=SESSIONS,
            rng=seed + graph_seed,
        )
        for _, outcome in batch:
            delivered.append(outcome.delivered)
            cost.append(outcome.transmissions)
            if outcome.delivered:
                delays.append(outcome.delay)
    return {
        "delivery": float(np.mean(delivered)),
        "cost": float(np.mean(cost)),
        "delay": float(np.mean(delays)) if delays else float("nan"),
    }


def test_ablation_spray_policy(benchmark):
    def run():
        return {
            "source": _run(SprayPolicy.SOURCE, seed=200),
            "binary": _run(SprayPolicy.BINARY, seed=200),
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"Spray-policy ablation — L={COPIES}, K=3, g=5, T={HORIZON:g} min")
    for policy, stats in result.items():
        print(
            f"  {policy:>6}: delivery={stats['delivery']:.3f} "
            f"cost={stats['cost']:.2f} delay={stats['delay']:.1f}"
        )
    # Both policies spend the same ticket budget; delivery should be in the
    # same ballpark and cost bounded by (K+2)L = 25.
    assert abs(result["source"]["delivery"] - result["binary"]["delivery"]) < 0.25
    assert result["source"]["cost"] <= 25
    assert result["binary"]["cost"] <= 25
