"""Contact-pattern statistics and model-fit diagnostics.

The paper's models stand on one distributional assumption: pairwise
inter-contact times are exponential. Before trusting the models on a trace
(real or synthetic), check it. This module provides

* per-pair and pooled inter-contact samples from a trace,
* the exponential MLE fit with a Kolmogorov–Smirnov goodness-of-fit test,
* a compact :class:`ContactSummary` used by the CLI and examples.

On traces with diurnal structure the pooled test will (correctly) reject
exponentiality across days while the within-business-hours samples fit —
exactly the paper's observation that the models track the Cambridge trace
during business hours and miss the Infocom off-hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.contacts.graph import ContactGraph
from repro.contacts.traces import ContactTrace


def intercontact_samples(trace: ContactTrace) -> Dict[Tuple[int, int], np.ndarray]:
    """Per-pair gaps between successive contact starts.

    Pairs that met fewer than twice contribute no samples.
    """
    starts: Dict[Tuple[int, int], List[float]] = {}
    for record in trace.records:
        starts.setdefault(record.pair(), []).append(record.start)
    samples = {}
    for pair, times in starts.items():
        if len(times) >= 2:
            ordered = np.sort(np.asarray(times))
            samples[pair] = np.diff(ordered)
    return samples


@dataclass(frozen=True)
class ExponentialFit:
    """MLE exponential fit plus a KS goodness-of-fit verdict."""

    rate: float
    sample_count: int
    ks_statistic: float
    p_value: float

    def rejects_exponential(self, alpha: float = 0.05) -> bool:
        """Whether the KS test rejects exponentiality at level ``alpha``."""
        return self.p_value < alpha


def fit_exponential(samples: np.ndarray) -> ExponentialFit:
    """Fit ``Exp(λ)`` by MLE (``λ̂ = 1/mean``) and KS-test the fit.

    Note the classical caveat: estimating the rate from the same sample
    makes the KS test conservative; it is still the right smoke alarm for
    grossly non-exponential gaps (heavy tails, diurnal gaps).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise ValueError("need at least two inter-contact samples")
    if np.any(samples < 0):
        raise ValueError("inter-contact times must be non-negative")
    mean = float(samples.mean())
    if mean <= 0:
        raise ValueError("degenerate samples: zero mean gap")
    from scipy import stats  # deferred: scipy.stats dominates import time

    statistic, p_value = stats.kstest(samples, "expon", args=(0, mean))
    return ExponentialFit(
        rate=1.0 / mean,
        sample_count=int(samples.size),
        ks_statistic=float(statistic),
        p_value=float(p_value),
    )


def pooled_exponential_fit(trace: ContactTrace) -> ExponentialFit:
    """Fit the pooled, per-pair-normalised inter-contact distribution.

    Each pair's gaps are rescaled by that pair's mean before pooling, so
    heterogeneous rates do not masquerade as non-exponentiality; if every
    pair is exponential, the pooled normalised sample is Exp(1).
    """
    normalised = []
    for gaps in intercontact_samples(trace).values():
        mean = gaps.mean()
        if mean > 0:
            normalised.append(gaps / mean)
    if not normalised:
        raise ValueError("trace has no pair with two or more contacts")
    return fit_exponential(np.concatenate(normalised))


@dataclass(frozen=True)
class ContactSummary:
    """Headline statistics of a trace or contact graph."""

    nodes: int
    contacts: int
    span: float
    pairs_met: int
    pairs_possible: int
    mean_contacts_per_pair: float
    mean_intercontact: float

    @property
    def density(self) -> float:
        """Fraction of pairs that ever met."""
        return self.pairs_met / self.pairs_possible


def summarize_trace(trace: ContactTrace) -> ContactSummary:
    """Compute the headline statistics of a trace."""
    counts = trace.contact_counts()
    gaps = intercontact_samples(trace)
    all_gaps = (
        np.concatenate(list(gaps.values())) if gaps else np.array([np.inf])
    )
    n = trace.n
    return ContactSummary(
        nodes=n,
        contacts=len(trace),
        span=trace.duration,
        pairs_met=len(counts),
        pairs_possible=n * (n - 1) // 2,
        mean_contacts_per_pair=float(np.mean(list(counts.values()))),
        mean_intercontact=float(all_gaps.mean()),
    )


def graph_rate_percentiles(
    graph: ContactGraph, percentiles: Tuple[float, ...] = (5, 50, 95)
) -> Dict[float, float]:
    """Percentiles of the positive pairwise rates of a contact graph."""
    upper = graph.rates[np.triu_indices(graph.n, k=1)]
    positive = upper[upper > 0]
    if positive.size == 0:
        raise ValueError("graph has no positive-rate pairs")
    return {
        float(p): float(np.percentile(positive, p)) for p in percentiles
    }
