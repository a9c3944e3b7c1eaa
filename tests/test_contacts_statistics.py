"""Tests for contact statistics and exponential-fit diagnostics."""

import numpy as np
import pytest

from repro.contacts.graph import ContactGraph
from repro.contacts.statistics import (
    ContactSummary,
    fit_exponential,
    graph_rate_percentiles,
    intercontact_samples,
    pooled_exponential_fit,
    summarize_trace,
)
from repro.contacts.traces import ContactRecord, ContactTrace


def _poisson_trace(rate=0.05, horizon=20000.0, pairs=((0, 1), (1, 2)), seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for a, b in pairs:
        t = 0.0
        while True:
            t += rng.exponential(1 / rate)
            if t > horizon:
                break
            records.append(ContactRecord(a=a, b=b, start=t, end=t + 1))
    return ContactTrace(records)


class TestIntercontactSamples:
    def test_gaps_extracted_per_pair(self):
        trace = ContactTrace(
            [ContactRecord(a=0, b=1, start=t, end=t + 1) for t in (0, 10, 25)]
        )
        samples = intercontact_samples(trace)
        assert np.allclose(samples[(0, 1)], [10, 15])

    def test_single_contact_pairs_skipped(self):
        trace = ContactTrace(
            [
                ContactRecord(a=0, b=1, start=0, end=1),
                ContactRecord(a=1, b=2, start=5, end=6),
                ContactRecord(a=1, b=2, start=9, end=10),
            ]
        )
        samples = intercontact_samples(trace)
        assert (0, 1) not in samples
        assert (1, 2) in samples


class TestExponentialFit:
    def test_fits_true_exponential(self):
        rng = np.random.default_rng(1)
        samples = rng.exponential(20.0, size=4000)
        fit = fit_exponential(samples)
        assert fit.rate == pytest.approx(0.05, rel=0.05)
        assert not fit.rejects_exponential()

    def test_rejects_heavy_tail(self):
        rng = np.random.default_rng(2)
        samples = rng.pareto(1.2, size=4000) + 0.01
        fit = fit_exponential(samples)
        assert fit.rejects_exponential()

    def test_rejects_constant_gaps(self):
        fit = fit_exponential(np.full(500, 10.0))
        assert fit.rejects_exponential()

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least two"):
            fit_exponential(np.array([1.0]))

    def test_negative_samples(self):
        with pytest.raises(ValueError, match="non-negative"):
            fit_exponential(np.array([1.0, -1.0]))


class TestPooledFit:
    def test_accepts_poisson_trace(self):
        trace = _poisson_trace()
        fit = pooled_exponential_fit(trace)
        assert not fit.rejects_exponential(alpha=0.01)

    def test_rejects_diurnal_trace(self):
        """Business-hours traces have overnight gap outliers: not exponential."""
        from repro.contacts.synthetic import infocom05_like_trace

        trace = infocom05_like_trace(rng=3)
        fit = pooled_exponential_fit(trace)
        assert fit.rejects_exponential()

    def test_needs_repeated_contacts(self):
        trace = ContactTrace([ContactRecord(a=0, b=1, start=0, end=1)])
        with pytest.raises(ValueError, match="two or more"):
            pooled_exponential_fit(trace)


class TestSummaries:
    def test_summarize_trace(self):
        trace = _poisson_trace()
        summary = summarize_trace(trace)
        assert summary.nodes == 3
        assert summary.pairs_met == 2
        assert summary.pairs_possible == 3
        assert summary.density == pytest.approx(2 / 3)
        assert summary.mean_intercontact == pytest.approx(20.0, rel=0.1)

    def test_graph_rate_percentiles(self):
        graph = ContactGraph.complete(10, 0.05)
        percentiles = graph_rate_percentiles(graph)
        assert percentiles[50.0] == pytest.approx(0.05)

    def test_percentiles_need_edges(self):
        graph = ContactGraph(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="no positive-rate"):
            graph_rate_percentiles(graph)


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second to import and only fit_exponential
    # needs it, so the CLI must start without it.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.cli; print('scipy.stats' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
