"""Self-tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py
    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import contextlib
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from layers import FIGURE_KEYS, METRICS, derive, engine_target, targets  # noqa: E402
from run import count_tracker_errors  # noqa: E402
from spans import Span, SpanRecorder, Tracer, outermost, self_times, snapshot_callables  # noqa: E402
from workloads import WORKLOADS, Outcome, fail_on_engine, figures_spec, run_figures  # noqa: E402


def _span(id, parent, start, end, layer="core", kind="setup", **kw):
    return Span(id=id, parent=parent, name=f"s{id}", layer=layer, kind=kind, start=start, end=end, **kw)


class SelfTimeArithmetic(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            _span(1, None, 0.0, 10.0, layer="run", kind="run"),
            _span(2, 1, 1.0, 5.0),
            _span(3, 2, 2.0, 3.0),
            _span(4, 1, 6.0, 7.5),
        ]
        own = self_times(spans)
        self.assertAlmostEqual(own[1], 10.0 - 4.0 - 1.5)
        self.assertAlmostEqual(own[2], 4.0 - 1.0)
        self.assertAlmostEqual(own[3], 1.0)
        self.assertAlmostEqual(own[4], 1.5)
        self.assertAlmostEqual(sum(own.values()), 10.0)

    def test_aggregate_span_counts_busy_time(self):
        spans = [
            _span(1, None, 0.0, 10.0, layer="run", kind="run"),
            _span(2, 1, 0.0, 9.0, aggregate=True, busy=2.5, layer="contacts", kind="gen"),
        ]
        own = self_times(spans)
        self.assertAlmostEqual(own[1], 7.5)
        self.assertAlmostEqual(own[2], 2.5)

    def test_outermost_skips_nested_same_kind(self):
        spans = [
            _span(1, None, 0, 10, layer="run", kind="run"),
            _span(2, 1, 1, 5, kind="session"),
            _span(3, 2, 2, 3, kind="session"),
            _span(5, 3, 2.1, 2.2, kind="setup"),
            _span(6, 5, 2.1, 2.2, kind="session"),
            _span(4, 1, 6, 7, kind="session"),
        ]
        ids = [s.id for s in outermost(spans, lambda s: True if s.kind == "session" else None)]
        self.assertEqual(ids, [2, 4])

    def test_recorder_links_parents_through_contextvars(self):
        recorder = SpanRecorder()
        with recorder.span("outer", "run", "run") as outer:
            with recorder.span("inner", "core", "setup") as inner:
                pass
        self.assertIsNone(outer.parent)
        self.assertEqual(inner.parent, outer.id)
        self.assertLessEqual(outer.start, inner.start)
        self.assertLessEqual(inner.end, outer.end)
        self.assertIsNone(recorder.current.get())


class Reconciliation(unittest.TestCase):
    def _traced(self, fn):
        import time

        recorder = SpanRecorder()
        with Tracer(recorder) as tracer:
            tracer.install(targets({}))
            start = time.perf_counter()
            with recorder.span("run", "run"):
                fn(recorder)
            run_s = time.perf_counter() - start
        return recorder, run_s

    def test_layers_plus_other_reconcile_to_run_time(self):
        from repro.experiments import figure_10

        def body(recorder):
            with recorder.span("figure 10", "experiments", "figure"):
                figure_10(graphs=1, sessions_per_graph=20, seed=3)

        recorder, run_s = self._traced(body)
        metrics = derive(recorder.spans, run_s)
        self.assertLess(metrics["trace.reconcile_frac"], 0.05)
        layer_sum = sum(metrics[f"{layer}.self_s"] for layer in
                        ("contacts", "core", "sim", "adversary", "analysis", "faults", "ipc", "experiments"))
        self.assertAlmostEqual(layer_sum + metrics["trace.other_s"], run_s, delta=0.05 * run_s)
        self.assertEqual(metrics["core.sessions"], 60)
        self.assertGreater(metrics["sim.kernel_s"], 0.0)
        self.assertGreater(metrics["analysis.cdf_calls"], 0)
        self.assertGreater(metrics["figures.10_s"], 0.0)

    def test_lazy_generation_is_charged_to_the_consumer(self):
        import numpy as np

        from repro.contacts.events import ExponentialContactProcess
        from repro.contacts.random_graph import random_contact_graph

        def body(recorder):
            graph = random_contact_graph(n=20, rng=np.random.default_rng(1))
            events = ExponentialContactProcess(graph, rng=np.random.default_rng(2)).events_until(50.0)
            with recorder.span("consume", "sim", "engine") as consumer:
                body.count = sum(1 for _ in events)
                body.consumer = consumer.id

        recorder, run_s = self._traced(body)
        generated = [s for s in recorder.spans if s.aggregate]
        self.assertEqual(len(generated), 1)
        self.assertEqual(generated[0].parent, body.consumer)
        self.assertEqual(generated[0].counters["items"], body.count)
        self.assertGreater(body.count, 0)
        metrics = derive(recorder.spans, run_s)
        self.assertEqual(metrics["contacts.events"], body.count)
        self.assertLess(metrics["trace.reconcile_frac"], 0.05)


class FailureAccounting(unittest.TestCase):
    def test_one_raising_figure_counts_as_one_in_twenty(self):
        spec = figures_spec(seed=1)
        broken = "e2"

        def fake_main(argv):
            key = argv[1]
            if key == broken:
                raise RuntimeError("injected")
            decreasing = key in ("8", "12")
            rows = [(x, 1.0 - x / 10 if decreasing else x / 10) for x in range(1, 4)]
            print(f"Fig. {key}: fake")
            print("x  Analysis: a")
            print("-  -----------")
            for x, y in rows:
                print(f"{x}  {y:.4f}")
            return 0

        outcome = Outcome(attempted=len(spec["figures"]), unit="figures")
        run_figures(spec, fake_main, outcome, lambda name: contextlib.nullcontext())
        self.assertEqual(outcome.attempted, 20)
        self.assertEqual(outcome.failed, 1)
        self.assertAlmostEqual(outcome.failed / outcome.attempted, 1 / 20)
        self.assertIn("figure e2 raised", outcome.failures[0])
        self.assertTrue(all(check["ok"] for check in outcome.checks))

    def test_engine_counters_without_spans(self):
        from repro.experiments import figure_10

        tally = {}
        with Tracer() as tracer:
            tracer.install([engine_target(tally)])
            figure_10(graphs=1, sessions_per_graph=20, seed=3)
        self.assertGreater(tally["dispatched_sessions"], 0)
        self.assertEqual(tally["quarantined"], 0)
        outcome = Outcome(attempted=60, unit="sessions")
        fail_on_engine(outcome, tally, dict(tally, quarantined=tally["quarantined"] - 2))
        self.assertEqual(outcome.failed, 2)

    def test_failures_never_exceed_attempts(self):
        outcome = Outcome(attempted=3, unit="x")
        outcome.fail(2, "a")
        outcome.fail(5, "b")
        self.assertEqual(outcome.failed, 3)

    def test_tracker_error_count(self):
        block = (
            "Traceback (most recent call last):\n"
            '  File ".../multiprocessing/resource_tracker.py", line 239, in main\n'
            "    cache[rtype].remove(name)\n"
            "KeyError: '/psm_abc'\n"
        )
        other = "Traceback (most recent call last):\n  File \"x.py\"\nKeyError: 1\n"
        self.assertEqual(count_tracker_errors(block * 3 + other), 3)


class WrapperLifecycle(unittest.TestCase):
    def test_install_then_uninstall_leaves_repro_identical(self):
        import repro.cli  # noqa: F401 - load every module the workloads reach
        import repro.experiments  # noqa: F401

        before = snapshot_callables()
        for tracer, tracer_targets in (
            (Tracer(), [engine_target({})]),
            (Tracer(SpanRecorder()), targets({})),
        ):
            tracer.install(tracer_targets)
            during = snapshot_callables()
            changed = {key for key in before if during.get(key) != before[key]}
            self.assertIn(("repro.sim.engine", "SimulationEngine.run"), changed)
            tracer.uninstall()
            self.assertEqual(snapshot_callables(), before)
        self.assertIn(("repro.experiments.delivery_figs", "random_contact_graph"), changed)


class BenchmarkFile(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            bench["per_layer"],
            [{"name": m["name"], "unit": m["unit"], "better": m["better"]} for m in METRICS],
        )
        self.assertEqual([w["name"] for w in bench["workloads"]], list(WORKLOADS))
        for workload in bench["workloads"]:
            self.assertEqual(workload["why"], WORKLOADS[workload["name"]].why)
        self.assertEqual(len(FIGURE_KEYS), 20)


if __name__ == "__main__":
    unittest.main()
