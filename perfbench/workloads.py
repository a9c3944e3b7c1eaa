"""The benchmark's workloads: inputs from a seed, the timed body, and
the checks on its output.

Every workload is driven through the program's public surface — a
figure function or ``repro.cli.main`` — at the user-facing defaults
(no kernel-backend override). The bench seed only picks the seeds the
program is given (:func:`derive_seed`); sizes are fixed per workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from layers import FIGURE_KEYS

# Input sizes: large enough that Monte Carlo noise cannot flip a checked
# ordering, small enough that one repetition takes a few seconds.
DELIVERY_SESSIONS_PER_GRAPH = 500
DELIVERY_GRAPHS = 5  # figure_10's default
SECURITY_TRIALS = 20_000

# Checked orderings may trail by this many (upper-bounded) Monte Carlo
# standard errors before a check fails.
Z = 4.0


def derive_seed(seed: int, tag: str) -> int:
    """The program-facing seed for one input of a workload."""
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class Outcome:
    """What one repetition of a workload body produced."""

    attempted: int
    unit: str
    failures: List[str] = field(default_factory=list)
    failed: int = 0
    checks: List[dict] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    # Resilience events the body found in FigureResult.metadata.
    metadata_events: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    def fail(self, operations: int, cause: str) -> None:
        self.failed = min(self.attempted, self.failed + operations)
        self.failures.append(cause)

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.outputs).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    layers: Sequence[str]
    entry: str
    spec: Callable[[int], dict]
    body: Callable[[dict, dict, Callable], Outcome]
    tracemalloc_pass: bool = False
    # When set, the traced run adds a pass of the same inputs through a
    # WorkerPool of this many workers, which supplies the ipc.* metrics.
    pool_workers: int = 0


def fail_on_engine(outcome: "Outcome", tally, before: dict, operations=None, where="") -> None:
    """Count the quarantines and engine fallbacks added to ``tally`` (the
    engine counters, see ``layers.engine_target``) since ``before`` as
    failures: one operation each, or ``operations`` in total when given."""
    if tally is None:
        return
    quarantined = tally.get("quarantined", 0) - before.get("quarantined", 0)
    fallbacks = tally.get("fallbacks", 0) - before.get("fallbacks", 0)
    if quarantined or fallbacks:
        count = operations if operations is not None else quarantined + fallbacks
        outcome.fail(count, f"{where}{quarantined} quarantined sessions, {fallbacks} engine fallbacks")


# ----------------------------------------------------------------------
# series helpers


def _series(result, prefix: str) -> Dict[str, list]:
    return {
        s.label[len(prefix):]: [y for _, y in s.points]
        for s in result.series
        if s.label.startswith(prefix)
    }


def _figure_text(result) -> str:
    """Full-precision serialisation of a FigureResult for the digest."""
    return json.dumps(
        [[s.label, [[repr(x), repr(y)] for x, y in s.points]] for s in result.series]
    )


def _se_bound(p: float, n: int) -> float:
    """Upper bound on the standard error of a mean of ``n`` draws in
    [0, 1] with mean ``p`` (Bhatia–Davis: variance ≤ p(1 - p))."""
    p = min(max(p, 0.0), 1.0)
    return math.sqrt(p * (1.0 - p) / n)


def _monotone(values: Sequence[float], increasing: bool, slack: float = 1e-12) -> bool:
    pairs = zip(values, values[1:])
    if increasing:
        return all(b >= a - slack for a, b in pairs)
    return all(b <= a + slack for a, b in pairs)


def _metadata_events(result) -> int:
    resilience = (result.metadata or {}).get("resilience") or {}
    return len(resilience.get("events", ()))


# ----------------------------------------------------------------------
# delivery-sweep


def delivery_spec(seed: int) -> dict:
    return {
        "figure": 10,
        "sessions_per_graph": DELIVERY_SESSIONS_PER_GRAPH,
        "graphs": DELIVERY_GRAPHS,
        "seed": derive_seed(seed, "figure_10"),
    }


def check_delivery(result, outcome: Outcome, sessions: int) -> bool:
    """DESIGN.md §5: delivery nondecreasing in deadline, ordered in L.

    The simulated ordering may trail by ``Z`` standard errors of the
    difference; delivery sim vs Eqs. 6/7 is not checked (the model is
    knowingly optimistic)."""
    ok = True
    for kind in ("Analysis: ", "Simulation: "):
        curves = _series(result, kind)
        for label, values in curves.items():
            ok &= outcome.check(
                f"{kind}{label} nondecreasing in deadline", _monotone(values, True)
            )
        labels = sorted(curves, key=lambda text: int(text.split("=")[1]))
        for lo, hi in zip(labels, labels[1:]):
            worst = 0.0
            for a, b in zip(curves[lo], curves[hi]):
                slack = 1e-9
                if kind == "Simulation: ":
                    slack = Z * math.hypot(_se_bound(a, sessions), _se_bound(b, sessions))
                worst = max(worst, (a - b) - slack)
            ok &= outcome.check(
                f"{kind}{hi} >= {lo} at every deadline",
                worst <= 0.0,
                f"largest shortfall beyond tolerance {worst:.4g}",
            )
    return ok


def delivery_body(spec: dict, ctx: dict, span: Callable) -> Outcome:
    from repro.experiments import figure_10

    sessions = spec["sessions_per_graph"] * spec["graphs"]
    outcome = Outcome(attempted=3 * sessions, unit="sessions")
    kwargs = {"sessions_per_graph": spec["sessions_per_graph"], "seed": spec["seed"]}
    if ctx.get("pool") is not None:
        kwargs["workers"] = ctx["pool"]
    tally = ctx.get("tally")
    before = dict(tally) if tally is not None else None
    try:
        with span("figure 10"):
            result = figure_10(**kwargs)
    except Exception as error:  # a failed figure fails all its sessions
        outcome.fail(outcome.attempted, f"figure_10 raised {error!r}")
        return outcome
    fail_on_engine(outcome, tally, before)
    outcome.outputs.append(_figure_text(result))
    events = _metadata_events(result)
    if events:
        outcome.metadata_events += events
        outcome.fail(events, f"{events} resilience events in figure metadata")
    if not check_delivery(result, outcome, sessions):
        outcome.fail(outcome.attempted, "figure_10 output check failed")
    return outcome


# ----------------------------------------------------------------------
# security-sweep


def security_spec(seed: int) -> dict:
    return {
        "figures": [6, 8, 12],
        "trials": SECURITY_TRIALS,
        "seeds": {str(k): derive_seed(seed, f"figure_{k}") for k in (6, 8, 12)},
    }


# Trial blocks each figure samples: fig 6 and 12 one fused block, fig 8
# one per group size.
SECURITY_BLOCKS = {6: 1, 8: 3, 12: 1}


def check_security(key: int, result, outcome: Outcome, trials: int) -> bool:
    """Traceable rate increasing in c and within Monte Carlo error of
    Eqs. 8-12; anonymity decreasing in c (and in L for fig 12)."""
    ok = True
    sims = _series(result, "Simulation: ")
    if key == 6:
        analysis = _series(result, "Analysis: ")
        for label, values in sims.items():
            ok &= outcome.check(f"fig 6 {label}: traceable increasing in c", _monotone(values, True))
            worst = 0.0
            for ana, sim in zip(analysis[label], values):
                tol = Z * _se_bound(ana, trials) + 1e-9
                worst = max(worst, abs(sim - ana) - tol)
            ok &= outcome.check(
                f"fig 6 {label}: simulation within {Z:g} SE of Eqs. 8-12",
                worst <= 0.0,
                f"largest excess over tolerance {worst:.4g}",
            )
    else:
        for label, values in sims.items():
            ok &= outcome.check(
                f"fig {key} {label}: anonymity decreasing in c", _monotone(values, False)
            )
    if key == 12:
        labels = sorted(sims, key=lambda text: int(text.split("=")[1]))
        for lo, hi in zip(labels, labels[1:]):
            worst = max(
                b - a - Z * math.hypot(_se_bound(a, trials), _se_bound(b, trials))
                for a, b in zip(sims[lo], sims[hi])
            )
            ok &= outcome.check(
                f"fig 12: anonymity {hi} <= {lo} at every c", worst <= 0.0,
                f"largest excess over tolerance {worst:.4g}",
            )
    return ok


def security_body(spec: dict, ctx: dict, span: Callable) -> Outcome:
    from repro.experiments import figure_06, figure_08, figure_12

    functions = {6: figure_06, 8: figure_08, 12: figure_12}
    outcome = Outcome(attempted=sum(SECURITY_BLOCKS.values()), unit="trial blocks")
    for key in spec["figures"]:
        try:
            with span(f"figure {key}"):
                result = functions[key](trials=spec["trials"], seed=spec["seeds"][str(key)])
        except Exception as error:
            outcome.fail(SECURITY_BLOCKS[key], f"figure_{key:02d} raised {error!r}")
            continue
        outcome.outputs.append(_figure_text(result))
        events = _metadata_events(result)
        if events:
            outcome.metadata_events += events
            outcome.fail(events, f"fig {key}: {events} resilience events in metadata")
        if not check_security(key, result, outcome, spec["trials"]):
            outcome.fail(SECURITY_BLOCKS[key], f"fig {key}: output check failed")
    return outcome


# ----------------------------------------------------------------------
# figures


def figures_spec(seed: int) -> dict:
    return {"figures": {key: derive_seed(seed, f"figure_{key}") for key in FIGURE_KEYS}}


def parse_table(text: str) -> Dict[str, List[float]]:
    """Columns of a ``FigureResult.to_table()`` print, by header label."""
    lines = [line for line in text.splitlines() if line.strip()]
    header = re.split(r"\s{2,}", lines[1].strip())
    columns: Dict[str, List[float]] = {label: [] for label in header}
    for line in lines[3:]:
        cells = line.split()
        if len(cells) != len(header):
            break
        for label, cell in zip(header, cells):
            columns[label].append(float(cell))
    return columns


# Deterministic model curves of the printed figures: (figure, column
# prefix, increasing?) — shapes from DESIGN.md §5.
_FIGURE_SHAPES = {
    "4": ("Analysis: ", True),
    "5": ("Analysis: ", True),
    "10": ("Analysis: ", True),
    "6": ("Analysis: ", True),
    "8": ("Analysis: ", False),
    "12": ("Analysis: ", False),
}


def run_figures(spec: dict, main: Callable, outcome: Outcome, span: Callable, tally=None) -> None:
    """Regenerate each figure through ``main`` (the CLI); each figure is an
    operation that fails on an exception, a nonzero exit, a quarantined
    session or engine fallback, or a failed check."""
    for key, seed in spec["figures"].items():
        buffer = io.StringIO()
        before = dict(tally) if tally is not None else None
        try:
            with span(f"figure {key}"), contextlib.redirect_stdout(buffer):
                code = main(["figure", key, "--seed", str(seed)])
        except Exception as error:
            outcome.fail(1, f"figure {key} raised {error!r}")
            continue
        text = buffer.getvalue()
        outcome.outputs.append(text)
        if code != 0:
            outcome.fail(1, f"figure {key} exited {code}")
            continue
        fail_on_engine(outcome, tally, before, operations=1, where=f"figure {key}: ")
        ok = outcome.check(f"figure {key} printed a table", len(text.splitlines()) >= 4)
        if ok and key in _FIGURE_SHAPES:
            prefix, increasing = _FIGURE_SHAPES[key]
            try:
                columns = parse_table(text)
            except (IndexError, ValueError) as error:
                ok = outcome.check(f"figure {key} table parses", False, repr(error))
            else:
                for label, values in columns.items():
                    if label.startswith(prefix):
                        ok &= outcome.check(
                            f"figure {key} {label} {'increasing' if increasing else 'decreasing'}",
                            bool(values) and _monotone(values, increasing),
                        )
        if not ok:
            outcome.fail(1, f"figure {key} output check failed")


def figures_body(spec: dict, ctx: dict, span: Callable) -> Outcome:
    from repro.cli import main

    outcome = Outcome(attempted=len(spec["figures"]), unit="figures")
    run_figures(spec, main, outcome, span, ctx.get("tally"))
    return outcome


# ----------------------------------------------------------------------
# registry

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="delivery-sweep",
            why="figure_10 serial (L=1,3,5; 5 graphs x 500 sessions): core session setup, sim "
            "kernels and replay, analysis curve; its traced run adds a WorkerPool(2) pass for IPC",
            layers=("core", "sim", "analysis", "contacts", "ipc"),
            entry="repro.experiments",
            spec=delivery_spec,
            body=delivery_body,
            tracemalloc_pass=True,
            pool_workers=2,
        ),
        Workload(
            name="security-sweep",
            why="figures 6, 8, 12 at 20k trials: stresses the adversary layer (block sampling, "
            "compromise masks, scoring); fig 6 shares masks, fig 8 cannot; contacts and sim unused",
            layers=("adversary",),
            entry="repro.experiments",
            spec=security_spec,
            body=security_body,
        ),
        Workload(
            name="figures",
            why="all 20 figures at defaults via onion-dtn figure: the regenerate-the-paper path; "
            "only workload timing the scalar object engine, faults, TPS and trace replay",
            layers=("experiments", "sim", "faults", "contacts", "core", "analysis", "adversary", "import"),
            entry="repro.cli",
            spec=figures_spec,
            body=figures_body,
        ),
    )
}


def spec_hash(name: str, spec: dict) -> str:
    payload = json.dumps({"workload": name, "spec": spec}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
