"""The repo benchmark: time a workload end to end, or split it into layers.

Run from the repository root::

    python3 perfbench/run.py --workload delivery-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

A closed loop with one client: each repetition is a fresh child process
(``child.py``) started only after the previous one ended, so at most one
workload process (plus the two pool workers of delivery-sweep's pooled
pass) runs at a time. Repetitions start until ``--seconds`` have passed
(at least one).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with
tracing off: medians over the repetitions, plus extra set-up-only children
so that ``setup_s`` is always a median of at least three.

``setup_s`` and ``run_s`` are wall times rescaled to a reference host
speed. A shared host changes speed by 20-40% within seconds to minutes,
which alone would spread run-to-run medians past any useful bound. The
harness therefore times a fixed calibration kernel (``child.calibrate``)
in a process of its own, which never imports the program, before the
first child and after every child, and rescales each child's timings by
the calibrations on either side of it (see ``scaled``). The raw wall
medians are printed (``raw:``), kept in the run record, and reported by
``--trace 1`` as ``wall.setup_s`` and ``wall.run_s``.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of BENCHMARK.json from one traced repetition (the one
with the median rescaled run time); its layer times are raw wall seconds
that reconcile with that repetition's raw ``trace.run_s``.
``trace.overhead_s`` is that repetition's rescaled run time minus the
untraced rescaled median.

Every repetition checks its output; the run also requires that all
repetitions of one seed print the same output digest. The last stdout
line is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when a check failed. The full run record
(child records, provenance, span files) goes to ``.perfbench-runs/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import METRICS, NOT_MEASURED  # noqa: E402
from workloads import WORKLOADS, spec_hash  # noqa: E402

MIN_SETUP_SAMPLES = 3
# Seconds per calibration round at the reference speed (the median of
# the calibration process on the 2-vCPU KVM host the benchmark was tuned
# on); timings are rescaled to it.
CAL_REF_ROUND_S = 0.024
CHILD_TIMEOUT_S = 100
RECORD_DIR = ".perfbench-runs"


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, or a child crashed)."""


def git_rev(root: Path):
    """The checked-out commit read from ``.git``, or None outside a repo."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, refname = line.partition(" ")
            if refname == name:
                return sha
    return None


def count_tracker_errors(stderr: str) -> int:
    """Tracebacks from multiprocessing's resource tracker ending in KeyError."""
    blocks = stderr.split("Traceback (most recent call last):")[1:]
    return sum(
        1 for block in blocks if "resource_tracker" in block and re.search(r"^KeyError", block, re.M)
    )


class Harness:
    def __init__(self, root: Path, seed: int, record_dir: Path):
        self.root = root
        self.seed = seed
        self.record_dir = record_dir
        env = dict(os.environ)
        self.repro_env = {k: v for k, v in env.items() if k.startswith("REPRO_")}
        env.pop("REPRO_KERNEL_BACKEND", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.env = env
        self.children = 0
        self.last_cal = None

    def _run(self, args: list, what: str):
        """Run ``child.py`` with ``args`` to its end; its stdout lines and stderr."""
        # A session of its own, so a timeout can kill the child together
        # with its pool workers and resource tracker.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py")] + args, cwd=self.root, env=self.env,
            text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{what} child timed out after {CHILD_TIMEOUT_S} s")
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{what} child exited {proc.returncode}:\n{stderr[-3000:]}")
        return lines, stderr

    def calibrate(self) -> float:
        lines, _ = self._run(["--mode", "calibrate"], "calibration")
        return json.loads(lines[-1])["cal_round_s"]

    def spawn(self, workload: str, mode: str, spans_out: Path = None, workers: int = 0) -> dict:
        """One child, with the calibrations just before and after it."""
        if self.last_cal is None:
            self.last_cal = self.calibrate()
        args = ["--workload", workload, "--seed", str(self.seed), "--mode", mode]
        if workers:
            args += ["--workers", str(workers)]
        if spans_out is not None:
            args += ["--spans-out", str(spans_out)]
        lines, stderr = self._run(args + ["--t0", repr(time.perf_counter())], f"{workload} {mode}")
        self.children += 1
        record = json.loads(lines[-1])
        record["cal_before_s"] = self.last_cal
        record["cal_after_s"] = self.last_cal = self.calibrate()
        record["tracker_errors"] = count_tracker_errors(stderr)
        record["stderr_tail"] = stderr[-2000:]
        return record


def scaled(record, key):
    """A child's ``setup_s`` or ``run_s`` at the reference speed.

    Set-up follows the calibration before the child closely and is
    rescaled by it; the body by the mean of the calibrations before and
    after the child.
    """
    if key == "setup_s":
        return record["setup_s"] * CAL_REF_ROUND_S / record["cal_before_s"]
    speed = (record["cal_before_s"] + record["cal_after_s"]) / 2
    return record["run_s"] * CAL_REF_ROUND_S / speed


def _loop(harness, name, seconds, modes):
    """Start children cycling through ``modes`` until ``seconds`` elapsed.
    Traced children write their spans next to the run record."""
    records = {mode: [] for mode in modes}
    start = time.perf_counter()
    while True:
        for mode in modes:
            spans_out = None
            if mode == "traced":
                index = len(records[mode])
                spans_out = harness.record_dir / f"spans-{name}-seed{harness.seed}-{index}.json"
            record = harness.spawn(name, mode, spans_out)
            record["spans_file"] = str(spans_out) if spans_out else None
            records[mode].append(record)
        if time.perf_counter() - start >= seconds:
            return records


def _verdict(records):
    """Checks, digests and failure counts over every child with output."""
    checked = [r for r in records if "checks" in r]
    bad_checks = [c for r in checked for c in r["checks"] if not c["ok"]]
    digests = sorted({r["digest"] for r in checked})
    failures = [cause for r in checked for cause in r["failures"]]
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    correct = not bad_checks and len(digests) == 1 and failed == 0
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "unit": checked[0]["unit"] if checked else "",
        "digests": digests,
        "failed_checks": bad_checks,
        "failures": failures,
        "checks_run": sum(len(r["checks"]) for r in checked),
    }


def run_workload(harness, name, seconds, trace):
    workload = WORKLOADS[name]
    spec = workload.spec(harness.seed)
    load_before = os.getloadavg()
    children_before = harness.children
    # Byte-compile stale sources once, so no timed child pays for it (a
    # fresh checkout has no __pycache__; users pay this only once).
    compileall.compile_dir(str(harness.root / "src"), quiet=1)
    extra = {}
    if not trace:
        records = _loop(harness, name, seconds, ["plain"])["plain"]
        setup_records = list(records)
        while len(setup_records) < MIN_SETUP_SAMPLES:
            setup_records.append(harness.spawn(name, "setup"))
        samples = {
            "setup_s": [scaled(r, "setup_s") for r in setup_records],
            "run_s": [scaled(r, "run_s") for r in records],
            "peak_rss_mb": [r["peak_rss_mb"] for r in records],
            "setup_wall_s": [r["setup_s"] for r in setup_records],
            "run_wall_s": [r["run_s"] for r in records],
            "calibration_round_s": [records[0]["cal_before_s"]]
            + [r["cal_after_s"] for r in setup_records],
        }
        values = {key: statistics.median(samples[key]) for key in ("setup_s", "run_s", "peak_rss_mb")}
        extra["raw"] = {
            "setup_wall_s": statistics.median(samples["setup_wall_s"]),
            "run_wall_s": statistics.median(samples["run_wall_s"]),
        }
        all_records = records
    else:
        looped = _loop(harness, name, seconds, ["plain", "traced"])
        plain, traced = looped["plain"], looped["traced"]
        ordered = sorted(traced, key=lambda r: scaled(r, "run_s"))
        chosen = ordered[(len(ordered) - 1) // 2]
        for record in traced:  # keep the span file of the reported repetition only
            if record is not chosen:
                Path(record["spans_file"]).unlink(missing_ok=True)
        extra["spans_file"] = chosen["spans_file"]
        serial = statistics.median(scaled(r, "run_s") for r in plain)
        values = dict(chosen["layers"])
        values["trace.overhead_s"] = scaled(chosen, "run_s") - serial
        values["ipc.tracker_errors"] = chosen["tracker_errors"]
        values["ipc.pooled_run_s"] = 0.0
        values["wall.setup_s"] = statistics.median(r["setup_s"] for r in plain)
        values["wall.run_s"] = statistics.median(r["run_s"] for r in plain)
        all_records = plain + traced
        if workload.tracemalloc_pass:
            measured = harness.spawn(name, "tracemalloc")
            all_records.append(measured)
            values["core.bytes_per_session"] = measured["tracemalloc_peak"] / measured["sessions"]
            extra["tracemalloc"] = {"peak_bytes": measured["tracemalloc_peak"], "sessions": measured["sessions"]}
        workers = workload.pool_workers
        if workers:
            # The IPC layer only runs with a pool: take its metrics from a
            # traced repetition of the same inputs through WorkerPool(workers),
            # and its efficiency against this run's serial repetitions.
            pooled = harness.spawn(name, "plain", workers=workers)
            pooled_traced = harness.spawn(name, "traced", workers=workers)
            values.update({k: v for k, v in pooled_traced["layers"].items()
                           if k.startswith("ipc.") and not k.endswith(".self_s")})
            values["ipc.tracker_errors"] = pooled_traced["tracker_errors"]
            values["ipc.pooled_run_s"] = scaled(pooled, "run_s")
            values["ipc.efficiency"] = serial / (workers * values["ipc.pooled_run_s"])
            extra["ipc.efficiency_base"] = (
                f"{name} run_s {serial:.4f} s (serial median, this run) / ({workers} workers x "
                f"pooled run_s {values['ipc.pooled_run_s']:.4f} s, same seed, this run)"
            )
            extra["ipc_verdict"] = _verdict([pooled, pooled_traced])
        samples = {
            "traced_run_s": [scaled(r, "run_s") for r in traced],
            "untraced_run_s": [scaled(r, "run_s") for r in plain],
        }
        extra["span_count"] = chosen["span_count"]
    verdict = _verdict(all_records)
    if "ipc_verdict" in extra:  # pooled repetitions print their own digest
        verdict["correct"] &= extra["ipc_verdict"]["correct"]
    first = all_records[0]
    provenance = {
        "workload": name,
        "seed": harness.seed,
        "spec": spec,
        "spec_hash": spec_hash(name, spec),
        "backend": first["backend"],
        "repro_env": harness.repro_env,
        "versions": first["versions"],
        "git_rev": git_rev(harness.root),
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "children": harness.children - children_before,
    }
    return {"values": values, "samples": samples, "verdict": verdict,
            "provenance": provenance, "extra": extra, "records": all_records}


def _metric_table(trace, bench):
    if trace:
        return [(m["name"], m["unit"]) for m in bench["per_layer"]]
    return [(m["name"], m["unit"]) for m in bench["end_to_end"]]


def report(name, result, trace, bench):
    """Human-readable lines for one workload; returns its metrics dict."""
    verdict, prov = result["verdict"], result["provenance"]
    print(f"== {name}  seed={prov['seed']}  trace={int(trace)}  backend={prov['backend']}  "
          f"spec={prov['spec_hash']}  children={prov['children']}  "
          f"layers={','.join(WORKLOADS[name].layers)}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    metrics = {}
    for metric, unit in _metric_table(trace, bench):
        value = result["values"][metric]
        metrics[metric] = {"value": value, "unit": unit}
        print(f"  {metric:<28} {value:>14.6g} {unit}")
    frac = verdict["failed"] / verdict["attempted"] if verdict["attempted"] else 1.0
    print(f"  {'failed_frac':<28} {frac:>14.6g} ratio  "
          f"({verdict['failed']}/{verdict['attempted']} {verdict['unit']})")
    for cause in verdict["failures"]:
        print(f"    failure: {cause}")
    print(f"  checks: {verdict['checks_run']} run, {len(verdict['failed_checks'])} failed; "
          f"digests {','.join(verdict['digests'])}")
    for check in verdict["failed_checks"]:
        print(f"    FAILED {check['name']}: {check['detail']}")
    if len(verdict["digests"]) > 1:
        print("    FAILED repetitions of one seed printed different outputs")
    for key, value in result["extra"].items():
        print(f"  {key}: {value}")
    print("  samples: " + json.dumps(result["samples"]))
    if trace:
        for m in METRICS:
            print(f"  moves[{m['name']}] -> {m['moves']}")
        for metric, why in NOT_MEASURED.items():
            print(f"  not measured from outside: {metric}: {why}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
        help="a workload, or 'all' for every workload BENCHMARK.json lists",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program to measure (src/repro missing); run from the repo root",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    record_dir = root / RECORD_DIR
    record_dir.mkdir(exist_ok=True)
    harness = Harness(root, args.seed, record_dir)
    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    results, metrics = {}, {}
    try:
        for name in names:
            results[name] = run_workload(harness, name, args.seconds, bool(args.trace))
            shown = report(name, results[name], bool(args.trace), bench)
            if args.workload == "all":
                metrics.update({f"{name}.{k}": v for k, v in shown.items()})
            else:
                metrics = shown
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = record_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    out.write_text(json.dumps(results, indent=1, default=str))
    correct = all(r["verdict"]["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["verdict"]["attempted"] for r in results.values()),
        "failed": sum(r["verdict"]["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
