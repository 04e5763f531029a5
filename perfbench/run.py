"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload aged --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the workload runs untraced and the last line of
standard output is a JSON object holding every end-to-end metric that
``BENCHMARK.json`` lists. With ``--trace 1`` the workload runs once
untraced and once with the benchmark's per-layer spans installed (see
``perfbench/layers.py``), and the JSON line holds every per-layer metric.
Lines before it print every figure by name, with its unit and sample
count, the exact work counts, and any correctness-gate failure.

Set-up time is measured in fresh interpreters (import, machine boot and
workload construction), several times, each bracketed by a host-speed
probe, and reported as the median at the probe's reference speed (see
``measure_setup``). The whole run is pinned to one CPU (see
``pin_to_one_cpu``).
Spans of a traced run, and the work counts of every run, are written
under ``.bench_out/``; a count that differs from an earlier run of the
same workload and seed is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("aged", "suite", "hunt")
SETUP_REPEATS = 13

#: Host-speed probe for set-up time: a fresh interpreter importing a fixed
#: set of standard-library modules. It is work of set-up's own kind
#: (interpreter start, unmarshalling and running module code) that no
#: change to the program can make faster or slower.
PROBE_CODE = (
    "import time\n"
    "started = time.perf_counter()\n"
    "import argparse, ast, asyncio, dataclasses, decimal, difflib, "
    "email.parser, fractions, http.client, inspect, json, logging, "
    "pathlib, statistics, tarfile, typing, unittest, xml.dom.minidom, "
    "zipfile\n"
    "print(time.perf_counter() - started)\n"
)
#: The probe's seconds on the reference host: Python 3.11.7 on a quiet
#: core of a 2-core x86-64 host.
PROBE_REF_S = 0.08

#: Fresh-interpreter set-up per workload: imports, then construction up
#: to the first timed operation.
SETUP_CODE = {
    "aged": (
        "from repro.machine import Machine\n"
        "from repro.testing.random_tester import RandomTester",
        "RandomTester(Machine(), seed=1)",
    ),
    "suite": (
        "from repro.testing.handwritten import ALL_TESTS\n"
        "from repro.testing.harness import make_machine, run_tests",
        "make_machine()",
    ),
    "hunt": (
        "from repro.machine import Machine\n"
        "from repro.testing.campaign.engine import CampaignConfig, CampaignEngine",
        "engine = CampaignEngine(CampaignConfig(inline=True))\n"
        "Machine.from_config(engine.config.machine_config())",
    ),
}


def _child_seconds(code: str, env: dict | None = None) -> float:
    """Run ``code`` in a fresh interpreter; return the seconds it prints."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        env=env,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Set-up seconds of ``SETUP_REPEATS`` fresh interpreters, raw and at
    the reference host speed.

    The shared host this benchmark was built on runs identical work up to
    1.5x slower for stretches of seconds to minutes, a state the process
    cannot see (no steal time, CPU time tracks wall time). Each set-up
    therefore runs between two host-speed probes and is scaled by
    ``PROBE_REF_S`` over their mean: a slow stretch slows probe and set-up
    alike, while a change to the program's set-up moves only the set-up.
    """
    imports, construct = SETUP_CODE[workload]
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "started = time.perf_counter()\n"
        f"{imports}\n{construct}\n"
        "print(time.perf_counter() - started)\n"
    )
    # The probe imports only the standard library: it must not write
    # bytecode outside the checkout.
    probe_env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    probes = [_child_seconds(PROBE_CODE, probe_env)]
    raw = []
    for _ in range(SETUP_REPEATS):
        raw.append(_child_seconds(code))
        probes.append(_child_seconds(PROBE_CODE, probe_env))
    scaled = [
        seconds * PROBE_REF_S / ((before + after) / 2)
        for seconds, before, after in zip(raw, probes, probes[1:])
    ]
    return raw, scaled


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    ``hunt``'s concurrency schedules run each simulated CPU on its own
    thread and hand the GIL from thread to thread at every scheduling
    point. Spread over two cores each hand-off wakes the other core: a
    race hunt took twice as long, with CPU time above wall time and its
    wall time doubling from run to run. On one core the hand-offs are
    cheap and steady. The benchmark runs one thread of work at a time, so
    nothing else loses by it.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Workload:
    """Binds a workload name to its unit function and shared state."""

    def __init__(self, name: str, seed: int, counters):
        from perfbench import workloads
        from perfbench.hostspeed import HostSpeed
        from repro.obs import Observability

        self.name = name
        self.counters = counters
        self.speed = HostSpeed()
        if name == "suite":
            self.order = workloads.suite_order(seed)
            # One bundle for every test, as ``run_tests(obs=...)`` shares
            # it: the oracle counters accumulate across the pass.
            self.obs = Observability()
        elif name == "hunt":
            self.order = workloads.hunt_order(seed)

    def unit(self):
        from perfbench import workloads

        if self.name == "aged":
            return workloads.aged_unit(counters=self.counters, speed=self.speed)
        if self.name == "suite":
            return workloads.suite_unit(
                self.order, obs=self.obs, counters=self.counters, speed=self.speed
            )
        return workloads.hunt_unit(
            self.order, counters=self.counters, speed=self.speed
        )


def run_units(workload: Workload, budget: float, count: int | None = None):
    """Run ``count`` units, or as many as the first unit says fit in
    ``budget`` seconds (at least one)."""
    started = time.perf_counter()
    units = [workload.unit()]
    if count is None:
        count = max(1, int(budget // (time.perf_counter() - started)))
    units += [workload.unit() for _ in range(count - 1)]
    return units


def e2e_medians(units) -> dict[str, float]:
    """Per end-to-end figure, the median over ``units``."""
    return {
        key: statistics.median(u.e2e[key] for u in units)
        for key in units[0].e2e
        if all(key in u.e2e for u in units)
    }


def regressions(parent: dict, change: dict, end_to_end: list[dict]) -> dict:
    """The metrics on which ``change`` is worse than ``parent`` by more
    than their bound, each with its relative worsening."""
    worse = {}
    for metric in end_to_end:
        name = metric["name"]
        if name not in parent or name not in change:
            continue
        delta = (change[name] - parent[name]) / parent[name]
        if metric["better"] == "higher":
            delta = -delta
        if delta > metric["bound"]:
            worse[name] = delta
    return worse


def count_drift(units, path: Path) -> list[str]:
    """Counts that differ between units of this run, or from the last
    run of the same workload and seed (whose counts ``path`` holds)."""
    first = units[0].counts
    drift = [
        f"unit {i}: {key} {first.get(key)} -> {unit.counts.get(key)}"
        for i, unit in enumerate(units[1:], start=1)
        for key in sorted(set(first) | set(unit.counts))
        if unit.counts.get(key) != first.get(key)
    ]
    if path.exists():
        previous = json.loads(path.read_text())
        drift += [
            f"previous run: {key} {previous.get(key)} -> {first.get(key)}"
            for key in sorted(set(previous) | set(first))
            if previous.get(key) != first.get(key)
        ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(first, indent=1, sort_keys=True))
    return drift


def aged_crosscheck(recorder) -> dict[str, float]:
    """Compare the benchmark's record and sweep spans with the program's
    own ``oracle:record:*`` and ``oracle:isolation-sweep`` spans over the
    same steps, read from a ``MemorySink`` bundle."""
    from perfbench import workloads
    from repro.machine import Machine
    from repro.obs import Observability, set_active_tracer

    first = len(recorder.spans)
    obs = Observability(tracing=True)
    try:
        workloads.drive(Machine(obs=obs), workloads.EARLY[1] + 100)
    finally:
        set_active_tracer(None)
    spans = recorder.spans
    ours_record = sum(
        span.dur
        for span in spans[first:]
        if span.parent >= 0
        and spans[span.parent].name == "checker.hooks"
        and (span.name == "cache" or span.name.startswith("abstraction."))
    )
    ours_sweep = sum(span.dur for span in spans[first:] if span.name == "sweep")
    theirs = obs.tracer.spans
    theirs_record = sum(
        s.dur_us for s in theirs if s.name.startswith("oracle:record:")
    ) / 1e6
    theirs_sweep = sum(
        s.dur_us for s in theirs if s.name == "oracle:isolation-sweep"
    ) / 1e6
    print(
        f"xcheck  record: benchmark {ours_record:.4f} s vs program "
        f"{theirs_record:.4f} s; sweep: benchmark {ours_sweep:.4f} s vs "
        f"program {theirs_sweep:.4f} s"
    )
    return {
        "xcheck.record_ratio": ours_record / theirs_record if theirs_record else 0.0,
        "xcheck.sweep_ratio": ours_sweep / theirs_sweep if theirs_sweep else 0.0,
    }


def traced_run(workload: Workload, args):
    """Run the workload untraced and then traced; return the per-layer
    metrics, the units whose work matches an untraced run's (for the
    count checks), and every unit run (for the gates)."""
    from perfbench import layers, workloads

    recorder = layers.SpanRecorder()
    # Figures only some workloads have; 0 elsewhere.
    extra = {"xcheck.record_ratio": 0.0, "xcheck.sweep_ratio": 0.0}
    if workload.name == "hunt":
        # A full hunt both untraced and traced would not fit the run's
        # time limit: the tracing overhead is taken on the random-mode
        # part with coverage off, which the traced run repeats anyway.
        synthetic = [b for b in workload.order if b not in workloads.RACE_BUGS]
        base = [
            workloads.hunt_unit(
                synthetic,
                counters=workload.counters,
                speed=workload.speed,
                coverage="off",
            )
        ]
    else:
        base = run_units(workload, args.seconds / 2)
    with layers.patched(layers.span_targets(recorder)):
        traced = run_units(workload, 0.0, count=len(base))
        compared = traced
        if workload.name == "aged":
            extra.update(aged_crosscheck(recorder))
        if workload.name == "hunt":
            off = workloads.hunt_unit(
                synthetic,
                counters=workload.counters,
                speed=workload.speed,
                coverage="off",
            )
            # Both at the reference host speed, as ``work_s`` is.
            named = traced[0].named
            on_s = named["synthetic_s"] * named["host_scale.work_s"]
            off_s = off.e2e["work_s"]
            print(
                f"coverage  random-mode hunt, traced, at reference host speed: "
                f"functions {on_s:.3f} s, off {off_s:.3f} s  (n=1 each)"
            )
            extra["coverage.overhead_s"] = on_s - off_s
            compared = [off]
    recorder.write_jsonl(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl")
    per_unit = [
        layers.layer_metrics(
            recorder,
            unit.window_s,
            unit.layer_counts,
            start=unit.window[0],
            end=unit.window[1],
        )
        for unit in traced
    ]
    result = {
        key: statistics.median(metrics[key] for metrics in per_unit)
        for key in per_unit[0]
    }
    result.update(extra)
    traced_s = statistics.median(u.e2e["work_s"] for u in compared)
    base_s = statistics.median(u.e2e["work_s"] for u in base)
    result["trace.overhead_ratio"] = traced_s / base_s
    print(
        f"trace  overhead {traced_s / base_s:.3f}x: traced {traced_s:.3f} s vs "
        f"untraced {base_s:.3f} s at reference host speed  (n={len(base)} units each)"
    )
    if workload.name == "hunt":
        return result, traced, base + traced + compared
    return result, base + traced, base + traced


def unit_of(name: str) -> str:
    """The unit of a printed figure, read from its name."""
    if name.startswith("host_scale"):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if "_ms" in name:
        return "ms"
    if name.endswith("_s") or name.startswith("bug_s."):
        return "s"
    if name.endswith("percentile"):
        return "%"
    if name == "cost_growth":
        return "ratio"
    return "count"


def report(units, counts_path: Path) -> None:
    """Print every figure of ``units`` by name, with its unit and sample
    count, then the exact work counts and any count drift."""
    n = len(units)
    for kind, field in (("e2e", "e2e"), ("named", "named")):
        for key in getattr(units[0], field):
            values = ", ".join(f"{getattr(u, field)[key]:.6g}" for u in units)
            per_unit = (
                f" x {units[0].samples} operations"
                if "_p50" in key or "_p95" in key
                else ""
            )
            print(f"{kind}  {key}: {values} {unit_of(key)}  (n={n} units{per_unit})")
    for key, value in units[0].counts.items():
        print(f"count  {key}: {value}")
    for line in count_drift(units, counts_path):
        print(f"COUNT DRIFT  {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    spec = json.loads(spec_path.read_text())
    pin_to_one_cpu()

    from perfbench import layers

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    counters = layers.Counters()
    workload = Workload(args.workload, args.seed, counters)
    with layers.patched(layers.counter_targets(counters)):
        if args.trace:
            metrics, checked, units = traced_run(workload, args)
            wanted = spec["per_layer"]
        else:
            raw, setup = measure_setup(args.workload)
            print(f"setup_raw_s: {', '.join(f'{s:.4f}' for s in raw)}  (n={len(raw)})")
            print(
                f"setup_s: {', '.join(f'{s:.4f}' for s in setup)}  "
                f"(n={len(setup)}, at reference host speed)"
            )
            units = checked = run_units(workload, args.seconds)
            metrics = e2e_medians(units)
            metrics["setup_s"] = statistics.median(setup)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
            wanted = spec["end_to_end"]

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    errors = [line for u in units for line in u.errors]
    if all(u.counts for u in checked):
        report(checked, OUT / "counts" / f"{args.workload}-seed{args.seed}.json")
    print(f"failed_share: {failed / attempted:.6g}  ({failed} of {attempted} operations)")
    for line in errors:
        print(f"GATE FAILED  {line}")
    if args.trace:
        for m in wanted:
            if m["name"] in metrics:
                print(f"layer  {m['name']}: {metrics[m['name']]:.6g} {m['unit']}")
    missing = sorted({m["name"] for m in wanted} - set(metrics))
    if missing:
        print(f"not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
