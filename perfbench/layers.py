"""Per-layer attribution for the benchmark, recorded from outside ``src/``.

The benchmark wraps each layer's entry points in its own spans: every
span records its name, start, end and parent, and the spans under one
root span (one tester step, one handwritten test, one hunted bug) share
a step id. Spans stay in memory and are written out when the run ends.
A layer's self time is its spans' durations minus the time their child
spans cover; whatever no span covers is reported as unattributed.

Only the main thread records spans. Concurrency schedules run each
simulated CPU on its own OS thread, one admitted at a time; their
hypervisor work therefore lands in the enclosing ``sched`` span instead
of being double-counted across overlapping per-thread intervals.

The work counters (:class:`Counters`) are installed in untraced runs
too: they count hypercalls, their return codes and shrink replays, work
that no program counter reports, at the cost of one Python call around
an operation that takes milliseconds.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import threading
import time
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "step")

    def __init__(self, name: str, parent: int, step: int):
        self.name = name
        self.parent = parent
        self.step = step
        self.start = 0.0
        self.end = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory spans around wrapped callables (main thread only)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._steps = 0
        self._main = threading.main_thread()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if threading.current_thread() is not self._main:
                return fn(*args, **kwargs)
            stack = self._stack
            if stack:
                parent = stack[-1]
                step = self.spans[parent].step
            else:
                parent = -1
                self._steps += 1
                step = self._steps
            span = Span(name, parent, step)
            stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def self_times(self, start: float = 0.0, end: float = float("inf")):
        """``{layer: (self seconds, span count, [durations])}`` over the
        spans that started inside ``[start, end)``."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.dur
        out: dict[str, tuple[float, int, list[float]]] = {}
        for index, span in enumerate(self.spans):
            if not start <= span.start < end:
                continue
            self_s, count, durs = out.get(span.name, (0.0, 0, []))
            durs.append(span.dur)
            out[span.name] = (self_s + span.dur - child[index], count + 1, durs)
        return out

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "step": span.step,
                        }
                    )
                    + "\n"
                )


class Counters:
    """Exact work counts the program keeps no counter for, and the start
    and seconds of each shrink replay (``hunt``'s operation latency)."""

    def __init__(self):
        self.hcalls = 0
        self.hcall_errors = 0
        self.replays = 0
        self.replay_times: list[tuple[float, float]] = []

    def count_hvc(self, fn):
        def counted(*args, **kwargs):
            ret = fn(*args, **kwargs)
            self.hcalls += 1
            if ret < 0:
                self.hcall_errors += 1
            return ret

        return counted

    def count_replay(self, fn):
        def counted(*args, **kwargs):
            self.replays += 1
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.replay_times.append((started, time.perf_counter() - started))

        return counted


@contextlib.contextmanager
def patched(targets):
    """Set ``(owner, attribute, replacement)`` triples; restore on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def counter_targets(counters: Counters):
    from repro.pkvm.host import Host
    from repro.testing.campaign import shrink

    return [
        (Host, "hvc", counters.count_hvc(Host.hvc)),
        (shrink, "_reproduces", counters.count_replay(shrink._reproduces)),
        (
            shrink,
            "_reproduces_schedule",
            counters.count_replay(shrink._reproduces_schedule),
        ),
    ]


#: Layer entry points: ``(module path, attribute path, span name)``. The
#: attribute is looked up where the caller looks it up (for example
#: ``record_abstraction_host`` in the checker's namespace), so replacing
#: it there puts the span around every call the program makes.
ENTRY_POINTS = (
    ("repro.testing.random_tester", "RandomTester.step", "generator"),
    ("repro.testing.harness", "run_one", "harness"),
    ("repro.machine", "Machine.__init__", "machine"),
    ("repro.pkvm.hyp", "PKvm.handle_trap", "pkvm"),
    ("repro.ghost.checker", "GhostChecker.on_handler_entry", "checker.handler"),
    ("repro.ghost.checker", "GhostChecker.on_handler_exit", "checker.handler"),
    ("repro.ghost.checker", "GhostChecker._on_acquire", "checker.hooks"),
    ("repro.ghost.checker", "GhostChecker._on_release", "checker.hooks"),
    ("repro.ghost.checker", "GhostChecker._check_record", "checker.compare"),
    ("repro.ghost.checker", "GhostChecker._check_separation", "checker.separation"),
    ("repro.ghost.checker", "GhostChecker._check_isolation", "sweep"),
    ("repro.ghost.checker", "compute_post_trap", "spec"),
    ("repro.ghost.checker", "record_abstraction_host", "abstraction.host"),
    ("repro.ghost.checker", "record_abstraction_pkvm", "abstraction.pkvm"),
    ("repro.ghost.checker", "record_abstraction_vm_pgt", "abstraction.other"),
    ("repro.ghost.checker", "record_abstraction_vms", "abstraction.other"),
    ("repro.ghost.checker", "record_cpu_local", "abstraction.other"),
    ("repro.ghost.checker", "interpret_pgtable", "abstraction.other"),
    ("repro.ghost.cache", "AbstractionCache.record", "cache"),
    ("repro.testing.campaign.engine", "CampaignEngine.run", "campaign"),
    ("repro.testing.campaign.engine", "run_batch", "campaign.batch"),
    ("repro.testing.campaign.engine", "shrink_trace", "shrink"),
    ("repro.testing.campaign.engine", "shrink_schedule", "shrink"),
    ("repro.sim.sched", "Scheduler.run", "sched"),
    # The benchmark's own host-speed probes, kept out of every layer.
    ("perfbench.hostspeed", "HostSpeed.probe", "probe"),
)


def span_targets(recorder: SpanRecorder):
    import importlib

    targets = []
    for module_name, path, span in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        targets.append((owner, attr, recorder.wrap(span, owner.__dict__[attr])))
    return targets


def registry_counts(metrics) -> dict[str, int]:
    """The oracle's own counters, read from a metrics registry."""
    names = {
        "checks_run": "oracle_checks_run",
        "checks_skipped": "oracle_checks_skipped",
        "cache_hits": "oracle_cache_hits",
        "cache_misses": "oracle_cache_misses",
        "cache_invalidations": "oracle_cache_invalidations",
        "sweeps_run": "oracle_isolation_checks_run",
        "sweeps_skipped": "oracle_isolation_sweeps_skipped",
        "violations": "oracle_violations",
    }
    return {key: metrics.counter(name).value for key, name in names.items()}


def ghost_peak_mb(metrics) -> float:
    return metrics.gauge("ghost_memory_peak_bytes").value / 2**20


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    wall_s: float,
    counts: dict,
    *,
    start: float = 0.0,
    end: float = float("inf"),
) -> dict[str, float]:
    """Per-layer metrics over the spans that started in ``[start, end)``.

    ``counts`` carries the exact work counts of the same interval (oracle
    registry deltas and :class:`Counters` deltas) and any workload-level
    figures (maplets, coverage, shrink sizes); a missing entry reads 0,
    meaning the workload does not exercise that layer.
    """
    layers = recorder.self_times(start, end)

    def self_s(name: str) -> float:
        return layers.get(name, (0.0, 0, []))[0]

    def calls(name: str) -> int:
        return layers.get(name, (0.0, 0, []))[1]

    def p50_ms(name: str) -> float:
        durs = layers.get(name, (0.0, 0, []))[2]
        return statistics.median(durs) * 1e3 if durs else 0.0

    c = counts.get
    hits, misses = c("cache_hits", 0), c("cache_misses", 0)
    checks = c("checks_run", 0)
    attributed = sum(entry[0] for entry in layers.values())
    return {
        "pkvm.self_s": self_s("pkvm"),
        "pkvm.hcalls": c("hcalls", 0),
        "pkvm.error_share": _ratio(c("hcall_errors", 0), c("hcalls", 0)),
        "machine.self_s": self_s("machine"),
        "machine.boots": calls("machine"),
        "machine.boot_ms_p50": p50_ms("machine"),
        "abstraction.host_s": self_s("abstraction.host"),
        "abstraction.host_calls": calls("abstraction.host"),
        "abstraction.pkvm_s": self_s("abstraction.pkvm"),
        "abstraction.other_s": self_s("abstraction.other"),
        "cache.self_s": self_s("cache"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.invalidations": c("cache_invalidations", 0),
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "maplets.host_s2": c("maplets_host_s2", 0),
        "spec.self_s": self_s("spec"),
        "spec.calls": calls("spec"),
        "spec.valid_ratio": _ratio(checks - c("checks_skipped", 0), checks),
        "checker.compare_s": self_s("checker.compare"),
        "checker.separation_s": self_s("checker.separation"),
        "checker.hooks_s": self_s("checker.hooks") + self_s("checker.handler"),
        "sweep.self_s": self_s("sweep"),
        "sweep.runs": c("sweeps_run", 0),
        "sweep.skipped": c("sweeps_skipped", 0),
        "ghost.peak_mb": c("ghost_peak_mb", 0.0),
        "generator.self_s": self_s("generator"),
        "harness.self_s": self_s("harness"),
        "coverage.functions": c("coverage_functions", 0),
        "coverage.overhead_s": c("coverage_overhead_s", 0.0),
        "campaign.self_s": self_s("campaign"),
        "campaign.batches": calls("campaign.batch"),
        "campaign.batch_s": self_s("campaign.batch"),
        "shrink.self_s": self_s("shrink"),
        "shrink.replays": c("replays", 0),
        "shrink.ratio": _ratio(c("shrunk_len", 0), c("orig_len", 0)),
        "sched.self_s": self_s("sched"),
        "sched.schedules": calls("sched"),
        "sched.schedule_ms_p50": p50_ms("sched"),
        "unattributed_s": max(0.0, wall_s - attributed),
    }
