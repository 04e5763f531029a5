"""The three benchmark workloads: ``aged``, ``suite`` and ``hunt``.

Each workload is a *unit* of work that a run repeats while its time
budget lasts (at least once), plus the correctness gates for that unit.
A unit returns a :class:`Unit`: its end-to-end figures, the workload's
own named figures (``step_ms_p95``, ``suite_s``, ``hunt_s``, ...), the
exact work counts that must repeat between runs of one seed, and the
operations attempted and failed.

End-to-end figures are at the reference host speed (see
``perfbench/hostspeed.py``): a rate or a total is the raw figure
(printed beside it as ``raw.<name>``) scaled by its window's
``host_scale``; ``op_ms_p50`` is the median of the operations each
scaled by the probe before it. The named figures are raw.

Why the inputs are what they are:

- ``aged`` is one checked machine driven by ``RandomTester`` (``all``
  action profile, default oracle cache, coverage off) for a long run
  from one boot, with an early and a late window of steps. The tester
  seed is fixed. Seeded trajectories fragment the host stage 2 at
  different rates, and at this run length their late-window cost varied
  by 30-45% (quartile distance over median) between seeds; no run that
  fits the time budget averages that out, and the fixed trajectory is
  the machine "that has been running a long time".
- ``suite`` runs the 55 handwritten tests, one fresh checked machine per
  test; the seed fixes the test order.
- ``hunt`` runs the synthetic-bug discrimination matrix through
  ``CampaignEngine`` at its defaults (campaign seed 0, inline): every
  synthetic bug in random mode and the two paper races in concurrency
  mode, each to its first finding, shrunk. At campaign seed 0 every bug
  is found within the default budget, as the repository's matrix test
  requires; the seed fixes the order in which the bugs are hunted. Its
  per-operation latency is that of a shrink replay (a fresh machine
  replaying a candidate trace or schedule): a hunt makes ~500 of them,
  spread over all its bugs, where the twelve per-bug times are too few
  for a steady median (they fall into a cheap and a dear half, so the
  median is the mean of two single bugs).
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass, field

from perfbench import layers
from perfbench.hostspeed import HostSpeed

#: ``aged``: tester seed, run length, and the two windows ``[start, end)``.
AGED_TESTER_SEED = 1
AGED_STEPS = 800
EARLY = (0, 200)
LATE = (600, 800)

#: ``hunt``: the paper's two concurrency bugs, hunted on this scenario.
RACE_BUGS = ("vcpu_load_race", "host_fault_fragile")
RACE_SCENARIO = "mixed"


@dataclass
class Unit:
    seconds: float
    #: End-to-end figures of this unit (see ``BENCHMARK.json``).
    e2e: dict
    #: The workload's own named figures, printed beside ``e2e``.
    named: dict
    #: Exact work counts: equal on every unit of one seed.
    counts: dict
    attempted: int
    failed: int
    #: Operations timed per unit behind ``op_ms_p50``.
    samples: int = 0
    #: Correctness-gate failures, one line each.
    errors: list = field(default_factory=list)
    #: Interval and counts the traced run attributes per layer.
    window: tuple = (0.0, float("inf"))
    window_s: float = 0.0
    layer_counts: dict = field(default_factory=dict)


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The 95th percentile, or the highest percentile that leaves at
    least ten samples beyond it: ``(value, percentile)``."""
    ordered = sorted(values)
    n = len(ordered)
    index = max(0, min(math.ceil(0.95 * n) - 1, n - 11))
    return ordered[index], 100.0 * (index + 1) / n


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def _at_reference(raw: dict, scale: dict) -> tuple[dict, dict]:
    """End-to-end figures at the reference host speed, and the raw ones
    (``raw.<name>``) with the scales used, to print beside them.
    ``scale`` maps each figure to its window's host scale; a rate is
    divided by it, a time multiplied."""
    scaled = {
        key: value / scale[key] if key.endswith("_per_s") else value * scale[key]
        for key, value in raw.items()
    }
    shown = {f"raw.{key}": value for key, value in raw.items()}
    shown.update({f"host_scale.{key}": scale[key] for key in raw})
    return scaled, shown


def _counter_snapshot(counters: layers.Counters) -> dict:
    return {
        "hcalls": counters.hcalls,
        "hcall_errors": counters.hcall_errors,
        "replays": counters.replays,
    }


# -- aged ---------------------------------------------------------------------


def host_s2_maplets(machine) -> int:
    """Maplets in the full interpretation of the host stage 2."""
    from repro.arch.defs import Stage
    from repro.ghost.abstraction import interpret_pgtable

    root = machine.pkvm.mp.host_mmu.root
    return len(interpret_pgtable(machine.mem, root, Stage.STAGE2).mapping)


def drive(machine, steps: int, *, on_step=None, starts: list | None = None):
    """Run the aged trajectory on ``machine``; return ``(tester, return
    codes, per-step seconds, finding or None)``. Each step's start time
    is appended to ``starts`` if given."""
    from repro.arch.exceptions import HostCrash, HypervisorPanic
    from repro.ghost.checker import SpecViolation
    from repro.testing.random_tester import RandomTester

    tester = RandomTester(machine, seed=AGED_TESTER_SEED, profile="all")
    rets: list[int] = []
    hvc = tester._hvc

    def recording(call_id, *args):
        ret = hvc(call_id, *args)
        rets.append(ret)
        return ret

    tester._hvc = recording
    times: list[float] = []
    clock = time.perf_counter
    for index in range(steps):
        if on_step is not None:
            on_step(index)
        started = clock()
        if starts is not None:
            starts.append(started)
        try:
            tester.step()
        except HostCrash:
            # As RandomTester.run: the model failed to predict a fatal
            # touch; the simulated crash unwinds only that access.
            tester.stats.host_crashes += 1
        except (SpecViolation, HypervisorPanic) as exc:
            return tester, rets, times, exc
        times.append(clock() - started)
    return tester, rets, times, None


def aged_unit(*, counters: layers.Counters, speed: HostSpeed) -> Unit:
    from repro.machine import Machine

    machine = Machine()
    metrics = machine.obs.metrics
    marks: dict[int, tuple[float, dict]] = {}
    maplets: dict[int, int] = {}

    def mark(index: int) -> None:
        # Between steps: probes, interpretation and snapshots stay outside
        # the per-step timings.
        speed.between()
        if index in (EARLY[1], LATE[1]):
            maplets[index] = host_s2_maplets(machine)
        if index in (EARLY[0], LATE[0], LATE[1]):
            marks[index] = (
                time.perf_counter(),
                {**layers.registry_counts(metrics), **_counter_snapshot(counters)},
            )

    started = time.perf_counter()
    starts: list[float] = []
    tester, rets, times, finding = drive(
        machine, AGED_STEPS, on_step=mark, starts=starts
    )
    mark(len(times))
    seconds = time.perf_counter() - started
    errors = []
    if finding is not None:
        errors.append(
            f"step {len(times)}: {type(finding).__name__}: {str(finding)[:200]}"
        )
        return Unit(seconds, {}, {}, {}, AGED_STEPS, AGED_STEPS - len(times), errors)

    # Gate: the oracle observes and never steers. An oracle-off run of the
    # same trajectory must return the same code at every hypercall.
    bare, bare_rets, _, bare_finding = drive(Machine(ghost=False), AGED_STEPS)
    mismatched = sum(a != b for a, b in zip(rets, bare_rets)) + abs(
        len(rets) - len(bare_rets)
    )
    if bare_finding is not None or mismatched:
        errors.append(
            f"return codes differ from the oracle-off run at {mismatched} "
            f"hypercalls ({len(rets)} checked, {len(bare_rets)} bare)"
        )
    if bare.stats.host_crashes != tester.stats.host_crashes:
        errors.append("host-crash count differs from the oracle-off run")
    violations = metrics.counter("oracle_violations").value
    if violations:
        errors.append(f"{violations} oracle violations")

    early = times[EARLY[0] : EARLY[1]]
    late = times[LATE[0] : LATE[1]]
    late_start, late_counts = marks[LATE[0]]
    late_end, late_end_counts = marks[LATE[1]]
    late_scale = speed.scale(late_start, late_end)
    late_op = speed.scaled_median(starts[LATE[0] : LATE[1]], late)
    late_window = _delta(late_end_counts, late_counts)
    late_hcalls = late_window["hcalls"]
    p95, p95_label = tail_percentile(late)
    whole = _delta(late_end_counts, marks[EARLY[0]][1])
    counts = {
        "steps": len(times),
        "hypercalls": len(rets),
        "ok_returns": sum(1 for r in rets if r >= 0),
        "error_returns": sum(1 for r in rets if r < 0),
        "host_crashes": tester.stats.host_crashes,
        "rejected": tester.stats.rejected_crashy,
        **{key: whole[key] for key in layers.registry_counts(metrics)},
        "maplets_early_end": maplets[EARLY[1]],
        "maplets_late_end": maplets[LATE[1]],
    }
    e2e, raw = _at_reference(
        {
            "hcalls_per_s": late_hcalls / sum(late),
            "work_s": sum(times),
            "op_ms_p50": statistics.median(late) * 1e3,
        },
        {
            "hcalls_per_s": late_scale,
            "work_s": speed.scale(marks[EARLY[0]][0], late_end),
            "op_ms_p50": late_op / statistics.median(late),
        },
    )
    return Unit(
        seconds=seconds,
        e2e=e2e,
        named={
            **raw,
            "step_ms_p50": statistics.median(late) * 1e3,
            "step_ms_p95": p95 * 1e3,
            "step_tail_percentile": p95_label,
            "early_step_ms_p50": statistics.median(early) * 1e3,
            "late_window_s": sum(late),
            "early_window_s": sum(early),
            "cost_growth": sum(late) / sum(early),
        },
        counts=counts,
        attempted=AGED_STEPS,
        failed=mismatched,
        samples=len(late),
        errors=errors,
        window=(late_start, late_end),
        window_s=late_end - late_start,
        layer_counts={
            **late_window,
            "maplets_host_s2": maplets[LATE[1]],
            "ghost_peak_mb": layers.ghost_peak_mb(metrics),
        },
    )


# -- suite --------------------------------------------------------------------


def suite_order(seed: int) -> list:
    from repro.testing.handwritten import ALL_TESTS

    order = list(ALL_TESTS)
    random.Random(seed).shuffle(order)
    return order


def suite_unit(
    order: list, *, obs, counters: layers.Counters, speed: HostSpeed
) -> Unit:
    from repro.testing import harness

    before = {**layers.registry_counts(obs.metrics), **_counter_snapshot(counters)}
    spent = speed.spent
    run_one = harness.run_one
    test_starts: list[float] = []

    def probed(*args, **kwargs):
        # A probe may run before a test, outside the test's own timing.
        speed.between()
        test_starts.append(time.perf_counter())
        return run_one(*args, **kwargs)

    with layers.patched([(harness, "run_one", probed)]):
        started = time.perf_counter()
        results = harness.run_tests(order, obs=obs)
        ended = time.perf_counter()
    seconds = ended - started - (speed.spent - spent)
    scale = speed.scale(started, ended)
    test_seconds = [r.seconds for r in results]
    op = speed.scaled_median(test_starts, test_seconds)
    after = {**layers.registry_counts(obs.metrics), **_counter_snapshot(counters)}
    window = _delta(after, before)
    failed = [r for r in results if not r.ok]
    counts = {
        "tests": len(results),
        "hypercalls": window["hcalls"],
        "ok_returns": window["hcalls"] - window["hcall_errors"],
        "error_returns": window["hcall_errors"],
        **{key: window[key] for key in layers.registry_counts(obs.metrics)},
    }
    e2e, raw = _at_reference(
        {
            "hcalls_per_s": window["hcalls"] / seconds,
            "work_s": seconds,
            "op_ms_p50": statistics.median(test_seconds) * 1e3,
        },
        {
            "hcalls_per_s": scale,
            "work_s": scale,
            "op_ms_p50": op / statistics.median(test_seconds),
        },
    )
    return Unit(
        seconds=seconds,
        e2e=e2e,
        named={**raw, "suite_s": seconds, "tests": len(results)},
        counts=counts,
        attempted=len(results),
        failed=len(failed),
        samples=len(results),
        errors=[f"{r.name}: {r.outcome.value}: {r.detail[:200]}" for r in failed],
        window=(started, ended),
        window_s=ended - started,
        layer_counts={**window, "ghost_peak_mb": layers.ghost_peak_mb(obs.metrics)},
    )


# -- hunt ---------------------------------------------------------------------


def hunt_order(seed: int) -> list[str]:
    from repro.pkvm.bugs import Bugs

    order = list(Bugs.synthetic_bug_names()) + list(RACE_BUGS)
    random.Random(seed).shuffle(order)
    return order


def hunt_config(bug: str, coverage: str = "functions"):
    from repro.testing.campaign.engine import CampaignConfig

    if bug in RACE_BUGS:
        return CampaignConfig(
            bug_names=(bug,),
            inline=True,
            max_findings=1,
            coverage=coverage,
            mode="concurrency",
            scenario=RACE_SCENARIO,
        )
    return CampaignConfig(
        bug_names=(bug,), inline=True, max_findings=1, coverage=coverage
    )


def _reproduces(bug: str, finding) -> bool:
    from repro.testing.campaign.shrink import reproduces_finding, reproduces_schedule

    trace = finding.trace()
    if bug in RACE_BUGS:
        return reproduces_schedule(trace, klass=finding.klass, kind=finding.kind)
    return reproduces_finding(trace, finding.klass, finding.kind)


def hunt_unit(
    order: list[str],
    *,
    counters: layers.Counters,
    speed: HostSpeed,
    coverage: str = "functions",
) -> Unit:
    from repro.testing.campaign import engine as campaign_engine
    from repro.testing.campaign import shrink

    # Probes run between batches and between shrink replays, outside
    # each replay's timing and outside the coverage tracer.
    probed = [
        (campaign_engine, "run_batch", speed.before(campaign_engine.run_batch)),
        (shrink, "_reproduces", speed.before(shrink._reproduces)),
        (shrink, "_reproduces_schedule", speed.before(shrink._reproduces_schedule)),
    ]
    with layers.patched(probed):
        return _hunt(order, counters, speed, coverage)


def _hunt(
    order: list[str], counters: layers.Counters, speed: HostSpeed, coverage: str
) -> Unit:
    from repro.testing.campaign.engine import CampaignEngine

    per_bug: dict[str, float] = {}
    findings = {}
    totals = {"steps": 0, "batches": 0, "orig_len": 0, "shrunk_len": 0}
    reg: dict[str, int] = {}
    errors: list[str] = []
    schedules = 0
    race_s = 0.0
    campaign_hcalls = 0
    coverage_functions = 0
    before = _counter_snapshot(counters)
    first_replay = len(counters.replay_times)
    spent = speed.spent
    started = time.perf_counter()
    for bug in order:
        speed.between()
        engine = CampaignEngine(hunt_config(bug, coverage))
        bug_spent = speed.spent
        bug_started = time.perf_counter()
        report = engine.run()
        per_bug[bug] = time.perf_counter() - bug_started - (speed.spent - bug_spent)
        campaign_hcalls += report.total_hypercalls
        coverage_functions = max(coverage_functions, report.coverage_functions)
        totals["steps"] += report.total_steps
        totals["batches"] += report.batches
        for key, value in layers.registry_counts(engine.metrics).items():
            reg[key] = reg.get(key, 0) + value
        if bug in RACE_BUGS:
            schedules += report.total_steps
            race_s += per_bug[bug]
        if len(report.findings) != 1:
            errors.append(f"{bug}: {len(report.findings)} findings, expected 1")
            continue
        findings[bug] = report.findings[0]
        totals["orig_len"] += report.findings[0].orig_len
        totals["shrunk_len"] += report.findings[0].shrunk_len
    ended = time.perf_counter()
    seconds = ended - started - (speed.spent - spent)
    scale = speed.scale(started, ended)
    window = _delta(_counter_snapshot(counters), before)
    replay_times = counters.replay_times[first_replay:]
    replay_s = [seconds for _, seconds in replay_times]
    replay_p95, replay_label = tail_percentile(replay_s) if replay_s else (0.0, 0.0)
    # Gate, outside the timed hunt: every shrunk finding still replays.
    for bug, finding in findings.items():
        if not _reproduces(bug, finding):
            errors.append(f"{bug}: shrunk trace does not reproduce {finding.klass}")
    counts = {
        "bugs": len(order),
        "campaign_hypercalls": campaign_hcalls,
        "hypercalls": window["hcalls"],
        "error_returns": window["hcall_errors"],
        "shrink_replays": window["replays"],
        **totals,
        **reg,
    }
    e2e, raw = _at_reference(
        {
            "hcalls_per_s": campaign_hcalls / seconds,
            "work_s": seconds,
            "op_ms_p50": statistics.median(replay_s) * 1e3 if replay_s else 0.0,
        },
        {
            "hcalls_per_s": scale,
            "work_s": scale,
            "op_ms_p50": (
                speed.scaled_median(*zip(*replay_times)) / statistics.median(replay_s)
                if replay_s
                else 1.0
            ),
        },
    )
    return Unit(
        seconds=seconds,
        e2e=e2e,
        named={
            **raw,
            "replay_ms_p95": replay_p95 * 1e3,
            "replay_tail_percentile": replay_label,
            "hunt_s": seconds,
            "synthetic_s": seconds - race_s,
            "race_s": race_s,
            "schedules_per_s": schedules / race_s if race_s else 0.0,
            # Not an exact count: the first hunt in a process also hits
            # functions that run once per process.
            "coverage_functions": coverage_functions,
            **{f"bug_s.{bug}": per_bug[bug] for bug in order},
        },
        counts=counts,
        attempted=len(order),
        failed=len({line.split(":", 1)[0] for line in errors}),
        samples=len(replay_s),
        errors=errors,
        window=(started, ended),
        window_s=ended - started,
        layer_counts={
            **reg,
            **window,
            "coverage_functions": coverage_functions,
            "orig_len": totals["orig_len"],
            "shrunk_len": totals["shrunk_len"],
        },
    )
