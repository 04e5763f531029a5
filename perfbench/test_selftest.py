"""Self-test of the benchmark: does its comparison catch a known slowdown?

The slowdown is injected into ``record_abstraction_host`` and grows with
the size of the abstraction it records (a busy wait of ``SLOWDOWN_S``
per squared maplet), the shape the host stage-2 splice cost has. The
``aged`` workload records abstractions of ~70 maplets in its late window,
the handwritten suite of at most ~5, so the comparison must flag ``aged``
and leave ``suite``'s pass time (``work_s``) and hypercall rate within
their bounds.

Run with ``python3 -m pytest perfbench`` from the root of the repository
(about two minutes).
"""

import json
import time

import pytest

import repro.ghost.checker as checker
from perfbench import layers, run, workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SLOWDOWN_S = 20e-6


def slow_host_record(monkeypatch) -> None:
    original = checker.record_abstraction_host

    def slowed(*args, **kwargs):
        host = original(*args, **kwargs)
        maplets = len(host.annot) + len(host.shared)
        deadline = time.perf_counter() + SLOWDOWN_S * maplets * maplets
        while time.perf_counter() < deadline:
            pass
        return host

    monkeypatch.setattr(checker, "record_abstraction_host", slowed)


def measure(name: str, rounds: int, monkeypatch) -> tuple[dict, dict]:
    """Parent and slowed medians, with the two sides alternating."""
    counters = layers.Counters()
    workload = run.Workload(name, 0, counters)
    parent, change = [], []
    with layers.patched(layers.counter_targets(counters)):
        for _ in range(rounds):
            parent.append(workload.unit())
            with monkeypatch.context() as patch:
                slow_host_record(patch)
                change.append(workload.unit())
    for unit in parent + change:
        assert not unit.errors
    return run.e2e_medians(parent), run.e2e_medians(change)


def test_regressions_respects_direction_and_bound():
    spec = [
        {"name": "t", "better": "lower", "bound": 0.1},
        {"name": "r", "better": "higher", "bound": 0.1},
    ]
    assert run.regressions({"t": 1.0, "r": 1.0}, {"t": 1.2, "r": 0.8}, spec) == {
        "t": pytest.approx(0.2),
        "r": pytest.approx(0.2),
    }
    assert run.regressions({"t": 1.0, "r": 1.0}, {"t": 0.5, "r": 1.09}, spec) == {}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert workloads.tail_percentile([float(i) for i in range(200)]) == (189.0, 95.0)
    value, percentile = workloads.tail_percentile([float(i) for i in range(100)])
    assert (value, percentile) == (89.0, 90.0)


def test_slow_host_record_flags_aged_and_spares_suite(monkeypatch):
    aged_parent, aged_change = measure("aged", 1, monkeypatch)
    aged = run.regressions(aged_parent, aged_change, SPEC["end_to_end"])
    suite_parent, suite_change = measure("suite", 10, monkeypatch)
    suite = run.regressions(suite_parent, suite_change, SPEC["end_to_end"])
    print(f"aged: {aged_parent} -> {aged_change}; flagged {aged}")
    print(f"suite: {suite_parent} -> {suite_change}; flagged {suite}")
    # The late window's median step hits the abstraction cache, so
    # ``op_ms_p50`` on aged is not expected to move; see README.md.
    assert {"hcalls_per_s", "work_s"} <= set(aged)
    assert not {"hcalls_per_s", "work_s"} & set(suite)
