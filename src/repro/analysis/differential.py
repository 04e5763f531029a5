"""Differential eval: the static ownership pass vs. the dynamic oracle.

Revizor-style second-implementation checking (PAPERS.md): the ownership
pass re-implements the page-ownership rules the ghost oracle enforces
dynamically, so the two must agree on which registry bugs are real.
For each synthetic bug of the ownership/error-path class the harness

- runs the static pass with that bug flag *assumed true* (the flags gate
  real divergent code in ``repro.pkvm``, so the pass analyses the buggy
  arm exactly as the dynamic run executes it), and
- replays the bug's detection scenario through the ghost oracle,

then asserts both sides flag it — and that the clean tree (no flags
assumed) is statically spotless. A bug only the dynamic side catches is
a static-coverage gap; a finding only the static side raises is a false
positive. Either fails CI.

Bugs whose effect is data-dependent rather than path-shaped
(``synth_teardown_page_leak``, ``synth_fault_off_by_one``,
``synth_vttbr_not_restored``) are dynamic-only by design and excluded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.ownership import check_ownership

#: The registry bugs the static pass must flag: every synthetic bug whose
#: divergence is a control-flow arm in the handlers (a skipped check, a
#: wrong constant, a skipped paired write, a skipped write-back).
OWNERSHIP_BUGS = (
    "synth_share_skip_check",
    "synth_share_skip_hyp_map",
    "synth_share_wrong_state",
    "synth_unshare_leak",
    "synth_donate_wrong_owner",
    "synth_missing_ret_write",
)


@dataclass(frozen=True)
class DifferentialResult:
    """One bug's verdict pair (plus the clean-tree row, bug='<clean>')."""

    bug: str
    static_flagged: bool
    static_rules: tuple[str, ...]
    dynamic_detected: bool | None  # None when dynamic replay was skipped
    dynamic_how: str

    @property
    def agree(self) -> bool:
        if self.bug == "<clean>":
            return not self.static_flagged
        if self.dynamic_detected is None:
            return self.static_flagged
        return self.static_flagged and self.dynamic_detected


def run_differential(*, dynamic: bool = True) -> list[DifferentialResult]:
    """Run the full differential matrix.

    ``dynamic=False`` skips the oracle replays (unit tests exercise the
    static side alone; CI runs both). The clean-tree row comes first so
    a polluted baseline is the loudest failure.
    """
    results: list[DifferentialResult] = []
    clean = check_ownership()
    results.append(
        DifferentialResult(
            bug="<clean>",
            static_flagged=bool(clean),
            static_rules=tuple(sorted({f.rule for f in clean})),
            dynamic_detected=None,
            dynamic_how="n/a",
        )
    )
    for bug in OWNERSHIP_BUGS:
        findings = check_ownership(assume_bugs={bug})
        rules = tuple(sorted({f.rule for f in findings}))
        if dynamic:
            from repro.testing.synthetic import _run_scenario

            detected, how = _run_scenario(bug, bug)
        else:
            detected, how = None, "skipped"
        results.append(
            DifferentialResult(
                bug=bug,
                static_flagged=bool(findings),
                static_rules=rules,
                dynamic_detected=detected,
                dynamic_how=how,
            )
        )
    return results


def differential_ok(results: list[DifferentialResult]) -> bool:
    return all(r.agree for r in results)


def format_differential(results: list[DifferentialResult]) -> str:
    lines = [
        f"{'bug':<28} {'static':<10} {'rules':<36} {'dynamic':<14} {'agree'}"
    ]
    for r in results:
        if r.bug == "<clean>":
            static = "clean" if not r.static_flagged else "FINDINGS"
        else:
            static = "FLAGGED" if r.static_flagged else "missed"
        dynamic = (
            "skipped"
            if r.dynamic_detected is None
            else (r.dynamic_how if r.dynamic_detected else "missed")
        )
        lines.append(
            f"{r.bug:<28} {static:<10} "
            f"{', '.join(r.static_rules) or '-':<36} "
            f"{dynamic:<14} {'YES' if r.agree else 'NO'}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Refinement differential: pass 7 vs. the oracle, via concretized traces
# ---------------------------------------------------------------------------

#: The registry bugs the refinement pass must flag — the same path-shaped
#: set as the ownership pass (both analyse the gated control-flow arms),
#: judged against the ``compute_post`` specs instead of OWNERSHIP_EDGES.
REFINEMENT_BUGS = OWNERSHIP_BUGS

#: bug -> the refinement rule designed to catch it. A flagged bug whose
#: designed rule is absent still fails the differential: catching the
#: right bug for the wrong reason is a coincidence, not coverage.
DESIGNED_RULES = {
    "synth_share_skip_check": "spec-path-unreachable",
    "synth_share_skip_hyp_map": "post-mismatch",
    "synth_share_wrong_state": "post-mismatch",
    "synth_unshare_leak": "post-mismatch",
    "synth_donate_wrong_owner": "post-mismatch",
    "synth_missing_ret_write": "post-mismatch",
}

#: Synthetic bugs no static pass is expected to flag, with the reason.
#: The bug-coverage matrix test enforces that every registry bug is
#: either statically flagged or listed here.
DYNAMIC_ONLY = {
    "synth_teardown_page_leak": (
        "data-dependent: which reclaim iteration skips a page is a "
        "runtime set-membership fact, not a control-flow arm"
    ),
    "synth_fault_off_by_one": (
        "data-dependent: an off-by-one in computed fault addresses is "
        "arithmetic on inputs, invisible to path-shape analysis"
    ),
    "synth_vttbr_not_restored": (
        "data-dependent: a stale VTTBR value is register state the "
        "path-sensitive interpreter does not model"
    ),
    "synth_iommu_refcount_init": (
        "init-ordering: alloc_domain publishes the domain before its "
        "refcount is initialised — the divergence is a missing data "
        "write, not a control-flow arm or page-table op, so neither the "
        "ownership nor the refinement pass sees it; the oracle catches "
        "the refcount post-mismatch at alloc, and the bare machine hits "
        "BUG_ON(!old) at the first domain_get"
    ),
}


@dataclass(frozen=True)
class RefinementResult:
    """One bug's refinement verdict (plus the clean row, bug='<clean>').

    ``confirmed`` is the oracle's word on the concretized traces: True
    when every trace replays to a dynamic violation (verdict CONFIRMED),
    False when some replayed clean (PLAUSIBLE), None when replay was
    skipped or no trace could be built.
    """

    bug: str
    static_flagged: bool
    static_rules: tuple[str, ...]
    designed_rule: str
    confirmed: bool | None
    ghost_diff: str
    trace_count: int

    @property
    def verdict(self) -> str:
        if self.bug == "<clean>":
            return "clean" if not self.static_flagged else "FINDINGS"
        if self.confirmed is None:
            return "PLAUSIBLE"
        return "CONFIRMED" if self.confirmed else "PLAUSIBLE"

    @property
    def agree(self) -> bool:
        if self.bug == "<clean>":
            return not self.static_flagged
        if not (self.static_flagged and self.designed_rule in self.static_rules):
            return False
        return self.confirmed is not False  # skipped replay trusts statics


def _replay_refinement_trace(trace) -> tuple[bool, str]:
    """Replay one concretized trace; (detected, how/ghost-diff)."""
    from repro.arch.exceptions import HostCrash, HypervisorPanic
    from repro.ghost.checker import SpecViolation

    try:
        machine = trace.replay(ghost=True)
    except SpecViolation as exc:
        return True, f"spec-violation:{exc.kind}: {exc.detail}"
    except HypervisorPanic as exc:
        return True, f"hyp-panic: {exc}"
    except HostCrash as exc:
        return True, f"host-crash: {exc}"
    violations = getattr(machine.checker, "violations", None) or []
    if violations:
        v = violations[0]
        return True, f"spec-violation:{v.kind}: {v.detail}"
    return False, "clean"


def run_refinement_differential(
    *, dynamic: bool = True, corpus_dir=None
) -> list[RefinementResult]:
    """The refinement differential matrix.

    For each bug: run the refinement pass with the flag assumed,
    concretize its findings to traces, and (unless ``dynamic=False``)
    replay each through the ghost oracle. ``corpus_dir`` additionally
    writes every concretized trace as a ``.trace`` file a campaign can
    ingest via ``--seed-corpus``. The clean row comes first.
    """
    from pathlib import Path

    from repro.analysis.refinement import check_refinement, concretize_findings

    results: list[RefinementResult] = []
    clean = check_refinement()
    results.append(
        RefinementResult(
            bug="<clean>",
            static_flagged=bool(clean),
            static_rules=tuple(sorted({f.rule for f in clean})),
            designed_rule="-",
            confirmed=None,
            ghost_diff="",
            trace_count=0,
        )
    )
    if corpus_dir is not None:
        corpus_dir = Path(corpus_dir)
        corpus_dir.mkdir(parents=True, exist_ok=True)
    for bug in REFINEMENT_BUGS:
        findings = check_refinement(assume_bugs={bug})
        rules = tuple(sorted({f.rule for f in findings}))
        traces = concretize_findings(findings, assume_bugs={bug})
        if corpus_dir is not None:
            for trace in traces:
                function = trace.meta["refinement"]["function"]
                (corpus_dir / f"{bug}__{function}.trace").write_text(
                    trace.dumps()
                )
        confirmed: bool | None = None
        ghost_diff = ""
        if dynamic and traces:
            verdicts = [_replay_refinement_trace(t) for t in traces]
            confirmed = all(d for d, _how in verdicts)
            ghost_diff = "; ".join(
                how for detected, how in verdicts if detected
            )
        results.append(
            RefinementResult(
                bug=bug,
                static_flagged=bool(findings),
                static_rules=rules,
                designed_rule=DESIGNED_RULES[bug],
                confirmed=confirmed,
                ghost_diff=ghost_diff,
                trace_count=len(traces),
            )
        )
    return results


def refinement_differential_ok(results: list[RefinementResult]) -> bool:
    return all(r.agree for r in results)


# ---------------------------------------------------------------------------
# IOMMU differential: the second boundary's seeded bug vs. both sides
# ---------------------------------------------------------------------------

#: The seeded IOMMU bug (the jetson-pkvm domain-refcount/init-ordering
#: crash). Documented dynamic-only in :data:`DYNAMIC_ONLY`; the harness
#: asserts that stance and confirms the oracle's verdict on a concrete
#: alloc_domain/attach_dev/map_pages trace.
IOMMU_BUG = "synth_iommu_refcount_init"


@dataclass(frozen=True)
class IommuDifferentialResult:
    """One row of the IOMMU matrix (plus the clean row, bug='<clean>').

    ``confirmed`` is the oracle's word on the concrete trace: True when
    the ghost replay flags the buggy run AND the bare replay panics at
    the real ``BUG_ON(!old)`` site; None when replay was skipped.
    """

    bug: str
    static_flagged: bool
    static_rules: tuple[str, ...]
    documented_dynamic_only: bool
    confirmed: bool | None
    ghost_diff: str

    @property
    def verdict(self) -> str:
        if self.bug == "<clean>":
            return "clean" if not self.static_flagged else "FINDINGS"
        if self.confirmed is None:
            return "PLAUSIBLE"
        return "CONFIRMED" if self.confirmed else "PLAUSIBLE"

    @property
    def agree(self) -> bool:
        if self.bug == "<clean>":
            return not self.static_flagged
        covered = self.static_flagged or self.documented_dynamic_only
        return covered and self.confirmed is not False


def _replay_iommu_trace(*, ghost: bool) -> tuple[bool, str]:
    """Drive the concrete alloc_domain/attach_dev/map_pages trace with the
    refcount bug seeded; (detected, how)."""
    from repro.arch.defs import PAGE_SIZE
    from repro.arch.exceptions import HostCrash, HypervisorPanic
    from repro.ghost.checker import SpecViolation
    from repro.machine import Machine
    from repro.pkvm.bugs import Bugs
    from repro.testing.proxy import HypProxy

    machine = Machine(ghost=ghost, bugs=Bugs.single(IOMMU_BUG))
    proxy = HypProxy(machine)
    try:
        proxy.iommu_alloc_domain(3)
        proxy.iommu_attach_dev(3, 5)
        proxy.iommu_map_page(3, 0x80 * PAGE_SIZE, proxy.alloc_page())
    except SpecViolation as exc:
        return True, f"spec-violation:{exc.kind}: {exc.detail.splitlines()[0]}"
    except HypervisorPanic as exc:
        return True, f"hyp-panic: {exc}"
    except HostCrash as exc:
        return True, f"host-crash: {exc}"
    if ghost and machine.checker is not None and machine.checker.violations:
        v = machine.checker.violations[0]
        return True, f"spec-violation:{v.kind}"
    return False, "clean"


def run_iommu_differential(*, dynamic: bool = True) -> list[IommuDifferentialResult]:
    """The IOMMU differential matrix.

    The clean row runs the registry-mode ownership and refinement passes
    (both subsystems) and must be spotless. The bug row asserts the
    seeded refcount bug has a stance — statically flagged or documented
    dynamic-only — and, unless ``dynamic=False``, replays the concrete
    trace twice: under the oracle (which must flag it) and bare (which
    must hit the real panic).
    """
    results: list[IommuDifferentialResult] = []
    clean = check_ownership() + _refinement_findings()
    results.append(
        IommuDifferentialResult(
            bug="<clean>",
            static_flagged=bool(clean),
            static_rules=tuple(sorted({f.rule for f in clean})),
            documented_dynamic_only=False,
            confirmed=None,
            ghost_diff="",
        )
    )
    findings = check_ownership(assume_bugs={IOMMU_BUG}) + _refinement_findings(
        assume_bugs={IOMMU_BUG}
    )
    confirmed: bool | None = None
    ghost_diff = ""
    if dynamic:
        oracle_hit, oracle_how = _replay_iommu_trace(ghost=True)
        bare_hit, bare_how = _replay_iommu_trace(ghost=False)
        confirmed = oracle_hit and bare_hit
        ghost_diff = f"oracle: {oracle_how}; bare: {bare_how}"
    results.append(
        IommuDifferentialResult(
            bug=IOMMU_BUG,
            static_flagged=bool(findings),
            static_rules=tuple(sorted({f.rule for f in findings})),
            documented_dynamic_only=IOMMU_BUG in DYNAMIC_ONLY,
            confirmed=confirmed,
            ghost_diff=ghost_diff,
        )
    )
    return results


def _refinement_findings(*, assume_bugs: frozenset | set = frozenset()):
    from repro.analysis.refinement import check_refinement

    return check_refinement(assume_bugs=assume_bugs)


def iommu_differential_ok(results: list[IommuDifferentialResult]) -> bool:
    return all(r.agree for r in results)


def format_iommu_differential(results: list[IommuDifferentialResult]) -> str:
    lines = [
        f"{'bug':<28} {'static':<14} {'rules':<24} {'verdict':<10} {'agree'}"
    ]
    for r in results:
        if r.bug == "<clean>":
            static = "clean" if not r.static_flagged else "FINDINGS"
        elif r.static_flagged:
            static = "FLAGGED"
        elif r.documented_dynamic_only:
            static = "dynamic-only"
        else:
            static = "missed"
        lines.append(
            f"{r.bug:<28} {static:<14} "
            f"{', '.join(r.static_rules) or '-':<24} "
            f"{r.verdict:<10} {'YES' if r.agree else 'NO'}"
        )
        if r.ghost_diff:
            lines.append(f"    {r.ghost_diff}")
    return "\n".join(lines)


def format_refinement_differential(results: list[RefinementResult]) -> str:
    lines = [
        f"{'bug':<28} {'static':<10} {'rules':<44} "
        f"{'traces':<7} {'verdict':<10} {'agree'}"
    ]
    for r in results:
        if r.bug == "<clean>":
            static = "clean" if not r.static_flagged else "FINDINGS"
        else:
            static = "FLAGGED" if r.static_flagged else "missed"
        lines.append(
            f"{r.bug:<28} {static:<10} "
            f"{', '.join(r.static_rules) or '-':<44} "
            f"{r.trace_count:<7} {r.verdict:<10} "
            f"{'YES' if r.agree else 'NO'}"
        )
        if r.ghost_diff:
            lines.append(f"    ghost diff: {r.ghost_diff}")
    return "\n".join(lines)
