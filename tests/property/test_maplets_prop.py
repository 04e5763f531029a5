"""Property-based tests: the coalescing range map against a page-level
model dictionary.

The Mapping class invariant — sorted, disjoint, maximally coalesced — and
its extensional equality are the foundations the whole specification
stands on, so they get the heaviest property coverage.
"""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.arch.defs import PAGE_SIZE, Perms
from repro.arch.pte import PageState
from repro.ghost.maplets import Maplet, Mapping, MapletTarget, MappingError

PAGES = st.integers(min_value=0, max_value=63)
RUNS = st.integers(min_value=1, max_value=8)
STATES = st.sampled_from(list(PageState))
OWNERS = st.integers(min_value=1, max_value=20)


def target_for(kind: str, oa_page: int, state: PageState, owner: int):
    if kind == "annotated":
        return MapletTarget.annotated(owner)
    return MapletTarget.mapped(
        oa_page * PAGE_SIZE, Perms.rwx(), page_state=state
    )


ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "remove"]),
        PAGES,
        RUNS,
        st.sampled_from(["mapped", "annotated"]),
        PAGES,
        STATES,
        OWNERS,
    ),
    max_size=40,
)


def apply_ops(op_list):
    """Apply to both the Mapping and a page-level model dict."""
    mapping = Mapping()
    model: dict[int, MapletTarget] = {}
    for op, va_page, nr, kind, oa_page, state, owner in op_list:
        va = va_page * PAGE_SIZE
        target = target_for(kind, oa_page, state, owner)
        if op == "insert":
            mapping.insert(va, nr, target, overwrite=True)
            for i in range(nr):
                model[va + i * PAGE_SIZE] = target.at_offset(i * PAGE_SIZE)
        else:
            mapping.remove_if_present(va, nr)
            for i in range(nr):
                model.pop(va + i * PAGE_SIZE, None)
    return mapping, model


@given(ops)
@settings(max_examples=200)
def test_mapping_agrees_with_model(op_list):
    mapping, model = apply_ops(op_list)
    domain = {p * PAGE_SIZE for p in range(80)}
    for page in domain:
        assert mapping.lookup(page) == model.get(page)
    assert mapping.nr_pages() == len(model)


@given(ops)
@settings(max_examples=200)
def test_normal_form_invariant(op_list):
    """Sorted, disjoint, maximally coalesced."""
    mapping, _model = apply_ops(op_list)
    maplets = list(mapping)
    for a, b in zip(maplets, maplets[1:]):
        assert a.end <= b.va, "not sorted/disjoint"
        if a.end == b.va:
            assert not b.target.continues(a.target, b.va - a.va), (
                "adjacent compatible maplets not coalesced"
            )


@given(ops, ops)
@settings(max_examples=100)
def test_equality_is_extensional(ops_a, ops_b):
    a, model_a = apply_ops(ops_a)
    b, model_b = apply_ops(ops_b)
    assert (a == b) == (model_a == model_b)


@given(ops)
@settings(max_examples=100)
def test_copy_equal_and_independent(op_list):
    mapping, _ = apply_ops(op_list)
    clone = mapping.copy()
    assert clone == mapping
    # Mutating the (copy-on-write) clone never leaks into the original...
    before = mapping.lookup(70 * PAGE_SIZE)
    clone.insert(70 * PAGE_SIZE, 1, MapletTarget.annotated(99), overwrite=True)
    assert mapping.lookup(70 * PAGE_SIZE) == before
    assert clone.lookup(70 * PAGE_SIZE) == MapletTarget.annotated(99)
    # ... and mutating the original never leaks into the clone.
    mapping.insert(71 * PAGE_SIZE, 1, MapletTarget.annotated(98), overwrite=True)
    assert clone.lookup(71 * PAGE_SIZE) != MapletTarget.annotated(98)


@given(ops)
@settings(max_examples=100)
def test_diff_roundtrip(op_list):
    """Applying a diff's removals and additions transforms pre into post."""
    mapping, _ = apply_ops(op_list)
    other = Mapping.singleton(3 * PAGE_SIZE, 2, MapletTarget.annotated(9))
    removed, added = mapping.diff(other)
    rebuilt = mapping.copy()
    for m in removed:
        rebuilt.remove_if_present(m.va, m.nr_pages)
    for m in added:
        rebuilt.insert(m.va, m.nr_pages, m.target, overwrite=True)
    assert rebuilt == other


@given(PAGES, RUNS, STATES)
@settings(max_examples=50)
def test_insert_remove_roundtrip(va_page, nr, state):
    va = va_page * PAGE_SIZE
    m = Mapping()
    target = MapletTarget.mapped(0, Perms.rwx(), page_state=state)
    m.insert(va, nr, target)
    m.remove(va, nr)
    assert not m


@given(ops)
@settings(max_examples=100)
def test_overlapping_insert_always_rejected(op_list):
    mapping, model = apply_ops(op_list)
    if not model:
        return
    some_page = next(iter(model))
    try:
        mapping.insert(some_page, 1, MapletTarget.annotated(2))
        raised = False
    except MappingError:
        raised = True
    assert raised


# ---------------------------------------------------------------------------
# Reference twin: every mutation primitive against a page-dict model
# ---------------------------------------------------------------------------

DOMAIN_PAGES = 64
# Output addresses are the input page plus a shift drawn from a small set,
# and owners come from a small set too, so adjacent runs often continue
# each other and the edge re-coalescing is exercised.
SHIFTS = st.sampled_from([0, 0, 16])
RUN_TARGETS = st.tuples(
    st.sampled_from(["mapped", "annotated"]),
    SHIFTS,
    st.sampled_from([PageState.OWNED, PageState.SHARED_OWNED]),
    st.sampled_from([1, 2]),
)
# A splice body: (gap before the run, run length, target) triples.
RUN_LAYOUT = st.tuples(st.integers(0, 3), st.integers(1, 4), RUN_TARGETS)
RUN_LAYOUTS = st.lists(RUN_LAYOUT, max_size=4)


def run_target(va_page: int, spec) -> MapletTarget:
    kind, shift, state, owner = spec
    return target_for(kind, va_page + shift, state, owner)


def layout_runs(va_page: int, layout) -> list[Maplet]:
    """Ascending, disjoint runs from ``va_page`` following ``layout``."""
    runs, cursor = [], va_page
    for gap, nr, spec in layout:
        start = cursor + gap
        runs.append(Maplet(start * PAGE_SIZE, nr, run_target(start, spec)))
        cursor = start + nr
    return runs


def model_put(model: dict, va: int, nr: int, target: MapletTarget) -> None:
    for i in range(nr):
        model[va + i * PAGE_SIZE] = target.at_offset(i * PAGE_SIZE)


def model_drop(model: dict, va: int, nr: int) -> None:
    for i in range(nr):
        model.pop(va + i * PAGE_SIZE, None)


def normal_form(model: dict) -> list[Maplet]:
    """The unique sorted, disjoint, maximally coalesced maplet list."""
    out: list[Maplet] = []
    for page in sorted(model):
        target = model[page]
        if out:
            prev = out[-1]
            if prev.end == page and target == prev.target.at_offset(
                page - prev.va
            ):
                out[-1] = Maplet(prev.va, prev.nr_pages + 1, prev.target)
                continue
        out.append(Maplet(page, 1, target))
    return out


class MappingTwin(RuleBasedStateMachine):
    """The fast :class:`Mapping` and a naive page dict, one contract."""

    def __init__(self):
        super().__init__()
        self.mapping = Mapping()
        self.model: dict[int, MapletTarget] = {}
        #: Earlier copies and frozen snapshots, each with its model.
        self.snapshots: list[tuple[Mapping, dict]] = []

    # -- mutations -----------------------------------------------------------

    @rule(va_page=PAGES, nr=RUNS, layout=RUN_LAYOUTS)
    def splice(self, va_page, nr, layout):
        runs = layout_runs(va_page, layout)
        va, end = va_page * PAGE_SIZE, (va_page + nr) * PAGE_SIZE
        if runs and runs[-1].end > end:
            with pytest.raises(MappingError):
                self.mapping.splice(va, nr, runs)
            return
        self.mapping.splice(va, nr, runs)
        model_drop(self.model, va, nr)
        for run in runs:
            model_put(self.model, run.va, run.nr_pages, run.target)

    @rule(
        va_page=PAGES,
        layout=st.lists(RUN_LAYOUT, min_size=2, max_size=4),
        fault=st.sampled_from(["overlap", "reversed", "below", "beyond"]),
    )
    def splice_ill_formed(self, va_page, layout, fault):
        """Overlapping, out-of-order or out-of-range runs are rejected
        and leave the mapping untouched."""
        runs = layout_runs(va_page, layout)
        va = va_page * PAGE_SIZE
        nr = runs[-1].end // PAGE_SIZE - va_page
        if fault == "overlap":
            first = runs[0]
            runs.insert(1, Maplet(first.end - PAGE_SIZE, 1, first.target))
        elif fault == "reversed":
            runs.reverse()
        elif fault == "below":
            va = runs[0].va + PAGE_SIZE
            nr = (runs[-1].end - va) // PAGE_SIZE
        else:
            nr -= 1
        with pytest.raises(MappingError):
            self.mapping.splice(va, nr, runs)

    @rule(va_page=PAGES, nr=RUNS, spec=RUN_TARGETS)
    def insert(self, va_page, nr, spec):
        va, target = va_page * PAGE_SIZE, run_target(va_page, spec)
        if any(va + i * PAGE_SIZE in self.model for i in range(nr)):
            with pytest.raises(MappingError):
                self.mapping.insert(va, nr, target)
            return
        self.mapping.insert(va, nr, target)
        model_put(self.model, va, nr, target)

    @rule(va_page=PAGES, nr=RUNS, spec=RUN_TARGETS)
    def insert_overwrite(self, va_page, nr, spec):
        va, target = va_page * PAGE_SIZE, run_target(va_page, spec)
        self.mapping.insert(va, nr, target, overwrite=True)
        model_put(self.model, va, nr, target)

    @rule(va_page=PAGES, nr=RUNS)
    def remove_if_present(self, va_page, nr):
        self.mapping.remove_if_present(va_page * PAGE_SIZE, nr)
        model_drop(self.model, va_page * PAGE_SIZE, nr)

    @rule(keep_original=st.booleans())
    def copy(self, keep_original):
        """Carry on with one side of a copy; the other must never change."""
        clone = self.mapping.copy()
        assert clone == self.mapping
        if keep_original:
            self.snapshots.append((self.mapping, dict(self.model)))
            self.mapping = clone
        else:
            self.snapshots.append((clone, dict(self.model)))
        del self.snapshots[:-4]

    @rule()
    def freeze(self):
        frozen = self.mapping.copy().freeze()
        self.snapshots.append((frozen, dict(self.model)))
        del self.snapshots[:-4]

    @precondition(lambda self: any(m.frozen for m, _ in self.snapshots))
    @rule(
        va_page=PAGES,
        nr=RUNS,
        op=st.sampled_from(["splice", "insert", "overwrite", "remove"]),
    )
    def mutate_frozen(self, va_page, nr, op):
        frozen = next(m for m, _ in reversed(self.snapshots) if m.frozen)
        va, target = va_page * PAGE_SIZE, MapletTarget.annotated(1)
        mutate = {
            "splice": lambda: frozen.splice(va, nr, [Maplet(va, 1, target)]),
            "insert": lambda: frozen.insert(va, nr, target),
            "overwrite": lambda: frozen.insert(va, nr, target, overwrite=True),
            "remove": lambda: frozen.remove_if_present(va, nr),
        }[op]
        with pytest.raises(MappingError):
            mutate()

    # -- the contract --------------------------------------------------------

    @invariant()
    def agrees_with_model_in_normal_form(self):
        assert list(self.mapping) == normal_form(self.model)
        for page in range(DOMAIN_PAGES + 16):
            va = page * PAGE_SIZE
            assert self.mapping.lookup(va) == self.model.get(va)

    @invariant()
    def snapshots_unchanged(self):
        for mapping, model in self.snapshots:
            assert list(mapping) == normal_form(model)
            overlap = bool(model.keys() & self.model.keys())
            assert mapping.domain_overlaps(self.mapping) == overlap


TestMappingTwin = MappingTwin.TestCase
TestMappingTwin.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
