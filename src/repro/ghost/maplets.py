"""Finite range maps: the extensional meaning of a page table.

"What is relevant is the finite partial mapping from 4KB-page input
addresses to tuples of their output address, permissions, and
software-defined attributes: the extension of the Arm-A page-table walk
function" (paper §3.1). The representation is the paper's: an ordered list
of *maximally coalesced maplets*, each capturing a contiguous run of pages
whose targets continue each other.

A maplet target is either *mapped* (output address + attributes) or an
*annotation* (owner id carried by invalid entries); both appear in the
host's stage 2 and both matter to the specification.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator, Sequence

from repro.arch.defs import PAGE_SIZE, MemType, Perms
from repro.arch.pte import PageState
from repro.ghost.arena import arena


class MappingError(Exception):
    """An ill-formed mapping operation (overlap, missing range, ...).

    In the runtime oracle these surface as specification-infrastructure
    failures: either the spec is wrong or the implementation produced a
    state the abstraction declares impossible (e.g. a double mapping).
    """


@dataclass(frozen=True)
class MapletTarget:
    """Where a run of pages goes: a mapped range or an owner annotation."""

    kind: str  # "mapped" | "annotated"
    oa: int = 0
    perms: Perms = Perms.none()
    memtype: MemType = MemType.NORMAL
    page_state: PageState = PageState.OWNED
    owner_id: int = 0

    @staticmethod
    def mapped(
        oa: int,
        perms: Perms,
        memtype: MemType = MemType.NORMAL,
        page_state: PageState = PageState.OWNED,
    ) -> "MapletTarget":
        return MapletTarget(
            "mapped", oa=oa, perms=perms, memtype=memtype, page_state=page_state
        )

    @staticmethod
    def annotated(owner_id: int) -> "MapletTarget":
        return MapletTarget("annotated", owner_id=owner_id)

    def at_offset(self, offset: int) -> "MapletTarget":
        """The target ``offset`` bytes into a run starting with this one."""
        if self.kind == "mapped":
            return MapletTarget(
                "mapped",
                self.oa + offset,
                self.perms,
                self.memtype,
                self.page_state,
                self.owner_id,
            )
        return self

    def continues(self, earlier: "MapletTarget", offset: int) -> bool:
        """Whether this target extends ``earlier`` at byte ``offset``:
        ``self == earlier.at_offset(offset)``, without building the
        offset target."""
        if self.kind == "mapped":
            return (
                earlier.kind == "mapped"
                and self.oa == earlier.oa + offset
                and self.perms == earlier.perms
                and self.memtype == earlier.memtype
                and self.page_state == earlier.page_state
                and self.owner_id == earlier.owner_id
            )
        return self == earlier

    def describe(self) -> str:
        if self.kind == "annotated":
            return f"owner:{self.owner_id}"
        return (
            f"phys:{self.oa:x} {self.page_state} {self.perms} {self.memtype}"
        )


@dataclass(frozen=True)
class Maplet:
    """A maximally coalesced run: ``nr_pages`` pages from ``va``.

    Page ``va + i*4K`` maps to ``target.at_offset(i*4K)``.
    """

    va: int
    nr_pages: int
    target: MapletTarget
    #: First address past the run; derived, so neither compared nor hashed.
    end: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "end", self.va + self.nr_pages * PAGE_SIZE)

    def target_at(self, va: int) -> MapletTarget:
        if not self.va <= va < self.end:
            raise MappingError(f"{va:#x} outside maplet")
        return self.target.at_offset(va - self.va)

    def describe(self) -> str:
        return f"ipa:{self.va:x}+{self.nr_pages}p -> {self.target.describe()}"


_maplet_va = attrgetter("va")
_maplet_end = attrgetter("end")


class Mapping:
    """An ordered list of disjoint, maximally coalesced maplets.

    Supports the finite-map operations the specifications use: empty,
    insert, remove, lookup, union-compatibility, equality, diff. All
    operations preserve the normal form (sorted, disjoint, coalesced),
    which the property-based tests pin down as the class invariant.
    """

    __slots__ = ("_maplets", "_hash", "_frozen", "_shared", "__weakref__")

    def __init__(self, maplets: list[Maplet] | None = None):
        self._maplets: list[Maplet] = maplets if maplets is not None else []
        self._hash: int | None = None
        self._frozen = False
        self._shared = False
        arena.account_mapping(self)

    # -- construction ------------------------------------------------------

    @staticmethod
    def empty() -> "Mapping":
        return Mapping()

    @staticmethod
    def singleton(va: int, nr_pages: int, target: MapletTarget) -> "Mapping":
        m = Mapping()
        m.insert(va, nr_pages, target)
        return m

    def copy(self) -> "Mapping":
        """O(1) copy-on-write copy: the maplet list is shared until either
        side mutates (structural sharing — the persistent-value half of the
        incremental oracle; unchanged components stay pointer-comparable)."""
        self._shared = True
        new = Mapping.__new__(Mapping)
        new._maplets = self._maplets
        new._hash = self._hash
        new._frozen = False
        new._shared = True
        arena.account_mapping(new)
        return new

    def freeze(self) -> "Mapping":
        """Mark immutable: any later mutation raises :class:`MappingError`.

        Cached abstraction snapshots are frozen so a buggy spec cannot
        silently corrupt the committed reference copies they share
        structure with."""
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _ensure_private(self) -> None:
        if self._frozen:
            raise MappingError("mutation of frozen mapping")
        if self._shared:
            self._maplets = list(self._maplets)
            self._shared = False
        self._hash = None

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._maplets)

    def __iter__(self) -> Iterator[Maplet]:
        return iter(self._maplets)

    def __bool__(self) -> bool:
        return bool(self._maplets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        if self is other or self._maplets is other._maplets:
            return True
        if (
            self._hash is not None
            and other._hash is not None
            and self._hash != other._hash
        ):
            return False
        return self._maplets == other._maplets

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(tuple(self._maplets))
        return h

    def __repr__(self) -> str:
        inner = ", ".join(m.describe() for m in self._maplets)
        return f"Mapping[{inner}]"

    def nr_pages(self) -> int:
        """Total pages in the domain."""
        return sum(m.nr_pages for m in self._maplets)

    def lookup(self, va: int) -> MapletTarget | None:
        """The target of the page containing ``va``, or None."""
        va &= ~(PAGE_SIZE - 1)
        idx = self._find(va)
        if idx is None:
            return None
        return self._maplets[idx].target_at(va)

    def __contains__(self, va: int) -> bool:
        return self.lookup(va) is not None

    def contains_range(self, va: int, nr_pages: int) -> bool:
        covered = sum(n for _va, n, _t in self.runs_in(va, nr_pages))
        return covered == nr_pages

    def runs_in(self, va: int, nr_pages: int):
        """Yield ``(run_va, run_nr_pages, target_at_run_va)`` for the
        maplet fragments overlapping ``[va, va + nr_pages*4K)``.

        O(log n + overlapping maplets) — the range-query primitive the
        cross-component invariant checks use instead of per-page lookups.
        """
        end = va + nr_pages * PAGE_SIZE
        lo, hi = self._span(va, end)
        for maplet in self._maplets[lo:hi]:
            run_start = max(va, maplet.va)
            run_end = min(end, maplet.end)
            yield (
                run_start,
                (run_end - run_start) // PAGE_SIZE,
                maplet.target_at(run_start),
            )

    def _span(self, va: int, end: int) -> tuple[int, int]:
        """Bisect to the slice ``[lo, hi)`` of maplets overlapping
        ``[va, end)``: ``lo`` is the first maplet ending after ``va``,
        ``hi`` the first (from ``lo``) starting at or after ``end``."""
        maplets = self._maplets
        lo = bisect_right(maplets, va, key=_maplet_end)
        return lo, bisect_left(maplets, end, lo, key=_maplet_va)

    def _find(self, va: int) -> int | None:
        idx = bisect_right(self._maplets, va, key=_maplet_end)
        if idx < len(self._maplets) and self._maplets[idx].va <= va:
            return idx
        return None

    # -- mutation -----------------------------------------------------------

    def splice(
        self, va: int, nr_pages: int, runs: Sequence[Maplet] = ()
    ) -> None:
        """Replace the pages of ``[va, va + nr_pages*4K)`` with ``runs``.

        ``runs`` is a sequence of :class:`Maplet` in ascending, disjoint
        order, each inside the range; pages of the range that no run
        covers become absent. Runs out of order, overlapping or outside
        the range raise :class:`MappingError` and leave the mapping
        unchanged. This is the one general mutation: it bisects to the
        maplets overlapping the range, swaps the runs in, and coalesces
        them with each other and with the untouched maplets at the two
        edges — O(log n + k) maplet operations for k maplets spliced in
        or out.
        """
        if va % PAGE_SIZE:
            raise MappingError(f"unaligned splice at {va:#x}")
        if nr_pages < 0:
            raise MappingError(f"negative splice at {va:#x}")
        self._ensure_private()
        end = va + nr_pages * PAGE_SIZE
        maplets = self._maplets
        lo, hi = self._span(va, end)
        out: list[Maplet] = []
        if lo < hi and maplets[lo].va < va:
            first = maplets[lo]
            out.append(
                Maplet(first.va, (va - first.va) // PAGE_SIZE, first.target)
            )
        cursor = va
        for run in runs:
            run_va = run.va
            if (
                run_va < cursor
                or run_va % PAGE_SIZE
                or run.nr_pages <= 0
                or run.end > end
            ):
                raise MappingError(
                    f"splice run {run.describe()} overlaps, is out of order "
                    f"or lies outside [{va:#x}, {end:#x})"
                )
            cursor = run.end
            joined = _joined(out[-1], run) if out else None
            if joined is None:
                out.append(run)
            else:
                out[-1] = joined
        if lo < hi and maplets[hi - 1].end > end:
            last = maplets[hi - 1]
            right = Maplet(
                end,
                (last.end - end) // PAGE_SIZE,
                last.target.at_offset(end - last.va),
            )
            joined = _joined(out[-1], right) if out else None
            if joined is None:
                out.append(right)
            else:
                out[-1] = joined
        if out:
            if lo > 0:
                joined = _joined(maplets[lo - 1], out[0])
                if joined is not None:
                    lo -= 1
                    out[0] = joined
            if hi < len(maplets):
                joined = _joined(out[-1], maplets[hi])
                if joined is not None:
                    hi += 1
                    out[-1] = joined
        maplets[lo:hi] = out
        arena.account_mapping(self)

    def insert(
        self, va: int, nr_pages: int, target: MapletTarget, *, overwrite: bool = False
    ) -> None:
        """Add ``nr_pages`` pages at ``va``, coalescing with neighbours.

        Overlap with existing content is a :class:`MappingError` unless
        ``overwrite`` — the specs insert into vacated ranges, so a
        collision means either a spec bug or an implementation double-map,
        and must be loud.
        """
        if va % PAGE_SIZE:
            raise MappingError(f"unaligned insert at {va:#x}")
        if nr_pages <= 0:
            raise MappingError(f"empty insert at {va:#x}")
        end = va + nr_pages * PAGE_SIZE
        if not overwrite:
            lo, hi = self._span(va, end)
            if lo < hi:
                raise MappingError(
                    f"insert [{va:#x}, {end:#x}) overlaps "
                    f"{self._maplets[lo].describe()}"
                )
        self.splice(va, nr_pages, (Maplet(va, nr_pages, target),))

    def extend_coalesce(self, va: int, nr_pages: int, target: MapletTarget) -> None:
        """Append an in-order run, coalescing with the last maplet.

        The paper's ``extend_mapping_coalesce`` (Fig. 2): the abstraction
        traversal visits entries in ascending input-address order, so
        extension is O(1) instead of a general insert. A traversal
        segment only grows, so the builder accounts the finished segment
        with :meth:`GhostArena.account_mapping` once instead of per run.
        """
        if va % PAGE_SIZE:
            raise MappingError(f"unaligned extend at {va:#x}")
        self._ensure_private()
        if self._maplets:
            last = self._maplets[-1]
            if va < last.end:
                raise MappingError(
                    f"extend at {va:#x} not in ascending order"
                )
            if va == last.end and target.continues(last.target, va - last.va):
                self._maplets[-1] = Maplet(
                    last.va, last.nr_pages + nr_pages, last.target
                )
                return
        self._maplets.append(Maplet(va, nr_pages, target))

    def remove(self, va: int, nr_pages: int) -> None:
        """Remove exactly ``nr_pages`` pages at ``va``; all must be present."""
        if not self.contains_range(va, nr_pages):
            raise MappingError(
                f"remove [{va:#x}, +{nr_pages}p) not fully mapped"
            )
        self.remove_if_present(va, nr_pages)

    def remove_if_present(self, va: int, nr_pages: int) -> None:
        """Remove any pages of ``[va, va+nr_pages*4K)`` that are present."""
        self.splice(va, nr_pages)

    # -- set-like operations --------------------------------------------------

    def domain_overlaps(self, other: "Mapping") -> bool:
        """Whether any page is in both domains: one merge pass over the
        two sorted maplet lists."""
        a, b = self._maplets, other._maplets
        i = j = 0
        while i < len(a) and j < len(b):
            if a[i].end <= b[j].va:
                i += 1
            elif b[j].end <= a[i].va:
                j += 1
            else:
                return True
        return False

    def diff(self, other: "Mapping") -> tuple[list[Maplet], list[Maplet]]:
        """(removed, added) page runs going from ``self`` to ``other``.

        Used by the error-reporting diff printer (paper §4.2.2).
        """
        removed = _page_difference(self, other)
        added = _page_difference(other, self)
        return removed, added


def _joined(a: Maplet, b: Maplet) -> Maplet | None:
    """The maplet ``a`` followed by ``b``, if ``b`` continues ``a``."""
    if a.end == b.va and b.target.continues(a.target, b.va - a.va):
        return Maplet(a.va, a.nr_pages + b.nr_pages, a.target)
    return None


def _page_difference(a: Mapping, b: Mapping) -> list[Maplet]:
    """Pages of ``a`` whose target in ``b`` differs (or is absent),
    re-coalesced into maplets."""
    result = Mapping()
    for m in a:
        for page in range(m.va, m.end, PAGE_SIZE):
            ta = m.target_at(page)
            if b.lookup(page) != ta:
                result.insert(page, 1, ta)
    return list(result)
