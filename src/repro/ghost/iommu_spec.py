"""Specification functions for the IOMMU subsystem (the second
registered security boundary — see :mod:`repro.ghost.registry`).

Same shape as :mod:`repro.ghost.spec`: each ``compute_post__iommu_*``
reads only the ghost pre-state and call data, writes the expected
post-state, and declares what it touched. The module is deliberately
self-contained — it defines its own ``_result``/``_epilogue`` and target
constructors rather than importing :mod:`repro.ghost.spec`'s, so the
frame pass's interprocedural inference (which resolves calls through the
*same module's* helpers only) sees every ghost access, and the
``OOM_PERMITTED`` looseness set stays local to the subsystem.

The DMA-isolation story the specs encode: ``map_pages`` moves the host
page OWNED -> SHARED_OWNED (the ``share_hyp`` transition) while the
domain's shadow stage 2 gains a SHARED_BORROWED entry; ``unmap_pages``
reverses both. A DMA-mapped page is therefore never exclusively owned,
so every donation spec's ``is_owned_exclusively_by_host`` check refuses
it with no IOMMU-specific casework, and the checker's isolation sweep
cross-checks the borrower relationship globally.
"""

from __future__ import annotations

from dataclasses import replace

from repro.arch.defs import PAGE_SIZE, MemType, Perms
from repro.ghost.calldata import GhostCallData
from repro.ghost.maplets import MapletTarget
from repro.ghost.spec import Frame, OwnershipRule, SpecAccessError, SpecResult
from repro.ghost.state import (
    AbstractPgtable,
    GhostIommuDomain,
    GhostState,
    local_key,
)
from repro.arch.pte import PageState
from repro.pkvm.defs import (
    EBUSY,
    EINVAL,
    ENOENT,
    ENOMEM,
    EPERM,
    HypercallId,
    u64,
)
from repro.pkvm.iommu import MAX_DEVICES, MAX_DOMAINS

#: IOMMU hypercalls permitted by the loose spec to fail with -ENOMEM at
#: the implementation's discretion: both allocate shadow table pages from
#: the hyp pool, which the abstract state does not model.
OOM_PERMITTED = {
    HypercallId.IOMMU_ALLOC_DOMAIN,
    HypercallId.IOMMU_MAP_PAGES,
}


# ---------------------------------------------------------------------------
# Local helpers (same contracts as repro.ghost.spec's, kept module-local
# so the frame inference resolves them)
# ---------------------------------------------------------------------------


def _require(present: bool, what: str) -> None:
    if not present:
        raise SpecAccessError(f"ghost component {what!r} unavailable to spec")


def _dma_host_target(phys: int, state: PageState) -> MapletTarget:
    """The host stage 2 view of a DMA-shared page. ``map_pages`` only
    accepts normal memory, so the attributes are fixed."""
    return MapletTarget.mapped(phys, Perms.rwx(), MemType.NORMAL, state)


def _dma_shadow_target(phys: int, state: PageState) -> MapletTarget:
    """The shadow stage 2 view: the domain borrows the page RW."""
    return MapletTarget.mapped(phys, Perms.rw(), MemType.NORMAL, state)


def _epilogue(
    g_post: GhostState,
    g_pre: GhostState,
    cpu: int,
    ret: int,
    aux: int = 0,
) -> None:
    """The host-visible return convention (see repro.ghost.spec)."""
    pre_local = g_pre.locals_[cpu]
    post_local = g_post.local(cpu)
    regs = list(pre_local.regs)
    regs[0] = 0
    regs[1] = u64(ret)
    regs[2] = aux
    regs[3] = 0
    post_local.regs = tuple(regs)
    post_local.present = True
    post_local.loaded_vcpu = pre_local.loaded_vcpu
    post_local.stage2_is_host = True


def _result(
    g_post: GhostState,
    g_pre: GhostState,
    cpu: int,
    call: GhostCallData,
    ret: int,
    touched: set[str],
    *,
    aux: int = 0,
    hcall: HypercallId | None = None,
) -> SpecResult:
    """Common tail: epilogue + the ENOMEM looseness rule."""
    if (
        hcall in OOM_PERMITTED
        and call.impl_ret == -ENOMEM
        and ret != -ENOMEM
    ):
        return SpecResult.skip("implementation returned -ENOMEM (loose)")
    _epilogue(g_post, g_pre, cpu, ret, aux)
    touched = set(touched) | {local_key(cpu)}
    return SpecResult(valid=True, touched=touched, ret=ret)


# ---------------------------------------------------------------------------
# Domain lifecycle
# ---------------------------------------------------------------------------


def compute_post__iommu_alloc_domain(
    g_post: GhostState, g_pre: GhostState, call: GhostCallData, cpu: int
) -> SpecResult:
    hcall = HypercallId.IOMMU_ALLOC_DOMAIN
    domain_id = g_pre.read_gpr(cpu, 1)
    if not 0 <= domain_id < MAX_DOMAINS:
        return _result(g_post, g_pre, cpu, call, -EINVAL, set(), hcall=hcall)
    _require(g_pre.iommu.present, "iommu")
    if domain_id in g_pre.iommu.domains:
        return _result(g_post, g_pre, cpu, call, -EBUSY, set(), hcall=hcall)
    g_post.copy_abstraction_iommu(g_pre)
    # The allocation itself holds one reference — a domain whose refcount
    # is still 0 after alloc is exactly the jetson-pkvm init-ordering bug
    # (the implementation's BUG_ON(!old) in domain_get), and the checker
    # reports the 1-vs-0 post-state mismatch here even before any later
    # attach/map trips the panic.
    g_post.iommu.domains[domain_id] = GhostIommuDomain(
        refcount=1, devices=(), pgt=AbstractPgtable()
    )
    return _result(g_post, g_pre, cpu, call, 0, {"iommu"}, hcall=hcall)


def compute_post__iommu_free_domain(
    g_post: GhostState, g_pre: GhostState, call: GhostCallData, cpu: int
) -> SpecResult:
    domain_id = g_pre.read_gpr(cpu, 1)
    _require(g_pre.iommu.present, "iommu")
    domain = g_pre.iommu.domains.get(domain_id)
    if domain is None:
        return _result(g_post, g_pre, cpu, call, -ENOENT, set())
    busy = (
        domain.refcount != 1
        or domain.devices
        or next(iter(domain.pgt.mapping), None) is not None
    )
    if busy:
        return _result(g_post, g_pre, cpu, call, -EBUSY, set())
    g_post.copy_abstraction_iommu(g_pre)
    del g_post.iommu.domains[domain_id]
    return _result(g_post, g_pre, cpu, call, 0, {"iommu"})


# ---------------------------------------------------------------------------
# Device attach/detach
# ---------------------------------------------------------------------------


def compute_post__iommu_attach_dev(
    g_post: GhostState, g_pre: GhostState, call: GhostCallData, cpu: int
) -> SpecResult:
    domain_id = g_pre.read_gpr(cpu, 1)
    dev = g_pre.read_gpr(cpu, 2)
    if not 0 <= dev < MAX_DEVICES:
        return _result(g_post, g_pre, cpu, call, -EINVAL, set())
    _require(g_pre.iommu.present, "iommu")
    domain = g_pre.iommu.domains.get(domain_id)
    if domain is None:
        return _result(g_post, g_pre, cpu, call, -ENOENT, set())
    if any(dev in d.devices for d in g_pre.iommu.domains.values()):
        return _result(g_post, g_pre, cpu, call, -EBUSY, set())
    g_post.copy_abstraction_iommu(g_pre)
    dom = g_post.iommu.domains[domain_id]
    g_post.iommu.domains[domain_id] = replace(
        dom,
        refcount=dom.refcount + 1,
        devices=tuple(sorted(set(dom.devices) | {dev})),
    )
    return _result(g_post, g_pre, cpu, call, 0, {"iommu"})


def compute_post__iommu_detach_dev(
    g_post: GhostState, g_pre: GhostState, call: GhostCallData, cpu: int
) -> SpecResult:
    domain_id = g_pre.read_gpr(cpu, 1)
    dev = g_pre.read_gpr(cpu, 2)
    _require(g_pre.iommu.present, "iommu")
    domain = g_pre.iommu.domains.get(domain_id)
    if domain is None:
        return _result(g_post, g_pre, cpu, call, -ENOENT, set())
    if dev not in domain.devices:
        return _result(g_post, g_pre, cpu, call, -ENOENT, set())
    g_post.copy_abstraction_iommu(g_pre)
    dom = g_post.iommu.domains[domain_id]
    g_post.iommu.domains[domain_id] = replace(
        dom,
        refcount=dom.refcount - 1,
        devices=tuple(d for d in dom.devices if d != dev),
    )
    return _result(g_post, g_pre, cpu, call, 0, {"iommu"})


# ---------------------------------------------------------------------------
# DMA map/unmap
# ---------------------------------------------------------------------------


def compute_post__iommu_map_pages(
    g_post: GhostState, g_pre: GhostState, call: GhostCallData, cpu: int
) -> SpecResult:
    hcall = HypercallId.IOMMU_MAP_PAGES
    domain_id = g_pre.read_gpr(cpu, 1)
    iova = g_pre.read_gpr(cpu, 2) * PAGE_SIZE
    phys = g_pre.read_gpr(cpu, 3) * PAGE_SIZE
    _require(g_pre.iommu.present, "iommu")
    domain = g_pre.iommu.domains.get(domain_id)
    if domain is None:
        return _result(g_post, g_pre, cpu, call, -ENOENT, set(), hcall=hcall)
    if not g_pre.globals_.addr_is_allowed_memory(phys):
        return _result(g_post, g_pre, cpu, call, -EINVAL, set(), hcall=hcall)
    _require(g_pre.host.present, "host")
    # Fig. 5's is_owned_exclusively_by_host, inlined: the page must not
    # be annotated away nor already in any sharing relation.
    if (
        g_pre.host.annot.lookup(phys) is not None
        or g_pre.host.shared.lookup(phys) is not None
    ):
        return _result(g_post, g_pre, cpu, call, -EPERM, set(), hcall=hcall)
    if domain.pgt.mapping.lookup(iova) is not None:
        return _result(g_post, g_pre, cpu, call, -EBUSY, set(), hcall=hcall)

    g_post.copy_abstraction_host(g_pre)
    g_post.copy_abstraction_iommu(g_pre)
    g_post.host.shared.insert(
        phys, 1, _dma_host_target(phys, PageState.SHARED_OWNED)
    )
    g_post.iommu.domains[domain_id].pgt.mapping.insert(
        iova, 1, _dma_shadow_target(phys, PageState.SHARED_BORROWED)
    )
    return _result(
        g_post, g_pre, cpu, call, 0, {"host", "iommu"}, hcall=hcall
    )


def compute_post__iommu_unmap_pages(
    g_post: GhostState, g_pre: GhostState, call: GhostCallData, cpu: int
) -> SpecResult:
    domain_id = g_pre.read_gpr(cpu, 1)
    iova = g_pre.read_gpr(cpu, 2) * PAGE_SIZE
    _require(g_pre.iommu.present, "iommu")
    domain = g_pre.iommu.domains.get(domain_id)
    if domain is None:
        return _result(g_post, g_pre, cpu, call, -ENOENT, set())
    entry = domain.pgt.mapping.lookup(iova)
    if (
        entry is None
        or entry.kind != "mapped"
        or entry.page_state is not PageState.SHARED_BORROWED
    ):
        return _result(g_post, g_pre, cpu, call, -ENOENT, set())
    phys = entry.oa
    _require(g_pre.host.present, "host")
    shared = g_pre.host.shared.lookup(phys)
    if shared is None or shared.page_state is not PageState.SHARED_OWNED:
        return _result(g_post, g_pre, cpu, call, -EPERM, set())

    g_post.copy_abstraction_host(g_pre)
    g_post.copy_abstraction_iommu(g_pre)
    g_post.host.shared.remove(phys, 1)
    g_post.iommu.domains[domain_id].pgt.mapping.remove(iova, 1)
    return _result(g_post, g_pre, cpu, call, 0, {"host", "iommu"})


# ---------------------------------------------------------------------------
# The IOMMU's part of the §3.1 isolation sweep
# ---------------------------------------------------------------------------


def dma_isolation(iommu, host) -> tuple[set[int], list[str]]:
    """Every page a device can DMA to must be borrowed from a host page
    that is still shared-and-owned and not annotated away (never donated).

    Returns the pages DMA domains borrow, which count as borrowers of the
    host's shared pages, and a description of each page that breaks the
    rule.
    """
    borrowed: set[int] = set()
    problems: list[str] = []
    for domain_id, domain in iommu.domains.items():
        for maplet in domain.pgt.mapping:
            if maplet.target.kind != "mapped":
                continue
            for i in range(maplet.nr_pages):
                phys = maplet.target.oa + i * PAGE_SIZE
                state = maplet.target.page_state
                if state is PageState.SHARED_BORROWED:
                    borrowed.add(phys)
                host_side = host.shared.lookup(phys)
                lent = (
                    state is PageState.SHARED_BORROWED
                    and host_side is not None
                    and host_side.page_state is PageState.SHARED_OWNED
                    and host.annot.lookup(phys) is None
                )
                if not lent:
                    problems.append(
                        f"device in iommu domain {domain_id} can DMA to "
                        f"{phys:#x}, which the host does not share-and-own"
                    )
    return borrowed, problems


# ---------------------------------------------------------------------------
# Manifests (pure literals: the static passes parse, never import)
# ---------------------------------------------------------------------------

#: Which specification function handles each IOMMU hypercall; merged into
#: the cross-subsystem dispatch by repro.ghost.registry.
HYPERCALL_SPECS = {
    HypercallId.IOMMU_ALLOC_DOMAIN: compute_post__iommu_alloc_domain,
    HypercallId.IOMMU_FREE_DOMAIN: compute_post__iommu_free_domain,
    HypercallId.IOMMU_ATTACH_DEV: compute_post__iommu_attach_dev,
    HypercallId.IOMMU_DETACH_DEV: compute_post__iommu_detach_dev,
    HypercallId.IOMMU_MAP_PAGES: compute_post__iommu_map_pages,
    HypercallId.IOMMU_UNMAP_PAGES: compute_post__iommu_unmap_pages,
}


#: Declared footprints, checked statically and dynamically exactly like
#: repro.ghost.spec's (see docs/SPEC_GUIDE.md, "Declaring a frame").
FRAME_MANIFESTS = {
    "compute_post__iommu_alloc_domain": Frame(
        reads={"iommu", "local"},
        writes={"iommu", "local"},
    ),
    "compute_post__iommu_free_domain": Frame(
        reads={"iommu", "local"},
        writes={"iommu", "local"},
    ),
    "compute_post__iommu_attach_dev": Frame(
        reads={"iommu", "local"},
        writes={"iommu", "local"},
    ),
    "compute_post__iommu_detach_dev": Frame(
        reads={"iommu", "local"},
        writes={"iommu", "local"},
    ),
    "compute_post__iommu_map_pages": Frame(
        reads={"globals", "host", "iommu", "local"},
        writes={"host", "iommu", "local"},
    ),
    "compute_post__iommu_unmap_pages": Frame(
        reads={"host", "iommu", "local"},
        writes={"host", "iommu", "local"},
    ),
}


#: The IOMMU page-ownership transition system: map/unmap are the only ops
#: that write page tables. The shadow ("iommu") and host stage 2 effects
#: are paired — a DMA mapping with no host-side SHARED_OWNED record (or
#: vice versa) is exactly the broken-borrower state the isolation sweep
#: rejects.
OWNERSHIP_EDGES = {
    "do_map_pages": OwnershipRule(
        checks={"host_mmu": "OWNED"},
        success={
            "iommu": "map:SHARED_BORROWED",
            "host_mmu": "map:SHARED_OWNED",
        },
        rollback={"iommu": "unmap"},
        paired=("host_mmu", "iommu"),
        locks=("host_mmu", "iommu"),
    ),
    "do_unmap_pages": OwnershipRule(
        checks={},
        success={"iommu": "unmap", "host_mmu": "map:OWNED"},
        rollback={},
        paired=("host_mmu", "iommu"),
        locks=("host_mmu", "iommu"),
    ),
}


#: Handler -> spec pairing for the symbolic refinement pass: the two
#: page-table-writing handlers refine their compute_post twins.
REFINEMENT_SPECS = {
    "do_map_pages": "compute_post__iommu_map_pages",
    "do_unmap_pages": "compute_post__iommu_unmap_pages",
}
