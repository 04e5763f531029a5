"""The subsystem registry: every oracle-checked security boundary.

The paper checks *one* boundary (mem_protect page ownership); scaling the
approach to a production hypervisor means every additional subsystem — the
IOMMU here, vGIC or timers later — must plug its specification into the
same machinery: the checker, the frame hook, the diff, the abstraction
cache, the static analysis passes, and the campaign layers. This module is
the single place a new subsystem is declared; everything else enumerates
``SUBSYSTEMS`` instead of hard-coding ``mem_protect`` paths.

Each subsystem names:

- ``spec_module`` — the module holding its ``compute_post__*`` functions
  and the pure-literal manifests (``HYPERCALL_SPECS``,
  ``FRAME_MANIFESTS``, ``OWNERSHIP_EDGES``, ``REFINEMENT_SPECS``). Spec
  modules obey the purity discipline (``python -m repro.analysis purity``
  runs over every registered spec module).
- ``handler_modules`` — the implementation modules whose handlers the
  ownership/refinement/lockorder passes analyse against those manifests.
- ``components`` — one :class:`Component` per lock-protected part of the
  ghost state: its key, the path to its lock, its recorder and, when the
  boundary pairs with the host's sharing, its part of the §3.1 isolation
  sweep. The checker hooks, baselines and sweeps exactly these.

The registry itself is deliberately *not* a spec module: spec modules must
stay pure, so the lazy ``importlib`` plumbing lives here and spec modules
only ever import the resolved accessors.
"""

from __future__ import annotations

import importlib
import importlib.util
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Component:
    """One ghost-state component: the state one lock protects.

    The checker records the component at every acquire and release of
    ``lock`` and once at attach time as the non-interference baseline.
    """

    #: The ghost-state key; a ``per_vm`` component is keyed
    #: ``"<key>:<vm handle>"``, one instance per VM.
    key: str
    #: Attribute path to the lock from the ``PKvm`` object (from the
    #: ``Vm`` object for a ``per_vm`` component).
    lock: str
    #: ``"module:function"``; ``function(checker, key, owner)`` returns
    #: the abstraction, where ``owner`` is the ``PKvm`` (or the ``Vm``).
    #: Page-table trees go through ``checker.cache.record(key, root,
    #: interpret)``.
    recorder: str
    per_vm: bool = False
    #: ``"module:function"`` or ``""``; ``function(value, host)`` returns
    #: the host-shared pages the component borrows and a description of
    #: each page it reaches that the host does not lend it.
    isolation: str = ""


@dataclass(frozen=True)
class Subsystem:
    """One registered security boundary."""

    name: str
    spec_module: str
    handler_modules: tuple[str, ...]
    components: tuple[Component, ...]


#: Every registered subsystem, in check order. Adding an entry here is
#: step 1 of docs/SPEC_GUIDE.md, "Adding a subsystem".
SUBSYSTEMS: tuple[Subsystem, ...] = (
    Subsystem(
        name="mem_protect",
        spec_module="repro.ghost.spec",
        handler_modules=("repro.pkvm.mem_protect", "repro.pkvm.hyp"),
        components=(
            Component("host", "mp.host_lock", "repro.ghost.checker:record_host"),
            Component("pkvm", "mp.pkvm_lock", "repro.ghost.checker:record_pkvm"),
            Component("vms", "vm_table.lock", "repro.ghost.checker:record_vms"),
            Component(
                "vm_pgt", "lock", "repro.ghost.checker:record_vm_pgt", per_vm=True
            ),
        ),
    ),
    Subsystem(
        name="iommu",
        spec_module="repro.ghost.iommu_spec",
        handler_modules=("repro.pkvm.iommu",),
        components=(
            Component(
                "iommu",
                "iommu.iommu_lock",
                "repro.ghost.checker:record_iommu",
                isolation="repro.ghost.iommu_spec:dma_isolation",
            ),
        ),
    ),
)


def subsystem(name: str) -> Subsystem:
    for sub in SUBSYSTEMS:
        if sub.name == name:
            return sub
    raise KeyError(f"unknown subsystem {name!r}")


def components() -> list[Component]:
    """Every registered component, in check order."""
    return [c for sub in SUBSYSTEMS for c in sub.components]


def resolve(ref: str):
    """The function a ``"module:function"`` reference names."""
    module, _, name = ref.partition(":")
    return getattr(importlib.import_module(module), name)


def _spec(sub: Subsystem):
    return importlib.import_module(sub.spec_module)


def _manifest(name: str) -> dict:
    """Merge one named manifest dict across every spec module."""
    merged: dict = {}
    for sub in SUBSYSTEMS:
        merged.update(getattr(_spec(sub), name, {}))
    return merged


def merged_hypercall_specs() -> dict:
    """HypercallId -> compute_post function, across all subsystems."""
    return _manifest("HYPERCALL_SPECS")


def merged_frame_manifests() -> dict:
    """Spec function name -> Frame, across all subsystems."""
    return _manifest("FRAME_MANIFESTS")


def merged_ownership_edges() -> dict:
    """Handler name -> OwnershipRule, across all subsystems."""
    return _manifest("OWNERSHIP_EDGES")


def merged_refinement_specs() -> dict:
    """Handler name -> spec function name, across all subsystems."""
    return _manifest("REFINEMENT_SPECS")


def spec_for_hypercall(call_id: int):
    """The registered compute_post function for ``call_id``, or None.

    Called from the top-level dispatch in ``repro.ghost.spec`` as the
    cross-subsystem fallback; kept here so spec modules never import each
    other (each stays independently purity-checkable).
    """
    for sub in SUBSYSTEMS:
        for key, fn in getattr(_spec(sub), "HYPERCALL_SPECS", {}).items():
            if int(key) == call_id:
                return fn
    return None


def _module_path(module_name: str) -> Path:
    spec = importlib.util.find_spec(module_name)
    assert spec is not None and spec.origin is not None, module_name
    return Path(spec.origin)


def spec_module_paths() -> list[Path]:
    """Source path of every registered spec module (for the AST passes)."""
    return [_module_path(sub.spec_module) for sub in SUBSYSTEMS]


def handler_module_paths(sub: Subsystem | None = None) -> list[Path]:
    """Source paths of handler modules — one subsystem's, or all."""
    subs = (sub,) if sub is not None else SUBSYSTEMS
    paths: list[Path] = []
    for s in subs:
        for module_name in s.handler_modules:
            path = _module_path(module_name)
            if path not in paths:
                paths.append(path)
    return paths


def handler_package_roots() -> list[Path]:
    """Distinct package directories containing registered handlers (the
    lock-discipline pass checks every module under each)."""
    roots: list[Path] = []
    for path in handler_module_paths():
        if path.parent not in roots:
            roots.append(path.parent)
    return roots
