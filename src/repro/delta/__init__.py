"""Configuration change-impact analysis: what-if sweeps over compression.

This package holds the what-if engine (:mod:`repro.delta.engine`) and the
seeded re-solve (:mod:`repro.delta.incremental`) shared with failure
sweeps (:mod:`repro.failures`, the engine's independent-steps mode).
Change scripts are its chained mode: typed configuration edits,
re-verified *incrementally* from the previous step, with a per-class
decision whether the baseline Bonsai abstraction survives the change
(reuse) or must be re-compressed (dirty classes only).
"""

from repro.delta.changeset import (
    CHANGE_KINDS,
    Change,
    ChangeError,
    ChangeSet,
    DeviceAdd,
    DeviceRemove,
    InterfaceAclSet,
    LinkAdd,
    LinkCostSet,
    LinkRemove,
    LocalPrefOverride,
    PrefixListSet,
    PrefixOriginate,
    PrefixWithdraw,
    RouteMapClauseDelete,
    RouteMapClauseEdit,
    RouteMapClauseInsert,
    change_from_dict,
    load_change_script,
)
from repro.delta.incremental import (
    DeltaSolve,
    EdgeDiff,
    delta_resolve,
    diff_network_edges,
    seed_transfer_cache,
)
from repro.delta.revalidate import (
    RevalidationOutcome,
    class_signature,
    revalidate_class,
)
from repro.delta.sweep import (
    ChangeOutcome,
    ClassDeltaRecord,
    DeltaReport,
    DeltaSweep,
    delta_class_task,
    sweep_changes,
)

__all__ = [
    "CHANGE_KINDS",
    "Change",
    "ChangeError",
    "ChangeSet",
    "DeviceAdd",
    "DeviceRemove",
    "InterfaceAclSet",
    "LinkAdd",
    "LinkCostSet",
    "LinkRemove",
    "LocalPrefOverride",
    "PrefixListSet",
    "PrefixOriginate",
    "PrefixWithdraw",
    "RouteMapClauseDelete",
    "RouteMapClauseEdit",
    "RouteMapClauseInsert",
    "change_from_dict",
    "load_change_script",
    "DeltaSolve",
    "EdgeDiff",
    "delta_resolve",
    "diff_network_edges",
    "seed_transfer_cache",
    "RevalidationOutcome",
    "class_signature",
    "revalidate_class",
    "ChangeOutcome",
    "ClassDeltaRecord",
    "DeltaReport",
    "DeltaSweep",
    "delta_class_task",
    "sweep_changes",
]
