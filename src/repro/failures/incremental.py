"""Incremental re-solve of an SRP under a failure scenario.

A failure is the simplest perturbation the seeded re-solve of
:mod:`repro.delta.incremental` handles: its :class:`~repro.delta.incremental.EdgeDiff`
holds only the scenario's removed directed edges and removed nodes --
nothing is added and no surviving edge changes its transfer, because a
failure view shares every :class:`~repro.config.device.DeviceConfig` with
the baseline.  :func:`incremental_resolve` is that entry point; the taint,
dirty-set and scratch-fallback logic are the shared body's.

Unlike a change re-solve, the transfer memo is *not* purged of the removed
edges: a failed edge is never asked for again, so one memo seeded from the
baseline can be shared by every scenario of a class.
"""

from __future__ import annotations

import time
from typing import FrozenSet, Optional

from repro.delta.incremental import (
    BaselineIndex,
    DeltaSolve,
    EdgeDiff,
    _seeded_resolve,
    divergent_nodes,
    tainted_nodes,
)
from repro.srp.instance import SRP
from repro.srp.solution import Solution
from repro.srp.solver import TransferCache
from repro.topology.graph import Edge, Node

__all__ = ["BaselineIndex", "divergent_nodes", "incremental_resolve", "tainted_nodes"]


def incremental_resolve(
    failed_srp: SRP,
    baseline: Solution,
    removed_edges: FrozenSet[Edge],
    removed_nodes: FrozenSet[Node] = frozenset(),
    transfer_cache: Optional[TransferCache] = None,
    index: Optional[BaselineIndex] = None,
    max_rounds: int = 1000,
) -> DeltaSolve:
    """Solve ``failed_srp`` seeded from the baseline solution.

    ``failed_srp`` must share its node universe with the baseline SRP
    minus ``removed_nodes`` (including the virtual destination: the origin
    set is unchanged); ``removed_edges`` are the scenario's *directed*
    edges.  Supplying ``transfer_cache`` (else a copy of the baseline's
    memo) and ``index`` lets a sweep share both across its scenarios.
    """
    start = time.perf_counter()
    if transfer_cache is None:
        transfer_cache = TransferCache().seeded_from(baseline.transfer_cache)
    diff = EdgeDiff(removed=removed_edges, removed_nodes=frozenset(removed_nodes))
    return _seeded_resolve(
        failed_srp, baseline, diff, transfer_cache, index, max_rounds, "failures", start
    )
