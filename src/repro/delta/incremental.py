"""Incremental re-solve of an SRP under a perturbation of its edges.

Re-simulating a perturbed network from scratch repeats almost all of the
baseline's work: a downed link or an edited route map changes routing in
a small cone upstream of it.  One body (:func:`_seeded_resolve`) seeds
the worklist solver (:func:`repro.srp.solver.solve_seeded`) from the
baseline labeling given an :class:`EdgeDiff` -- the directed edges
removed, added or changed and the devices removed or added.  A failure
is a diff of removed edges and nodes only
(:func:`repro.failures.incremental.incremental_resolve`); a configuration
change may hold all five (:func:`delta_resolve`, with changed edges found
by per-edge specialized policy-key comparison in
:func:`diff_network_edges`: equal keys mean an unchanged transfer even
if the route-map objects were rewritten).

* **taint** -- nodes whose baseline forwarding reaches a removed or
  changed edge or a removed node (:func:`tainted_nodes`) are reset to "no
  route": keeping their labels would invite count-to-infinity style
  convergence to stale routes;
* **dirty** -- the initial worklist: taint plus the surviving endpoints
  of every removed/changed/added edge (the lost offer may have been the
  tie-broken runner-up), nodes offering into a tainted node, neighbours
  of removed devices, and added devices (which start with no label).

The baseline's per-(edge, label) transfer memo is carried over, so the
seeded offer tables cost dictionary hits instead of route-map
evaluations.  The seeded solver re-verifies the stability of every node
and raises :class:`~repro.srp.solver.ConvergenceError` otherwise; the
body then falls back to a scratch solve (recorded on the result), and
the sweep engine keeps the scratch solver as the per-step oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.config.network import Network
from repro.config.prefix import Prefix
from repro.config.transfer import syntactic_policy_keys
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.srp.instance import SRP
from repro.srp.solution import Solution
from repro.srp.solver import ConvergenceError, TransferCache, solve, solve_seeded
from repro.topology.graph import Edge, Node


@dataclass(frozen=True)
class EdgeDiff:
    """How one destination's compiled edges differ between two networks."""

    #: Directed edges present before but not after.
    removed: FrozenSet[Edge]
    #: Directed edges present after but not before.
    added: FrozenSet[Edge] = frozenset()
    #: Directed edges present in both whose specialized policy key differs.
    changed: FrozenSet[Edge] = frozenset()
    #: Devices present before but not after.
    removed_nodes: FrozenSet[str] = frozenset()
    #: Devices present after but not before.
    added_nodes: FrozenSet[str] = frozenset()

    def is_empty(self) -> bool:
        return not (
            self.removed or self.added or self.changed
            or self.removed_nodes or self.added_nodes
        )

    @property
    def perturbed(self) -> FrozenSet[Edge]:
        """The edges whose baseline-derived labels cannot be trusted."""
        return self.removed | self.changed


def diff_network_edges(
    old_network: Network,
    new_network: Network,
    destination: Prefix,
    old_keys: Optional[Dict[Edge, object]] = None,
    new_keys: Optional[Dict[Edge, object]] = None,
) -> EdgeDiff:
    """Diff two networks' compiled edges for one destination.

    Comparison runs on the specialized syntactic policy keys (each
    network's own unused-community set folded in), so a rewritten route
    map that specialises to the same behaviour for this destination --
    e.g. a clause guarded by a prefix list not matching it -- is correctly
    reported as *unchanged*.  Callers that already hold either key map
    (the sweep threads each step's keys into the next step's diff) pass
    them in to skip the recomputation.
    """
    if old_keys is None:
        old_keys = syntactic_policy_keys(old_network, destination)
    if new_keys is None:
        new_keys = syntactic_policy_keys(new_network, destination)
    removed = frozenset(edge for edge in old_keys if edge not in new_keys)
    added = frozenset(edge for edge in new_keys if edge not in old_keys)
    changed = frozenset(
        edge
        for edge, key in new_keys.items()
        if edge in old_keys and old_keys[edge] != key
    )
    old_nodes = {str(node) for node in old_network.graph.nodes}
    new_nodes = {str(node) for node in new_network.graph.nodes}
    return EdgeDiff(
        removed=removed,
        added=added,
        changed=changed,
        removed_nodes=frozenset(old_nodes - new_nodes),
        added_nodes=frozenset(new_nodes - old_nodes),
    )


# ----------------------------------------------------------------------
# Taint over the baseline forwarding relation
# ----------------------------------------------------------------------
@dataclass
class BaselineIndex:
    """The baseline-solution views every taint query needs, built once
    per baseline so each query costs set lookups only.

    Whole taint-query results are memoised too (every class of a sweep
    replays the same step list), bounded like the solver's
    :class:`~repro.srp.solver.TransferCache`: cleared wholesale on
    overflow, with hit/miss/overflow counters in :meth:`cache_info`.
    """

    #: Maximum retained taint-query results (clear-on-overflow).
    TAINT_CACHE_LIMIT = 4096

    #: ``node -> its baseline forwarding edges``.
    forwarding: dict
    #: ``node -> upstream nodes whose forwarding points at it``.
    forwarding_preds: dict
    #: ``(removed edges, removed nodes) -> frozen taint set`` (bounded).
    _taint_cache: Dict[Tuple[FrozenSet[Edge], FrozenSet[Node]], FrozenSet[Node]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _taint_hits: int = field(default=0, repr=False, compare=False)
    _taint_misses: int = field(default=0, repr=False, compare=False)
    _taint_overflows: int = field(default=0, repr=False, compare=False)

    @classmethod
    def from_solution(cls, baseline: Solution) -> "BaselineIndex":
        forwarding: dict = {}
        preds: dict = {}
        destination = baseline.srp.destination
        for node in baseline.srp.graph.nodes:
            if node == destination:
                continue
            edges = tuple(baseline.forwarding_edges(node))
            forwarding[node] = edges
            for _, neighbour in edges:
                preds.setdefault(neighbour, []).append(node)
        return cls(forwarding=forwarding, forwarding_preds=preds)

    def cached_taint(
        self, removed_edges: FrozenSet[Edge], removed_nodes: FrozenSet[Node]
    ) -> Optional[FrozenSet[Node]]:
        """The memoised taint set for a query, or ``None`` on a miss."""
        result = self._taint_cache.get((removed_edges, removed_nodes))
        if result is None:
            self._taint_misses += 1
            _metrics.counter("failures.taint_cache.misses").inc()
            return None
        self._taint_hits += 1
        _metrics.counter("failures.taint_cache.hits").inc()
        return result

    def store_taint(
        self,
        removed_edges: FrozenSet[Edge],
        removed_nodes: FrozenSet[Node],
        tainted: FrozenSet[Node],
    ) -> None:
        """Record a taint-query result (clear-on-overflow)."""
        if len(self._taint_cache) >= self.TAINT_CACHE_LIMIT:
            self._taint_cache.clear()
            self._taint_overflows += 1
            _metrics.counter("failures.taint_cache.overflows").inc()
        self._taint_cache[(removed_edges, removed_nodes)] = tainted

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss/size counters of the taint-query memo."""
        return {
            "size": len(self._taint_cache),
            "limit": self.TAINT_CACHE_LIMIT,
            "hits": self._taint_hits,
            "misses": self._taint_misses,
            "overflows": self._taint_overflows,
        }


def tainted_nodes(
    baseline: Solution,
    removed_edges: FrozenSet[Edge],
    removed_nodes: FrozenSet[Node] = frozenset(),
    index: Optional[BaselineIndex] = None,
) -> Set[Node]:
    """Nodes whose baseline forwarding could traverse a perturbed element.

    Computed as a reverse BFS over the baseline forwarding relation: a
    node is tainted if one of its forwarding edges is removed (or
    changed), points at a removed node, or points at a tainted node.
    Conservative (a multipath node keeps only *some* of its equally-good
    paths through the perturbation) but safe: every label that could
    depend on a perturbed element is reset.
    """
    if index is None:
        index = BaselineIndex.from_solution(baseline)
    else:
        cached = index.cached_taint(removed_edges, frozenset(removed_nodes))
        if cached is not None:
            return set(cached)
    seeds: Set[Node] = set()
    for node, edges in index.forwarding.items():
        if node in removed_nodes:
            continue
        for edge in edges:
            if edge in removed_edges or edge[1] in removed_nodes:
                seeds.add(node)
                break
    tainted = set(seeds)
    frontier = list(seeds)
    preds = index.forwarding_preds
    while frontier:
        current = frontier.pop()
        for upstream in preds.get(current, ()):
            if upstream not in tainted and upstream not in removed_nodes:
                tainted.add(upstream)
                frontier.append(upstream)
    tainted.discard(baseline.srp.destination)
    index.store_taint(removed_edges, frozenset(removed_nodes), frozenset(tainted))
    return tainted


def divergent_nodes(a: Solution, b: Solution) -> Tuple[Node, ...]:
    """The nodes on which two labelings disagree (for diagnostics)."""
    nodes = set(a.labeling) | set(b.labeling)
    return tuple(
        sorted(
            (n for n in nodes if a.labeling.get(n) != b.labeling.get(n)),
            key=str,
        )
    )


# ----------------------------------------------------------------------
# The seeded re-solve
# ----------------------------------------------------------------------
@dataclass
class DeltaSolve:
    """The outcome of one seeded re-solve."""

    solution: Solution
    #: False when the seeded solve failed (``ConvergenceError``) and the
    #: result came from the scratch fallback instead.
    incremental_used: bool
    #: Nodes whose baseline labels were reset before solving.
    tainted: FrozenSet[Node]
    #: Size of the initial worklist handed to the seeded solver.
    dirty_count: int
    seconds: float


def seed_transfer_cache(
    baseline: Solution, diff: EdgeDiff, transfer_cache: Optional[TransferCache] = None
) -> TransferCache:
    """A transfer memo seeded from the baseline minus stale edges.

    Entries for changed and removed edges describe the *old* compiled
    policy and are evicted; everything else is exact in the changed
    network because unchanged edges share their configuration objects
    with the baseline (copy-on-write application).
    """
    if transfer_cache is None:
        transfer_cache = TransferCache().seeded_from(baseline.transfer_cache)
    stale = diff.perturbed
    if stale:
        for key in [k for k in transfer_cache if k[0] in stale]:
            del transfer_cache[key]
    return transfer_cache


def delta_resolve(
    changed_srp: SRP,
    baseline: Solution,
    diff: EdgeDiff,
    transfer_cache: Optional[TransferCache] = None,
    index: Optional[BaselineIndex] = None,
    max_rounds: int = 1000,
) -> DeltaSolve:
    """Solve ``changed_srp`` seeded from the baseline solution.

    ``changed_srp`` must share its destination structure with the
    baseline SRP (same origin set, hence the same virtual-destination
    shape); the sweep engine falls back to a scratch solve when a change
    alters the origin set.  ``diff`` is the compiled-edge diff between the
    baseline and changed networks for this destination
    (:func:`diff_network_edges`).
    """
    start = time.perf_counter()
    transfer_cache = seed_transfer_cache(baseline, diff, transfer_cache)
    return _seeded_resolve(
        changed_srp, baseline, diff, transfer_cache, index, max_rounds, "delta", start
    )


def _seeded_resolve(
    srp: SRP,
    baseline: Solution,
    diff: EdgeDiff,
    transfer_cache: TransferCache,
    index: Optional[BaselineIndex],
    max_rounds: int,
    solver: str,
    start: float,
) -> DeltaSolve:
    """The one seeded re-solve body behind both public entry points;
    ``solver`` names the caller on the scratch-fallback event."""
    tainted = tainted_nodes(baseline, diff.perturbed, diff.removed_nodes, index=index)
    graph = srp.graph
    seed_labeling = {
        node: (
            None
            if node in tainted or str(node) in diff.added_nodes
            else baseline.labeling.get(node)
        )
        for node in graph.nodes
    }

    dirty: Set[Node] = set(tainted)
    for u, v in diff.removed | diff.changed | diff.added:
        if graph.has_node(u):
            dirty.add(u)
        if graph.has_node(v):
            dirty.add(v)
    # Offers into a tainted (reset) node were computed from its old label.
    for node in tainted:
        if graph.has_node(node):
            for upstream, _ in graph.in_edges(node):
                dirty.add(upstream)
    # Neighbours of removed devices lost an offer each; added devices have
    # no label yet and must compute one.
    for node in diff.removed_nodes:
        if baseline.srp.graph.has_node(node):
            for upstream in baseline.srp.graph.predecessors(node):
                if graph.has_node(upstream):
                    dirty.add(upstream)
    for node in diff.added_nodes:
        if graph.has_node(node):
            dirty.add(node)
            for upstream, _ in graph.in_edges(node):
                dirty.add(upstream)

    try:
        solution = solve_seeded(
            srp,
            seed_labeling,
            sorted(dirty, key=str),
            transfer_cache=transfer_cache,
            max_rounds=max_rounds,
        )
        used = True
    except ConvergenceError:
        # Defensive: a seed the worklist cannot repair (or a genuinely
        # oscillating perturbed network).  Fall back to the scratch solver
        # so the caller still gets an answer -- or the scratch solver's
        # own ConvergenceError, which is then a property of the network.
        _metrics.counter("incremental.scratch_fallbacks").inc()
        _events.emit("fallback.scratch", solver=solver, dirty=len(dirty))
        solution = solve(srp, max_rounds=max_rounds, transfer_cache=transfer_cache)
        used = False
    return DeltaSolve(
        solution=solution,
        incremental_used=used,
        tainted=frozenset(tainted),
        dirty_count=len(dirty),
        seconds=time.perf_counter() - start,
    )
