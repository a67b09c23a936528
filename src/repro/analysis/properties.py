"""Path properties preserved by CP-equivalence (§4.4), as a registry.

Each checker below decides, on a :class:`~repro.analysis.dataplane.ForwardingTable`,
one of the properties the paper lists as preserved by effective
abstractions: reachability, path length, black holes, multipath
consistency, waypointing, and routing loops.  Running the same checker on
the concrete and compressed networks must give the same answer -- that is
exactly what the differential test harness asserts.

Beyond the standalone ``check_*`` functions (kept for direct use), every
property is registered as a first-class :class:`PropertySpec` in
:data:`PROPERTY_REGISTRY`: a name, a human description, an evaluator over
a :class:`PropertyContext`, and the quantifier used to lift verdicts
through BGP case splitting.  The registry is the single catalogue the
batch verification engine (:mod:`repro.analysis.batch`), the pipeline CLI
(``python -m repro.pipeline verify``) and the differential tests all
consume, so adding a property here automatically enrols it everywhere.

Failures carry a structured :class:`Counterexample` (the offending node,
the violating path, and -- for loops -- the extracted cycle) so reports
can name the broken device instead of echoing a bare boolean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.dataplane import ForwardingTable
from repro.topology.graph import Node


@dataclass(frozen=True)
class Counterexample:
    """A structured witness for a property violation.

    Attributes
    ----------
    kind:
        What went wrong: ``"loop"``, ``"blackhole"``, ``"divergence"``,
        ``"too-long"``, ``"bypass"`` (waypoint avoided) ...
    node:
        The offending node -- the loop entry point, the device that drops
        the traffic, or the source whose paths diverge.
    path:
        The violating forwarding path, as traversed.
    cycle:
        For loops: the repeated cycle extracted from ``path`` (first and
        last element equal); empty otherwise.
    detail:
        Free-form human explanation.
    """

    kind: str
    node: Optional[Node] = None
    path: Tuple[Node, ...] = ()
    cycle: Tuple[Node, ...] = ()
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable view (node names stringified)."""
        return {
            "kind": self.kind,
            "node": None if self.node is None else str(self.node),
            "path": [str(node) for node in self.path],
            "cycle": [str(node) for node in self.cycle],
            "detail": self.detail,
        }


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of evaluating a property, with witnesses if relevant."""

    holds: bool
    witness: Optional[tuple] = None
    detail: str = ""
    counterexample: Optional[Counterexample] = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.holds


def check_reachability(table: ForwardingTable, source: Node) -> PropertyResult:
    """Does traffic from ``source`` reach the destination?"""
    outcome, path = table.path_outcome(source)
    counterexample = None
    if outcome != "delivered":
        counterexample = Counterexample(
            kind=outcome,
            node=path[-1] if outcome == "blackhole" else source,
            path=tuple(path),
            cycle=_extract_cycle(path) if outcome == "loop" else (),
            detail=f"traffic from {source!r} is {outcome}",
        )
    return PropertyResult(
        holds=outcome == "delivered",
        witness=tuple(path),
        detail=f"{source!r}: {outcome}",
        counterexample=counterexample,
    )


def check_all_paths_reach(table: ForwardingTable, source: Node) -> PropertyResult:
    """Do *all* multipath forwarding paths from ``source`` deliver traffic?"""
    paths = table.paths_view(source)
    for path in paths:
        last = path[-1]
        if not table.delivers(last):
            return PropertyResult(
                False,
                tuple(path),
                "some path fails to deliver",
                counterexample=Counterexample(
                    kind="blackhole",
                    node=last,
                    path=tuple(path),
                    detail=f"path from {source!r} ends undelivered at {last!r}",
                ),
            )
    return PropertyResult(True, None, f"{len(paths)} paths deliver")


def check_path_length(
    table: ForwardingTable, source: Node, expected_length: int
) -> PropertyResult:
    """Do all forwarding paths from ``source`` have the expected hop count?"""
    paths = table.paths_view(source)
    for path in paths:
        if not table.delivers(path[-1]):
            continue
        if len(path) - 1 != expected_length:
            return PropertyResult(
                False,
                tuple(path),
                f"path has length {len(path) - 1}, expected {expected_length}",
                counterexample=Counterexample(
                    kind="wrong-length",
                    node=source,
                    path=tuple(path),
                    detail=f"{len(path) - 1} hops, expected {expected_length}",
                ),
            )
    return PropertyResult(True, None, "all delivered paths match the expected length")


def check_bounded_path_length(
    table: ForwardingTable, source: Node, bound: int
) -> PropertyResult:
    """Do all delivered paths from ``source`` have at most ``bound`` hops?"""
    for path in table.paths_view(source):
        if not table.delivers(path[-1]):
            continue
        if len(path) - 1 > bound:
            return PropertyResult(
                False,
                tuple(path),
                f"path has length {len(path) - 1} > bound {bound}",
                counterexample=Counterexample(
                    kind="too-long",
                    node=source,
                    path=tuple(path),
                    detail=f"{len(path) - 1} hops exceeds bound {bound}",
                ),
            )
    return PropertyResult(True, None, f"all delivered paths within {bound} hops")


def path_lengths(table: ForwardingTable, source: Node) -> Set[int]:
    """The set of delivered-path lengths from ``source``."""
    return {
        len(path) - 1
        for path in table.paths_view(source)
        if table.delivers(path[-1])
    }


def check_black_hole(table: ForwardingTable, source: Node) -> PropertyResult:
    """Is there a forwarding path from ``source`` that ends in a drop?"""
    for path in table.paths_view(source):
        last = path[-1]
        if not table.delivers(last) and len(set(path)) == len(path):
            return PropertyResult(
                True,
                tuple(path),
                "black hole reached",
                counterexample=Counterexample(
                    kind="blackhole",
                    node=last,
                    path=tuple(path),
                    detail=f"{last!r} drops traffic from {source!r}",
                ),
            )
    return PropertyResult(False, None, "no black hole reachable")


def check_multipath_consistency(table: ForwardingTable, source: Node) -> PropertyResult:
    """Multipath consistency: either all paths deliver or all drop.

    The property *fails* when traffic from the source is delivered along
    some path but dropped along another (the inconsistency the paper's
    property describes); the result's ``holds`` is True when the behaviour
    is consistent.  On failure the counterexample carries the offending
    source node and the dropped path, with a delivered path in the detail.
    """
    paths = table.paths_view(source)
    outcomes = set()
    for path in paths:
        outcomes.add(table.delivers(path[-1]))
    if len(outcomes) <= 1:
        return PropertyResult(True, None, "consistent")
    dropped = next(path for path in paths if not table.delivers(path[-1]))
    delivered = next(path for path in paths if table.delivers(path[-1]))
    return PropertyResult(
        False,
        tuple(dropped),
        "delivered on some paths, dropped on others",
        counterexample=Counterexample(
            kind="divergence",
            node=source,
            path=tuple(dropped),
            detail=(
                f"{source!r} delivers via {'>'.join(map(str, delivered))} "
                f"but drops via {'>'.join(map(str, dropped))}"
            ),
        ),
    )


def check_waypointing(
    table: ForwardingTable, source: Node, waypoints: Iterable[Node]
) -> PropertyResult:
    """Does every delivered path from ``source`` traverse one of ``waypoints``?"""
    waypoint_set = set(waypoints)
    for path in table.paths_view(source):
        if not table.delivers(path[-1]):
            continue
        if not waypoint_set & set(path):
            return PropertyResult(
                False,
                tuple(path),
                "path avoids all waypoints",
                counterexample=Counterexample(
                    kind="bypass",
                    node=source,
                    path=tuple(path),
                    detail=f"delivered path from {source!r} avoids every waypoint",
                ),
            )
    return PropertyResult(True, None, "all delivered paths traverse a waypoint")


def _extract_cycle(path: Sequence[Node]) -> Tuple[Node, ...]:
    """The repeated cycle at the end of a looping path (closed: first == last)."""
    if not path:
        return ()
    last = path[-1]
    try:
        first = list(path).index(last)
    except ValueError:  # pragma: no cover - defensive
        return ()
    return tuple(path[first:])


def check_routing_loop(
    table: ForwardingTable, sources: Optional[Sequence[Node]] = None
) -> PropertyResult:
    """Is there a forwarding loop reachable from any source?

    On failure the counterexample names the source that enters the loop
    and carries the extracted cycle (closed, first element == last).
    """
    nodes = sources if sources is not None else sorted(table.next_hops, key=str)
    for source in nodes:
        outcome, path = table.path_outcome(source)
        if outcome == "loop":
            cycle = _extract_cycle(path)
            return PropertyResult(
                True,
                tuple(path),
                f"loop reachable from {source!r}",
                counterexample=Counterexample(
                    kind="loop",
                    node=source,
                    path=tuple(path),
                    cycle=cycle,
                    detail=f"cycle {'>'.join(map(str, cycle))} reachable from {source!r}",
                ),
            )
    return PropertyResult(False, None, "no forwarding loop")


def failure_witness(
    spec: "PropertySpec", context: "PropertyContext", node: Node
) -> Optional[Dict[str, object]]:
    """The structured counterexample for ``spec`` failing at ``node``.

    Returns ``None`` when the property holds (or the evaluator produced no
    witness).  The failure sweep uses this to attach one piece of concrete
    evidence -- the offending path or cycle -- to every property a
    scenario newly breaks, without keeping full per-node results around.
    """
    result = spec.evaluate(context, node)
    if result.holds or result.counterexample is None:
        return None
    return result.counterexample.to_dict()


def reachable_sources(table: ForwardingTable) -> Set[Node]:
    """All nodes whose traffic reaches the destination."""
    return {node for node in table.next_hops if table.reachable(node)}


# ----------------------------------------------------------------------
# The property registry
# ----------------------------------------------------------------------
@dataclass
class PropertyContext:
    """Everything a registered property may need besides the source node.

    The batch engine builds one context per (network, equivalence class)
    pair; the same parameter values (``path_bound``) or their abstraction
    images (``waypoints``) are used on the concrete and compressed network
    so the verdicts are directly comparable.
    """

    table: ForwardingTable
    #: Waypoints for the ``waypointing`` property (defaults to the class's
    #: originating devices, which every delivered path necessarily ends at).
    waypoints: FrozenSet[Node] = frozenset()
    #: Hop bound for ``bounded-path-length`` (the batch engine defaults it
    #: to the *concrete* node count so both networks share one bound).
    path_bound: Optional[int] = None


@dataclass(frozen=True)
class PropertySpec:
    """A first-class registered property check.

    Attributes
    ----------
    name:
        The stable identifier used by the CLI, reports and tests.
    description:
        One-line human description.
    evaluate:
        ``evaluate(context, source) -> PropertyResult``; ``holds`` is the
        per-source verdict.
    lift:
        How per-copy verdicts combine when BGP case splitting maps one
        concrete node to several abstract copies: ``"all"`` (the property
        must hold on every copy -- universal properties) or ``"any"``
        (one copy suffices -- existential properties like reachability).
    path_quantified:
        Whether the evaluator quantifies over the *full* multipath set
        (``ForwardingTable.all_paths``).  Such verdicts are not exhaustive
        when the enumeration hits its cap, and the batch verifier flags
        them instead of treating a truncation artefact as a soundness
        violation.  Single-walk checks (reachability, routing-loop
        freedom) are unaffected.
    """

    name: str
    description: str
    evaluate: Callable[[PropertyContext, Node], PropertyResult]
    lift: str = "all"
    path_quantified: bool = True
    #: Whether the evaluator reads ``PropertyContext.waypoints``.  The
    #: batch verifier only trusts such verdicts differentially when the
    #: waypoint set is closed under the abstraction (a union of groups);
    #: declaring the dependency here keeps that comparability rule working
    #: for renamed or user-registered waypoint-style properties.
    uses_waypoints: bool = False


#: name -> :class:`PropertySpec`, in registration (catalogue) order.
PROPERTY_REGISTRY: Dict[str, PropertySpec] = {}


def register_property(spec: PropertySpec) -> PropertySpec:
    """Add a property to the catalogue (last registration wins).

    Registration is per-process: suites that run over the pool executors
    must name the registering module in
    :attr:`~repro.analysis.batch.PropertySuite.register_modules` so each
    worker can rebuild its registry by import.
    """
    if spec.lift not in ("all", "any"):
        raise ValueError(f"invalid lift quantifier {spec.lift!r}")
    PROPERTY_REGISTRY[spec.name] = spec
    return spec


def registered_properties() -> List[str]:
    """The catalogue's property names, in registration order."""
    return list(PROPERTY_REGISTRY)


def get_property(name: str) -> PropertySpec:
    """Look up a registered property by name."""
    try:
        return PROPERTY_REGISTRY[name]
    except KeyError:
        known = ", ".join(PROPERTY_REGISTRY)
        raise ValueError(f"unknown property {name!r}; registered: {known}") from None


#: ``{property: {node: holds}}`` -- the boolean verdict form the failure
#: and change sweeps exchange and diff.
VerdictMap = Dict[str, Dict[str, bool]]


def evaluate_suite(
    specs: Sequence[PropertySpec],
    table: ForwardingTable,
    nodes: Iterable[Node],
    waypoints: Iterable[str],
    path_bound: Optional[int],
) -> VerdictMap:
    """Boolean verdicts of every spec on every node of one table."""
    context = PropertyContext(
        table=table, waypoints=frozenset(waypoints), path_bound=path_bound
    )
    return {
        spec.name: {str(node): spec.evaluate(context, node).holds for node in nodes}
        for spec in specs
    }


def verdict_delta(
    baseline: VerdictMap, current: VerdictMap, nodes: Iterable[str]
) -> Tuple[Dict[str, List[str]], Dict[str, List[str]]]:
    """``(newly failing, newly passing)`` per property over ``nodes``.

    Nodes absent from a map default to passing on the baseline side (a
    node that did not exist before cannot have been failing) and to
    unchanged on the current side.
    """
    newly_failing: Dict[str, List[str]] = {}
    newly_passing: Dict[str, List[str]] = {}
    for prop, per_node in current.items():
        base = baseline.get(prop, {})
        failing = [n for n in nodes if base.get(n, True) and not per_node.get(n, True)]
        passing = [n for n in nodes if not base.get(n, True) and per_node.get(n, False)]
        if failing:
            newly_failing[prop] = failing
        if passing:
            newly_passing[prop] = passing
    return newly_failing, newly_passing


def _negate(result: PropertyResult) -> PropertyResult:
    """Turn an existence check into the corresponding freedom property.

    The existence check's detail already reads correctly in both
    directions ("no black hole reachable" when nothing was found, the
    specific violation when one was), so it is kept as-is.
    """
    return PropertyResult(
        holds=not result.holds,
        witness=result.witness,
        detail=result.detail,
        counterexample=result.counterexample,
    )


register_property(PropertySpec(
    name="reachability",
    description="traffic from the source reaches the destination",
    evaluate=lambda ctx, source: check_reachability(ctx.table, source),
    lift="any",
    path_quantified=False,
))

register_property(PropertySpec(
    name="all-paths-reach",
    description="every multipath forwarding path from the source delivers",
    evaluate=lambda ctx, source: check_all_paths_reach(ctx.table, source),
))

register_property(PropertySpec(
    name="black-hole-freedom",
    description="no loop-free forwarding path from the source ends in a drop",
    evaluate=lambda ctx, source: _negate(check_black_hole(ctx.table, source)),
))

register_property(PropertySpec(
    name="routing-loop-freedom",
    description="no forwarding loop is reachable from the source",
    evaluate=lambda ctx, source: _negate(
        check_routing_loop(ctx.table, sources=[source])
    ),
    path_quantified=False,
))

register_property(PropertySpec(
    name="bounded-path-length",
    description="every delivered path from the source stays within the hop bound",
    evaluate=lambda ctx, source: check_bounded_path_length(
        ctx.table,
        source,
        ctx.path_bound if ctx.path_bound is not None else len(ctx.table.next_hops),
    ),
))

register_property(PropertySpec(
    name="waypointing",
    description="every delivered path from the source traverses a waypoint",
    evaluate=lambda ctx, source: check_waypointing(ctx.table, source, ctx.waypoints),
    uses_waypoints=True,
))

register_property(PropertySpec(
    name="multipath-consistency",
    description="all multipath choices from the source agree on delivery",
    evaluate=lambda ctx, source: check_multipath_consistency(ctx.table, source),
))
