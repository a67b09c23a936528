"""The Bonsai tool: end-to-end control plane compression (§5, §7).

:class:`Bonsai` wires the whole pipeline together for a configured
network:

1. partition the destination space into equivalence classes,
2. encode every interface's policy as a BDD (once, shared by all classes),
3. for each class, specialize the BDDs, run abstraction refinement, and
4. emit a *smaller configured network* (abstract topology plus abstract
   device configurations) plus the node mapping,

exactly mirroring the original tool, which consumes Batfish's
vendor-independent configurations and produces a smaller collection of
them for downstream analyses to use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.abstraction.ec import EquivalenceClass, routable_equivalence_classes
from repro.abstraction.mapping import NetworkAbstraction
from repro.abstraction.refinement import RefinementResult, compute_abstraction
from repro.bdd.policy import PolicyBddEncoder
from repro.obs import metrics as _metrics
from repro.config.device import BgpNeighborConfig, DeviceConfig, OspfLinkConfig, StaticRouteConfig
from repro.config.network import Network
from repro.config.prefix import Prefix
from repro.config.transfer import (
    VIRTUAL_DESTINATION,
    build_srp_from_network,
    compile_base_edges,
    specialize_compiled_edges,
    syntactic_policy_keys,
)
from repro.srp.instance import SRP
from repro.topology.graph import Edge, Graph


@dataclass
class CompressionResult:
    """The result of compressing one destination equivalence class."""

    equivalence_class: EquivalenceClass
    concrete_srp: SRP
    refinement: RefinementResult
    abstract_network: Optional[Network]
    compression_seconds: float

    @property
    def abstraction(self) -> NetworkAbstraction:
        return self.refinement.abstraction

    @property
    def abstract_nodes(self) -> int:
        """Abstract node count, excluding the virtual destination if added."""
        nodes = self.abstraction.abstract_graph.nodes
        virtual = {
            node
            for node in nodes
            if self.abstraction.concrete_nodes(node) == frozenset({VIRTUAL_DESTINATION})
        }
        return len(nodes) - len(virtual)

    @property
    def abstract_edges(self) -> int:
        return self.abstraction.num_abstract_edges()

    def abstract_srp(self) -> SRP:
        """The SRP compiled from the emitted abstract configurations.

        This is the faithful abstract SRP for config-driven networks (BGP
        loop prevention operates on abstract device names); it requires the
        compression to have been run with ``build_network=True``.
        """
        if self.abstract_network is None:
            raise ValueError("compression was run without build_network=True")
        return build_srp_from_network(
            self.abstract_network, self.equivalence_class.prefix
        )

    def node_compression_ratio(self) -> float:
        concrete = self.concrete_srp.graph.num_nodes()
        if VIRTUAL_DESTINATION in self.concrete_srp.graph.nodes:
            concrete -= 1
        return concrete / max(1, self.abstract_nodes)

    def edge_compression_ratio(self) -> float:
        return self.concrete_srp.graph.num_undirected_edges() / max(1, self.abstract_edges)


@dataclass
class CompressionSummary:
    """Aggregate statistics over many equivalence classes (Table 1 rows)."""

    network_name: str
    concrete_nodes: int
    concrete_edges: int
    num_classes: int
    classes_compressed: int
    mean_abstract_nodes: float
    mean_abstract_edges: float
    node_ratio: float
    edge_ratio: float
    bdd_seconds: float
    mean_compression_seconds: float

    def as_row(self) -> Dict[str, object]:
        """A flat dictionary suitable for tabular display."""
        return {
            "topology": self.network_name,
            "nodes": self.concrete_nodes,
            "edges": self.concrete_edges,
            "abs_nodes": round(self.mean_abstract_nodes, 1),
            "abs_edges": round(self.mean_abstract_edges, 1),
            "node_ratio": round(self.node_ratio, 2),
            "edge_ratio": round(self.edge_ratio, 2),
            "num_ecs": self.num_classes,
            "bdd_time_s": round(self.bdd_seconds, 3),
            "compression_time_per_ec_s": round(self.mean_compression_seconds, 4),
        }


class Bonsai:
    """Compress a configured network, one destination class at a time.

    ``REFINEMENT_CACHE_LIMIT`` bounds the cross-class refinement cache
    (cleared wholesale on overflow, like the BDD manager's ``ite`` memo):
    pipeline workers keep one ``Bonsai`` alive for thousands of classes,
    and each retained ``RefinementResult`` holds full node maps.

    A ``Bonsai`` assumes the network configuration does not change while
    it is alive: the policy-BDD encoder collects its variable universe at
    construction, and the compiled-edge / refinement caches added for the
    hot-path overhaul are keyed accordingly.  After mutating device
    configurations, build a fresh ``Bonsai`` (the ``Network``-level memos
    -- equivalence classes, local-pref sets -- are fingerprint-guarded
    and safe under mutation).

    Parameters
    ----------
    network:
        The concrete configured network.
    use_bdds:
        When True (default), per-edge policies are encoded as BDDs and the
        specialized BDD identities are used as policy keys.  When False,
        specialized syntactic keys are used instead (the ablation in
        DESIGN.md compares the two).
    encoder:
        An optional pre-built :class:`PolicyBddEncoder` for ``network``.
        The parallel pipeline encodes the network once, ships the encoder
        to each worker, and rebuilds a ``Bonsai`` around the copy so the
        one-time encoding cost is not paid per worker.
    """

    #: Maximum retained cross-class RefinementResults (clear-on-overflow).
    REFINEMENT_CACHE_LIMIT = 1024

    def __init__(
        self,
        network: Network,
        use_bdds: bool = True,
        encoder: Optional[PolicyBddEncoder] = None,
    ):
        self.network = network
        self.use_bdds = use_bdds
        self._encoder: Optional[PolicyBddEncoder] = encoder
        self.bdd_seconds = 0.0
        #: The aggregated report of the most recent :meth:`compress_all`.
        self.last_report = None
        #: Cross-class abstraction reuse: destination classes whose
        #: specialized policy keys, origins and local-preference sets all
        #: coincide induce the *same* refinement problem, so they share one
        #: :class:`~repro.abstraction.refinement.RefinementResult` instead
        #: of recomputing it per class (common for netgen families where
        #: many prefixes specialize identically).
        self._refinement_cache: Dict[Hashable, RefinementResult] = {}
        self._refinement_hits = 0
        self._refinement_misses = 0
        #: Single-entry memo of the last compiled edge map: several stages
        #: of a per-class task (concrete simulation, compression) compile
        #: the same destination back to back.  The destination-independent
        #: base compilation is built once and specialized per class.
        self._compile_memo: Optional[Tuple[Prefix, Dict]] = None
        self._base_compiled: Optional[Dict] = None

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    @property
    def encoder(self) -> PolicyBddEncoder:
        """The shared policy-BDD encoder (built lazily, timed once)."""
        if self._encoder is None:
            start = time.perf_counter()
            self._encoder = PolicyBddEncoder(self.network)
            self._encoder.encode_all_edges()
            self.bdd_seconds = time.perf_counter() - start
        return self._encoder

    def equivalence_classes(self) -> List[EquivalenceClass]:
        """All routable destination equivalence classes of the network."""
        return routable_equivalence_classes(self.network)

    def compile_for(self, prefix: Prefix) -> Dict[Edge, "CompiledEdge"]:
        """Compile the network's edges for ``prefix`` (single-entry memo).

        The per-class verify task simulates the concrete network and then
        compresses the very same destination; sharing the compiled edges
        halves the per-class compilation work.  The memo assumes the
        network configuration does not change under a live ``Bonsai``
        (the policy-BDD encoder already requires that).
        """
        cached = self._compile_memo
        if cached is not None and cached[0] == prefix:
            return cached[1]
        if self._base_compiled is None:
            self._base_compiled = compile_base_edges(self.network)
        compiled = specialize_compiled_edges(self.network, prefix, self._base_compiled)
        self._compile_memo = (prefix, compiled)
        return compiled

    def policy_keys(self, prefix: Prefix) -> Dict[Edge, Hashable]:
        """Per-edge policy keys specialized to one destination."""
        compiled = self.compile_for(prefix)
        if self.use_bdds:
            return self.encoder.specialized_policy_keys(prefix, compiled)
        return dict(syntactic_policy_keys(self.network, prefix, compiled))

    # ------------------------------------------------------------------
    # Compression
    # ------------------------------------------------------------------
    def compress(
        self,
        equivalence_class: EquivalenceClass,
        build_network: bool = True,
    ) -> CompressionResult:
        """Compress the network for one destination equivalence class."""
        start = time.perf_counter()
        prefix = equivalence_class.prefix
        # Compile the edges once and share the result between the SRP
        # build and the policy-key specialization (each used to recompile).
        compiled = self.compile_for(prefix)
        srp = build_srp_from_network(
            self.network,
            prefix,
            set(equivalence_class.origins),
            compiled=compiled,
            # Refinement runs on the explicit (BDD or syntactic) keys built
            # below; the SRP's own syntactic keys would only be recomputed
            # to be ignored.  Virtual-destination edges keep their key.
            include_syntactic_keys=False,
        )
        keys = self.policy_keys(prefix)
        # Edges to the virtual destination (if any) need a key too.
        for edge in srp.graph.edges:
            if edge not in keys:
                keys[edge] = srp.policy_key(edge)
        refinement = self._refine_cached(srp, keys, equivalence_class)
        abstract_network = (
            self.build_abstract_network(refinement.abstraction, equivalence_class)
            if build_network
            else None
        )
        elapsed = time.perf_counter() - start
        return CompressionResult(
            equivalence_class=equivalence_class,
            concrete_srp=srp,
            refinement=refinement,
            abstract_network=abstract_network,
            compression_seconds=elapsed,
        )

    def _refine_cached(
        self,
        srp: SRP,
        keys: Dict[Edge, Hashable],
        equivalence_class: EquivalenceClass,
    ) -> RefinementResult:
        """Run abstraction refinement, deduped across equivalence classes.

        The refinement outcome is a pure function of (graph, per-edge
        policy keys, per-node local-preference sets); the graph is the
        network graph plus a virtual destination determined by the origin
        set.  Classes with equal signatures therefore share one
        ``RefinementResult`` (BDD keys are canonical within this Bonsai's
        encoder, so equal signatures really mean equal refinement inputs).
        """
        try:
            signature: Optional[Hashable] = (
                frozenset(keys.items()),
                equivalence_class.origins,
                tuple(sorted(srp.node_prefs.items())),
            )
        except TypeError:
            signature = None  # unhashable custom keys: skip the cache
        if signature is not None:
            cached = self._refinement_cache.get(signature)
            if cached is not None:
                self._refinement_hits += 1
                _metrics.counter("abstraction.refinement_cache.hits").inc()
                return cached
            self._refinement_misses += 1
            _metrics.counter("abstraction.refinement_cache.misses").inc()
        refinement = compute_abstraction(srp, policy_keys=keys)
        if signature is not None:
            # Clear-on-overflow (the BddManager cache_limit precedent):
            # the cache is an optimisation only, and a worker Bonsai can
            # live for thousands of classes.
            if len(self._refinement_cache) >= self.REFINEMENT_CACHE_LIMIT:
                self._refinement_cache.clear()
                _metrics.counter("abstraction.refinement_cache.overflows").inc()
            self._refinement_cache[signature] = refinement
        return refinement

    def abstraction_cache_info(self) -> Dict[str, int]:
        """Hit/miss/size counters of the cross-class refinement cache."""
        return {
            "hits": self._refinement_hits,
            "misses": self._refinement_misses,
            "size": len(self._refinement_cache),
        }

    def compress_prefix(self, prefix: Prefix, build_network: bool = True) -> CompressionResult:
        """Compress for an explicit destination prefix."""
        origins = self.network.originators_of(prefix)
        ec = EquivalenceClass(prefix=prefix, origins=frozenset(origins))
        return self.compress(ec, build_network=build_network)

    def compress_all(
        self,
        limit: Optional[int] = None,
        build_networks: bool = False,
        workers: Optional[int] = None,
        executor: Optional[str] = None,
    ) -> List[CompressionResult]:
        """Compress every equivalence class (optionally only the first few).

        The classes are independent (§5.1), so the work is delegated to the
        :mod:`repro.pipeline` subsystem.  By default it runs serially on
        this instance's encoder; passing ``workers`` (and optionally an
        ``executor="process"``) fans the classes out
        over a pool, with the one-time BDD encoding shared via a pickled
        artifact.  The aggregated :class:`~repro.pipeline.report.PipelineReport`
        of the last run is kept on ``self.last_report``.
        """
        from repro.pipeline.core import CompressionPipeline

        if executor is None:
            executor = "serial" if not workers else "process"
        pipeline = CompressionPipeline.from_bonsai(
            self,
            executor=executor,
            workers=workers or 1,
            limit=limit,
            build_networks=build_networks,
        )
        run = pipeline.run()
        self.last_report = run.report
        return run.results

    # ------------------------------------------------------------------
    # Abstract network construction
    # ------------------------------------------------------------------
    def build_abstract_network(
        self, abstraction: NetworkAbstraction, equivalence_class: EquivalenceClass
    ) -> Network:
        """Emit the compressed configured network for one class.

        Every abstract node receives the configuration of a representative
        concrete member, with neighbour references rewritten to abstract
        names.  Transfer-equivalence guarantees any representative yields
        the same behaviour.
        """
        prefix = equivalence_class.prefix
        origins = set(equivalence_class.origins)
        abstract_graph = abstraction.abstract_graph
        devices: Dict[str, DeviceConfig] = {}
        graph = Graph()

        def representative(abstract_node: str) -> Optional[str]:
            members = abstraction.concrete_nodes(abstract_node) - {VIRTUAL_DESTINATION}
            if not members:
                return None
            return min(members, key=str)

        skip = {
            node
            for node in abstract_graph.nodes
            if abstraction.concrete_nodes(node) == frozenset({VIRTUAL_DESTINATION})
        }

        for abstract_node in abstract_graph.nodes:
            if abstract_node in skip:
                continue
            graph.add_node(abstract_node)
        for u, v in abstract_graph.edges:
            if u in skip or v in skip:
                continue
            graph.add_edge(u, v)

        for abstract_node in graph.nodes:
            source = representative(abstract_node)
            if source is None:
                devices[abstract_node] = DeviceConfig(name=abstract_node)
                continue
            concrete = self.network.devices[source]
            device = DeviceConfig(
                name=abstract_node,
                asn=abstract_node,
                route_maps=dict(concrete.route_maps),
                community_lists=dict(concrete.community_lists),
                prefix_lists=dict(concrete.prefix_lists),
                acls=dict(concrete.acls),
            )
            # Originate the class prefix exactly where the *class* says it
            # originates.  A containment check against the representative's
            # own network statements would be wrong for trie-refined
            # classes: a device originating a covering aggregate (say a
            # /24) does not originate the /32 class carved out of it, and
            # marking it as such would make the abstract network deliver
            # at the wrong node.
            if origins & set(abstraction.concrete_nodes(abstract_node)):
                device.originated_prefixes.append(prefix)

            for abstract_neighbour in abstract_graph.successors(abstract_node):
                if abstract_neighbour in skip:
                    continue
                neighbour_members = abstraction.concrete_nodes(abstract_neighbour)
                witness = next(
                    (
                        peer
                        for peer in sorted(self.network.graph.successors(source), key=str)
                        if peer in neighbour_members
                    ),
                    None,
                )
                if witness is None:
                    continue
                session = concrete.bgp_neighbors.get(witness)
                if session is not None:
                    device.bgp_neighbors[abstract_neighbour] = BgpNeighborConfig(
                        peer=abstract_neighbour,
                        import_policy=session.import_policy,
                        export_policy=session.export_policy,
                        ibgp=session.ibgp,
                    )
                ospf = concrete.ospf_links.get(witness)
                if ospf is not None:
                    device.ospf_links[abstract_neighbour] = OspfLinkConfig(
                        peer=abstract_neighbour, cost=ospf.cost, area=ospf.area
                    )
                static = concrete.static_route_for(prefix)
                if static is not None and static.next_hop == witness:
                    device.static_routes.append(
                        StaticRouteConfig(prefix=prefix, next_hop=abstract_neighbour)
                    )
                acl_name = concrete.interface_acls.get(witness)
                if acl_name is not None:
                    device.interface_acls[abstract_neighbour] = acl_name
            devices[abstract_node] = device

        return Network(
            graph=graph,
            devices=devices,
            name=f"{self.network.name}-abstract-{prefix}",
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summarize(
        self, results: Sequence[CompressionResult], name: Optional[str] = None
    ) -> CompressionSummary:
        """Aggregate per-class results into one Table-1 style row."""
        if not results:
            raise ValueError("no compression results to summarise")
        concrete_nodes = self.network.graph.num_nodes()
        concrete_edges = self.network.graph.num_undirected_edges()
        mean_nodes = sum(result.abstract_nodes for result in results) / len(results)
        mean_edges = sum(result.abstract_edges for result in results) / len(results)
        mean_seconds = sum(result.compression_seconds for result in results) / len(results)
        return CompressionSummary(
            network_name=name or self.network.name,
            concrete_nodes=concrete_nodes,
            concrete_edges=concrete_edges,
            num_classes=len(self.equivalence_classes()),
            classes_compressed=len(results),
            mean_abstract_nodes=mean_nodes,
            mean_abstract_edges=mean_edges,
            node_ratio=concrete_nodes / max(1.0, mean_nodes),
            edge_ratio=concrete_edges / max(1.0, mean_edges),
            bdd_seconds=self.bdd_seconds,
            mean_compression_seconds=mean_seconds,
        )

    def unique_roles(
        self,
        prefix: Optional[Prefix] = None,
        include_unused_communities: bool = False,
        ignore_static_routes: bool = False,
    ) -> int:
        """The number of distinct device roles (§8's role counts).

        ``include_unused_communities`` counts roles *without* the BGP
        attribute abstraction that strips never-matched tags (the paper's
        112-role figure); ``ignore_static_routes`` additionally ignores
        static-route differences (the paper's 8-role figure).
        """
        if include_unused_communities:
            encoder = PolicyBddEncoder(self.network, track_all_communities=True)
            encoder.encode_all_edges()
            return encoder.unique_role_count(prefix, ignore_static_routes)
        if self.use_bdds:
            return self.encoder.unique_role_count(prefix, ignore_static_routes)
        destination = prefix or Prefix.parse("0.0.0.0/0")
        keys = syntactic_policy_keys(self.network, destination)
        roles = set()
        for node in self.network.graph.nodes:
            signature = frozenset(keys[edge] for edge in self.network.graph.out_edges(node))
            roles.add(signature)
        return len(roles)
