"""Seeded inputs for the four workloads.

Everything the program under test receives is made here, untimed, in the
benchmark's parent process: configuration *text* (the seed shuffles the
order of the device blocks), plus for ``dc-whatif`` a seeded sample of
link failures and a seeded change script, both as plain JSON data.  The
pass processes get only this payload.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.config.parser import format_network
from repro.failures.scenario import link_scenario, undirected_links
from repro.netgen.changes import generated_change_script
from repro.netgen.datacenter import DatacenterParams, datacenter_network
from repro.netgen.fattree import fattree_network
from repro.netgen.wan import WanParams, wan_network

#: The paper's WAN core count and per-region shape, three regions:
#: 114 devices, 108 destination classes.
WAN_PARAMS = WanParams(
    core_routers=6, regions=3, access_per_region=35, static_access_per_region=5
)

#: The paper's datacenter per-cluster shape, two clusters: 53 devices,
#: 40 destination classes.
DC_PARAMS = DatacenterParams(
    clusters=2,
    spines_per_cluster=4,
    leaves_per_cluster=20,
    core_routers=5,
    static_leaves_per_cluster=2,
)

FATTREE_K = 16
FATTREE_POLICIES = ("shortest_path", "prefer_bottom")
FAILURE_SAMPLE = 4
CHANGE_STEPS = 4


def shuffled_text(network, rng: random.Random) -> str:
    """The network's config text with its device blocks in seeded order."""
    text = format_network(network)
    head, _, links = text.partition("\nlink ")
    blocks = [block for block in head.split("\n\n") if block.strip()]
    rng.shuffle(blocks)
    return "\n\n".join(blocks) + "\n\nlink " + links


def _networks(names_and_networks, rng: random.Random) -> List[Dict[str, str]]:
    return [
        {"name": network.name, "text": shuffled_text(network, rng)}
        for network in names_and_networks
    ]


def make_inputs(workload: str, seed: int) -> Dict[str, object]:
    """The JSON payload for one workload and seed (same seed, same bytes)."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload in ("fattree-compress", "fattree-compress-pool"):
        networks = [fattree_network(FATTREE_K, policy=p) for p in FATTREE_POLICIES]
        return {"networks": _networks(networks, rng)}
    if workload == "wan-dc-verify":
        networks = [wan_network(WAN_PARAMS), datacenter_network(DC_PARAMS)]
        return {"networks": _networks(networks, rng)}
    if workload == "dc-whatif":
        network = datacenter_network(DC_PARAMS)
        links = rng.sample(undirected_links(network), FAILURE_SAMPLE)
        script = generated_change_script(
            network, family="datacenter", steps=CHANGE_STEPS, seed=seed
        )
        return {
            "networks": _networks([network], rng),
            "scenarios": [link_scenario(u, v).to_dict() for u, v in links],
            "script": [changeset.to_dict() for changeset in script],
        }
    raise ValueError(f"unknown workload {workload!r}")
