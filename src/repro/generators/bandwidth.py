"""Fair bandwidth allocation in a communication network.

The second motivating application from the paper's introduction: customers
route traffic over candidate paths through a capacitated network, and the
operator wants to maximise the *minimum* bandwidth any customer receives.

Model
-----
* One agent per (customer, candidate path): ``x_{c,p}`` is the flow the
  customer pushes along that path.
* One constraint per network link: the flows of all paths using the link,
  weighted by ``1 / capacity(link)``, must not exceed 1.
* One objective per customer: the total flow over its candidate paths.

The generator builds a random connected network (a ring plus random chords),
samples source/destination pairs, and enumerates up to ``paths_per_customer``
shortest simple paths per customer with :mod:`networkx`.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..core.builder import InstanceBuilder
from ..core.instance import MaxMinInstance

if TYPE_CHECKING:  # pragma: no cover - networkx loads when a workload is generated
    import networkx as nx

__all__ = ["BandwidthWorkload", "bandwidth_allocation_instance"]


class BandwidthWorkload:
    """Network, customers, candidate paths and the derived max-min LP."""

    __slots__ = ("graph", "customers", "paths", "instance")

    def __init__(
        self,
        graph: "nx.Graph",
        customers: List[Tuple[int, int]],
        paths: Dict[int, List[Tuple[int, ...]]],
        instance: MaxMinInstance,
    ) -> None:
        self.graph = graph
        self.customers = customers
        self.paths = paths
        self.instance = instance

    def agent_name(self, customer: int, path_index: int) -> str:
        return f"f{customer}_{path_index}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BandwidthWorkload(nodes={self.graph.number_of_nodes()}, "
            f"customers={len(self.customers)}, agents={self.instance.num_agents})"
        )


def _random_network(rng: np.random.Generator, num_nodes: int, extra_edges: int) -> "nx.Graph":
    """A connected ring plus random chords, with random link capacities."""
    import networkx as nx

    graph = nx.cycle_graph(num_nodes)
    added = 0
    attempts = 0
    while added < extra_edges and attempts < 20 * extra_edges:
        attempts += 1
        u, v = rng.integers(0, num_nodes, size=2)
        if u == v or graph.has_edge(int(u), int(v)):
            continue
        graph.add_edge(int(u), int(v))
        added += 1
    for u, v in graph.edges:
        graph.edges[u, v]["capacity"] = float(rng.uniform(0.5, 2.0))
    return graph


def bandwidth_allocation_instance(
    num_nodes: int = 12,
    num_customers: int = 6,
    *,
    paths_per_customer: int = 2,
    extra_edges: int = 6,
    seed: int = 0,
    name: Optional[str] = None,
) -> BandwidthWorkload:
    """Generate a fair bandwidth allocation workload (see module docstring)."""
    import networkx as nx

    if num_nodes < 3:
        raise ValueError("need at least three network nodes")
    if num_customers < 1:
        raise ValueError("need at least one customer")
    if paths_per_customer < 1:
        raise ValueError("need at least one candidate path per customer")

    rng = np.random.default_rng(seed)
    graph = _random_network(rng, num_nodes, extra_edges)

    builder = InstanceBuilder(
        name=name or f"bandwidth-n{num_nodes}-c{num_customers}-seed{seed}"
    )
    customers: List[Tuple[int, int]] = []
    paths: Dict[int, List[Tuple[int, ...]]] = {}

    for c in range(num_customers):
        while True:
            src, dst = rng.integers(0, num_nodes, size=2)
            if src != dst:
                break
        src, dst = int(src), int(dst)
        customers.append((src, dst))
        candidate_paths = list(
            islice(nx.shortest_simple_paths(graph, src, dst), paths_per_customer)
        )
        paths[c] = [tuple(p) for p in candidate_paths]
        for p_idx, path in enumerate(paths[c]):
            agent = f"f{c}_{p_idx}"
            builder.add_objective_term(f"cust{c}", agent, 1.0)
            for u, v in zip(path, path[1:]):
                edge = (u, v) if u < v else (v, u)
                capacity = graph.edges[edge]["capacity"]
                builder.add_constraint_term(f"link{edge[0]}_{edge[1]}", agent, 1.0 / capacity)

    return BandwidthWorkload(graph, customers, paths, builder.build())
