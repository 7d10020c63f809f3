"""Tests for the port-numbering model, the per-node simulator and views."""

from __future__ import annotations

import math
from typing import Dict

import pytest

from repro._types import NodeType, agent_node, constraint_node, objective_node
from repro.analysis.indistinguishability import build_view
from repro.analysis.views import PortNumbering, ViewTree, build_network
from repro.exceptions import SimulationError
from repro.oracle import distributed as oracle_dist
from repro.oracle.distributed import Message, ProtocolNode, view_tree_optimum
from repro.algo.upper_bound import compute_upper_bounds
from repro.generators import cycle_instance, random_special_form_instance


class TestPortNumbering:
    def test_ports_cover_neighbours(self, general_instance):
        ports = PortNumbering(general_instance)
        node = agent_node("v1")
        assert ports.degree(node) == len(general_instance.neighbours(node))
        for port in ports.ports(node):
            neighbour = ports.neighbour_at(node, port)
            assert ports.port_to(neighbour, node) in ports.ports(neighbour)

    def test_agent_ports_order_constraints_before_objectives(self, general_instance):
        ports = PortNumbering(general_instance)
        node = agent_node("v1")
        kinds = [ports.neighbour_at(node, p)[0] for p in ports.ports(node)]
        first_objective = kinds.index(NodeType.OBJECTIVE)
        assert all(k is NodeType.CONSTRAINT for k in kinds[:first_objective])
        assert all(k is NodeType.OBJECTIVE for k in kinds[first_objective:])

    def test_invalid_port_raises(self, tiny_instance):
        ports = PortNumbering(tiny_instance)
        with pytest.raises(SimulationError):
            ports.neighbour_at(agent_node("a"), 99)
        with pytest.raises(SimulationError):
            ports.port_to(agent_node("a"), agent_node("b"))

    def test_container_protocol(self, tiny_instance):
        ports = PortNumbering(tiny_instance)
        assert agent_node("a") in ports
        assert len(ports) == tiny_instance.num_nodes


class TestNetwork:
    def test_local_inputs_follow_paper(self, general_instance):
        network = build_network(general_instance)
        agent_input = network.local_input(agent_node("v1"))
        assert agent_input.kind is NodeType.AGENT
        # The agent knows the coefficient on every incident edge.
        assert set(agent_input.port_coefficients) == set(agent_input.port_kinds)
        # Constraints and objectives know only their degree / ports.
        constraint_input = network.local_input(constraint_node("i0"))
        assert constraint_input.kind is NodeType.CONSTRAINT
        assert constraint_input.port_coefficients == {}
        assert constraint_input.degree == 3

    def test_capacity_from_local_input(self, general_instance):
        network = build_network(general_instance)
        agent_input = network.local_input(agent_node("v1"))
        assert agent_input.capacity() == pytest.approx(general_instance.agent_capacity("v1"))

    def test_endpoint_symmetry(self, unit_cycle):
        network = build_network(unit_cycle)
        for node in network.nodes():
            for port in range(1, network.local_input(node).degree + 1):
                neighbour, remote = network.endpoint(node, port)
                back, back_port = network.endpoint(neighbour, remote)
                assert back == node and back_port == port

    def test_counts(self, unit_cycle):
        network = build_network(unit_cycle)
        assert network.num_nodes == unit_cycle.num_nodes
        assert network.num_edges == unit_cycle.num_edges
        assert len(network.agent_nodes()) == unit_cycle.num_agents


class _EchoNode(ProtocolNode):
    """Test protocol: each agent announces its degree; neighbours echo it back."""

    def __init__(self, graph_node, local_input):
        super().__init__(graph_node, local_input)
        self.received: Dict[int, object] = {}

    def compose(self, round_number, inbox):
        self.received.update({p: m.payload for p, m in inbox.items()})
        if round_number == 1:
            return {p: Message(self.degree, phase="echo") for p in range(1, self.degree + 1)}
        if round_number == 2:
            return {p: Message(("ack", m.payload), phase="echo") for p, m in inbox.items()}
        return {}

    def output(self):
        if self.kind is NodeType.AGENT:
            return sorted(self.received.values(), key=repr)
        return None


class TestRuntime:
    def test_message_counting_and_delivery(self, unit_cycle):
        network = build_network(unit_cycle)
        result = oracle_dist.run(
            network, lambda net, node: _EchoNode(node, net.local_input(node)), rounds=3
        )
        assert result.rounds == 3
        # Round 1: every node sends on every port = 2 * |E| messages; round 2 the same.
        assert result.per_round[0].messages == 2 * unit_cycle.num_edges
        assert result.per_round[1].messages == 2 * unit_cycle.num_edges
        assert result.per_round[2].messages == 0
        assert result.messages_per_round == pytest.approx(result.total_messages / 3)
        # Every agent got an ack for its own degree from each neighbour.
        for v, received in result.outputs.items():
            acks = [x for x in received if isinstance(x, tuple)]
            assert all(payload == 2 for _, payload in acks)

    def test_invalid_port_send_raises(self, tiny_instance):
        class BadNode(ProtocolNode):
            def compose(self, round_number, inbox):
                return {99: Message("boom")}

        network = build_network(tiny_instance)
        with pytest.raises(SimulationError):
            oracle_dist.run(network, lambda net, node: BadNode(node, net.local_input(node)), rounds=1)

    def test_bare_payloads_are_wrapped(self, tiny_instance):
        class BareNode(ProtocolNode):
            def __init__(self, graph_node, local_input):
                super().__init__(graph_node, local_input)
                self.seen = None

            def compose(self, round_number, inbox):
                if inbox:
                    self.seen = next(iter(inbox.values()))
                if round_number == 1:
                    return {1: "raw-string"}
                return {}

            def output(self):
                return self.seen

        network = build_network(tiny_instance)
        result = oracle_dist.run(
            network, lambda net, node: BareNode(node, net.local_input(node)), rounds=2
        )
        assert any(isinstance(v, Message) for v in result.node_outputs.values() if v is not None)


class TestViewTrees:
    def test_leaf_and_extend(self, unit_cycle):
        network = build_network(unit_cycle)
        local = network.local_input(agent_node("v0"))
        leaf = ViewTree.leaf(local)
        assert leaf.depth() == 0 and leaf.size() == 1
        view = build_view(network, agent_node("v0"), 3)
        assert view.depth() == 3
        assert view.size() > 1
        assert view.capacity() == pytest.approx(unit_cycle.agent_capacity("v0"))

    def test_view_ports(self, unit_cycle):
        network = build_network(unit_cycle)
        view = build_view(network, agent_node("v0"), 2)
        assert len(view.constraint_ports()) == 1
        assert len(view.objective_ports()) == 1
        child, remote = view.child(view.constraint_ports()[0])
        assert child.kind is NodeType.CONSTRAINT
        with pytest.raises(SimulationError):
            view.child(99)

    @pytest.mark.parametrize("r", [0, 1])
    def test_view_tu_matches_centralized(self, r):
        """The view-based binary search equals the centralized t_u computation."""
        for seed in (1, 2):
            instance = random_special_form_instance(12, delta_K=3, constraint_rounds=2, seed=seed)
            network = build_network(instance)
            central = compute_upper_bounds(instance, r, method="recursion")
            for v in instance.agents[:5]:
                view = build_view(network, agent_node(v), 4 * r + 2)
                local = view_tree_optimum(view, r)
                assert local == pytest.approx(central[v], abs=1e-7)

    def test_view_tu_requires_special_form_shape(self, general_instance):
        # Agent v2 belongs to two objectives, violating the |K_v| = 1 shape
        # the distributed recursion relies on.
        network = build_network(general_instance)
        view = build_view(network, agent_node("v2"), 4)
        with pytest.raises(SimulationError):
            view_tree_optimum(view, 0)
