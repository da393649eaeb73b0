"""PlacementPlanner: latency is charged against the deadline budget."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import CapacityError, ConfigurationError
from repro.serve import Node, PlacementPlanner, local_node


def _farm():
    return [
        Node("near", 50.0, latency=0.005),
        Node("far", 200.0, latency=0.030),
        Node("tiny", 2.0, latency=0.001),
    ]


class TestNodes:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="name"):
            Node("", 10.0)
        with pytest.raises(ConfigurationError, match="capacity"):
            Node("n", 0.0)
        with pytest.raises(ConfigurationError, match="latency"):
            Node("n", 10.0, latency=-0.1)

    def test_local_node_is_the_identity_host(self):
        node = local_node()
        assert node.latency == 0.0
        assert node.capacity == float("inf")


class TestPlan:
    def test_identity_on_a_zero_latency_node(self):
        plan = PlacementPlanner([local_node(100.0)]).plan(20.0, 5.0, 0.05)
        assert plan.effective_delta == 0.05
        assert plan.colocated
        assert plan.latency_tax == 0.0
        assert plan.admission_limit == math.floor(20.0 * 0.05 + 1e-9)

    def test_q1_takes_the_lowest_latency_feasible_node(self):
        plan = PlacementPlanner(_farm()).plan(20.0, 5.0, 0.05)
        # "tiny" is nearest but cannot host cmin=20; "near" wins.
        assert plan.q1_node.name == "near"
        assert plan.effective_delta == pytest.approx(0.045)
        assert plan.latency_tax == pytest.approx(0.1)
        # The latency charge tightens the admission bound.
        assert plan.admission_limit < math.floor(20.0 * 0.05 + 1e-9)

    def test_q2_prefers_a_different_node(self):
        plan = PlacementPlanner(_farm()).plan(20.0, 5.0, 0.05)
        assert plan.q2_node.name != plan.q1_node.name
        assert not plan.colocated

    def test_q2_falls_back_to_colocation(self):
        nodes = [Node("solo", 100.0, latency=0.001)]
        plan = PlacementPlanner(nodes).plan(20.0, 5.0, 0.05)
        assert plan.colocated

    def test_zero_overflow_colocates_trivially(self):
        plan = PlacementPlanner(_farm()).plan(20.0, 0.0, 0.05)
        assert plan.q2_node.name == plan.q1_node.name

    def test_capacity_tiebreak_on_equal_latency(self):
        nodes = [Node("a", 30.0, 0.01), Node("b", 80.0, 0.01)]
        plan = PlacementPlanner(nodes).plan(20.0, 5.0, 0.05)
        assert plan.q1_node.name == "b"

    def test_infeasible_farms_raise(self):
        with pytest.raises(CapacityError, match="no node can guarantee"):
            PlacementPlanner([Node("slow", 1.0, 0.001)]).plan(20.0, 5.0, 0.05)
        with pytest.raises(CapacityError, match="no node can guarantee"):
            # Capacity is there, but every round trip eats the budget.
            PlacementPlanner([Node("wan", 100.0, 0.1)]).plan(20.0, 5.0, 0.05)
        with pytest.raises(CapacityError, match="overflow"):
            PlacementPlanner([Node("snug", 20.0, 0.001)]).plan(
                20.0, 5.0, 0.05
            )

    def test_parameter_validation(self):
        planner = PlacementPlanner(_farm())
        with pytest.raises(ConfigurationError, match="bad plan"):
            planner.plan(0.0, 5.0, 0.05)
        with pytest.raises(ConfigurationError, match="at least one node"):
            PlacementPlanner([])
        with pytest.raises(ConfigurationError, match="duplicate"):
            PlacementPlanner([Node("x", 1.0), Node("x", 2.0)])

    def test_describe_mentions_both_partitions(self):
        plan = PlacementPlanner(_farm()).plan(20.0, 5.0, 0.05)
        text = plan.describe()
        assert "Q1 -> near" in text
        assert "Q2 ->" in text
        assert "maxQ1" in text
