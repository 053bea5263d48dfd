"""Netlist container: node numbering, naming rules, assembly."""

import pytest

from repro.circuits import Circuit, CircuitError, Resistor, VoltageSource


def test_node_registration_order():
    ckt = Circuit()
    ckt.add(Resistor("R1", "a", "b", 1.0))
    ckt.add(Resistor("R2", "b", "c", 1.0))
    assert ckt.node_names() == ["a", "b", "c"]
    assert ckt.node_index("a") == 0
    assert ckt.node_index("c") == 2


@pytest.mark.parametrize("ground", ["0", "gnd", "GND", "ground"])
def test_ground_aliases_are_not_nodes(ground):
    ckt = Circuit()
    ckt.add(Resistor("R1", "a", ground, 1.0))
    assert ckt.num_nodes == 1
    assert ckt.node_index(ground) == -1


def test_duplicate_element_name_rejected():
    ckt = Circuit()
    ckt.add(Resistor("R1", "a", "0", 1.0))
    with pytest.raises(CircuitError, match="duplicate"):
        ckt.add(Resistor("R1", "b", "0", 1.0))


def test_unknown_node_lookup_raises():
    ckt = Circuit()
    ckt.add(Resistor("R1", "a", "0", 1.0))
    with pytest.raises(CircuitError, match="unknown node"):
        ckt.node_index("nope")


def test_unknown_element_lookup_raises():
    ckt = Circuit()
    with pytest.raises(CircuitError, match="unknown element"):
        ckt.element("R1")


def test_element_lookup_and_contains():
    ckt = Circuit()
    r = ckt.add(Resistor("R1", "a", "0", 1.0))
    assert ckt.element("R1") is r
    assert "R1" in ckt
    assert "R2" not in ckt


def test_empty_node_name_rejected():
    ckt = Circuit()
    with pytest.raises(CircuitError):
        ckt.add(Resistor("R1", "", "0", 1.0))


def test_branch_counting():
    ckt = Circuit()
    ckt.add(VoltageSource("V1", "a", "0", dc=1.0))
    ckt.add(Resistor("R1", "a", "b", 1.0))
    ckt.add(VoltageSource("V2", "b", "0", dc=1.0))
    assert ckt.num_branches == 2
    assert ckt.size == ckt.num_nodes + 2


def test_assemble_binds_branch_indices():
    ckt = Circuit()
    v1 = ckt.add(VoltageSource("V1", "a", "0", dc=1.0))
    ckt.add(Resistor("R1", "a", "b", 1.0))
    v2 = ckt.add(VoltageSource("V2", "b", "0", dc=1.0))
    system = ckt.assemble()
    assert v1.branch_index == ckt.num_nodes
    assert v2.branch_index == ckt.num_nodes + 1
    assert system.size == ckt.size


def test_add_all():
    ckt = Circuit()
    ckt.add_all([Resistor("R1", "a", "0", 1.0),
                 Resistor("R2", "a", "0", 2.0)])
    assert len(ckt) == 2
