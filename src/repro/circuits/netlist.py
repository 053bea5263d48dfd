"""Circuit container: nodes, elements and unknown numbering.

A :class:`Circuit` is a flat netlist of elements connected at named
nodes.  The modified-nodal-analysis unknown vector is::

    x = [ v(node_1) ... v(node_N)  i(branch_1) ... i(branch_M) ]

where the ground node (named ``"0"`` or ``"gnd"``) is eliminated and
*branches* are the extra current unknowns contributed by group-2
elements (voltage sources, VCVS/CCVS, inductors, ideal op-amps).

Elements register themselves when added; :meth:`Circuit.assemble`
freezes the numbering and returns an :class:`repro.circuits.mna.MnaSystem`
ready for analysis.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

GROUND_NAMES = ("0", "gnd", "GND", "vss!", "ground")


class CircuitError(Exception):
    """Raised for malformed netlists (duplicate names, missing nodes...)."""


class Circuit:
    """A flat netlist.

    Parameters
    ----------
    title:
        Optional human-readable description, used in diagnostics.

    Examples
    --------
    >>> from repro.circuits import Circuit, Resistor, VoltageSource
    >>> ckt = Circuit("divider")
    >>> _ = ckt.add(VoltageSource("V1", "in", "0", dc=1.0))
    >>> _ = ckt.add(Resistor("R1", "in", "out", 1e3))
    >>> _ = ckt.add(Resistor("R2", "out", "0", 1e3))
    >>> sorted(ckt.node_names())
    ['in', 'out']
    """

    def __init__(self, title: str = "") -> None:
        self.title = title
        self.elements: List = []
        self._names: Dict[str, object] = {}
        self._nodes: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, element):
        """Add an element; returns it for chaining/reference."""
        if element.name in self._names:
            raise CircuitError(f"duplicate element name {element.name!r}")
        for node in element.nodes:
            self._intern_node(node)
        self._names[element.name] = element
        self.elements.append(element)
        return element

    def add_all(self, elements: Iterable) -> None:
        """Add several elements at once."""
        for element in elements:
            self.add(element)

    def _intern_node(self, node: str) -> None:
        if not isinstance(node, str) or not node:
            raise CircuitError(f"node names must be non-empty strings, got {node!r}")
        if self.is_ground(node):
            return
        if node not in self._nodes:
            self._nodes[node] = len(self._nodes)

    @staticmethod
    def is_ground(node: str) -> bool:
        """True if ``node`` is one of the recognised ground spellings."""
        return node in GROUND_NAMES

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def node_names(self) -> List[str]:
        """Names of all non-ground nodes, in numbering order."""
        return sorted(self._nodes, key=self._nodes.get)

    def node_index(self, node: str) -> int:
        """MNA index of a node (-1 for ground)."""
        if self.is_ground(node):
            return -1
        try:
            return self._nodes[node]
        except KeyError:
            raise CircuitError(f"unknown node {node!r}") from None

    def element(self, name: str):
        """Look up an element by name."""
        try:
            return self._names[name]
        except KeyError:
            raise CircuitError(f"unknown element {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def num_nodes(self) -> int:
        """Number of non-ground nodes."""
        return len(self._nodes)

    @property
    def num_branches(self) -> int:
        """Number of extra branch-current unknowns."""
        return sum(e.num_currents for e in self.elements)

    @property
    def size(self) -> int:
        """Total MNA unknown count."""
        return self.num_nodes + self.num_branches

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def assemble(self):
        """Freeze numbering and bind every element; returns an MnaSystem."""
        from repro.circuits.mna import MnaSystem

        offset = self.num_nodes
        for element in self.elements:
            node_idx = tuple(self.node_index(n) for n in element.nodes)
            element.bind(node_idx, offset)
            offset += element.num_currents
        return MnaSystem(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Circuit {self.title!r}: {len(self.elements)} elements, "
                f"{self.num_nodes} nodes, {self.num_branches} branches>")
