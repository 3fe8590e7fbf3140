"""Directed acyclic graphs for Bayesian networks.

A minimal DAG, the intra-slice graph of a DBN template: parents, edges,
topological order, and cycle rejection at edge-insert time. Node names are
arbitrary hashables (strings in practice).
"""

from __future__ import annotations

from typing import Hashable

from repro.errors import GraphStructureError

__all__ = ["Dag"]

Node = Hashable


class Dag:
    """A directed acyclic graph with insert-time cycle checking."""

    def __init__(self) -> None:
        self._parents: dict[Node, list[Node]] = {}
        self._children: dict[Node, list[Node]] = {}

    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        if node not in self._parents:
            self._parents[node] = []
            self._children[node] = []

    def add_edge(self, parent: Node, child: Node) -> None:
        """Insert parent -> child, rejecting self-loops and cycles."""
        if parent == child:
            raise GraphStructureError(f"self-loop on {parent!r}")
        self.add_node(parent)
        self.add_node(child)
        if parent in self._parents[child]:
            return  # idempotent
        if self._reaches(child, parent):
            raise GraphStructureError(
                f"edge {parent!r} -> {child!r} would create a cycle"
            )
        self._parents[child].append(parent)
        self._children[parent].append(child)

    def _reaches(self, start: Node, goal: Node) -> bool:
        stack = [start]
        seen = set()
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._children.get(node, ()))
        return False

    # ------------------------------------------------------------------
    def parents(self, node: Node) -> list[Node]:
        self._require(node)
        return list(self._parents[node])

    def edges(self) -> list[tuple[Node, Node]]:
        return [(p, c) for c, ps in self._parents.items() for p in ps]

    def topological_order(self) -> list[Node]:
        """Kahn's algorithm; deterministic given insertion order."""
        in_degree = {n: len(ps) for n, ps in self._parents.items()}
        ready = [n for n, d in in_degree.items() if d == 0]
        order: list[Node] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for child in self._children[node]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    ready.append(child)
        if len(order) != len(self._parents):
            raise GraphStructureError("graph contains a cycle")
        return order

    def _require(self, node: Node) -> None:
        if node not in self._parents:
            raise GraphStructureError(f"unknown node {node!r}")
