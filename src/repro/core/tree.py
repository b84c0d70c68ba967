"""The pruned symbolic execution tree (Figure 7's right-hand structure).

The tracker records one node per explored path segment, with fork edges at
PC-concretisation points and merge terminations where a path reached a
sub-state of a previously observed conservative state.  The tree is kept
light -- path structure, fork metadata and per-node cycle counts -- while
heavyweight per-cycle data stays inside the tracker's streaming checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class TreeNode:
    """One path segment between control-flow decision points."""

    node_id: int
    parent: Optional[int]
    start_pc: int
    start_cycle: int
    pc_taint: int = 0
    #: "running" until the tracker closes the segment with one of
    #: "fork" | "merged" | "halt" | "illegal" | "state_lost" |
    #: "unbounded" | "drained"
    end_reason: str = "running"
    end_pc: Optional[int] = None
    end_cycle: Optional[int] = None
    fork_address: Optional[int] = None
    children: List[int] = field(default_factory=list)


class ExecutionTree:
    """Container for the exploration structure."""

    def __init__(self):
        self.nodes: Dict[int, TreeNode] = {}
        self._next_id = 0

    def new_node(
        self,
        parent: Optional[int],
        start_pc: int,
        start_cycle: int,
        pc_taint: int = 0,
    ) -> TreeNode:
        node = TreeNode(
            node_id=self._next_id,
            parent=parent,
            start_pc=start_pc,
            start_cycle=start_cycle,
            pc_taint=pc_taint,
        )
        self.nodes[node.node_id] = node
        if parent is not None:
            self.nodes[parent].children.append(node.node_id)
        self._next_id += 1
        return node

    @property
    def root(self) -> Optional[TreeNode]:
        return self.nodes.get(0)

    def __len__(self) -> int:
        return len(self.nodes)

    def leaves(self) -> List[TreeNode]:
        return [node for node in self.nodes.values() if not node.children]

    def depth_of(self, node_id: int) -> int:
        depth = 0
        node = self.nodes[node_id]
        while node.parent is not None:
            node = self.nodes[node.parent]
            depth += 1
        return depth

    def summary(self) -> dict:
        """Aggregate shape statistics (JSON-ready; feeds ``--json`` and
        the obs metrics snapshot)."""
        end_reasons: Dict[str, int] = {}
        for node in self.nodes.values():
            end_reasons[node.end_reason] = (
                end_reasons.get(node.end_reason, 0) + 1
            )
        return {
            "nodes": len(self.nodes),
            "leaves": len(self.leaves()),
            "max_depth": (
                max(self.depth_of(n.node_id) for n in self.nodes.values())
                if self.nodes
                else 0
            ),
            "end_reasons": dict(sorted(end_reasons.items())),
        }

    def render(self) -> str:
        """ASCII rendering of the tree (the Figure 7 style diagram)."""
        lines: List[str] = []

        def visit(node_id: int, depth: int) -> None:
            node = self.nodes[node_id]
            indent = "  " * depth
            taint = " [tainted PC]" if node.pc_taint else ""
            span = ""
            if node.end_cycle is not None:
                span = f" cycles {node.start_cycle}..{node.end_cycle}"
            lines.append(
                f"{indent}node {node.node_id}: pc=0x{node.start_pc:04x}"
                f"{span} -> {node.end_reason}{taint}"
            )
            for child in node.children:
                visit(child, depth + 1)

        if self.nodes:
            visit(0, 0)
        return "\n".join(lines)
