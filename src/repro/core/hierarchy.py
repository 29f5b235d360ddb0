"""The community hierarchy: how dense communities nest across levels.

Level subgraphs nest, so the triangle-connected communities of all levels
form a forest: a level-``k`` community contains the level-``k+1``
communities built from its edges.  This module materializes the
:class:`~repro.core.community.CommunityIndex` merge forest as that tree —
the dendrogram a user descends when exploring a plot ("this broad plateau
splits into these two tighter cliques").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Set

from ..graph.edge import Vertex
from ..graph.undirected import Graph
from .community import CommunityIndex, community_key
from .extract import vertex_set_of_edges
from .triangle_kcore import TriangleKCoreResult


@dataclass
class CommunityNode:
    """One community with its tighter sub-communities.

    A community that survives several consecutive levels unchanged is
    represented by a single node: ``first_level`` is where it appears,
    ``level`` the deepest level it persists to (its true density).
    """

    level: int
    edges: frozenset
    first_level: int
    children: List["CommunityNode"] = field(default_factory=list)
    parent: Optional["CommunityNode"] = None

    @property
    def vertices(self) -> Set[Vertex]:
        return vertex_set_of_edges(set(self.edges))

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def estimated_clique_size(self) -> int:
        return self.level + 2

    def walk(self) -> Iterator["CommunityNode"]:
        """Depth-first traversal of this subtree (self first)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def leaves(self) -> Iterator["CommunityNode"]:
        """The densest (childless) communities under this node."""
        for node in self.walk():
            if not node.children:
                yield node

    def __repr__(self) -> str:
        return (
            f"CommunityNode(level={self.level}, vertices={self.size}, "
            f"children={len(self.children)})"
        )


def _ordered(nodes: List[CommunityNode]) -> List[CommunityNode]:
    """Siblings in ``communities_at`` order (an only child skips the key)."""
    return sorted(nodes, key=lambda n: community_key(n.edges)) if nodes[1:] else nodes


class CommunityHierarchy:
    """The forest of nested triangle-connected communities.

    Examples
    --------
    >>> from ..graph.undirected import complete_graph
    >>> g = complete_graph(5)
    >>> _ = g.add_edge(0, 10), g.add_edge(1, 10), g.add_edge(10, 11)
    >>> hierarchy = CommunityHierarchy(g)
    >>> [r.level for r in hierarchy.roots]
    [1]
    >>> [c.level for c in hierarchy.roots[0].children]
    [3]
    """

    def __init__(
        self,
        graph: Graph,
        result: Optional[TriangleKCoreResult] = None,
        *,
        backend: Optional[str] = None,
        engine: Optional[object] = None,
    ) -> None:
        index = CommunityIndex(graph, result, backend=backend, engine=engine)
        self._result = index.result
        # The index's merge forest is this tree: children precede parents,
        # and a node already spans its unchanged levels.
        nodes: List[CommunityNode] = []
        for level, first, own, kids in index.forest():
            children = [nodes[kid] for kid in kids]
            edges = frozenset(own).union(*(child.edges for child in children))
            node = CommunityNode(level, edges, first, _ordered(children))
            for child in children:
                child.parent = node
            nodes.append(node)
        self.roots = _ordered([node for node in nodes if node.parent is None])

    @property
    def max_level(self) -> int:
        return self._result.max_kappa

    def walk(self) -> Iterator[CommunityNode]:
        for root in self.roots:
            yield from root.walk()

    def densest_leaves(self) -> List[CommunityNode]:
        """All childless nodes, densest level first."""
        leaves = [leaf for root in self.roots for leaf in root.leaves()]
        leaves.sort(key=lambda n: (-n.level, -n.size))
        return leaves

    def ascii_tree(self, *, max_children: int = 8) -> str:
        """Indented text rendering (for CLI / examples)."""
        lines: List[str] = []

        def visit(node: CommunityNode, depth: int) -> None:
            span = (
                f"level {node.level}"
                if node.first_level == node.level
                else f"levels {node.first_level}-{node.level}"
            )
            lines.append(
                "  " * depth
                + f"{span} (~{node.estimated_clique_size}-clique), "
                f"{node.size} vertices"
            )
            for child in node.children[:max_children]:
                visit(child, depth + 1)
            if len(node.children) > max_children:
                lines.append(
                    "  " * (depth + 1)
                    + f"... {len(node.children) - max_children} more"
                )

        for root in self.roots:
            visit(root, 0)
        return "\n".join(lines)
