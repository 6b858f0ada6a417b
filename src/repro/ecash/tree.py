"""The binary coin tree of the Divisible E-cash scheme.

A coin of value ``2^L`` is a binary tree of ``L + 1`` levels (paper
Section III-C1).  The node ``N_{i,j}`` at level *i* (root: ``i = 0``)
carries denomination ``2^(L-i)``; spending a node spends its entire
subtree, so two nodes conflict exactly when one is an ancestor of (or
equal to) the other.

Node *keys* realize the tree cryptographically through the group tower:

    κ(root)          = γ_root ^ s              (in storey 0)
    κ(child_b of v)  = γ_{level, b} ^ κ(v)     (in storey `level`)

where *s* is the coin secret and the γ's are the per-storey edge
generators.  The Cunningham-chain tower guarantees each key is a valid
exponent one storey up, and the hardness of (double) discrete logs makes
keys one-way: a node key reveals its *descendants* (derivation is
public) but neither its ancestors nor its siblings.

The descendant property is what the bank's double-spend detection uses:
a deposited node key expands to the serial numbers of all leaves below
it (:func:`leaf_serials`), and any two conflicting spends collide in at
least one leaf serial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.crypto.groups import GroupTower

__all__ = [
    "NodeId",
    "CoinTree",
    "derive_key_chain",
    "node_key",
    "leaf_serials",
    "GEN_LEFT",
    "GEN_RIGHT",
    "GEN_COMMIT_G",
    "GEN_COMMIT_H",
]

# roles of the per-storey extra generators (see build_tower(generators_per_level=4))
GEN_LEFT = 0      # edge generator for a left child (and the root derivation)
GEN_RIGHT = 1     # edge generator for a right child
GEN_COMMIT_G = 2  # Pedersen commitment base g
GEN_COMMIT_H = 3  # Pedersen commitment base h


@dataclass(frozen=True, order=True)
class NodeId:
    """A tree position: *level* (0 = root) and *index* within the level."""

    level: int
    index: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("level must be >= 0")
        if not 0 <= self.index < (1 << self.level):
            raise ValueError(f"index {self.index} out of range for level {self.level}")

    # -- structure ----------------------------------------------------------
    def value(self, tree_level: int) -> int:
        """Denomination of this node in a level-*tree_level* tree."""
        if self.level > tree_level:
            raise ValueError("node deeper than the tree")
        return 1 << (tree_level - self.level)

    @property
    def parent(self) -> "NodeId":
        if self.level == 0:
            raise ValueError("the root has no parent")
        return NodeId(self.level - 1, self.index >> 1)

    def child(self, bit: int) -> "NodeId":
        if bit not in (0, 1):
            raise ValueError("child bit must be 0 or 1")
        return NodeId(self.level + 1, (self.index << 1) | bit)

    def path_bits(self) -> tuple[int, ...]:
        """Branch choices from the root down to this node (MSB first)."""
        return tuple((self.index >> (self.level - 1 - k)) & 1 for k in range(self.level))

    def ancestors(self) -> Iterator["NodeId"]:
        """Proper ancestors, root last."""
        node = self
        while node.level > 0:
            node = node.parent
            yield node

    def is_ancestor_of(self, other: "NodeId") -> bool:
        """Proper-or-equal ancestry test."""
        if other.level < self.level:
            return False
        return (other.index >> (other.level - self.level)) == self.index

    def conflicts_with(self, other: "NodeId") -> bool:
        """Whether spending both nodes would double-spend."""
        return self.is_ancestor_of(other) or other.is_ancestor_of(self)

    def leaf_span(self, tree_level: int) -> range:
        """Indices of the level-*tree_level* leaves below this node."""
        if self.level > tree_level:
            raise ValueError("node deeper than the tree")
        width = 1 << (tree_level - self.level)
        return range(self.index * width, (self.index + 1) * width)


@dataclass(frozen=True)
class CoinTree:
    """Static structure of a level-*L* coin tree (no keys, no state)."""

    level: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("tree level must be >= 0")

    @property
    def total_value(self) -> int:
        return 1 << self.level

    @property
    def root(self) -> NodeId:
        return NodeId(0, 0)

    def nodes_at(self, level: int) -> Iterator[NodeId]:
        if not 0 <= level <= self.level:
            raise ValueError("level out of range")
        for index in range(1 << level):
            yield NodeId(level, index)

    def all_nodes(self) -> Iterator[NodeId]:
        for level in range(self.level + 1):
            yield from self.nodes_at(level)

    def node_for_denomination(self, denomination: int, index: int = 0) -> NodeId:
        """The *index*-th node carrying the given power-of-two denomination."""
        if denomination <= 0 or denomination & (denomination - 1):
            raise ValueError("denomination must be a positive power of two")
        if denomination > self.total_value:
            raise ValueError("denomination exceeds the coin value")
        level = self.level - denomination.bit_length() + 1
        return NodeId(level, index)


# ---------------------------------------------------------------------------
# key derivation
# ---------------------------------------------------------------------------

def _edge_generator(tower: GroupTower, storey: int, bit: int) -> int:
    gens = tower.extra_generators[storey]
    if len(gens) <= GEN_COMMIT_H:
        raise ValueError("tower built with too few generators per level (need 4)")
    return gens[GEN_LEFT if bit == 0 else GEN_RIGHT]


def derive_key_chain(tower: GroupTower, secret: int, node: NodeId) -> list[int]:
    """Keys ``κ_0 .. κ_{node.level}`` along the root→node path.

    ``κ_0`` is the root key; the last entry is *node*'s own key.  Each
    κ_t is an element of tower storey *t* and hence a valid exponent in
    storey ``t + 1``.
    """
    if node.level > tower.depth:
        raise ValueError("node deeper than the tower supports")
    grp0 = tower.group(0)
    if not 0 < secret < grp0.q:
        raise ValueError("coin secret out of the storey-0 exponent range")
    # edge generators are tower-fixed → table-cached exponentiations
    keys = [grp0.exp_fixed(_edge_generator(tower, 0, 0), secret)]
    for t, bit in enumerate(node.path_bits(), start=1):
        grp = tower.group(t)
        keys.append(grp.exp_fixed(_edge_generator(tower, t, bit), keys[-1]))
    return keys


def node_key(tower: GroupTower, secret: int, node: NodeId) -> int:
    """The key of a single node (last element of the derivation chain)."""
    return derive_key_chain(tower, secret, node)[-1]


def leaf_serials(tower: GroupTower, node: NodeId, key: int, tree_level: int) -> list[int]:
    """Serial numbers of every leaf under *node*, derived from its *key*.

    Derivation downwards is public (only generators are needed), which
    is exactly what lets the bank detect ancestor/descendant double
    spends: conflicting nodes share at least one leaf, and leaf keys are
    deterministic, so the expansions collide.
    """
    if node.level > tree_level:
        raise ValueError("node deeper than the tree")
    if tree_level > tower.depth:
        raise ValueError("tree deeper than the tower supports")
    frontier = [(node, key)]
    for level in range(node.level + 1, tree_level + 1):
        grp = tower.group(level)
        frontier = [
            (n.child(bit), grp.exp_fixed(_edge_generator(tower, level, bit), k))
            for (n, k) in frontier
            for bit in (0, 1)
        ]
    return [k for (_, k) in frontier]
