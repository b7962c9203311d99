"""Cayley graph construction, BFS distance partitions, and graph exports.

Adjacency is one Python int bitmask per vertex: vertex g's neighbor mask is
the connection-set mask translated by g, so g ~ h exactly when h - g lies in
the connection set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .groups import (
    GroupDescriptor,
    closure_mask,
    group_tables,
    inverse_pairs,
    iter_bits,
    mask_of,
)


class DisconnectedGraphError(ValueError):
    """Raised when an operation requires a connected graph."""


@dataclass(frozen=True)
class SymmetricSet:
    """An identity-free, negation-closed subset of a group, as a bitmask."""

    group: GroupDescriptor
    mask: int

    def __post_init__(self) -> None:
        if self.mask >> self.group.order:
            raise ValueError("set mask exceeds group order")
        if self.mask & 1:
            raise ValueError("connection set must not contain the identity")
        neg = group_tables(self.group).neg
        for g in iter_bits(self.mask):
            if not self.mask >> int(neg[g]) & 1:
                raise ValueError(
                    f"set is not negation-closed: contains {g} but not {int(neg[g])}"
                )

    @classmethod
    def from_elements(cls, group: GroupDescriptor, elements: Iterable[int]) -> "SymmetricSet":
        return cls(group, mask_of(elements))

    @classmethod
    def from_pair_indices(cls, group: GroupDescriptor, indices: Iterable[int]) -> "SymmetricSet":
        pairs = inverse_pairs(group)
        mask = 0
        for i in indices:
            mask |= mask_of(pairs[i])
        return cls(group, mask)

    @classmethod
    def from_pair_bits(cls, group: GroupDescriptor, bits: int) -> "SymmetricSet":
        return cls.from_pair_indices(group, iter_bits(bits))

    @classmethod
    def parse(cls, group: GroupDescriptor, literal: str) -> "SymmetricSet":
        """Parse a comma-separated element list like "(1,0),(2,0)"."""
        text = "".join(literal.split())
        if not text:
            return cls(group, 0)
        if group.is_cyclic:
            tokens = [t for t in text.split(",") if t]
        else:
            tokens = text.replace("),(", ")|(").split("|")
        return cls.from_elements(group, (group.parse_element(t) for t in tokens))

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def members(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.mask))

    def member_strs(self) -> list[str]:
        return [self.group.element_str(g) for g in self.members()]

    def rows(self) -> "RowDecomposition":
        group = self.group
        buckets: list[set[int]] = [set() for _ in range(group.second_modulus)]
        for g in self.members():
            a, b = group.unrank(g)
            buckets[b].add(a)
        return RowDecomposition(group, tuple(frozenset(b) for b in buckets))


@dataclass(frozen=True)
class RowDecomposition:
    """Connection set sliced by second coordinate: row j = {u : (u,j) in S}."""

    group: GroupDescriptor
    rows: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        m = self.group.first_modulus
        q = self.group.second_modulus
        if len(self.rows) != q:
            raise ValueError(f"expected {q} rows, got {len(self.rows)}")
        if {(-u) % m for u in self.rows[0]} != self.rows[0]:
            raise ValueError("row 0 must be negation-closed")
        for j in range(1, q):
            if {(-u) % m for u in self.rows[j]} != self.rows[q - j]:
                raise ValueError(f"row {j} must be the negation of row {q - j}")

    def to_set(self) -> SymmetricSet:
        group = self.group
        elems = [group.rank(u, j) for j, row in enumerate(self.rows) for u in row]
        return SymmetricSet.from_elements(group, elems)


@dataclass(frozen=True)
class CayleyGraph:
    group: GroupDescriptor
    connection: SymmetricSet
    adjacency: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.group.order

    @property
    def valency(self) -> int:
        return self.connection.size

    def neighbors_mask(self, v: int) -> int:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u] >> v & 1)


def build(group: GroupDescriptor, connection: SymmetricSet) -> CayleyGraph:
    """Construct the graph; vertex g's neighbors are g + S."""
    if connection.group != group:
        raise ValueError("connection set belongs to a different group")
    add = group_tables(group).add
    members = connection.members()
    adjacency = []
    for g in group.elements():
        row = add[g]
        mask = 0
        for s in members:
            mask |= 1 << int(row[s])
        adjacency.append(mask)
    return CayleyGraph(group, connection, tuple(adjacency))


def bfs_layers(adjacency: Sequence[int]) -> tuple[int, ...]:
    """BFS layer masks N_0, N_1, ... from vertex 0, over its component only."""
    layers = [1]
    visited = 1
    frontier = 1
    while True:
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= adjacency[v]
        nxt &= ~visited
        if not nxt:
            return tuple(layers)
        layers.append(nxt)
        visited |= nxt
        frontier = nxt


def is_connected(graph: CayleyGraph) -> bool:
    """BFS reachability; cross-checked against subgroup closure of S."""
    reached = sum(m.bit_count() for m in bfs_layers(graph.adjacency))
    by_bfs = reached == graph.order
    by_closure = closure_mask(graph.group, graph.connection.mask) == (1 << graph.order) - 1
    if by_bfs != by_closure:
        raise AssertionError("BFS reachability disagrees with subgroup closure")
    return by_bfs


@dataclass(frozen=True)
class DistancePartition:
    """BFS layers N_0..N_d from the identity vertex, as bitmasks."""

    group: GroupDescriptor
    layer_masks: tuple[int, ...]

    @property
    def diameter(self) -> int:
        return len(self.layer_masks) - 1

    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.layer_masks)

    def layer_elements(self, j: int) -> tuple[int, ...]:
        return tuple(iter_bits(self.layer_masks[j]))

    def distance_of(self, v: int) -> int:
        for j, mask in enumerate(self.layer_masks):
            if mask >> v & 1:
                return j
        raise ValueError(f"vertex {v} not reached")

    def row_layer(self, i: int, j: int) -> frozenset[int]:
        """{u : (u, i) is at distance j}; the per-row slice of layer j."""
        group = self.group
        return frozenset(
            a
            for v in self.layer_elements(j)
            for a, b in (group.unrank(v),)
            if b == i
        )


def distance_partition(graph: CayleyGraph) -> DistancePartition:
    """Exact BFS layers from the identity; raises on disconnected input."""
    layers = bfs_layers(graph.adjacency)
    reached = sum(m.bit_count() for m in layers)
    if reached != graph.order:
        raise DisconnectedGraphError(
            f"graph is disconnected ({reached} of {graph.order} reached)"
        )
    return DistancePartition(graph.group, layers)


def common_neighbors(graph: CayleyGraph, target: int) -> int:
    """|N(identity) & N(target)|, computed two independent ways.

    The mask intersection must agree with the row-wise sum
    sum_t |R_t & (i - R_{(j-t) mod q})| for target (i, j); any disagreement
    is a bug, not a property of the input.
    """
    by_mask = (graph.adjacency[0] & graph.adjacency[target]).bit_count()
    group = graph.group
    m, q = group.first_modulus, group.second_modulus
    rows = graph.connection.rows().rows
    i, j = group.unrank(target)
    by_rows = 0
    for t in range(q):
        other = rows[(j - t) % q]
        shifted = {(i - u) % m for u in other}
        by_rows += len(rows[t] & shifted)
    if by_mask != by_rows:
        raise AssertionError(
            f"common-neighbor count mismatch at {group.element_str(target)}: "
            f"{by_mask} by masks vs {by_rows} by rows"
        )
    return by_mask


@dataclass(frozen=True)
class PlainGraph:
    """A small undirected graph on re-indexed vertices (quotients, halves)."""

    labels: tuple[str, ...]
    adjacency: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.adjacency)

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def is_complete(self) -> bool:
        n = self.order
        want = (1 << n) - 1
        return all(self.adjacency[v] == want ^ (1 << v) for v in range(n))


def edge_list(adjacency: Sequence[int]) -> str:
    """One "u v" line per undirected edge, ranks ascending."""
    lines = []
    for u, mask in enumerate(adjacency):
        for v in iter_bits(mask):
            if u < v:
                lines.append(f"{u} {v}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_graph6(adjacency: Sequence[int]) -> str:
    """Standard 6-bit printable encoding of the adjacency matrix."""
    n = len(adjacency)
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(
            chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0)
        )
    else:
        raise ValueError("graph too large for this encoder")
    bits: list[int] = []
    for v in range(1, n):
        for u in range(v):
            bits.append(adjacency[u] >> v & 1)
    while len(bits) % 6:
        bits.append(0)
    chunks = (
        (bits[i] << 5)
        | (bits[i + 1] << 4)
        | (bits[i + 2] << 3)
        | (bits[i + 3] << 2)
        | (bits[i + 4] << 1)
        | bits[i + 5]
        for i in range(0, len(bits), 6)
    )
    return head + "".join(chr(c + 63) for c in chunks)


@lru_cache(maxsize=None)
def verify_translation_invariance(desc: GroupDescriptor) -> bool:
    """Check (h+t) - (g+t) == h - g over the whole table, once per group.

    This is what lets distance-regularity be decided from identity-rooted
    pairs alone: every translation is then a graph automorphism for every
    connection set over the group.
    """
    tabs = group_tables(desc)
    add, sub = tabs.add.astype(np.int64), tabs.sub.astype(np.int64)
    n = desc.order
    for t in range(n):
        shifted = add[:, t]
        if not np.array_equal(sub[np.ix_(shifted, shifted)], sub):
            raise AssertionError(f"translation by {t} is not an automorphism")
    return True
