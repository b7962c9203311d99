"""Cayley graph construction, BFS distance partitions, and graph exports.

Adjacency is one Python int bitmask per vertex: vertex g's neighbor mask is
the connection-set mask translated by g, so g ~ h exactly when h - g lies in
the connection set.

Translation is done on the mask itself.  Element (a, b) has rank a*q + b, so
the mask is m blocks of q bits, block a holding {b : (a, b) in S}.  Adding
(0, b0) rotates every block by b0 (bits with b < q - b0 move up by b0, the
rest down by q - b0, two masks per b0); adding (a0, 0) then rotates the whole
n-bit word by a0*q, which moves block a to block a + a0 mod m.  Each such
rotation is a window of the doubled word w = t << n | t of the block-rotated
mask t: t rotated left by k is (w >> (n - k)) & (2^n - 1), one shift and one
mask per row.  Cyclic groups (q = 1) need the word rotation only.  Each graph
runs one BFS, cached as ``CayleyGraph.layers``.  No add table is read, so
``is_connected`` still cross-checks it against ``closure_mask``, which reads
the subgroup lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
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


# byte b reversed bit for bit: MSB-first bits of b packed LSB-first
_REVERSED_BYTES = np.packbits(
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1), axis=1, bitorder="little"
).tobytes()


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
        neg = group_tables(self.group).neg  # also refuses orders past the table bound
        if _negated(self.group, self.mask) != self.mask:
            g = next(g for g in iter_bits(self.mask) if not self.mask >> int(neg[g]) & 1)
            raise ValueError(
                f"set is not negation-closed: contains {g} but not {int(neg[g])}"
            )

    @classmethod
    def from_elements(cls, group: GroupDescriptor, elements: Iterable[int]) -> "SymmetricSet":
        return cls(group, mask_of(elements))

    @classmethod
    def from_pair_bits(cls, group: GroupDescriptor, bits: int) -> "SymmetricSet":
        """The union of the inverse-pair cells whose bits are set in ``bits``."""
        pair_masks = _pair_masks(group)
        mask = 0
        for i in iter_bits(bits):
            mask |= pair_masks[i]
        return cls(group, mask)

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

    @cached_property
    def layers(self) -> tuple[int, ...]:
        """BFS layer masks N_0, N_1, ... from the identity, over its component only.

        The search stops as soon as every vertex is reached: a frontier stops
        expanding at the first vertex whose neighbors complete the group, as
        the rest of it can add no vertex, and a connected graph never expands
        its last layer.
        """
        adjacency = self.adjacency
        full = (1 << self.group.order) - 1
        layers = [1]
        visited = 1
        frontier = 1
        while visited != full:
            reached = visited
            for v in iter_bits(frontier):
                reached |= adjacency[v]
                if reached == full:
                    break
            nxt = reached ^ visited
            if not nxt:
                break
            layers.append(nxt)
            visited = reached
            frontier = nxt
        return tuple(layers)


@lru_cache(maxsize=None)
def _block_masks(group: GroupDescriptor) -> tuple[tuple[int, int], ...]:
    """Per b0, the ranks (a, b) with b < q - b0 and those with b >= q - b0."""
    m, q = group.first_modulus, group.second_modulus
    full = (1 << group.order) - 1
    out = []
    for b0 in range(q):
        low = sum(1 << (a * q + b) for a in range(m) for b in range(q - b0))
        out.append((low, full ^ low))
    return tuple(out)


@lru_cache(maxsize=None)
def _pair_masks(group: GroupDescriptor) -> tuple[int, ...]:
    """The mask of each cell of ``inverse_pairs``, in its order."""
    return tuple(mask_of(cell) for cell in inverse_pairs(group))


@lru_cache(maxsize=None)
def _negation_half(group: GroupDescriptor) -> int:
    """The mask of the g with g <= -g: the identity and the least member of each pair."""
    return 1 | mask_of(cell[0] for cell in inverse_pairs(group))


def _negated(group: GroupDescriptor, mask: int) -> int:
    """The mask of -S for the set S that ``mask`` holds.

    Reversing the n-bit word sends rank a q + b to n - 1 - (a q + b), which
    is element (m - 1 - a, q - 1 - b); translating by (1, 1), with the block
    and word rotations of ``build``, lands on (-a, -b).  Both steps move
    each bit on its own, so -S is found without a per-element loop.
    """
    n, q = group.order, group.second_modulus
    width = (n + 7) // 8
    word = int.from_bytes(mask.to_bytes(width, "big").translate(_REVERSED_BYTES), "little")
    word >>= 8 * width - n
    b0 = 1 % q
    low, high = _block_masks(group)[b0]
    t = (word & low) << b0 | (word & high) >> (q - b0)
    return (t << q | t >> (n - q)) & ((1 << n) - 1)


def build(group: GroupDescriptor, connection: SymmetricSet) -> CayleyGraph:
    """Construct the graph; vertex g's neighbors are g + S."""
    if connection.group != group:
        raise ValueError("connection set belongs to a different group")
    n, q = group.order, group.second_modulus
    mask = connection.mask
    # (0, b0) + S: rotate each q-bit block by b0, then double the word
    doubled = []
    for b0, (low, high) in enumerate(_block_masks(group)):
        t = (mask & low) << b0 | (mask & high) >> (q - b0)
        doubled.append(t << n | t)
    # (a0, b0) + S: rotate the whole word by a0 * q; rank a0 * q + b0 is row-major
    full = (1 << n) - 1
    adjacency = tuple([w >> s & full for s in range(n, 0, -q) for w in doubled])
    return CayleyGraph(group, connection, adjacency)


def is_connected(graph: CayleyGraph) -> bool:
    """BFS reachability, cross-checked against the subgroup lattice.

    The graph is connected exactly when S generates G, i.e. when the
    smallest subgroup in ``all_subgroups`` containing S is G itself.
    """
    reached = sum(m.bit_count() for m in graph.layers)
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


def distance_partition(graph: CayleyGraph) -> DistancePartition:
    """Exact BFS layers from the identity; raises on disconnected input."""
    reached = sum(m.bit_count() for m in graph.layers)
    if reached != graph.order:
        raise DisconnectedGraphError(
            f"graph is disconnected ({reached} of {graph.order} reached)"
        )
    return DistancePartition(graph.group, graph.layers)


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
    """Check (h+t) - (g+t) == h - g for every h, g and t, once per group.

    This is what lets distance-regularity be decided from identity-rooted
    pairs alone: every translation is then a graph automorphism for every
    connection set over the group.

    Column t of ``add`` is the translation h -> h + t.  Column 0 must be the
    identity, the columns of the generators (1, 0) and (0, 1) must preserve
    ``sub``, and each column t = (a, b) >= 1 must be one generator step
    applied to an earlier column: to t - (0, 1) when b > 0, else to
    t - (1, 0).  Maps that preserve differences compose, so by induction on
    t every column preserves them.  That is O(n^2) work, where comparing
    the whole ``sub`` table under each translation is O(n^3).
    """
    tabs = group_tables(desc)
    add, sub = tabs.add, tabs.sub
    if not np.array_equal(add[:, 0], np.arange(desc.order)):
        raise AssertionError("translation by 0 is not the identity")
    for g in (desc.rank(1, 0), desc.rank(0, 1)):
        if not np.array_equal(sub[np.ix_(add[:, g], add[:, g])], sub):
            raise AssertionError(f"translation by {g} is not an automorphism")
    t = np.arange(1, desc.order)
    step = np.where(t % desc.second_modulus > 0, desc.rank(0, 1), desc.rank(1, 0))
    wrong = t[(add[add[:, t - step], step] != add[:, t]).any(axis=0)]
    if wrong.size:
        raise AssertionError(f"translation by {wrong[0]} is not a generator step")
    return True
