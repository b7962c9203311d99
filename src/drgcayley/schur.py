"""Group-algebra layer: distance modules, Schur-ring checks, multipliers.

Cell partitions are verified as Schur rings by forming every product of two
cell sums at once and testing that each is constant on every cell; over an
abelian group that implies inverse closure (see ``is_schur_ring``).  All
arithmetic is 64-bit integer: a product coefficient counts pairs (g, h) with
fixed g, so it is at most |G|, and the bincount keys that index the r cells'
products stay below r^2 |G|.  ``power_map`` checks the lemma the census
generator prunes by.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .cayley import CayleyGraph, DistancePartition, iter_bits, mask_of
from .groups import GroupDescriptor, closure_mask, group_tables


@dataclass(frozen=True)
class CellPartition:
    """A candidate simple basis: disjoint cells covering G, cell 0 = {id}."""

    group: GroupDescriptor
    cells: tuple[int, ...]  # bitmasks

    def __post_init__(self) -> None:
        total = 0
        for c in self.cells:
            if not c:
                raise ValueError("empty cell")
            if total & c:
                raise ValueError("cells are not disjoint")
            total |= c
        if total != (1 << self.group.order) - 1:
            raise ValueError("cells do not cover the group")
        if self.cells[0] != 1:
            raise ValueError("cell 0 must be the identity singleton")

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    def cell_sizes(self) -> tuple[int, ...]:
        return tuple(c.bit_count() for c in self.cells)


def distance_module(graph: CayleyGraph, partition: DistancePartition) -> CellPartition:
    """Cells = BFS distance layers of the (connected) graph."""
    return CellPartition(graph.group, tuple(partition.layer_masks))


def is_schur_ring(basis: CellPartition) -> np.ndarray | None:
    """Structure constants p[i][j][k] when the partition spans a Schur ring.

    Each element is labelled with its cell id and each cell has one
    representative, its least member.  The coefficient at g of T_i T_j
    counts the h in T_i with g - h in T_j, so one bincount over all pairs
    (g, h) gives every product at every g; the ring closes when each product
    is constant on each cell, i.e. equals its value at the cell's
    representative.  Returns None when it does not.

    Over an abelian group product closure implies inverse closure.  The
    Fourier transform takes the span of the cell sums to a unital algebra of
    functions on the characters, spanned by the indicators of a partition of
    them, so closed under conjugation, the transform of T -> T^(-1).  So each
    -T_i is a union of cells; for each such T_j, -T_j lies in T_i, hence
    equals it, and -T_i = T_j.
    """
    desc = basis.group
    n = desc.order
    tabs = group_tables(desc)
    r = basis.cell_count
    width = (n + 7) // 8
    packed = b"".join(c.to_bytes(width, "little") for c in basis.cells)
    bits = np.unpackbits(
        np.frombuffer(packed, dtype=np.uint8).reshape(r, width),
        axis=1, count=n, bitorder="little",
    )
    cid = bits.argmax(axis=0)  # the cell of each element
    rep = bits.argmax(axis=1)  # the least member of each cell
    keys = (cid * r + cid[tabs.sub]) * n + np.arange(n)[:, None]
    prods = np.bincount(keys.ravel(), minlength=r * r * n).reshape(r, r, n)
    constants = prods[:, :, rep]
    if (prods != constants[:, :, cid]).any():
        return None
    return constants


def is_primitive(basis: CellPartition) -> bool:
    """True when every non-identity cell generates the whole group."""
    full = (1 << basis.group.order) - 1
    return all(
        closure_mask(basis.group, c) == full for c in basis.cells[1:]
    )


def power_map(basis: CellPartition, m: int) -> tuple[int, ...]:
    """The cell permutation induced by g -> m*g, for gcd(m, |G|) = 1.

    Lemma checked: Schur's multiplier theorem (Wielandt, Thm 23.9), the
    census generator's pruning rule: on a Schur ring over an abelian group
    the image of every cell is a cell.  A non-cell image means the input was
    not a verified basis and is raised as such.
    """
    desc = basis.group
    if gcd(m, desc.order) != 1:
        raise ValueError(f"{m} is not coprime to the group order {desc.order}")
    index_of = {c: i for i, c in enumerate(basis.cells)}
    perm = []
    for c in basis.cells:
        image = mask_of(desc.scale(m, g) for g in iter_bits(c))
        if image not in index_of:
            raise ValueError(
                f"image of a cell under g -> {m}g is not a cell; "
                "input is not a verified Schur basis"
            )
        perm.append(index_of[image])
    return tuple(perm)


def structure_constants_sanity(basis: CellPartition, constants: np.ndarray) -> None:
    """Symmetry and counting identities every verified basis must satisfy."""
    r = basis.cell_count
    sizes = basis.cell_sizes()
    if not np.array_equal(constants, constants.transpose(1, 0, 2)):
        raise AssertionError("structure constants are not symmetric in i, j")
    for i in range(r):
        for j in range(r):
            total = int(sum(constants[i, j, k] * sizes[k] for k in range(r)))
            if total != sizes[i] * sizes[j]:
                raise AssertionError(
                    f"sum_k p[{i}][{j}][k] |T_k| != |T_{i}| |T_{j}|"
                )
