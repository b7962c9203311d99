"""Group-algebra layer: distance modules, Schur-ring checks, multipliers.

Cell partitions are verified as Schur rings by forming every product of two
cell sums at once and testing that each is constant on every cell; over an
abelian group that implies inverse closure (see ``is_schur_ring``, which also
derives two rows of products by counting and, for negation-closed cells,
evaluates half the group).  The products come from one float64 matmul of 0/1
rows: a coefficient is a sum of at most |G| <= ``MAX_TABLE_ORDER`` terms, each
0 or 1, so every partial sum is an integer far below 2^53 and exact in any
order of summation, and the constants are returned as 64-bit integers.
``power_map`` checks the lemma the census's multiplier layers prune by.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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


@lru_cache(maxsize=None)
def _half_differences(desc: GroupDescriptor) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """The g with g <= -g, ascending, the rows sub[g] of the subtraction table,
    and at each such g its position among them."""
    tabs = group_tables(desc)
    in_half = np.arange(desc.order) <= tabs.neg
    rows = np.flatnonzero(in_half)
    diffs = tabs.sub[rows]
    diffs.setflags(write=False)
    return rows, diffs, tuple((np.cumsum(in_half) - 1).tolist())


def is_schur_ring(basis: CellPartition) -> np.ndarray | None:
    """Structure constants p[i][j][k] when the partition spans a Schur ring.

    The coefficient p(i, j, g) at g of T_i T_j counts the h in T_i with
    g - h in T_j, which is e_i . e_j[g - G] for the 0/1 rows e of the cells.
    The ring closes when each product is constant on each cell, i.e. equals
    its value at the cell's least member.  Returns None when it does not.

    Two rows of products need no matmul.  Row 0 is p(0, j, g) = [g in T_j].
    For the largest non-identity cell T_L, sum_i p(i, j, g) = |T_j| at every
    g (each h in G is in one cell), so p(L, j, g) = |T_j| - sum_{i != L}
    p(i, j, g).  Both rows are constant on the cells when the others are, so
    only the keyed cells, those other than {0} and T_L, are gathered over
    g - G, and one float64 matmul against every row e_j gives the rest.  Its
    sums have at most |G| terms, each 0 or 1, so they are exact integers.
    Since p(i, j, g) = p(j, i, g) (h -> g - h), the keyed products fill
    rows of the constants.

    When every cell is negation-closed, only the g with g <= -g are keyed:
    h -> -h maps T_i onto itself, so p(i, j, -g) counts the h in T_i with
    g - h in -T_j = T_j, which is p(i, j, g); and g, -g share a cell, whose
    least member v has v <= -v.

    Over an abelian group product closure implies inverse closure.  The
    Fourier transform takes the span of the cell sums to a unital algebra of
    functions on the characters, spanned by the indicators of a partition of
    them, so closed under conjugation, the transform of T -> T^(-1).  So each
    -T_i is a union of cells; for each such T_j, -T_j lies in T_i, hence
    equals it, and -T_i = T_j.
    """
    desc = basis.group
    n = desc.order
    r = basis.cell_count
    sizes = basis.cell_sizes()
    big = sizes.index(max(sizes[1:]), 1) if r > 1 else 0  # 0: the trivial group
    keyed = [i for i in range(1, r) if i != big]
    constants = np.zeros((r, r, r), dtype=np.int64)
    if keyed:
        tabs = group_tables(desc)
        width = (n + 7) // 8
        packed = b"".join(c.to_bytes(width, "little") for c in basis.cells)
        bits = np.unpackbits(
            np.frombuffer(packed, dtype=np.uint8).reshape(r, width),
            axis=1, count=n, bitorder="little",
        )
        cid = bits.argmax(axis=0)  # the cell of each element
        reps = [(c & -c).bit_length() - 1 for c in basis.cells]  # each cell's least member
        if (cid[tabs.neg] == cid).all():
            g, diffs, index = _half_differences(desc)
            reps = [index[v] for v in reps]
        else:
            g, diffs = np.arange(n), tabs.sub
        e = bits.astype(np.float64)
        # prods[t, x, i] = p(i, keyed[t], g[x]); 0/1 terms, so every sum is exact
        prods = e[keyed].take(diffs, axis=1) @ e.T
        at_rep = prods[:, reps]  # at each cell's least member
        if (prods != at_rep[:, cid[g]]).any():
            return None
        constants[keyed] = at_rep.transpose(0, 2, 1)  # p(t, i, k) = p(i, t, k)
    constants[0] = np.eye(r, dtype=np.int64)
    if big:
        constants[big] = np.array(sizes)[:, None] - constants.sum(axis=0)
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
    census's multiplier-layer pruning rule: on a Schur ring over an abelian
    group the image of every cell is a cell.  A non-cell image means the
    input was not a verified basis and is raised as such.
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
    """Symmetry in i, j and the counting identity sum_k p[i][j][k] |T_k| =
    |T_i| |T_j| (T_i x T_j counted by the cell of h + x), one int64 matmul."""
    sizes = np.array(basis.cell_sizes(), dtype=np.int64)
    if (constants != constants.transpose(1, 0, 2)).any():
        raise AssertionError("structure constants are not symmetric in i, j")
    wrong = constants @ sizes != sizes[:, None] * sizes
    if wrong.any():
        i, j = np.argwhere(wrong)[0].tolist()
        raise AssertionError(f"sum_k p[{i}][{j}][k] |T_k| != |T_{i}| |T_{j}|")
