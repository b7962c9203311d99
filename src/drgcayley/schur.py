"""Group-algebra layer: distance modules, Schur-ring checks, multipliers.

Cell partitions are verified as Schur rings by testing that every product of
two cell sums is constant on every cell; over an abelian group that implies
inverse closure (see ``is_schur_ring``, which derives two rows of products by
counting and, for negation-closed cells, walks half the group).  The
products of each pair of keyed cells are counted exactly, a Python-int
popcount per group element against translates of one cell's negation, and
the check stops at the first count that differs from its cell's.  With at
most 3 cells, as in the distance module of every distance-regular Cayley
graph over Z_{p^s} + Z_p, one such column gives every constant.  The
constants are returned as 64-bit integers.
``power_map`` checks the lemma the census's multiplier layers prune by.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .cayley import (
    CayleyGraph,
    DistancePartition,
    _doubled,
    _negated,
    _negation_half,
    _windows,
    iter_bits,
    mask_of,
)
from .groups import GroupDescriptor, closure_mask


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


def _column(
    desc: GroupDescriptor, cells: tuple[int, ...], target: int, doubled: list[int], closed: bool
) -> list[int] | None:
    """p(i, j, g) = |T_i & (g - T_j)| at each cell's least member, T_i the set
    ``target`` holds and ``doubled`` the doubled words of -T_j, or None at the
    first g where it differs from that value; ``closed`` walks only the g with
    g <= -g."""
    windows = _windows(desc)
    half = _negation_half(desc) if closed else -1
    column = []
    for c in cells:
        members = iter_bits(c & half)
        b0, shift = windows[next(members)]
        first = (doubled[b0] >> shift & target).bit_count()
        for g in members:
            b0, shift = windows[g]
            if (doubled[b0] >> shift & target).bit_count() != first:
                return None
        column.append(first)
    return column


def is_schur_ring(basis: CellPartition) -> np.ndarray | None:
    """Structure constants p[i][j][k] when the partition spans a Schur ring.

    The coefficient p(i, j, g) at g of T_i T_j counts the h in T_i with
    g - h in T_j.  The ring closes when each product is constant on each
    cell, i.e. equals its value at the cell's least member.  Returns None
    when it does not.

    Two rows of products need no counting.  Row 0 is p(0, j, g) = [g in T_j].
    For the largest non-identity cell T_L, sum_i p(i, j, g) = |T_j| at every
    g (each h in G is in one cell), so p(L, j, g) = |T_j| - sum_{i != L}
    p(i, j, g).  Both rows are constant on the cells when the others are, so
    only the products of two keyed cells, those other than {0} and T_L, are
    counted.  Since p(i, j, g) = p(j, i, g) (h -> g - h), each pair i <= j
    of keyed cells is counted once and fills p(i, j, .) and p(j, i, .); then
    p(i, 0, k) = [k = i] and p(i, L, .) follows from the sum identity.

    Each pair is counted exactly, one g at a time, by ``_column``:
    p(i, j, g) = |T_i & (g - T_j)|, the popcount of T_i and the translate of
    -T_j by g, a window of ``cayley._doubled``'s words, formed once per
    keyed cell.  g walks each cell's members, and the walk returns None at
    the first count that differs from the count at its cell's least member.
    With at most 3 cells there is one keyed cell and one column, which
    covers every distance module of a distance-regular Cayley graph over
    Z_{p^s} + Z_p: each is complete, complete multipartite or a TD(r, p)
    line graph, of diameter at most 2.

    When every keyed cell is negation-closed, only the g with g <= -g are
    walked: h -> -h maps T_i onto itself, so p(i, j, -g) counts the h in T_i
    with g - h in -T_j = T_j, which is p(i, j, g); and g, -g share a cell,
    whose least member v has v <= -v.  Closure is tested on the keyed cells
    alone: {0} is closed, and T_L is when the others are, as negation
    permutes G.  Otherwise every g of G is walked.

    Over an abelian group product closure implies inverse closure.  The
    Fourier transform takes the span of the cell sums to a unital algebra of
    functions on the characters, spanned by the indicators of a partition of
    them, so closed under conjugation, the transform of T -> T^(-1).  So each
    -T_i is a union of cells; for each such T_j, -T_j lies in T_i, hence
    equals it, and -T_i = T_j.
    """
    desc = basis.group
    cells = basis.cells
    r = basis.cell_count
    sizes = basis.cell_sizes()
    big = sizes.index(max(sizes[1:]), 1) if r > 1 else 0  # 0: the trivial group
    keyed = [i for i in range(1, r) if i != big]
    negated = [_negated(desc, cells[i]) for i in keyed]
    closed = negated == [cells[i] for i in keyed]
    sizes = np.array(sizes)
    constants = np.zeros((r, r, r), dtype=np.int64)
    constants[0].flat[:: r + 1] = 1  # p(0, j, k) = [j = k]
    for v, j in enumerate(keyed):
        doubled = _doubled(desc, negated[v])
        for i in keyed[: v + 1]:
            column = _column(desc, cells, cells[i], doubled, closed)
            if column is None:
                return None
            constants[i, j] = constants[j, i] = column
    for i in keyed:
        constants[i, 0, i] = 1  # p(i, 0, k) = [k = i]
        constants[i, big] = sizes[i] - constants[i].sum(axis=0)
    if big:
        constants[big] = sizes[:, None] - constants.sum(axis=0)
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
    |T_i| |T_j| (T_i x T_j counted by the cell of h + x), in int64."""
    sizes = np.array(basis.cell_sizes(), dtype=np.int64)
    if (constants != constants.transpose(1, 0, 2)).any():
        raise AssertionError("structure constants are not symmetric in i, j")
    wrong = constants @ sizes != sizes[:, None] * sizes
    if wrong.any():
        i, j = np.argwhere(wrong)[0].tolist()
        raise AssertionError(f"sum_k p[{i}][{j}][k] |T_k| != |T_{i}| |T_{j}|")
