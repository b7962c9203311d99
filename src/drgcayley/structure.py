"""Imprimitivity analysis: bipartitions, antipodal classes, quotients.

Everything here is exact and decided from the definitions, not from
parameter shortcuts.  Antipodality is the distance-{0, d} relation being an
equivalence, i.e. A = N_0 | N_d being a subgroup (closure_mask(A) == A); its
classes are the cosets of A, and the antipodal quotient is read off a
homomorphism onto G/A, via ``groups.coset_keys`` and ``groups.linear_map``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cayley import (
    CayleyGraph,
    DistancePartition,
    SymmetricSet,
    build,
    iter_bits,
    verify_translation_invariance,
)
from .groups import (
    GroupDescriptor,
    Subgroup,
    closure_mask,
    coset_keys,
    group_tables,
    linear_map,
    product_group,
)


@dataclass(frozen=True)
class VertexPartition:
    blocks: tuple[int, ...]  # disjoint vertex bitmasks covering the vertex set


def is_bipartite(graph: CayleyGraph) -> tuple[int, int] | None:
    """Two color-class masks by BFS parity, or None on an odd cycle.

    Only the component of the identity is colored.  BFS edges join equal or
    adjacent layers, so the component has an odd cycle exactly when some
    layer contains an edge.
    """
    layers = graph.layers
    for layer in layers:
        for v in iter_bits(layer):
            if graph.adjacency[v] & layer:
                return None
    return (sum(layers[0::2]), sum(layers[1::2]))  # disjoint masks


def is_antipodal(graph: CayleyGraph, partition: DistancePartition) -> bool:
    """Whether the distance-{0, d} relation is an equivalence; False if d < 2.

    Translations are graph automorphisms (verify_translation_invariance), so
    the class of v is v + A with A = N_0 | N_d.  These classes coincide or are
    disjoint exactly when A is a subgroup (a in A gives a + A = A, so A is
    closed), and A is a subgroup exactly when it is the smallest subgroup
    containing it, ``closure_mask(A)``, read off the cached lattice.
    """
    d = partition.diameter
    if d < 2:
        return False
    verify_translation_invariance(graph.group)
    anti = partition.layer_masks[0] | partition.layer_masks[d]
    return closure_mask(graph.group, anti) == anti


def antipodal_classes(
    graph: CayleyGraph, partition: DistancePartition
) -> VertexPartition | None:
    """The cosets of N_0 | N_d when ``is_antipodal``, else None; needs d >= 2."""
    if partition.diameter < 2:
        raise ValueError("antipodal classes need diameter >= 2")
    if not is_antipodal(graph, partition):
        return None
    anti = partition.layer_masks[0] | partition.layer_masks[-1]
    classes: dict[int, int] = {}
    for v, key in enumerate(coset_keys(graph.group, anti).tolist()):
        classes[key] = classes.get(key, 0) | 1 << v
    return VertexPartition(tuple(sorted(classes.values())))


@lru_cache(maxsize=None)
def _quotient_embedding(
    desc: GroupDescriptor, sub: Subgroup
) -> tuple[GroupDescriptor, tuple[int, ...]]:
    """Identify G/B with Z_t + Z_u (u | t) and map each rank to its coset.

    A homomorphism from G = Z_m + Z_q with kernel exactly B is onto a group
    of order |G:B|, hence an isomorphism from G/B.  So the search runs over
    the factorizations t*u = |G:B| with u | t, and over the images x of
    (1, 0) and y of (0, 1) whose orders divide m and q, and keeps the first
    ``linear_map`` whose zero set is B.  The invariant factors of G/B are
    unique, so exactly one factorization succeeds.
    """
    index = desc.order // sub.order
    in_b = coset_keys(desc, sub.mask) == 0  # B is the coset of 0
    for u in (u for u in range(1, index + 1) if index % (u * u) == 0):
        qdesc = product_group(index // u, u)
        order_of = group_tables(qdesc).order_of
        xs = np.flatnonzero(desc.first_modulus % order_of == 0)
        ys = np.flatnonzero(desc.second_modulus % order_of == 0)
        maps = linear_map(desc, qdesc, xs[:, None], ys)  # one map per (x, y)
        exact = np.argwhere(((maps == 0) == in_b).all(axis=-1))
        if len(exact):
            return qdesc, tuple(maps[tuple(exact[0])].tolist())
    raise AssertionError(f"no homomorphism of {desc.spec()} has kernel {sub.mask:#x}")


def quotient_by_subgroup(graph: CayleyGraph, sub: Subgroup) -> CayleyGraph:
    """Cay(G/B, S/B); block adjacency is verified against the quotient."""
    s_mask = graph.connection.mask
    if s_mask & ~sub.mask == 0:
        raise ValueError("connection set is contained in the subgroup; empty quotient set")
    qdesc, coset_of = _quotient_embedding(graph.group, sub)
    q_elems = {coset_of[s] for s in iter_bits(s_mask) if not sub.mask >> s & 1}
    q_set = SymmetricSet.from_elements(qdesc, q_elems)
    q_graph = build(qdesc, q_set)
    # blocks B_i ~ B_j (i != j) in the original graph iff reach_i, the union
    # of the rows of B_i, meets B_j; the quotient graph must join the same
    blocks = [0] * qdesc.order
    reach = [0] * qdesc.order
    for u, (i, row) in enumerate(zip(coset_of, graph.adjacency)):
        blocks[i] |= 1 << u
        reach[i] |= row
    joined = [
        sum(1 << j for j, block in enumerate(blocks) if j != i and reach_i & block)
        for i, reach_i in enumerate(reach)
    ]
    if joined != list(q_graph.adjacency):
        raise AssertionError("block adjacency disagrees with quotient graph")
    return q_graph
