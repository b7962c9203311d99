"""Imprimitivity analysis: bipartitions, antipodal classes, quotients, halves.

Everything here is exact and deliberately oracle-grade: antipodality is
decided by verifying that the distance-{0,d} relation is an equivalence,
not by parameter shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .cayley import (
    CayleyGraph,
    DistancePartition,
    PlainGraph,
    SymmetricSet,
    bfs_layers,
    build,
    iter_bits,
    verify_translation_invariance,
)
from .groups import GroupDescriptor, Subgroup, all_subgroups, group_tables, product_group


@dataclass(frozen=True)
class VertexPartition:
    blocks: tuple[int, ...]  # disjoint vertex bitmasks covering the vertex set

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(b.bit_count() for b in self.blocks)

    def block_of(self, v: int) -> int:
        for i, b in enumerate(self.blocks):
            if b >> v & 1:
                return i
        raise ValueError(f"vertex {v} not covered")


def is_bipartite(graph: CayleyGraph) -> tuple[int, int] | None:
    """Two color-class masks by BFS parity, or None on an odd cycle.

    Only the component of the identity is colored.  BFS edges join equal or
    adjacent layers, so the component has an odd cycle exactly when some
    layer contains an edge.
    """
    layers = bfs_layers(graph.adjacency)
    for layer in layers:
        for v in iter_bits(layer):
            if graph.adjacency[v] & layer:
                return None
    return (sum(layers[0::2]), sum(layers[1::2]))  # disjoint masks


def antipodal_classes(
    graph: CayleyGraph, partition: DistancePartition
) -> VertexPartition | None:
    """Classes of the distance-{0, d} relation, when it is an equivalence.

    Translations are graph automorphisms (verify_translation_invariance), so
    dist(v, u) = dist(0, u - v) and the class of v is v + A, where
    A = N_0 | N_d is read off the identity-rooted partition.  The classes
    v + A coincide or are disjoint exactly when a + A = A for every a in A,
    i.e. when A is a subgroup; the classes are then its cosets.  Requires
    diameter >= 2.
    """
    d = partition.diameter
    if d < 2:
        raise ValueError("antipodal classes need diameter >= 2")
    verify_translation_invariance(graph.group)
    add = group_tables(graph.group).add
    anti = partition.layer_masks[0] | partition.layer_masks[d]
    members = tuple(iter_bits(anti))

    def translate(v: int) -> int:
        row = add[v]
        return sum(1 << int(row[a]) for a in members)

    if any(translate(a) != anti for a in members):
        return None
    classes: list[int] = []
    covered = 0
    for v in range(graph.order):
        if not covered >> v & 1:
            coset = translate(v)
            classes.append(coset)
            covered |= coset
    return VertexPartition(tuple(sorted(classes)))


def is_antipodal(graph: CayleyGraph, partition: DistancePartition) -> bool:
    if partition.diameter < 2:
        return False
    return antipodal_classes(graph, partition) is not None


@dataclass(frozen=True)
class QuotientResult:
    graph: CayleyGraph
    coset_of: tuple[int, ...]  # original rank -> quotient rank


def _quotient_embedding(
    desc: GroupDescriptor, sub: Subgroup
) -> tuple[GroupDescriptor, tuple[int, ...]]:
    """Identify G/B with a Z_t + Z_u descriptor and map ranks to cosets.

    The quotient of a two-generated abelian group is again Z_t + Z_u; a
    maximal-order coset X and a complementary coset Y are found by brute
    force, which is exact at these orders.
    """
    add = group_tables(desc).add
    n = desc.order
    coset_rep = [-1] * n
    reps: list[int] = []
    for g in range(n):
        if coset_rep[g] >= 0:
            continue
        reps.append(g)
        for h in iter_bits(sub.mask):
            coset_rep[int(add[g, h])] = g
    rep_index = {r: i for i, r in enumerate(reps)}
    qn = len(reps)

    def qadd(i: int, j: int) -> int:
        return rep_index[coset_rep[int(add[reps[i], reps[j]])]]

    def qorder(i: int) -> int:
        t = 1
        x = i
        while x != 0:
            x = qadd(x, i)
            t += 1
        return t

    orders = [qorder(i) for i in range(qn)]
    t = max(orders)
    xi = orders.index(t)
    u = qn // t
    # powers of x
    x_pows = [0]
    cur = 0
    for _ in range(t - 1):
        cur = qadd(cur, xi)
        x_pows.append(cur)
    x_set = set(x_pows)
    yi = None
    if u == 1:
        yi = 0
    else:
        for cand in range(qn):
            if orders[cand] != u:
                continue
            # <x> and <y> must intersect trivially
            cur = 0
            ok = True
            for _ in range(u - 1):
                cur = qadd(cur, cand)
                if cur in x_set:
                    ok = False
                    break
            if ok:
                yi = cand
                break
    if yi is None:
        raise AssertionError("no complementary generator found for quotient")
    qdesc = product_group(t, u)
    label = {}
    for a in range(t):
        base = x_pows[a]
        cur = base
        for b in range(u):
            label[cur] = qdesc.rank(a, b)
            cur = qadd(cur, yi)
    if len(label) != qn:
        raise AssertionError("quotient relabeling is not a bijection")
    coset_of = tuple(label[rep_index[coset_rep[g]]] for g in range(n))
    return qdesc, coset_of


def quotient_by_subgroup(graph: CayleyGraph, sub: Subgroup) -> QuotientResult:
    """Cay(G/B, S/B); block adjacency is verified against the quotient."""
    s_mask = graph.connection.mask
    if s_mask & ~sub.mask == 0:
        raise ValueError("connection set is contained in the subgroup; empty quotient set")
    qdesc, coset_of = _quotient_embedding(graph.group, sub)
    q_elems = {coset_of[s] for s in iter_bits(s_mask) if not sub.mask >> s & 1}
    q_set = SymmetricSet.from_elements(qdesc, q_elems)
    q_graph = build(qdesc, q_set)
    # verify block adjacency: blocks B_i ~ B_j in the original graph iff
    # the quotient graph has the edge
    qn = qdesc.order
    seen_edge = [[False] * qn for _ in range(qn)]
    for u in range(graph.order):
        cu = coset_of[u]
        for v in iter_bits(graph.adjacency[u]):
            seen_edge[cu][coset_of[v]] = True
    for i in range(qn):
        for j in range(qn):
            if i == j:
                continue
            if seen_edge[i][j] != q_graph.has_edge(i, j):
                raise AssertionError("block adjacency disagrees with quotient graph")
    return QuotientResult(q_graph, coset_of)


def halved_graphs(
    graph: CayleyGraph, bipartition: tuple[int, int]
) -> tuple[PlainGraph, PlainGraph]:
    """The two components of the distance-2 graph, one per color class."""
    if bipartition is None:
        raise ValueError("graph is not bipartite")
    n = graph.order
    halves = []
    for cls in bipartition:
        verts = list(iter_bits(cls))
        index = {v: i for i, v in enumerate(verts)}
        adj = [0] * len(verts)
        for v in verts:
            reach = 0
            for w in iter_bits(graph.adjacency[v]):
                reach |= graph.adjacency[w]
            reach &= cls
            reach &= ~(1 << v)
            for w in iter_bits(reach):
                adj[index[v]] |= 1 << index[w]
        labels = tuple(graph.group.element_str(v) for v in verts)
        halves.append(PlainGraph(labels, tuple(adj)))
    return (halves[0], halves[1])


def is_equitable(
    graph: CayleyGraph, partition: VertexPartition
) -> tuple[tuple[int, ...], ...] | None:
    """Block-degree matrix b_ij when constant within blocks, else None."""
    mat: list[tuple[int, ...]] = []
    for bi in partition.blocks:
        row_ref: tuple[int, ...] | None = None
        for v in iter_bits(bi):
            row = tuple(
                (graph.adjacency[v] & bj).bit_count() for bj in partition.blocks
            )
            if row_ref is None:
                row_ref = row
            elif row != row_ref:
                return None
        assert row_ref is not None
        mat.append(row_ref)
    return tuple(mat)


@dataclass(frozen=True)
class AntipodalSpectrum:
    """Eigenvalue data of a non-bipartite antipodal diameter-3 cover.

    For valency k, covering index r, and common-neighbor counts lam/mu with
    k = mu(r-1) + lam + 1, the spectrum is k, theta1, -1, theta3 with
    theta_{1,3} = (lam-mu)/2 +- delta and delta^2 = k + ((lam-mu)/2)^2.
    """

    k: int
    r: int
    lam: int
    mu: int
    v: int
    delta: float
    theta1: float
    theta3: float
    m1: float
    m3: float
    integral: bool
    feasible: bool

    def intersection_array(self) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        return ((self.k, self.mu * (self.r - 1), 1), (1, self.mu, self.k))


def antipodal_spectrum(k: int, r: int, lam: int, mu: int) -> AntipodalSpectrum:
    """Evaluate the diameter-3 antipodal spectrum formulas exactly.

    The discriminant 4k + (lam-mu)^2 is handled in integer arithmetic so the
    integrality flag is exact; lam != mu forces integrality, and violations
    are reported infeasible rather than silently accepted.
    """
    if min(k, lam, mu) < 0 or r < 2:
        raise ValueError("parameters out of range")
    if k != mu * (r - 1) + lam + 1:
        raise ValueError(
            f"inconsistent parameters: k={k} but mu(r-1)+lam+1={mu * (r - 1) + lam + 1}"
        )
    disc = 4 * k + (lam - mu) ** 2  # (2*delta)^2
    root = isqrt(disc)
    is_square = root * root == disc
    # theta integral iff 2*delta is an integer of the same parity as lam-mu
    integral = is_square and (lam - mu + root) % 2 == 0
    delta = (root if is_square else disc**0.5) / 2.0
    theta1 = (lam - mu) / 2.0 + delta
    theta3 = (lam - mu) / 2.0 - delta
    total = (r - 1) * (k + 1)
    m1 = -theta3 / (theta1 - theta3) * total
    m3 = theta1 / (theta1 - theta3) * total
    feasible = integral or lam == mu
    return AntipodalSpectrum(
        k=k,
        r=r,
        lam=lam,
        mu=mu,
        v=r * (k + 1),
        delta=delta,
        theta1=theta1,
        theta3=theta3,
        m1=m1,
        m3=m3,
        integral=integral,
        feasible=feasible,
    )


def identity_antipodal_subgroup(
    graph: CayleyGraph, classes: VertexPartition
) -> Subgroup:
    """The antipodal class containing the identity, as a verified subgroup."""
    mask = classes.blocks[classes.block_of(0)]
    for h in all_subgroups(graph.group):
        if h.mask == mask:
            return h
    raise AssertionError("identity antipodal class is not a subgroup")
