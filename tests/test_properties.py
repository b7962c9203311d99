"""Property tests: the BFS-layer routines against an all-vertex brute force.

Connection sets are random pair-subsets, mixed with subgroup complements
and unions of subgroups so that distance-regular, antipodal and (over the
even-order group) bipartite graphs are drawn often enough to matter.  The
oracle below computes the full distance matrix with one independent BFS
per vertex and decides every property straight from its definition.
"""

from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drgcayley import cayley as C
from drgcayley import drg as D
from drgcayley import groups as G
from drgcayley import kernels as K
from drgcayley import structure as S

SPECS = ("3^2x3", "5^1x5", "3^3x3", "6x2")
SCAN_SPECS = tuple(s for s in SPECS if G.parse_group(s).order <= 62)

PROPS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def connection_sets(draw, specs=SPECS):
    desc = G.parse_group(draw(st.sampled_from(specs)))
    pairs = G.inverse_pairs(desc)
    kind = draw(st.sampled_from(("pairs", "complement", "union")))
    if kind == "pairs":
        bits = draw(st.integers(0, (1 << len(pairs)) - 1))
        return desc, C.SymmetricSet.from_pair_bits(desc, bits).mask
    subs = G.all_subgroups(desc)
    if kind == "complement":
        h = draw(st.sampled_from(subs))
        return desc, ((1 << desc.order) - 1) ^ h.mask
    chosen = draw(st.lists(st.sampled_from(subs), min_size=1, max_size=4))
    mask = 0
    for h in chosen:
        mask |= h.mask
    return desc, mask & ~1


def brute_distances(desc, mask):
    """dist[u][v] by one plain BFS per vertex; None when unreachable."""
    n = desc.order
    sub = G.group_tables(desc).sub
    nbrs = [[v for v in range(n) if mask >> int(sub[v, u]) & 1] for u in range(n)]
    dist = []
    for root in range(n):
        row = [None] * n
        row[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in nbrs[u]:
                if row[v] is None:
                    row[v] = row[u] + 1
                    queue.append(v)
        dist.append(row)
    return dist, nbrs


def brute_is_drg(dist, nbrs):
    """Distance-regular by definition: c_i, a_i, b_i depend on i alone."""
    n = len(dist)
    seen = {}
    for u in range(n):
        for v in range(n):
            i = dist[u][v]
            triple = [0, 0, 0]
            for w in nbrs[v]:
                triple[dist[u][w] - i + 1] += 1
            if seen.setdefault(i, triple) != triple:
                return False
    return True


@PROPS
@given(connection_sets())
def test_connectivity_and_distance_partition(case):
    desc, mask = case
    dist, _ = brute_distances(desc, mask)
    graph = C.build(desc, C.SymmetricSet(desc, mask))
    connected = all(d is not None for d in dist[0])
    assert C.is_connected(graph) == connected
    if not connected:
        with pytest.raises(C.DisconnectedGraphError):
            C.distance_partition(graph)
        return
    part = C.distance_partition(graph)
    assert part.diameter == max(max(row) for row in dist)
    for j, layer in enumerate(part.layer_masks):
        assert layer == sum(1 << v for v in range(desc.order) if dist[0][v] == j)


@PROPS
@given(connection_sets())
def test_is_bipartite(case):
    desc, mask = case
    dist, nbrs = brute_distances(desc, mask)
    graph = C.build(desc, C.SymmetricSet(desc, mask))
    comp = [v for v in range(desc.order) if dist[0][v] is not None]
    proper = all(dist[0][u] % 2 != dist[0][v] % 2 for u in comp for v in nbrs[u])
    want = None
    if proper:
        want = tuple(
            sum(1 << v for v in comp if dist[0][v] % 2 == parity) for parity in (0, 1)
        )
    assert S.is_bipartite(graph) == want


@PROPS
@given(connection_sets())
def test_antipodal_classes(case):
    desc, mask = case
    dist, _ = brute_distances(desc, mask)
    if any(d is None for d in dist[0]):
        return
    graph = C.build(desc, C.SymmetricSet(desc, mask))
    part = C.distance_partition(graph)
    d = part.diameter
    if d < 2:
        with pytest.raises(ValueError):
            S.antipodal_classes(graph, part)
        return
    n = desc.order
    cls = [sum(1 << v for v in range(n) if dist[u][v] in (0, d)) for u in range(n)]
    equivalence = all(cls[v] == cls[u] for u in range(n) for v in range(n) if cls[u] >> v & 1)
    got = S.antipodal_classes(graph, part)
    if equivalence:
        assert got == S.VertexPartition(tuple(sorted(set(cls))))
    else:
        assert got is None


@PROPS
@given(connection_sets(SCAN_SPECS))
def test_is_drg_pairmask_matches_check_drg(case):
    desc, mask = case
    pair_masks = [G.mask_of(cell) for cell in G.inverse_pairs(desc)]
    bits = sum(1 << j for j, pm in enumerate(pair_masks) if pm & mask)
    dist, nbrs = brute_distances(desc, mask)
    graph = C.build(desc, C.SymmetricSet(desc, mask))
    connected = mask != 0 and C.is_connected(graph)
    verdict = connected and D.check_drg(graph) is not None
    assert K.is_drg_pairmask(desc, bits) == verdict
    if connected:
        assert verdict == brute_is_drg(dist, nbrs)
