import random

import pytest

from drgcayley import cayley as C
from drgcayley import drg as D
from drgcayley import groups as G
from drgcayley import structure as S
from drgcayley.designs import bipartite_double_check, odd_row_subsets


def graph_from(desc, mask):
    return C.build(desc, C.SymmetricSet(desc, mask))


def subgroup_with_mask(desc, mask):
    """The subgroup whose members are the bits of ``mask``; fails when there is none."""
    found = [h for h in G.all_subgroups(desc) if h.mask == mask]
    assert len(found) == 1, f"{mask:#x} is not a subgroup"
    return found[0]


def k3x3():
    d = G.pair_group(3, 1)
    h = G.subgroups_of_order(d, 3)[0]
    return d, graph_from(d, ((1 << 9) - 1) ^ h.mask)


def lattice():
    d = G.pair_group(3, 1)
    subs = G.subgroups_of_order(d, 3)
    return d, graph_from(d, (subs[0].mask | subs[1].mask) ^ 1)


def test_bipartite_detection():
    _, g = k3x3()
    assert S.is_bipartite(g) is None  # contains triangles
    d = G.pair_group(3, 2)
    complete = graph_from(d, ((1 << 27) - 1) ^ 1)
    assert S.is_bipartite(complete) is None
    # odd-order regular graphs can never be bipartite
    rng = random.Random(17)
    pairs = G.inverse_pairs(d)
    checked = 0
    while checked < 10:
        bits = rng.randrange(1 << len(pairs))
        s = C.SymmetricSet.from_pair_bits(d, bits)
        if s.mask == 0:
            continue
        g = C.build(d, s)
        if not C.is_connected(g):
            continue
        assert S.is_bipartite(g) is None
        checked += 1


def test_bipartition_of_sizes_16_16_over_z16_z2():
    odds = tuple(range(1, 16, 2))
    report = bipartite_double_check(16, odds, odds)
    bp = S.is_bipartite(report.graph)
    assert bp is not None
    assert sorted(b.bit_count() for b in bp) == [16, 16]


def test_antipodal_classes_k3x3():
    d, g = k3x3()
    part = C.distance_partition(g)
    classes = S.antipodal_classes(g, part)
    assert classes is not None and [b.bit_count() for b in classes.blocks] == [3, 3, 3]
    identity_class = next(b for b in classes.blocks if b & 1)
    assert identity_class == part.layer_masks[0] | part.layer_masks[-1]
    assert subgroup_with_mask(d, identity_class).order == 3


def test_antipodal_classes_lattice_absent():
    d, g = lattice()
    part = C.distance_partition(g)
    assert S.antipodal_classes(g, part) is None
    assert not S.is_antipodal(g, part)


def test_antipodal_diameter_precondition():
    d = G.pair_group(3, 1)
    complete = graph_from(d, ((1 << 9) - 1) ^ 1)
    part = C.distance_partition(complete)
    with pytest.raises(ValueError):
        S.antipodal_classes(complete, part)


def test_quotient_k3x3_by_part_is_k3():
    d, g = k3x3()
    part = C.distance_partition(g)
    assert S.is_antipodal(g, part)
    sub = subgroup_with_mask(d, part.layer_masks[0] | part.layer_masks[-1])
    q = S.quotient_by_subgroup(g, sub)
    assert q.order == 3
    arr = D.check_drg(q)
    assert D.recognize(q, arr).kind == D.FamilyTag.COMPLETE


def test_quotient_k9_by_any_order3():
    d = G.pair_group(3, 1)
    complete = graph_from(d, ((1 << 9) - 1) ^ 1)
    for sub in G.subgroups_of_order(d, 3):
        q = S.quotient_by_subgroup(complete, sub)
        arr = D.check_drg(q)
        assert arr is not None and arr.diameter == 1 and q.order == 3


def test_quotient_k3x9_over_z9z3():
    d = G.pair_group(3, 2)
    h9 = G.subgroups_of_order(d, 9)[0]
    g = graph_from(d, ((1 << 27) - 1) ^ h9.mask)
    q = S.quotient_by_subgroup(g, h9)
    assert q.order == 3
    assert D.check_drg(q).diameter == 1


def test_quotient_refuses_a_graph_that_disagrees_with_the_blocks(monkeypatch):
    """The built Cay(G/B, S/B) is compared, row by row, with the blocks that
    the original graph joins: here one quotient edge is dropped."""
    d, g = k3x3()
    part = C.distance_partition(g)
    sub = subgroup_with_mask(d, part.layer_masks[0] | part.layer_masks[-1])
    build = S.build

    def without_an_edge(desc, sset):
        graph = build(desc, sset)
        adjacency = (graph.adjacency[0] & ~2, graph.adjacency[1] & ~1) + graph.adjacency[2:]
        return C.CayleyGraph(desc, sset, adjacency)

    monkeypatch.setattr(S, "build", without_an_edge)
    with pytest.raises(AssertionError, match="block adjacency"):
        S.quotient_by_subgroup(g, sub)


def test_quotient_refuses_rows_that_join_blocks_the_quotient_does_not():
    """Cay(Z_9 + Z_3, {+-(1,0)}) modulo B = <(0,1)> is a 9-cycle.  Each row in
    turn gets one extra bit, u -> u + (4,0), which joins two blocks four steps
    apart on the cycle; the blocks the rows join then disagree with it."""
    d = G.pair_group(3, 2)
    g = C.build(d, C.SymmetricSet.parse(d, "(1,0),(8,0)"))
    sub = subgroup_with_mask(d, C.SymmetricSet.parse(d, "(0,1),(0,2)").mask | 1)
    q = S.quotient_by_subgroup(g, sub)
    assert (q.order, q.valency, D.check_drg(q).diameter) == (9, 2, 4)
    add = G.group_tables(d).add
    for u in range(d.order):
        adjacency = list(g.adjacency)
        adjacency[u] |= 1 << int(add[u, d.rank(4, 0)])
        tampered = C.CayleyGraph(d, g.connection, tuple(adjacency))
        with pytest.raises(AssertionError, match="block adjacency disagrees with quotient graph"):
            S.quotient_by_subgroup(tampered, sub)

def test_quotient_rejects_contained_connection_set():
    d = G.pair_group(3, 2)
    h9 = G.subgroups_of_order(d, 9)[0]
    g = graph_from(d, h9.mask ^ 1)
    with pytest.raises(ValueError):
        S.quotient_by_subgroup(g, h9)


def test_diameter3_antipodal_cover_machinery():
    """Crown graph over Z_6 + Z_2: a 2-fold antipodal cover of K_6.

    The identity antipodal class must be a subgroup and the quotient a
    complete graph of half... of floor(3/2) = 1 diameter.
    """
    d = G.product_group(6, 2)
    crown_set = [d.rank(a, 1) for a in range(1, 6)]
    g = C.build(d, C.SymmetricSet.from_elements(d, crown_set))
    part = C.distance_partition(g)
    arr = D.check_drg(g, part)
    assert arr is not None and part.diameter == 3
    classes = S.antipodal_classes(g, part)
    assert classes is not None and {b.bit_count() for b in classes.blocks} == {2}
    sub = subgroup_with_mask(d, next(b for b in classes.blocks if b & 1))
    assert sub.members() == (0, d.rank(0, 1))
    q = S.quotient_by_subgroup(g, sub)
    q_arr = D.check_drg(q)
    assert q_arr is not None and q_arr.diameter == 1 and q.order == 6
