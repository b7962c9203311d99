import itertools
import random
from dataclasses import astuple

import pytest

from drgcayley import cayley as C
from drgcayley import drg as D
from drgcayley import groups as G


def all_pairs_drg_oracle(graph):
    """The definition itself: constancy of (c, a, b) over ALL ordered pairs.

    Independent of the identity-rooted shortcut in check_drg; quadratic BFS,
    fine at oracle scale.
    """
    n = graph.order
    dist = []
    for v in range(n):
        dd = {v: 0}
        queue = [v]
        while queue:
            nxt = []
            for x in queue:
                for w in C.iter_bits(graph.adjacency[x]):
                    if w not in dd:
                        dd[w] = dd[x] + 1
                        nxt.append(w)
            queue = nxt
        if len(dd) != n:
            return None
        dist.append([dd[w] for w in range(n)])
    d = max(max(row) for row in dist)
    seen = {}
    for u, v in itertools.product(range(n), repeat=2):
        i = dist[u][v]
        c = a = b = 0
        for w in C.iter_bits(graph.adjacency[v]):
            if dist[u][w] == i - 1:
                c += 1
            elif dist[u][w] == i:
                a += 1
            else:
                b += 1
        if i in seen and seen[i] != (c, a, b):
            return None
        seen[i] = (c, a, b)
    bs = tuple(seen[i][2] for i in range(d))
    cs = tuple(seen[i][0] for i in range(1, d + 1))
    return bs, cs


def test_check_drg_agrees_with_all_pairs_definition_exhaustively():
    d = G.pair_group(3, 1)
    for bits in range(1 << 4):
        s = C.SymmetricSet.from_pair_bits(d, bits)
        if s.mask == 0:
            continue
        graph = C.build(d, s)
        if not C.is_connected(graph):
            continue
        got = D.check_drg(graph)
        want = all_pairs_drg_oracle(graph)
        if want is None:
            assert got is None
        else:
            assert got is not None and (got.b, got.c) == want


def test_check_drg_agrees_on_random_z9z3_sets():
    d = G.pair_group(3, 2)
    rng = random.Random(99)
    tried = 0
    while tried < 120:
        bits = rng.randrange(1 << 13)
        s = C.SymmetricSet.from_pair_bits(d, bits)
        if s.mask == 0:
            continue
        graph = C.build(d, s)
        if not C.is_connected(graph):
            continue
        tried += 1
        got = D.check_drg(graph)
        want = all_pairs_drg_oracle(graph)
        assert (got is None) == (want is None)
        if got is not None:
            assert (got.b, got.c) == want


def complete_graph(p, s):
    d = G.pair_group(p, s)
    return d, C.build(d, C.SymmetricSet(d, ((1 << d.order) - 1) ^ 1))


def test_complete_graph_array():
    _, g = complete_graph(3, 1)
    arr = D.check_drg(g)
    assert str(arr) == "{8;1}"
    assert arr.diameter == 1 and D.srg_params(arr) is None
    assert D.recognize(g, arr).kind == D.FamilyTag.COMPLETE


def test_multipartite_array_and_tag():
    d = G.pair_group(3, 1)
    h = G.subgroups_of_order(d, 3)[0]
    g = C.build(d, C.SymmetricSet(d, ((1 << 9) - 1) ^ h.mask))
    arr = D.check_drg(g)
    assert arr.b == (6, 2) and arr.c == (1, 6)
    tag = D.recognize(g, arr)
    assert str(tag) == "CompleteMultipartite(3,3)"


def test_lattice_srg_and_tag():
    d = G.pair_group(3, 1)
    subs = G.subgroups_of_order(d, 3)
    g = C.build(d, C.SymmetricSet(d, (subs[0].mask | subs[1].mask) ^ 1))
    arr = D.check_drg(g)
    params = D.srg_params(arr)
    n, k, lam, mu = astuple(params)
    assert (n, k, lam, mu) == (9, 4, 1, 2)
    assert k * (k - lam - 1) == (n - k - 1) * mu  # the srg counting identity
    assert str(D.recognize(g, arr)) == "TDLineGraph(2,3)"


def test_td35_srg_params():
    d = G.pair_group(5, 1)
    subs = G.subgroups_of_order(d, 5)
    mask = subs[0].mask | subs[1].mask | subs[2].mask
    g = C.build(d, C.SymmetricSet(d, mask ^ 1))
    arr = D.check_drg(g)
    assert astuple(D.srg_params(arr)) == (25, 12, 5, 6)
    assert str(D.recognize(g, arr)) == "TDLineGraph(3,5)"


def test_mixed_set_is_not_drg():
    d = G.pair_group(5, 1)
    subs = G.subgroups_of_order(d, 5)
    extra = next(m for m in subs[1].members() if m != 0)
    a, b = d.unrank(extra)
    mask = (subs[0].mask ^ 1) | (1 << extra) | (1 << d.rank(-a, -b))
    g = C.build(d, C.SymmetricSet(d, mask))
    assert C.is_connected(g)
    assert D.check_drg(g) is None


def test_array_identities_on_verified_graphs():
    d = G.pair_group(5, 1)
    subs = G.subgroups_of_order(d, 5)
    for r in (2, 3, 4):
        mask = 0
        for h in subs[:r]:
            mask |= h.mask
        g = C.build(d, C.SymmetricSet(d, mask ^ 1))
        arr = D.check_drg(g)
        arr.validate()
        assert sum(arr.k) == d.order
        assert arr.is_monotone()
        dd = arr.diameter
        for i in range(dd):
            assert arr.k[i] * arr.b[i] == arr.k[i + 1] * arr.c[i]


def test_intersection_array_validation_errors():
    with pytest.raises(ValueError):
        D.IntersectionArray(b=(4, 2), c=(2, 2), a=(0, 1, 2), k=(1, 4, 4)).validate()


def test_cycle_and_cocktail_and_paley_tags():
    z6 = G.cyclic_group(6)
    c6 = C.build(z6, C.SymmetricSet.from_elements(z6, [1, 5]))
    assert str(D.recognize(c6, D.check_drg(c6))) == "Cycle(6)"

    z10 = G.cyclic_group(10)
    crown = C.build(z10, C.SymmetricSet.from_elements(z10, [1, 3, 7, 9]))
    arr = D.check_drg(crown)
    assert str(D.recognize(crown, arr)) == "CocktailComplement(5)"

    z13 = G.cyclic_group(13)
    paley = C.build(
        z13, C.SymmetricSet.from_elements(z13, {pow(x, 2, 13) for x in range(1, 13)})
    )
    arr = D.check_drg(paley)
    assert str(D.recognize(paley, arr)) == "Paley(13)"


def test_paley_and_td_tuples_disjoint_over_prime_power_squares():
    """The two parameter families cannot collide on the census orders."""
    for v in (3, 5, 7, 11, 13):
        n = v * v
        for r in range(2, v + 1):
            params = D.SrgParams(n, r * (v - 1), v + r * r - 3 * r, r * r - r)
            assert not D._paley_match(params)


def test_recognize_other_for_unmatched():
    # Petersen-like parameters cannot arise here, but a connected non-family
    # DRG over a cyclic group of non-prime order must fall through to Other
    # only when nothing matches; C_5 is a Paley graph and a cycle; k=2 wins
    # after multipartite, so the cycle tag fires.
    z5 = G.cyclic_group(5)
    c5 = C.build(z5, C.SymmetricSet.from_elements(z5, [1, 4]))
    arr = D.check_drg(c5)
    tag = D.recognize(c5, arr)
    assert tag.kind == D.FamilyTag.CYCLE


# -- the negation shortcut and the early-stopping BFS against plain references --


def plain_layers(graph):
    """Layer masks from the identity by a queue BFS that runs until the queue empties."""
    dist = {0: 0}
    queue = [0]
    while queue:
        nxt = []
        for v in queue:
            for w in C.iter_bits(graph.adjacency[v]):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        queue = nxt
    layers = [0] * (max(dist.values()) + 1)
    for v, dv in dist.items():
        layers[dv] |= 1 << v
    return tuple(layers)


def full_vertex_array(graph):
    """(b, c, a, k) with (c_i, a_i, b_i) read at every vertex of every layer, or None."""
    layers = plain_layers(graph)
    d = len(layers) - 1
    b, c, a = [], [], []
    for i, layer in enumerate(layers):
        prev = layers[i - 1] if i else 0
        nxt = layers[i + 1] if i < d else 0
        triples = {
            tuple((graph.adjacency[v] & m).bit_count() for m in (prev, layer, nxt))
            for v in C.iter_bits(layer)
        }
        if len(triples) != 1:
            return None
        (ci, ai, bi), = triples
        c += [ci] if i else []
        a.append(ai)
        b += [bi] if i < d else []
    return tuple(b), tuple(c), tuple(a), tuple(m.bit_count() for m in layers)


def assert_matches_references(d, mask):
    """The library's layers and check_drg equal the plain references.

    Returns the diameter, or None for a disconnected graph."""
    graph = C.build(d, C.SymmetricSet(d, mask))
    layers = plain_layers(graph)
    assert graph.layers == layers
    if sum(layers) != (1 << d.order) - 1:
        assert not C.is_connected(graph)
        return None
    got, want = D.check_drg(graph), full_vertex_array(graph)
    assert (got is None) == (want is None)
    if got is not None:
        assert (got.b, got.c, got.a, got.k) == want
    return len(layers) - 1


@pytest.mark.parametrize("spec,diameters", [
    ("3^1x3", {None, 1, 2}),
    ("3^2x3", {None, 1, 2, 3, 4, 5}),
])
def test_shortcuts_match_the_references_on_every_set(spec, diameters):
    d = G.parse_group(spec)
    seen = {
        assert_matches_references(d, C.SymmetricSet.from_pair_bits(d, bits).mask)
        for bits in range(1, 1 << len(G.inverse_pairs(d)))
    }
    assert seen == diameters


@pytest.mark.parametrize("spec,diameters", [
    ("5^2x5", {None, 1, 2, 3, 4, 5, 6, 12, 14}),
    ("11^1x11", {None, 1, 2, 3, 4, 5, 8, 10}),
])
def test_shortcuts_match_the_references_on_seeded_sets(spec, diameters):
    """Random sets of 1 to P pairs (sparse ones reach the large diameters),
    and the family members: G minus each proper subgroup, and unions of
    subgroups minus the identity."""
    d = G.parse_group(spec)
    P = len(G.inverse_pairs(d))
    full = (1 << d.order) - 1
    subs = G.all_subgroups(d)
    rng = random.Random(16)
    masks = [full ^ h.mask for h in subs[:-1]]
    for size in (1, 2, 3, 4, 6, 10, P // 2, P):
        for _ in range(6):
            bits = sum(1 << j for j in rng.sample(range(P), size))
            masks.append(C.SymmetricSet.from_pair_bits(d, bits).mask)
    for _ in range(12):
        union = 0
        for h in rng.sample(subs[1:], rng.randint(1, 4)):
            union |= h.mask
        masks.append(union ^ 1)
    assert {assert_matches_references(d, mask) for mask in masks} == diameters
