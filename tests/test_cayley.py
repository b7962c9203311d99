import random

import pytest

from drgcayley import cayley as C
from drgcayley import fourier as F
from drgcayley import groups as G
from drgcayley import structure as S


def lattice_set(p=3):
    d = G.pair_group(p, 1)
    subs = G.subgroups_of_order(d, p)
    return d, C.SymmetricSet(d, (subs[0].mask | subs[1].mask) ^ 1)


def dict_bfs(adjacency, start):
    """Independent BFS over neighbor lists, no bitmasks."""
    n = len(adjacency)
    neigh = {v: [w for w in range(n) if adjacency[v] >> w & 1] for v in range(n)}
    dist = {start: 0}
    queue = [start]
    while queue:
        nxt = []
        for v in queue:
            for w in neigh[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        queue = nxt
    return dist


def test_symmetric_set_validation():
    d = G.pair_group(3, 1)
    with pytest.raises(ValueError):
        C.SymmetricSet(d, 1)  # identity in the set
    with pytest.raises(ValueError, match=r"^set is not negation-closed: contains 3 but not 6$"):
        C.SymmetricSet(d, 1 << d.rank(1, 0))  # (1, 0) without (2, 0)
    empty = C.SymmetricSet(d, 0)
    assert empty.size == 0


def test_build_complete_graph():
    d = G.pair_group(3, 1)
    g = C.build(d, C.SymmetricSet.from_elements(d, range(1, 9)))
    assert g.valency == 8
    assert all(g.adjacency[v] == ((1 << 9) - 1) ^ (1 << v) for v in range(9))


def test_subgroup_set_gives_disjoint_triangles():
    d = G.pair_group(3, 1)
    h = G.subgroups_of_order(d, 3)[0]
    g = C.build(d, C.SymmetricSet(d, h.mask ^ 1))
    assert not C.is_connected(g)
    # each component is a triangle: 2-regular, closed under the subgroup
    for v in range(9):
        assert g.adjacency[v].bit_count() == 2


def test_two_subgroups_generate_and_connect():
    d, s = lattice_set()
    g = C.build(d, s)
    assert C.is_connected(g)


def test_union_of_two_subgroups_in_z5z5():
    d = G.pair_group(5, 1)
    subs = G.subgroups_of_order(d, 5)
    s = C.SymmetricSet(d, (subs[0].mask | subs[1].mask) ^ 1)
    g = C.build(d, s)
    assert g.valency == 8 and g.order == 25 and C.is_connected(g)


def test_neighborhood_translation_law():
    """N((i,j)) must be the union of the translated rows (i+R_t, j+t)."""
    d, s = lattice_set(5)
    g = C.build(d, s)
    rows = [set(row.nonzero()[0].tolist()) for row in F.row_indicators(d, s.mask)]
    rng = random.Random(11)
    m, q = d.first_modulus, d.second_modulus
    for _ in range(10):
        v = rng.randrange(d.order)
        i, j = d.unrank(v)
        expected = set()
        for t in range(q):
            for u in rows[t]:
                expected.add(d.rank(i + u, j + t))
        actual = set(C.iter_bits(g.adjacency[v]))
        assert actual == expected


@pytest.mark.parametrize(
    "set_builder,sizes",
    [
        (lambda d, subs: C.SymmetricSet.from_elements(d, range(1, 9)), (1, 8)),
        (lambda d, subs: C.SymmetricSet(d, (subs[0].mask | subs[1].mask) ^ 1), (1, 4, 4)),
        (lambda d, subs: C.SymmetricSet(d, ((1 << 9) - 1) ^ subs[0].mask), (1, 6, 2)),
    ],
)
def test_distance_partition_layer_sizes(set_builder, sizes):
    d = G.pair_group(3, 1)
    subs = G.subgroups_of_order(d, 3)
    g = C.build(d, set_builder(d, subs))
    part = C.distance_partition(g)
    assert part.layer_sizes() == sizes
    assert part.diameter == len(sizes) - 1


def test_distance_partition_raises_on_disconnected():
    d = G.pair_group(3, 1)
    h = G.subgroups_of_order(d, 3)[0]
    g = C.build(d, C.SymmetricSet(d, h.mask ^ 1))
    with pytest.raises(C.DisconnectedGraphError):
        C.distance_partition(g)


def test_distance_partition_matches_plain_bfs():
    d, s = lattice_set(5)
    g = C.build(d, s)
    part = C.distance_partition(g)
    dist = dict_bfs(g.adjacency, 0)
    for j, mask in enumerate(part.layer_masks):
        assert list(G.iter_bits(mask)) == sorted(v for v in dist if dist[v] == j)
    assert sum(part.layer_sizes()) == len(dist) == d.order


def test_one_bfs_per_graph():
    """is_bipartite, is_connected and distance_partition share g.layers."""
    d, s = lattice_set(5)
    g = C.build(d, s)
    assert "layers" not in vars(g)
    S.is_bipartite(g)
    layers = vars(g)["layers"]  # cached by the first reader
    assert C.is_connected(g)
    assert C.distance_partition(g).layer_masks is layers
    assert g.layers is layers
    fresh = C.build(d, s)
    assert C.is_connected(fresh)
    assert vars(fresh)["layers"] == layers

    # a disconnected set: the layers cover the identity's component only
    h = G.subgroups_of_order(d, 5)[0]
    disc = C.build(d, C.SymmetricSet(d, h.mask ^ 1))
    assert sum(disc.layers) == h.mask
    assert not C.is_connected(disc)
    with pytest.raises(C.DisconnectedGraphError):
        C.distance_partition(disc)

    # the cache is not a field: equality and hash ignore it
    other = C.build(d, s)
    assert "layers" not in vars(other)
    assert fresh == other and hash(fresh) == hash(other)


def _dense_sets(d, seed):
    """The complete graph, every complete multipartite graph (G minus a
    proper subgroup H, |H| >= 2) and six seeded sets with at least half the
    inverse pairs, so valency k >= (n - 1)/2."""
    n = d.order
    full = (1 << n) - 1
    yield full ^ 1
    for m in range(2, n):
        if n % m == 0:
            yield from (full ^ h.mask for h in G.subgroups_of_order(d, m))
    pairs = len(G.inverse_pairs(d))
    rng = random.Random(seed)
    for _ in range(6):
        chosen = rng.sample(range(pairs), rng.randint((pairs + 1) // 2, pairs))
        yield C.SymmetricSet.from_pair_bits(d, sum(1 << j for j in chosen)).mask


class _CountedRows:
    """An adjacency sequence that counts the rows read from it."""

    def __init__(self, rows):
        self.rows = rows
        self.reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return self.rows[v]


DENSE_GROUPS = ["3^3x3", "11^1x11", "5^2x5"]


@pytest.mark.parametrize("spec", DENSE_GROUPS)
def test_layers_of_dense_sets_match_plain_bfs_and_stop_early(spec):
    """The early stop in a frontier loses no vertex of any layer, and the
    last frontier is read only up to the first vertex whose neighbors
    complete the group: one row for the complete graph, fewer rows than
    that frontier holds for every diameter-2 dense set."""
    d = G.parse_group(spec)
    full = (1 << d.order) - 1
    for i, mask in enumerate(_dense_sets(d, 32)):
        plain = C.build(d, C.SymmetricSet(d, mask))
        rows = _CountedRows(plain.adjacency)
        layers = C.CayleyGraph(d, plain.connection, rows).layers
        dist = dict_bfs(plain.adjacency, 0)
        want = [0] * (max(dist.values()) + 1)
        for v, j in dist.items():
            want[j] |= 1 << v
        assert layers == tuple(want), (spec, i)
        *inner, last, _ = layers
        reached = sum(inner) | last
        for stop, v in enumerate(G.iter_bits(last), 1):
            reached |= plain.adjacency[v]
            if reached == full:
                break
        assert reached == full
        assert rows.reads == sum(m.bit_count() for m in inner) + stop
        if len(layers) > 2:
            assert rows.reads < sum(m.bit_count() for m in layers[:-1])


def test_translation_invariant_distance_profile():
    d, s = lattice_set(5)
    g = C.build(d, s)
    base = sorted(dict_bfs(g.adjacency, 0).values())
    rng = random.Random(3)
    for _ in range(5):
        v = rng.randrange(d.order)
        assert sorted(dict_bfs(g.adjacency, v).values()) == base


def test_row_decomposition_round_trip():
    """Row j of S, {u : (u, j) in S}, rebuilds S, and S = -S makes row j the
    negation of row -j."""
    d = G.pair_group(3, 2)
    m, q = d.first_modulus, d.second_modulus
    rng = random.Random(23)
    pairs = G.inverse_pairs(d)
    for _ in range(20):
        bits = rng.randrange(1 << len(pairs))
        s = C.SymmetricSet.from_pair_bits(d, bits)
        indicators = F.row_indicators(d, s.mask)
        assert indicators.shape == (q, m) and set(indicators.ravel().tolist()) <= {0, 1}
        rows = [set(row.nonzero()[0].tolist()) for row in indicators]
        elems = [d.rank(u, j) for j, row in enumerate(rows) for u in row]
        assert C.SymmetricSet.from_elements(d, elems) == s
        for j in range(q):
            assert {(-u) % m for u in rows[j]} == rows[-j % q]


def test_edge_list_format():
    d = G.cyclic_group(3)
    g = C.build(d, C.SymmetricSet.from_elements(d, [1, 2]))
    assert C.edge_list(g.adjacency) == "0 1\n0 2\n1 2\n"


def decode_graph6(text):
    if text.startswith("~"):
        n = ((ord(text[1]) - 63) << 12) | ((ord(text[2]) - 63) << 6) | (ord(text[3]) - 63)
        body = text[4:]
    else:
        n = ord(text[0]) - 63
        body = text[1:]
    bits = []
    for ch in body:
        v = ord(ch) - 63
        bits.extend((v >> s) & 1 for s in range(5, -1, -1))
    adj = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            i += 1
    return adj


def test_graph6_known_value_and_round_trip():
    d = G.cyclic_group(3)
    k3 = C.build(d, C.SymmetricSet.from_elements(d, [1, 2]))
    assert C.to_graph6(k3.adjacency) == "Bw"
    d5, s5 = lattice_set(5)
    g = C.build(d5, s5)
    assert decode_graph6(C.to_graph6(g.adjacency)) == list(g.adjacency)
    # large-order header branch
    d7 = G.pair_group(7, 1)
    subs = G.subgroups_of_order(d7, 7)
    g49 = C.build(d7, C.SymmetricSet(d7, (subs[0].mask | subs[1].mask) ^ 1))
    enc = C.to_graph6(g49.adjacency)
    assert not enc.startswith("~")
    z70 = G.cyclic_group(70)
    c70 = C.build(z70, C.SymmetricSet.from_elements(z70, [1, 69]))
    enc70 = C.to_graph6(c70.adjacency)
    assert enc70.startswith("~")
    assert decode_graph6(enc70) == list(c70.adjacency)


def test_parse_set_literals():
    d = G.pair_group(3, 1)
    s = C.SymmetricSet.parse(d, "(1,0),(2,0),(0,1),(0,2)")
    assert s.member_strs() == ["(0,1)", "(0,2)", "(1,0)", "(2,0)"]
    z9 = G.cyclic_group(9)
    assert C.SymmetricSet.parse(z9, "1,8").members() == (1, 8)


TRANSLATION_GROUPS = ("3^1x3", "3^2x3", "Zn:12", "12x2", "8x4")


def _tampered(desc, add=None, sub=None):
    """group_tables(desc) with ``add`` and/or ``sub`` replaced."""
    tabs = G.group_tables(desc)
    return G.GroupTables(
        add=tabs.add if add is None else add,
        sub=tabs.sub if sub is None else sub,
        neg=tabs.neg,
        order_of=tabs.order_of,
    )


def _verify(monkeypatch, desc, tables):
    """Run the uncached check on ``tables`` in place of the group's own."""
    monkeypatch.setattr(C, "group_tables", lambda d: tables)
    return C.verify_translation_invariance.__wrapped__(desc)


@pytest.mark.parametrize("spec", TRANSLATION_GROUPS)
def test_translation_check_accepts_the_group_tables(monkeypatch, spec):
    d = G.parse_group(spec)
    assert _verify(monkeypatch, d, G.group_tables(d)) is True


@pytest.mark.parametrize("spec", TRANSLATION_GROUPS)
def test_translation_check_refuses_a_column_0_that_is_not_the_identity(monkeypatch, spec):
    d = G.parse_group(spec)
    add = G.group_tables(d).add.copy()
    add[[1, 2], 0] = add[[2, 1], 0]
    with pytest.raises(AssertionError, match="translation by 0 is not the identity"):
        _verify(monkeypatch, d, _tampered(d, add=add))


@pytest.mark.parametrize(
    "spec,generator",
    [(spec, (1, 0)) for spec in TRANSLATION_GROUPS]
    + [(spec, (0, 1)) for spec in TRANSLATION_GROUPS if not spec.startswith("Zn")],
)
def test_translation_check_refuses_a_generator_that_breaks_differences(
    monkeypatch, spec, generator
):
    """One pair swapped in a generator's column of add, and every later
    column rebuilt from the generator steps, so that only the generator's
    own check can see it.  (0, 1) is the identity of a cyclic group."""
    d = G.parse_group(spec)
    g = d.rank(*generator)
    add = G.group_tables(d).add.copy()
    add[[0, 1], g] = add[[1, 0], g]
    q = d.second_modulus
    for t in range(1, d.order):
        step = d.rank(0, 1) if t % q else d.rank(1, 0)
        if t != step:
            add[:, t] = add[add[:, t - step], step]
    with pytest.raises(AssertionError, match=f"translation by {g} is not an automorphism"):
        _verify(monkeypatch, d, _tampered(d, add=add))


@pytest.mark.parametrize("spec", TRANSLATION_GROUPS)
def test_translation_check_refuses_a_swapped_pair_in_a_later_column(monkeypatch, spec):
    d = G.parse_group(spec)
    t = d.order - 1  # not a generator in any of these groups
    add = G.group_tables(d).add.copy()
    add[[0, 1], t] = add[[1, 0], t]
    with pytest.raises(AssertionError, match=f"translation by {t} is not a generator step"):
        _verify(monkeypatch, d, _tampered(d, add=add))


@pytest.mark.parametrize("spec", TRANSLATION_GROUPS)
def test_translation_check_refuses_one_wrong_difference(monkeypatch, spec):
    d = G.parse_group(spec)
    sub = G.group_tables(d).sub.copy()
    sub[2, 1] = (sub[2, 1] + 1) % d.order
    with pytest.raises(AssertionError, match="is not an automorphism"):
        _verify(monkeypatch, d, _tampered(d, sub=sub))
