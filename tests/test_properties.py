"""Property tests: the BFS-layer routines against an all-vertex brute force.

Connection sets are random pair-subsets, mixed with subgroup complements
and unions of subgroups so that distance-regular, antipodal and (over the
even-order group) bipartite graphs are drawn often enough to matter.  The
oracle below computes the full distance matrix with one independent BFS
per vertex and decides every property straight from its definition.
The census scan's spectral common-neighbor counts are checked against
adjacency-mask intersections, and scans over random partitions of the
range against one whole scan.  ``build`` (bit rotations) is checked against
the add table, and ``closure_mask`` against a subgroup grown on it.  The
group-theory core is checked against definitions: every quotient map is a
homomorphism onto Z_t + Z_u (u | t) with kernel B, coset keys and
transversals agree with cosets built by element arithmetic, and the
automorphisms of Z_n are the unit multipliers.  Random group literals must
round-trip through ``spec()``, and malformed ones must be refused by
``parse_group`` and the CLI.
"""

import io
import random
from collections import deque
from math import gcd

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drgcayley import cayley as C
from drgcayley import cli
from drgcayley import drg as D
from drgcayley import groups as G
from drgcayley import kernels as K
from drgcayley import structure as S

SPECS = ("3^2x3", "5^1x5", "3^3x3", "6x2")

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
        assert not S.is_antipodal(graph, part)
        with pytest.raises(ValueError):
            S.antipodal_classes(graph, part)
        return
    n = desc.order
    cls = [sum(1 << v for v in range(n) if dist[u][v] in (0, d)) for u in range(n)]
    equivalence = all(cls[v] == cls[u] for u in range(n) for v in range(n) if cls[u] >> v & 1)
    assert S.is_antipodal(graph, part) == equivalence
    got = S.antipodal_classes(graph, part)
    if equivalence:
        assert got == S.VertexPartition(tuple(sorted(set(cls))))
    else:
        assert got is None


@PROPS
@given(connection_sets())
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


# orders 1 to 125, cyclic (q = 1), with involutions (6x2, Zn:62, 31x2), s = 1 to 3
BUILD_SPECS = (
    "Zn:1", "Zn:2", "Zn:62", "6x2", "31x2", "3^2x3", "7^1x7", "3^3x3", "11^1x11", "5^2x5"
)


@PROPS
@given(st.sampled_from(BUILD_SPECS), st.data())
def test_build_matches_add_table(spec, data):
    desc = G.parse_group(spec)
    bits = data.draw(st.integers(0, (1 << len(G.inverse_pairs(desc))) - 1))
    sset = C.SymmetricSet.from_pair_bits(desc, bits)
    add = G.group_tables(desc).add
    want = tuple(
        sum(1 << int(add[g][s]) for s in sset.members()) for g in desc.elements()
    )
    assert C.build(desc, sset).adjacency == want


@pytest.mark.parametrize("spec", BUILD_SPECS + ("12x2",))
def test_negated_mask_matches_the_neg_table(spec):
    """-S by bit reversal and one translation equals -S from the neg table.

    Every singleton is checked, then random sets: ``SymmetricSet`` accepts
    exactly the negation-closed ones and names the least g whose -g is
    missing, and every union of inverse pairs is its own negation.
    """
    desc = G.parse_group(spec)
    neg = G.group_tables(desc).neg
    for g in desc.elements():
        assert C._negated(desc, 1 << g) == 1 << int(neg[g])
    rng = random.Random(desc.order)
    for _ in range(50):
        mask = rng.getrandbits(desc.order) & rng.getrandbits(desc.order) & ~1
        members = list(G.iter_bits(mask))
        assert C._negated(desc, mask) == G.mask_of(int(neg[g]) for g in members)
        missing = [g for g in members if not mask >> int(neg[g]) & 1]
        if missing:
            g = missing[0]
            with pytest.raises(ValueError) as exc:
                C.SymmetricSet(desc, mask)
            assert str(exc.value) == f"set is not negation-closed: contains {g} but not {neg[g]}"
        else:
            assert C.SymmetricSet(desc, mask).mask == mask
        closed = C.SymmetricSet.from_pair_bits(desc, rng.getrandbits(len(G.inverse_pairs(desc))))
        assert C._negated(desc, closed.mask) == closed.mask


def grown_closure(desc, mask):
    """The subgroup generated by ``mask``, grown on the add table.

    The member set C (holding the identity) becomes C + C until it is
    stable; a finite set closed under addition is a subgroup.
    """
    add = G.group_tables(desc).add
    members = np.zeros(desc.order, dtype=bool)
    members[list(G.iter_bits(1 | mask))] = True
    while True:
        idx = np.flatnonzero(members)
        members[add[np.ix_(idx, idx)]] = True
        if np.count_nonzero(members) == len(idx):
            return G.ranks_mask(desc, idx)


def assert_closure(desc, mask):
    closure = G.closure_mask(desc, mask)
    assert closure == grown_closure(desc, mask)
    members = list(G.iter_bits(closure))
    assert closure & 1 and mask & ~closure == 0
    assert G.ranks_mask(desc, G.group_tables(desc).add[np.ix_(members, members)]) == closure


@pytest.mark.parametrize("spec", BUILD_SPECS)
def test_closure_mask_of_every_subgroups_generators(spec):
    desc = G.parse_group(spec)
    for h in G.all_subgroups(desc):
        assert_closure(desc, G.mask_of(h.generators))


@PROPS
@given(st.sampled_from(BUILD_SPECS), st.data())
def test_closure_mask_is_the_smallest_subgroup_containing_the_set(spec, data):
    desc = G.parse_group(spec)
    if data.draw(st.booleans()):
        mask = data.draw(st.integers(0, (1 << desc.order) - 1))
    else:
        # a few elements of one subgroup, with up to two arbitrary elements
        inside = data.draw(st.sampled_from(G.all_subgroups(desc))).members()
        elements = data.draw(st.lists(st.sampled_from(inside), max_size=3))
        elements += data.draw(st.lists(st.integers(0, desc.order - 1), max_size=2))
        mask = G.mask_of(elements)
    assert_closure(desc, mask)


@PROPS
@given(st.sampled_from(("3^2x3", "5^1x5", "7^1x7", "6x2", "Zn:12")), st.data())
def test_spectral_lambda_counts_common_neighbors(spec, data):
    desc = G.parse_group(spec)
    pairs = G.inverse_pairs(desc)
    bits = data.draw(st.integers(0, (1 << len(pairs)) - 1))
    row = np.array([[bits >> j & 1 for j in range(len(pairs))]], dtype=np.float64)
    lam = K.common_neighbors(K.scan_context(desc), row)[0]
    adj = C.build(desc, C.SymmetricSet.from_pair_bits(desc, bits)).adjacency
    for j, cell in enumerate(pairs):
        for g in cell:
            assert lam[j] == (adj[0] & adj[g]).bit_count()


@PROPS
@given(
    st.lists(
        st.one_of(
            st.integers(0, (1 << 13) - 1),
            st.integers(0, (1 << 13) // K.BATCH).map(lambda k: k * K.BATCH),
        ),
        max_size=6,
    )
)
def test_random_partitions_of_the_scan_range(cuts):
    desc = G.pair_group(3, 2)
    whole = K.census_scan(desc, 0, 1 << 13)
    bounds = sorted({0, 1 << 13, *cuts})
    hits, connected = [], 0
    for lo, hi in zip(bounds, bounds[1:]):
        res = K.census_scan(desc, lo, hi)
        assert res.scanned == hi - lo
        hits.extend(res.hits.tolist())
        connected += res.connected
    assert sorted(hits) == whole.hits.tolist()
    assert connected == whole.connected


# pair groups with s = 1 to 3, even-order products, and cyclic groups
CORE_SPECS = ("3^2x3", "5^1x5", "3^3x3", "6x2", "12x2", "4x4", "Zn:12", "Zn:27")


@pytest.mark.parametrize("spec", CORE_SPECS)
def test_quotient_embedding_is_a_homomorphism_with_kernel_b(spec):
    desc = G.parse_group(spec)
    add = G.group_tables(desc).add
    for sub in G.all_subgroups(desc):
        qdesc, coset_of = S._quotient_embedding(desc, sub)
        t, u = qdesc.first_modulus, qdesc.second_modulus
        assert qdesc.order == desc.order // sub.order
        assert t % u == 0
        phi = np.array(coset_of)
        assert (phi[add] == G.group_tables(qdesc).add[phi[:, None], phi[None, :]]).all()
        assert G.mask_of(np.flatnonzero(phi == 0).tolist()) == sub.mask
        assert set(coset_of) == set(qdesc.elements())


def test_quotients_of_z9_z3_by_order_3_subgroups():
    desc = G.parse_group("3^2x3")
    got = {}
    for h in G.subgroups_of_order(desc, 3):
        members = tuple(desc.element_str(g) for g in h.members())
        got[members] = S._quotient_embedding(desc, h)[0].spec()
    assert got == {
        ("(0,0)", "(0,1)", "(0,2)"): "Zn:9",
        ("(0,0)", "(3,0)", "(6,0)"): "3^1x3",
        ("(0,0)", "(3,2)", "(6,1)"): "Zn:9",
        ("(0,0)", "(3,1)", "(6,2)"): "Zn:9",
    }


@PROPS
@given(st.sampled_from(CORE_SPECS), st.data())
def test_coset_keys_and_transversals_match_cosets(spec, data):
    desc = G.parse_group(spec)
    sub = data.draw(st.sampled_from(G.all_subgroups(desc)))
    cosets = [frozenset(desc.add(g, h) for h in sub.members()) for g in desc.elements()]
    assert G.coset_keys(desc, sub.mask).tolist() == [min(c) for c in cosets]
    # one element per coset, perhaps minus the first, plus up to two repeated
    # or arbitrary elements
    picks = [data.draw(st.sampled_from(sorted(c))) for c in sorted(set(cosets), key=min)]
    extra = st.one_of(st.sampled_from(picks), st.integers(0, desc.order - 1))
    elements = picks[data.draw(st.integers(0, 1)) :] + data.draw(st.lists(extra, max_size=2))
    elements = data.draw(st.permutations(elements))
    hits = [sum(e in c for e in elements) for c in set(cosets)]
    assert G.is_transversal(desc, elements, sub) == all(k == 1 for k in hits)


@pytest.mark.parametrize("n", (1, 2, 12, 27))
def test_cyclic_automorphisms_are_the_unit_multipliers(n):
    units = [u for u in range(n) if gcd(u, n) == 1]  # gcd(0, 1) = 1 keeps Zn:1
    want = {tuple(u * x % n for x in range(n)) for u in units}
    got = [tuple(row) for row in G.automorphism_group(G.cyclic_group(n)).tolist()]
    assert len(got) == len(want)
    assert set(got) == want


PRIMES = (2, 3, 5, 7, 11, 13)
# characters that occur in no group literal
JUNK = "!#-+.,;/()[]abq?*="


@st.composite
def group_literals(draw):
    """(literal, moduli, canonical): canonical says spec() gives it back."""
    kind = draw(st.sampled_from(("pair", "product", "cyclic")))
    if kind == "cyclic":
        n = draw(st.integers(1, 500))
        return f"Zn:{n}", (n, 1), True
    if kind == "pair":
        p, s = draw(st.sampled_from(PRIMES)), draw(st.integers(1, 4))
        q = draw(st.one_of(st.just(p), st.integers(1, 30)))
        return f"{p}^{s}x{q}", (p**s, q), q == p
    m, q = draw(st.integers(1, 200)), draw(st.integers(1, 200))
    return f"{m}x{q}", (m, q), False


@st.composite
def bad_group_literals(draw):
    kind = draw(st.sampled_from(("zero", "junk", "no-separator", "cut")))
    if kind == "zero":
        form = draw(st.sampled_from(("0x{}", "{}x0", "0^{}x3", "Zn:0", "Zn:00")))
        return form.format(draw(st.integers(1, 50)))
    literal = draw(group_literals())[0]
    sep = literal.index(":" if literal.startswith("Zn") else "x")
    if kind == "no-separator":
        return literal[:sep] + literal[sep + 1 :]
    if kind == "cut":
        return literal[: sep + 1]
    i = draw(st.integers(0, len(literal)))
    return literal[:i] + draw(st.sampled_from(JUNK)) + literal[i:]


@PROPS
@given(group_literals())
def test_group_literals_round_trip_through_spec(case):
    literal, moduli, canonical = case
    desc = G.parse_group(literal)
    assert (desc.first_modulus, desc.second_modulus) == moduli
    assert G.parse_group(desc.spec()) == desc
    if canonical:
        assert desc.spec() == literal


@PROPS
@given(bad_group_literals())
def test_bad_group_literals_are_refused(literal):
    with pytest.raises(G.GroupFormatError):
        G.parse_group(literal)
    assert cli.main(["check", f"--group={literal}", "--set", ""], out=io.StringIO()) == 64


@PROPS
@given(st.text(alphabet="0123456789^xXZn: " + JUNK, max_size=8))
def test_parse_group_raises_only_group_format_error(text):
    try:
        desc = G.parse_group(text)
    except G.GroupFormatError:
        return
    assert G.parse_group(desc.spec()) == desc
