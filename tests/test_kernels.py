import random
import warnings
from itertools import islice, product
from math import prod

import numpy as np
import pytest

from drgcayley import cayley as C
from drgcayley import classify as CL
from drgcayley import drg as D
from drgcayley import groups as G
from drgcayley import kernels as K


def _library_verdict(d, bits):
    sset = C.SymmetricSet.from_pair_bits(d, bits)
    if sset.mask == 0:
        return False, False
    graph = C.build(d, sset)
    if not C.is_connected(graph):
        return False, False
    return True, D.check_drg(graph) is not None


@pytest.mark.parametrize("spec", ["3^1x3", "3^2x3", "5^1x5"])
def test_backends_agree_on_full_scans(spec):
    # the scan backend against the exact library verdict, over every pair-subset
    d = G.parse_group(spec)
    total = 1 << len(G.inverse_pairs(d))
    res = K.census_scan(d, 0, total)
    hits = []
    connected = 0
    for bits in range(total):
        conn, drg = _library_verdict(d, bits)
        connected += conn
        if drg:
            hits.append(bits)
    assert res.hits.tolist() == hits
    assert res.connected == connected
    assert res.scanned == total


def test_scan_matches_library_on_z7z7_slices():
    d = G.pair_group(7, 1)
    width = 1 << 12
    # Slice 0 holds 19 of the 57 disconnected sets, so batches there take the
    # full connectivity test.  Two slices start 37 past a BATCH boundary; the
    # second runs into the two disconnected sets at 16,744,448, the start of
    # an aligned batch.  The other three slices hold 2, 2 and 1 of the hits.
    seen = []
    for lo in (0, 274_432 + 37, 638_976, 16_743_936 + 37):
        res = K.census_scan(d, lo, lo + width)
        hits = []
        connected = 0
        for i in range(lo, lo + width):
            bits = i ^ (i >> 1)
            conn, drg = _library_verdict(d, bits)
            connected += conn
            if drg:
                hits.append(bits)
        assert res.hits.tolist() == sorted(hits)
        assert res.connected == connected
        assert res.scanned == width
        seen.append((len(hits), width - connected))
    assert seen == [(0, 19), (2, 0), (2, 0), (1, 2)]


def test_scan_matches_library_across_z7z7_block_edges():
    """Slices that stop mid-batch, checked word by word: one from word 0
    shorter than a batch, two across a block boundary (the scan's first hit
    lies just before the first boundary, its fifth and sixth just after the
    second) and one of 100 words around a hit.  The first, second and
    fourth hold disconnected sets, so their blocks take the per-word
    connectivity test.  Word 0, the empty set, has |S| = 0, and the
    divisibility test must not divide by it (0/0 warns)."""
    d = G.pair_group(7, 1)
    block = K.BLOCK * K.BATCH
    seen = []
    for lo, hi in ((0, 300), (260_044, 262_644), (637_976, 639_576), (917_576, 917_676)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = K.census_scan(d, lo, hi)
        hits = []
        connected = 0
        for i in range(lo, hi):
            bits = i ^ (i >> 1)
            conn, drg = _library_verdict(d, bits)
            connected += conn
            if drg:
                hits.append(bits)
        assert res.hits.tolist() == sorted(hits)
        assert res.connected == connected
        assert res.scanned == hi - lo
        assert hi % K.BATCH and (lo == 0 or lo % K.BATCH)
        seen.append((len(hits), hi - lo - connected, lo // block != (hi - 1) // block))
    assert seen == [(0, 13, False), (1, 4, True), (2, 0, True), (1, 1, False)]


def test_partitions_cut_at_a_z7z7_block_edge_equal_the_whole_range():
    d = G.pair_group(7, 1)
    edge = 638_976  # the scan's fifth and sixth hits lie 384 and 389 past it
    assert edge % (K.BLOCK * K.BATCH) == 0
    lo, hi = edge - 3000, edge + 2000
    whole = K.census_scan(d, lo, hi)
    bounds = [lo, edge - 37, edge, edge + 37, hi]
    hits, connected = [], 0
    for a, b in zip(bounds, bounds[1:]):
        res = K.census_scan(d, a, b)
        assert res.scanned == b - a
        hits.extend(res.hits.tolist())
        connected += res.connected
    assert sorted(hits) == whole.hits.tolist()
    assert len(hits) == 2
    assert connected == whole.connected == hi - lo


@pytest.mark.parametrize("start,stop", [(10, 5), (0, 20), (-1, 4)])
def test_scan_rejects_ranges_outside_the_words(start, stop):
    """3^1x3 has 4 pairs, so its words are Gray indices 0 to 16."""
    with pytest.raises(ValueError, match="scan range"):
        K.census_scan(G.parse_group("3^1x3"), start, stop)


def _brute_prefilter(d, bits):
    """Connected and lambda(g) = |S & (g + S)| constant on S, on adjacency masks."""
    sset = C.SymmetricSet.from_pair_bits(d, bits)
    if sset.mask == 0:
        return False
    adj = C.build(d, sset).adjacency
    reached = 1
    while True:
        grown = reached
        for v in G.iter_bits(reached):
            grown |= adj[v]
        if grown == reached:
            break
        reached = grown
    if reached != (1 << d.order) - 1:
        return False
    return len({(adj[0] & adj[g]).bit_count() for g in G.iter_bits(sset.mask)}) == 1


# Gray-index ranges of the survivor test.  The 7^1x7 slice starts 37 past
# the odd batch 2045, so it reads the upper half of the triangle table and
# then the lower half; its two batches hand is_drg_pairmask 9 and 51 sets.
SURVIVOR_RANGES = {
    "3^2x3": (0, 1 << 13),
    "5^1x5": (0, 1 << 12),
    "Zn:12": (0, 1 << 6),
    "7^1x7": (2045 * K.BATCH + 37, 2047 * K.BATCH),
}


@pytest.mark.parametrize("spec", list(SURVIVOR_RANGES))
def test_prefilter_survivors_are_connected_constant_lambda_sets(spec, monkeypatch):
    """The pre-filter hands is_drg_pairmask exactly {connected S : lambda
    constant on S}, in Gray order."""
    d = G.parse_group(spec)
    lo, hi = SURVIVOR_RANGES[spec]
    seen = []
    recheck = K.is_drg_pairmask

    def counted(desc, bits):
        seen.append(bits)
        return recheck(desc, bits)

    monkeypatch.setattr(K, "is_drg_pairmask", counted)
    K.census_scan(d, lo, hi)
    words = (x ^ x >> 1 for x in range(lo, hi))
    assert seen == [bits for bits in words if _brute_prefilter(d, bits)]
    assert seen


@pytest.mark.parametrize("spec", ["3^1x3", "3^2x3", "5^1x5", "7^1x7", "Zn:12"])
def test_triangle_count_is_lambda_summed_over_S(spec):
    """The scan's table expansion of tr(A^3)/n, rounded, is the sum over g
    in S of |S & (g + S)|, and its size is |S|, both on adjacency masks.
    Gray index x is the last word of the block that runs from x's pair of
    batches to x.  Zn:12 has a singleton pair, {6}."""
    d = G.parse_group(spec)
    ctx = K.scan_context(d)
    total = 1 << ctx.pair_count
    for x in random.Random(23).sample(range(total), min(total, 300)):
        tri, k = K._triangle_block(d, x - x % (2 * K.BATCH), x + 1)
        word = x ^ x >> 1
        sset = C.SymmetricSet.from_pair_bits(d, word)
        adj = C.build(d, sset).adjacency
        assert np.rint(tri[-1]) == sum((adj[0] & adj[g]).bit_count() for g in G.iter_bits(sset.mask))
        assert k[-1] == sset.mask.bit_count()


def test_triangle_count_residual_over_every_5x5_word():
    """Before rounding, the expansion lies within 1e-9 of an integer on every
    5^1x5 word (1.1e-13 measured), far inside the module docstring's bound."""
    d = G.parse_group("5^1x5")
    ctx = K.scan_context(d)
    total = 1 << ctx.pair_count
    residual = 0.0
    for lo in range(0, total, K.BLOCK * K.BATCH):
        tri, _ = K._triangle_block(d, lo, min(lo + K.BLOCK * K.BATCH, total))
        residual = max(residual, np.abs(tri - np.rint(tri)).max())
    assert residual < 1e-9


@pytest.mark.parametrize("spec", ["3^3x3", "5^2x5", "11^1x11"])
def test_lambda_residual_at_orders_81_to_125(spec):
    """Before rounding, lambda lies within 1e-9 of an integer on 20,000
    seeded words of each group (1.0e-13 measured), as the module docstring
    bounds it for n <= 125; ``common_neighbors`` on the first words gives
    the common-neighbour counts."""
    d = G.parse_group(spec)
    ctx = K.scan_context(d)
    words = np.random.default_rng(29).integers(0, 1 << ctx.pair_count, size=20_000)
    sel = K._pair_bits(words, ctx.pair_count)
    F = sel @ ctx.spectrum
    lam = (F * F) @ ctx.inverse
    assert np.abs(lam - np.rint(lam)).max() < 1e-9
    reps = [cell[0] for cell in G.inverse_pairs(d)]
    for word, row in zip(words[:5].tolist(), K.common_neighbors(ctx, sel[:5]).tolist()):
        adj = C.build(d, C.SymmetricSet.from_pair_bits(d, word)).adjacency
        assert row == [(adj[0] & adj[g]).bit_count() for g in reps]


def test_partitioned_scan_equals_whole_scan():
    d = G.pair_group(3, 2)
    total = 1 << 13
    whole = K.census_scan(d, 0, total)
    pieces = []
    connected = 0
    bounds = [0, 1000, 4096, 5000, total]
    for lo, hi in zip(bounds, bounds[1:]):
        res = K.census_scan(d, lo, hi)
        pieces.extend(res.hits.tolist())
        connected += res.connected
    assert sorted(pieces) == whole.hits.tolist()
    assert connected == whole.connected


def test_kernel_hits_match_library_check():
    d = G.pair_group(3, 2)
    total = 1 << 13
    res = K.census_scan(d, 0, total)
    hits = set(res.hits.tolist())
    rng = random.Random(1)
    sample = set(rng.sample(range(total), 300)) | hits
    for bits in sample:
        sset = C.SymmetricSet.from_pair_bits(d, bits)
        if sset.mask == 0:
            verdict = False
        else:
            graph = C.build(d, sset)
            verdict = C.is_connected(graph) and D.check_drg(graph) is not None
        assert verdict == (bits in hits)
        assert K.is_drg_pairmask(d, bits) == verdict


def test_connected_count_matches_library():
    d = G.pair_group(5, 1)
    res = K.census_scan(d, 0, 1 << 12)
    lib = 0
    for bits in range(1 << 12):
        sset = C.SymmetricSet.from_pair_bits(d, bits)
        if sset.mask and C.is_connected(C.build(d, sset)):
            lib += 1
    assert res.connected == lib


def test_scan_context_rejects_large_orders():
    # order 243 has 121 pairs, past the 62 of an int64 pair word
    with pytest.raises(ValueError, match="121 inverse pairs; pair words hold 62"):
        K.scan_context(G.pair_group(3, 4))


# -- multiplier layers ----------------------------------------------------------


def test_multiplier_layers_refuse_more_than_62_pairs():
    """13^1x13 has 84 pairs: in int64 words pair 63 would turn its word
    negative and pairs 64-83 would drop out (numpy's 1 << 64 is 0)."""
    with pytest.raises(ValueError, match="84 inverse pairs; pair words hold 62"):
        K.multiplier_layers(G.parse_group("13^1x13"))

GENERATOR_GROUPS = ("3^1x3", "3^2x3", "5^1x5", "7^1x7")

# per group: the multiplier-class candidates (the closed form, which the
# leaders' orbits must hold), then the census funnel's counts: leaders
# (equal to the Burnside count of the aut stage), connected, lambda, c2
FUNNEL = {
    "3^1x3": (15, 4, 3, 3, 3),
    "3^2x3": (190, 36, 26, 12, 5),
    "5^1x5": (791, 18, 16, 10, 5),
    "7^1x7": (65790, 119, 117, 35, 8),
}


def _leader_words(layers):
    """The pair word of every orbit leader of ``layers``, in DFS order, cut
    one leader past each layer's Burnside count as the census cuts it."""
    return [
        word
        for layer in layers
        for word in islice(CL.orbit_leaders(layer), CL.orbit_count(layer) + 1)
    ]


def _candidate_count(d):
    """Sum over H <= M of (1 + [M : H])^k - 1, k the M-orbits its layer keeps:
    each of the k blocks of a layer holds its [M : H] H-orbits."""
    return sum(
        prod(1 + size for size in np.unique(layer.after, return_counts=True)[1]) - 1
        for layer in K.multiplier_layers(d)
    )


def _candidates(d):
    """Every multiplier-class candidate, sorted: the union of the Aut(G)
    orbits of the kernel leaders."""
    leaders = _leader_words(K.multiplier_layers(d))
    return sorted(image for bits in leaders for image in CL._pair_orbit(d, bits))


def _survivors(d):
    """The sets of the Aut(G) orbits of the kernel leaders that pass the funnel."""
    words = np.array(_leader_words(K.multiplier_layers(d)), dtype=np.int64)
    passed, _ = K.word_funnel(d, words)
    return sorted(image for bits in passed[-1].tolist() for image in CL._pair_orbit(d, bits))


@pytest.mark.parametrize("spec", GENERATOR_GROUPS)
def test_generator_hits_equal_the_full_scan(spec):
    """The exhaustive scan is the oracle: its hits are the orbits of the
    leaders' c_2 survivors (on these groups every c_2 survivor is
    distance-regular), the connected count is the Moebius sum, and the report
    bytes agree at 1 and 4 partitions.  On 7^1x7 this is tier-1's one full
    2^24 scan."""
    d = G.parse_group(spec)
    scan = K.census_scan(d, 0, 1 << len(G.inverse_pairs(d)))
    assert K.connected_count(d) == scan.connected
    assert _survivors(d) == scan.hits.tolist()
    orbits = CL._hit_orbits(d, scan.hits.tolist())
    from_scan = CL._assemble_report(d, orbits, scan.connected, [], []).to_json()
    for partitions in (1, 4):
        assert CL.census(d, partitions=partitions).to_json() == from_scan


@pytest.mark.parametrize("spec", GENERATOR_GROUPS)
def test_generator_funnel_counts(spec):
    d = G.parse_group(spec)
    candidates, *counts = FUNNEL[spec]
    assert _candidate_count(d) == candidates == len(_candidates(d))
    funnel = CL.census(d).funnel
    assert [(stage, count) for stage, count, _ in funnel[:5]] == list(zip(
        ["aut", "leaders", "connected", "lambda", "c2"], [counts[0]] + counts,
    ))


def test_constant_on_matches_a_per_row_reference():
    """``_constant_on`` against len(set(lam on the marked pairs)) <= 1, in both
    forms the funnel uses: the lambda test on S and the c_2 test on
    (lam > 0) * (1 - S).  Seeded random rows, a quarter of them with empty
    selections, and every 30th 7^1x7 candidate with its true lambda."""
    rng = np.random.default_rng(19)
    lam = rng.integers(0, 4, size=(400, 24)).astype(np.float64)
    lam[::3] = lam[::3, :1]  # a third of the rows constant before masking
    density = rng.choice([0.0, 0.05, 0.3, 0.7], size=400)[:, None]
    sel = (rng.random((400, 24)) < density).astype(np.float64)
    d = G.parse_group("7^1x7")
    ctx = K.scan_context(d)
    words = np.array(_candidates(d)[::30], dtype=np.int64)
    real = K._pair_bits(words, ctx.pair_count)
    for lam_rows, sel_rows in ((lam, sel), (K.common_neighbors(ctx, real), real)):
        for mask in (sel_rows, (lam_rows > 0) * (1 - sel_rows)):
            want = [len(set(row[marks > 0].tolist())) <= 1 for row, marks in zip(lam_rows, mask)]
            assert K._constant_on(lam_rows.copy(), mask).tolist() == want
            assert 0 < sum(want) < len(want)
    assert (sel.sum(axis=1) == 0).sum() > 50


# Aut(G) orbits of the multiplier layers (the Burnside count) at orders 81 and 125
LAYER_ORBITS = {"3^3x3": 345, "5^2x5": 1600}


@pytest.mark.parametrize("spec,count", [("3^3x3", 6117), ("5^2x5", 348018)])
def test_every_generator_index_is_a_distinct_candidate_beyond_the_scan(spec, count):
    """Orders 81 and 125 are past any full scan of their 2^P subsets, but
    the layers and their leaders need only P <= 62 pair bits (40 and 62
    here).  The leaders number the Burnside count, and their orbits are
    disjoint and hold every candidate of the closed form."""
    d = G.parse_group(spec)
    layers = K.multiplier_layers(d)
    leaders = _leader_words(layers)
    assert len(leaders) == sum(CL.orbit_count(layer) for layer in layers) == LAYER_ORBITS[spec]
    orbits = [CL._pair_orbit(d, bits) for bits in leaders]
    assert sum(len(orbit) for orbit in orbits) == _candidate_count(d) == count
    assert len(set().union(*orbits)) == count
    assert min(min(orbit) for orbit in orbits) > 0


@pytest.mark.parametrize("spec", ["3^1x3", "3^2x3", "5^1x5", "7^1x7", "3^3x3", "5^2x5", "11^1x11"])
def test_automorphisms_map_layer_points_onto_points(spec):
    """Aut(G) commutes with the multipliers, so every row of the pair action
    maps each point of each layer (an H-orbit of pairs) onto the point its
    ``action`` names, and the points of one block (an M-orbit) into one block."""
    d = G.parse_group(spec)
    perms = G.pair_permutations(d)
    for layer in K.multiplier_layers(d):
        for i, word in enumerate(layer.words.tolist()):
            images = (1 << perms[:, list(G.iter_bits(word))]).sum(axis=1)
            assert images.tolist() == layer.words[layer.action[:, i]].tolist()
        for end in np.unique(layer.after).tolist():
            block = np.flatnonzero(layer.after == end)
            assert (layer.after[layer.action[:, block]] == layer.after[layer.action[:, block[:1]]]).all()


def _brute_orbit_count(d, sets):
    """Aut(G) orbits among ``sets`` (pair words), by ``_pair_orbit``; every
    orbit must lie inside ``sets``."""
    left = set(sets)
    orbits = 0
    while left:
        orbit = CL._pair_orbit(d, min(left))
        assert orbit <= left
        left -= orbit
        orbits += 1
    return orbits


@pytest.mark.parametrize("spec", ["3^1x3", "3^2x3", "5^1x5", "6x2"])
def test_orbit_count_of_the_pair_layer_matches_brute_force(spec):
    """Every nonempty pair-subset; 6x2 has involutions, hence singleton pairs."""
    d = G.parse_group(spec)
    total = 1 << len(G.inverse_pairs(d))
    assert CL.orbit_count(K.pair_layer(d)) == _brute_orbit_count(d, range(1, total))


@pytest.mark.parametrize("spec", ["3^1x3", "3^2x3", "5^1x5", "7^1x7"])
def test_orbit_count_of_each_multiplier_layer_matches_brute_force(spec):
    """Each layer's sets, one point or none per block, counted orbit by orbit,
    and all layers together against the multiplier-closed sets (brute force,
    so on the three smaller groups)."""
    d = G.parse_group(spec)
    layers = K.multiplier_layers(d)
    for layer in layers:
        blocks = [
            [0] + layer.words[layer.after == end].tolist()
            for end in np.unique(layer.after).tolist()
        ]
        sets = {sum(choice) for choice in product(*blocks)} - {0}
        assert CL.orbit_count(layer) == _brute_orbit_count(d, sets)
    if spec != "7^1x7":
        total = sum(CL.orbit_count(layer) for layer in layers)
        assert total == _brute_orbit_count(d, _multiplier_closed(d))


def _multiplier_closed(d):
    """Nonzero pair-subsets S with S^(u) = S or S^(u) & S = 0 for every unit u,
    by brute force on element masks."""
    p, _ = d.prime_power_pair
    m = d.first_modulus
    maps = [
        [d.rank(u * a, u * b) for a, b in map(d.unrank, d.elements())]
        for u in range(1, m) if u % p
    ]
    closed = set()
    for bits in range(1, 1 << len(G.inverse_pairs(d))):
        mask = C.SymmetricSet.from_pair_bits(d, bits).mask
        images = {G.mask_of(img[x] for x in G.iter_bits(mask)) for img in maps}
        if all(image == mask or not image & mask for image in images):
            closed.add(bits)
    return closed


@pytest.mark.parametrize("spec", ["3^1x3", "3^2x3", "5^1x5"])
def test_generator_words_are_the_multiplier_closed_sets_once_each(spec):
    """The Aut(G) orbits of the kernel leaders are the multiplier-closed sets,
    each set in exactly one orbit."""
    d = G.parse_group(spec)
    words = _candidates(d)
    assert len(words) == len(set(words)) == _candidate_count(d)
    assert set(words) == _multiplier_closed(d)


def _brute_c2_constant(d, bits):
    """Common neighbours of 0 and g take one value over the distance-2 layer."""
    adj = C.build(d, C.SymmetricSet.from_pair_bits(d, bits)).adjacency
    near = adj[0] | 1
    reach = 0
    for v in G.iter_bits(adj[0]):
        reach |= adj[v]
    layer2 = reach & ~near
    return len({(adj[0] & adj[g]).bit_count() for g in G.iter_bits(layer2)}) <= 1


@pytest.mark.parametrize("spec", ["3^2x3", "5^1x5"])
def test_survivors_are_the_candidates_passing_every_necessary_condition(spec):
    """The funnel passes exactly the candidates that are connected, have
    lambda constant on S and c_2 constant, each decided on adjacency masks."""
    d = G.parse_group(spec)
    words = _candidates(d)
    passed, _ = K.word_funnel(d, np.array(words, dtype=np.int64))
    expected = [w for w in words if _brute_prefilter(d, w) and _brute_c2_constant(d, w)]
    assert passed[-1].tolist() == expected


def test_connected_count_on_groups_beyond_the_scan():
    # a pair-subset of Z_p + Z_p is disconnected exactly when it is empty or
    # lies in one of the p + 1 lines, which meet only in 0
    for p in (3, 5, 7, 11):
        d = G.pair_group(p, 1)
        P = (p * p - 1) // 2
        lines = p + 1
        assert K.connected_count(d) == 2**P - lines * (2 ** ((p - 1) // 2) - 1) - 1
