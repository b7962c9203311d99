import random

import pytest

from drgcayley import cayley as C
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


@pytest.mark.parametrize("spec", ["3^2x3", "5^1x5"])
def test_prefilter_survivors_are_connected_constant_lambda_sets(spec, monkeypatch):
    # the pre-filter hands is_drg_pairmask exactly {connected S : lambda constant on S}
    d = G.parse_group(spec)
    total = 1 << len(G.inverse_pairs(d))
    seen = []
    recheck = K.is_drg_pairmask

    def counted(desc, bits):
        seen.append(bits)
        return recheck(desc, bits)

    monkeypatch.setattr(K, "is_drg_pairmask", counted)
    K.census_scan(d, 0, total)
    assert sorted(seen) == [bits for bits in range(total) if _brute_prefilter(d, bits)]


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
    with pytest.raises(ValueError):
        K.scan_context(G.pair_group(3, 4))  # order 243 exceeds the 62-bit scan word
