"""Acceptance gate: the product-level guarantees, asserted exactly.

Each test prints one `[A##] ... : PASS` line (visible with `pytest -s`);
a failed assertion marks that criterion failed.  Census runtimes are
measured on the first call per group and cached for the later criteria.
"""

import random
import time
from itertools import combinations, product
from math import comb

import pytest

from drgcayley import cayley as C
from drgcayley import classify as CL
from drgcayley import designs as DS
from drgcayley import drg as D
from drgcayley import fourier as F
from drgcayley import groups as G
from drgcayley import kernels as K
from drgcayley import schur as SR

CENSUS_SPECS = ("3^1x3", "3^2x3", "5^1x5", "7^1x7")

_cache: dict = {}


def census_report(spec, partitions=1):
    key = (spec, partitions)
    if key not in _cache:
        t0 = time.perf_counter()
        rep = CL.census(G.parse_group(spec), partitions=partitions)
        _cache[key] = (rep, time.perf_counter() - t0)
    return _cache[key]


def ok(tag, message):
    print(f"[{tag}] {message}: PASS")


def test_a01_census_z3_z3():
    rep, elapsed = census_report("3^1x3")
    assert rep.symmetric_sets == 16
    assert rep.drg_sets == 11
    assert rep.family_set_counts == {
        "TDLineGraph(2,3)": 6,
        "CompleteMultipartite(3,3)": 4,
        "Complete": 1,
    }
    assert rep.anomalies == ()
    assert elapsed < 1.0
    ok("A01", f"census 3^1x3: 11/16 sets, 3 families, 0 anomalies, {elapsed:.3f}s")


def test_a02_census_z9_z3():
    rep, elapsed = census_report("3^2x3")
    assert rep.symmetric_sets == 8192
    assert rep.drg_sets == 9
    assert rep.family_set_counts == {
        "Complete": 1,
        "CompleteMultipartite(3,9)": 4,
        "CompleteMultipartite(9,3)": 4,
    }
    assert not any(f.startswith("TDLineGraph") for f in rep.family_set_counts)
    assert rep.anomalies == ()
    assert elapsed < 5.0
    ok("A02", f"census 3^2x3: 9/8192 sets, no TD lines, 0 anomalies, {elapsed:.3f}s")


def test_a03_census_z5_z5():
    rep, elapsed = census_report("5^1x5")
    assert rep.symmetric_sets == 4096
    assert rep.drg_sets == 57
    assert rep.family_set_counts == {
        "TDLineGraph(2,5)": 15,
        "TDLineGraph(3,5)": 20,
        "TDLineGraph(4,5)": 15,
        "CompleteMultipartite(5,5)": 6,
        "Complete": 1,
    }
    d = G.parse_group("5^1x5")
    for r, tup in ((2, (25, 8, 3, 2)), (3, (25, 12, 5, 6)), (4, (25, 16, 9, 12))):
        assert DS.td_line_srg_params(r, 5).as_tuple() == tup
        recs = [q for q in rep.records if q.family == f"TDLineGraph({r},5)"]
        assert len(recs) == 1
        arr = D.check_drg(C.build(d, C.SymmetricSet(d, recs[0].set_mask)))
        assert D.srg_params(arr).as_tuple() == tup
    assert rep.anomalies == ()
    assert elapsed < 5.0
    ok("A03", f"census 5^1x5: 57/4096 sets, SRG tuples match, {elapsed:.3f}s")


def test_a04_census_z7_z7_full_scan():
    rep, elapsed = census_report("7^1x7")
    assert rep.symmetric_sets == 1 << 24
    assert rep.drg_sets == sum(comb(8, r) for r in range(2, 9)) == 247
    assert rep.anomalies == ()
    assert elapsed < 1800.0
    ok("A04", f"census 7^1x7: 247/2^24 sets, single-threaded {elapsed:.1f}s (< 30 min)")


def test_a05_schur_ring_equivalence_exhaustive():
    checked = 0
    for spec in ("3^1x3", "3^2x3"):
        d = G.parse_group(spec)
        for sset in CL.enumerate_symmetric_sets(d):
            if sset.mask == 0:
                continue
            graph = C.build(d, sset)
            if not C.is_connected(graph):
                continue
            part = C.distance_partition(graph)
            arr = D.check_drg(graph, part)
            module = SR.distance_module(graph, part)
            constants = SR.is_schur_ring(module)
            assert (arr is not None) == (constants is not None), sset.member_strs()
            if arr is not None:
                from drgcayley.structure import is_antipodal, is_bipartite

                bip = is_bipartite(graph) is not None
                antip = is_antipodal(graph, part) if part.diameter >= 2 else False
                graph_primitive = not bip and not antip
                assert SR.is_primitive(module) == graph_primitive, sset.member_strs()
            checked += 1
    ok("A05", f"DRG <=> Schur-ring over all {checked} connected sets of orders 9, 27")


def test_a06_no_antipodal_nonbipartite_diameter3():
    total = 0
    for spec in CENSUS_SPECS:
        rep, _ = census_report(spec)
        for rec in rep.records:
            assert not (rec.antipodal and not rec.bipartite and rec.diameter == 3)
            total += 1
    ok("A06", f"zero antipodal non-bipartite diameter-3 hits across {total} orbit records")


def test_a07_fourier_suite():
    rng = random.Random(2024)
    for p, s in ((3, 2), (3, 3)):
        n = p**s
        for _ in range(1000):
            f = [rng.randint(-20, 20) for _ in range(n)]
            assert F.inversion_check(p, s, f).ok
        for _ in range(500):
            a = {x for x in range(n) if rng.random() < 0.5}
            b = {x for x in range(n) if rng.random() < 0.5}
            assert F.convolution_check(p, s, a, b).ok
    cosets = [[0, 3, 6], [1, 4, 7], [2, 5, 8]]
    count = 0
    for picks in product(*cosets):
        assert F.transversal_zeros(3, 2, set(picks), 3)
        count += 1
    assert count == 27
    ok("A07", "inversion x2000, convolution x1000, all 27 transversals of 3Z_9: exact")


def test_a08_fourier_audit_on_every_hit():
    audited = 0
    for spec in ("3^1x3", "3^2x3", "5^1x5"):
        d = G.parse_group(spec)
        pairs = G.inverse_pairs(d)
        res = K.census_scan(d, 0, 1 << len(pairs))
        for bits in res.hits.tolist():
            sset = C.SymmetricSet.from_pair_bits(d, int(bits))
            graph = C.build(d, sset)
            part = C.distance_partition(graph)
            arr = D.check_drg(graph, part)
            assert arr is not None
            if arr.diameter < 2:
                continue
            report = F.fourier_audit(graph, arr, part)
            assert report.ok, (spec, sset.member_strs(), report.failure)
            audited += 1
    assert audited == 10 + 8 + 56
    ok("A08", f"row-transform identity system exact on all {audited} hits of diameter >= 2")


def test_a09_designs_suite():
    verified = 0
    for p in (3, 5, 7):
        d = G.pair_group(p, 1)
        for r in range(2, p + 1):
            pcps = DS.pcp_enumerate(d, r)
            assert pcps, (p, r)
            for pcp in pcps:
                td = DS.td_from_pcp(pcp)
                result = DS.line_graph(pcp, td)
                assert result.isomorphic
                arr = D.check_drg(result.cayley)
                assert D.srg_params(arr) == DS.td_line_srg_params(r, p)
                verified += 1
    ok("A09", f"{verified} transversal designs: line graph == Cayley graph, SRG params exact")


def test_a10_bipartite_family_at_desk_scale():
    # exhaustive difference-set search in the even-index subgroup
    sub = G.product_group(8, 2)
    found = DS.diffset_search(sub, 6)
    assert len(found) == 2
    assert all((c.v, c.k, c.lam) == (16, 6, 2) and c.nontrivial for c in found)
    # exhaustive sweep of all valid (R_0, R_1): 225 pairs, stronger than the
    # 500-sample;  the search ground truth: no symmetric-compatible
    # nontrivial certificate exists at n = 16, so the positive direction is
    # vacuous and the unique trivial certificate is the K_{2x16} corner
    reports = DS.bipartite_double_sweep(16)
    assert len(reports) == 225
    nontrivial = [r for r in reports if r.certificate and r.certificate.nontrivial]
    trivial = [r for r in reports if r.certificate and not r.certificate.nontrivial]
    none = [r for r in reports if r.certificate is None]
    for rep in nontrivial:
        assert rep.is_drg and rep.diameter == 3 and rep.bipartite and not rep.antipodal
    for rep in none:
        assert not rep.is_drg
    assert len(trivial) == 1
    assert trivial[0].is_drg and trivial[0].diameter == 2
    assert (
        str(D.recognize(trivial[0].graph, trivial[0].array))
        == "CompleteMultipartite(2,16)"
    )
    assert len(nontrivial) == 0 and len(none) == 224
    # degrade clause: the complete / multipartite / crown constructions over
    # Z_16 + Z_2 pass the exact DRG check with their expected arrays
    d = G.product_group(16, 2)
    complete = C.build(d, C.SymmetricSet(d, ((1 << 32) - 1) ^ 1))
    assert D.check_drg(complete).diameter == 1
    h = G.subgroups_of_order(d, 16)[0]
    multi = C.build(d, C.SymmetricSet(d, ((1 << 32) - 1) ^ h.mask))
    arr = D.check_drg(multi)
    assert arr.b == (16, 15) and arr.c == (1, 16)
    crown_set = [d.rank(a, 1) for a in range(1, 16)]
    crown = C.build(d, C.SymmetricSet.from_elements(d, crown_set))
    arr = D.check_drg(crown)
    assert arr.b == (15, 14, 1) and arr.c == (1, 14, 15)
    ok("A10", "Z_8+Z_2 k=6 search: 2 classes of (16,6,2); 225-pair sweep: "
        "0 nontrivial / 1 trivial corner / 224 non-DRG; families (i)-(iii) verified"
    )


def test_a11_census_determinism_across_partitions():
    for spec in CENSUS_SPECS:
        base, _ = census_report(spec, partitions=1)
        base_bytes = base.to_json()
        for parts in (4, 8):
            rep, _ = census_report(spec, partitions=parts)
            assert rep.to_json() == base_bytes, (spec, parts)
    ok("A11", "census reports byte-identical across 1, 4, 8 partitions for all four groups")
