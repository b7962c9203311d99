import hashlib
import io
import json
import random
from dataclasses import astuple
from itertools import combinations, cycle, islice, product

import numpy as np
import pytest

from drgcayley import cayley as C
from drgcayley import classify as CL
from drgcayley import cli
from drgcayley import drg as D
from drgcayley import groups as G
from drgcayley import kernels as K

REPORT_SHA256 = {
    "3^1x3": "3b39457fbd689d637ecaf915657500d50858f69556b4c8b64c231c027b195616",
    "3^2x3": "0842a11f14e33099726dbe138cacfbd074ecf4b005e375ac66cd1c53bb7ade96",
    "5^1x5": "1d2feff09f5ab9d6945ab5ec36fc699bedb5d8a791722558fc1dda6f7e7d2687",
}

# orders 81 and 125, in kernel mode only: library mode's 2^40 and 2^62
# subsets and orbit mode's pair-layer orbits exceed the orbit budget
LARGE_REPORT_SHA256 = {
    "3^3x3": "de5f52779a842920517ad5f421a7129a5a988b60d58c34cd4b1d9bb27e67ebff",
    "5^2x5": "e8055449e69764346c417230028b700302c0b09da4a60973715cd522413775b1",
}


def test_orbit_canonical_examples():
    d = G.pair_group(3, 1)
    subs = G.subgroups_of_order(d, 3)
    full = C.SymmetricSet(d, ((1 << 9) - 1) ^ 1)
    canon, size = CL.orbit_canonical(full)
    assert size == 1 and canon == full
    single = C.SymmetricSet(d, subs[1].mask ^ 1)
    canon, size = CL.orbit_canonical(single)
    assert size == 4
    assert canon.mask == min(h.mask ^ 1 for h in subs)
    union = C.SymmetricSet(d, (subs[0].mask | subs[1].mask) ^ 1)
    _, size = CL.orbit_canonical(union)
    assert size == 6


def _lex_least(masks):
    return min(masks, key=lambda m: tuple(G.iter_bits(m)))


def _element_orbit(sset):
    """Aut(G) images of the set as element masks, by brute force."""
    members = list(G.iter_bits(sset.mask))
    auts = G.automorphism_group(sset.group)
    return {G.mask_of(row) for row in auts[:, members].tolist()}


@pytest.mark.parametrize("spec", ["3^1x3", "3^2x3", "6x2"])
def test_orbit_canonical_matches_element_brute_force(spec):
    """Every pair-subset; 6x2 has involutions, hence singleton pairs."""
    d = G.parse_group(spec)
    expected: dict[int, tuple[int, int]] = {}
    for bits in range(1 << len(G.inverse_pairs(d))):
        sset = C.SymmetricSet.from_pair_bits(d, bits)
        if sset.mask not in expected:
            orbit = _element_orbit(sset)
            expected.update(dict.fromkeys(orbit, (_lex_least(orbit), len(orbit))))
        canon, size = CL.orbit_canonical(sset)
        assert (canon.mask, size) == expected[sset.mask], sset.member_strs()


def test_orbit_canonical_matches_element_brute_force_on_random_z7z7_sets():
    d = G.pair_group(7, 1)
    rng = random.Random(7)
    for _ in range(40):
        sset = C.SymmetricSet.from_pair_bits(d, rng.getrandbits(24))
        orbit = _element_orbit(sset)
        canon, size = CL.orbit_canonical(sset)
        assert (canon.mask, size) == (_lex_least(orbit), len(orbit))


@pytest.mark.parametrize(
    "spec,expected_sets,expected_classes",
    [("3^1x3", 11, 3), ("3^2x3", 9, 3), ("5^1x5", 57, 5)],
)
def test_census_counts(spec, expected_sets, expected_classes):
    rep = CL.census(G.parse_group(spec))
    assert rep.drg_sets == expected_sets
    assert rep.parameter_class_count == expected_classes
    assert rep.anomalies == ()
    assert sum(r.orbit_size for r in rep.records) == rep.drg_sets


def _theorem_hits(d):
    """The paper's hit sets, as element masks, from the subgroup lattice alone.

    s = 1: every union of r >= 2 of the p + 1 order-p subgroups, minus 0
    (2^(p+1) - p - 2 sets).  s >= 2: G minus H for each subgroup H != G.
    """
    p, s = d.prime_power_pair
    full = (1 << d.order) - 1
    if s >= 2:
        return {full ^ h.mask for h in G.all_subgroups(d) if h.mask != full}
    lines = [h.mask for h in G.subgroups_of_order(d, p)]
    return {
        sum(1 << x for x in set().union(*(G.iter_bits(h) for h in chosen))) ^ 1
        for r in range(2, len(lines) + 1)
        for chosen in combinations(lines, r)
    }


def _leader_words(layers):
    """The pair word of every orbit leader of ``layers``, in DFS order, cut
    one leader past each layer's Burnside count as the census cuts it."""
    return [
        int(layer.words[list(leader)].sum())
        for layer in layers
        for leader in islice(CL.orbit_leaders(layer), CL.orbit_count(layer) + 1)
    ]


def _survivors(d):
    """The sets of the Aut(G) orbits of the kernel leaders that pass the funnel."""
    words = np.array(_leader_words(K.multiplier_layers(d)), dtype=np.int64)
    passed, _ = K.word_funnel(d, words)
    return sorted(image for bits in passed[-1].tolist() for image in CL._pair_orbit(d, bits))


def test_census_counts_reconcile_with_subgroup_union_formula():
    """The census hit sets equal the theorem's, built without the census:
    11 / 9 / 57 / 247 / 13 / 13 sets on 3^1x3 / 3^2x3 / 5^1x5 / 7^1x7 /
    3^3x3 / 5^2x5."""
    for spec, count in (
        ("3^1x3", 11), ("3^2x3", 9), ("5^1x5", 57), ("7^1x7", 247), ("3^3x3", 13), ("5^2x5", 13)
    ):
        d = G.parse_group(spec)
        expected = _theorem_hits(d)
        assert len(expected) == count
        survivors = _survivors(d)
        assert {C.SymmetricSet.from_pair_bits(d, bits).mask for bits in survivors} == expected
        rep = CL.census(d)
        assert rep.drg_sets == count and rep.anomalies == ()


def test_census_family_maps():
    rep = CL.census(G.parse_group("3^2x3"))
    assert rep.family_set_counts == {
        "Complete": 1,
        "CompleteMultipartite(3,9)": 4,
        "CompleteMultipartite(9,3)": 4,
    }
    # the order-9 subgroups split into a characteristic one plus an orbit of 3
    assert rep.family_orbit_counts == {
        "Complete": 1,
        "CompleteMultipartite(3,9)": 2,
        "CompleteMultipartite(9,3)": 2,
    }


def test_census_modes_agree_bytewise():
    for spec, digest in REPORT_SHA256.items():
        d = G.parse_group(spec)
        base = CL.census(d).to_json()
        assert hashlib.sha256(base.encode()).hexdigest() == digest
        assert CL.census(d, scan="library").to_json() == base
        assert CL.census(d, scan="library", partitions=4).to_json() == base
        assert CL.census(d, scan="orbit").to_json() == base


@pytest.mark.parametrize("spec", sorted(LARGE_REPORT_SHA256))
def test_census_past_order_62_matches_its_digest(spec):
    """The kernel-mode report of 3^3x3 and 5^2x5, at 1 and 4 partitions."""
    d = G.parse_group(spec)
    for partitions in (1, 4):
        report = CL.census(d, partitions=partitions).to_json()
        assert hashlib.sha256(report.encode()).hexdigest() == LARGE_REPORT_SHA256[spec]


def test_orbit_mode_matches_the_7x7_digest():
    """Orbit mode's one DFS on 7^1x7 walks all 17,793 Aut(G) orbits of its
    2^24 subsets and gives kernel mode's report, at 1 and 4 partitions;
    each census runs its own DFS."""
    d = G.pair_group(7, 1)
    for partitions in (1, 4):
        report = CL.census(d, scan="orbit", partitions=partitions)
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == "9d47236b96ffe9ab5076b65eff5273ad46a9cc559d0f0819c51e7364e82a6b7a"
        counts = {stage: count for stage, count, _ in report.funnel}
        assert counts["aut"] == counts["leaders"] == 17_793
        assert (counts["hits"], counts["orbits"]) == (247, 8)


def test_census_partitions_and_threads_deterministic():
    d = G.parse_group("3^2x3")
    base = CL.census(d, partitions=1).to_json()
    assert CL.census(d, partitions=4).to_json() == base
    assert CL.census(d, partitions=8, threads=4).to_json() == base
    assert CL.census(d, partitions=5, threads=2).to_json() == base


def _count_funnel_calls(monkeypatch):
    """The list of word counts ``word_funnel`` is called with, as it fills."""
    calls = []
    word_funnel = CL.word_funnel

    def counted(desc, words):
        calls.append(len(words))
        return word_funnel(desc, words)

    monkeypatch.setattr(CL, "word_funnel", counted)
    return calls


@pytest.mark.parametrize("spec", ["3^2x3", "5^1x5"])
def test_orbit_mode_honours_partitions_and_threads(monkeypatch, spec):
    """Orbit mode passes all its leaders (287 and 49) to one funnel call at
    every ``partitions`` and ``threads``, and gives the same bytes."""
    d = G.parse_group(spec)
    calls = _count_funnel_calls(monkeypatch)
    base = CL.census(d, scan="orbit").to_json()
    assert hashlib.sha256(base.encode()).hexdigest() == REPORT_SHA256[spec]
    assert calls == [{"3^2x3": 287, "5^1x5": 49}[spec]]
    leaders = list(calls)
    for partitions, threads in ((4, 1), (4, 4), (8, 2), (8, 4)):
        calls.clear()
        report = CL.census(d, scan="orbit", partitions=partitions, threads=threads)
        assert report.to_json() == base
        assert calls == leaders


@pytest.mark.parametrize("scan", ["kernel", "orbit"])
def test_partitions_past_the_leaders_cost_no_work(monkeypatch, scan):
    """More partitions than leaders change nothing: 3^1x3's 4 leaders pass
    one funnel call at 1,000 partitions."""
    d = G.parse_group("3^1x3")
    calls = _count_funnel_calls(monkeypatch)
    report = CL.census(d, scan=scan, partitions=1000)
    assert calls == [4]
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == REPORT_SHA256["3^1x3"]


def test_census_past_the_table_bound_is_refused_before_the_root_search(monkeypatch):
    """3^16x3 (order 3^17) is refused by the group-table bound before the
    multipliers' primitive root mod 3^16 is sought."""
    def no_root_search(*args):
        raise AssertionError("the primitive-root search ran")

    monkeypatch.setattr(K, "pow", no_root_search, raising=False)
    with pytest.raises(ValueError, match="exceeds the table bound 1024"):
        CL.census(G.parse_group("3^16x3"))


def test_census_json_shape():
    rep = CL.census(G.parse_group("3^1x3"))
    data = json.loads(rep.to_json())
    assert set(data) == {"group", "totals", "records", "anomalies"}
    assert data["totals"]["symmetricSets"] == 16
    assert data["totals"]["connectedSets"] == 11
    assert data["totals"]["drgSets"] == 11
    rec = data["records"][0]
    assert set(rec) == {"set", "orbitSize", "family", "array", "diameter", "flags"}
    assert set(rec["flags"]) == {"bipartite", "antipodal", "primitive", "schurVerified"}
    assert all(r["flags"]["schurVerified"] for r in data["records"])


def _tamper_survivors(monkeypatch, add=(), drop=()):
    """The enumeration hands the report its true survivors with ``add`` put
    in and ``drop`` taken out.  The seam is the report's input: the census
    expands every c_2 survivor to its whole orbit before that, so a set
    missing from an orbit can only arrive there."""
    assemble = CL._assemble_report

    def tampered(desc, survivors, *args):
        return assemble(desc, sorted(set(survivors) - set(drop) | set(add)), *args)

    monkeypatch.setattr(CL, "_assemble_report", tampered)


# pair bits over 5^1x5: 5 is connected but not distance-regular, so the exact
# decision drops it, or its whole orbit of 60, and the report is the
# untampered one; 1 spans the subgroup <(0,1)> only, and so do 8 and 512 in
# its orbit, which lead as one orbit, named by 8, the lex-least of the two;
# and 135 is the lex-least set of a TD line graph orbit of 15, so the next
# member of that orbit leads its record
TAMPERED_HITS = {
    "non-drg": ((5,), (), ()),
    "non-drg-orbit": (tuple(CL._pair_orbit(G.pair_group(5, 1), 5)), (), ()),
    "disconnected": ((1,), (), ("c2 survivor is disconnected: ['(0,1)', '(0,4)']",)),
    "disconnected-orbit": (
        (8, 512),
        (),
        ("c2 survivor is disconnected: ['(1,1)', '(4,4)']",),
    ),
    "missing-image": (
        (),
        (135,),
        (
            "orbit of ['(0,1)', '(0,2)', '(0,3)', '(0,4)', '(1,1)', '(2,2)', '(3,3)', "
            "'(4,4)'] leaves the hit set; 1 images missing",
            "orbit sizes sum to 57, expected 56",
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(TAMPERED_HITS))
def test_census_reports_tampered_hits(monkeypatch, case):
    add, drop, anomalies = TAMPERED_HITS[case]
    _tamper_survivors(monkeypatch, add, drop)
    report = CL.census(G.pair_group(5, 1))
    assert report.anomalies == anomalies
    if case.startswith("non-drg"):
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == REPORT_SHA256["5^1x5"]


def _endless(leaders):
    """The leaders, then the first ones again without end; it fails the run
    past ten times their number, where a DFS left unbounded would hang."""
    for count, leader in enumerate(cycle(leaders)):
        assert count < 10 * len(leaders), "the DFS ran past its count"
        yield leader


@pytest.mark.parametrize(
    "scan,tamper,anomaly",
    [
        ("kernel", lambda leaders: leaders[1:], "enumeration produced 17 of 18 orbit leaders"),
        ("orbit", lambda leaders: leaders[1:], "enumeration produced 48 of 49 orbit leaders"),
        (
            "kernel",
            lambda leaders: leaders + leaders[-2:],
            "enumeration produced 19 of 18 orbit leaders",
        ),
        (
            "orbit",
            lambda leaders: leaders + leaders[-2:],
            "enumeration produced 50 of 49 orbit leaders",
        ),
        ("kernel", _endless, "enumeration produced 19 of 18 orbit leaders"),
        ("orbit", _endless, "enumeration produced 50 of 49 orbit leaders"),
    ],
    ids=[
        "short-count", "short-count-orbit", "repeated-words", "repeated-words-orbit",
        "endless", "endless-orbit",
    ],
)
def test_census_reports_generator_check_failures(monkeypatch, scan, tamper, anomaly):
    """The leaders must number the layers' Burnside count, in both modes: one
    leader dropped from the first layer is an anomaly, and so are two
    repeated or an endless DFS, which the census cuts one leader past the
    layer's count.  Dropping the first leader of 5^1x5 loses no hit, and
    repeats add none."""
    leaders = CL.orbit_leaders
    layers = []

    def tampered(layer):
        layers.append(layer)
        found = list(leaders(layer))
        return iter(tamper(found) if len(layers) == 1 else found)

    monkeypatch.setattr(CL, "orbit_leaders", tampered)
    report = CL.census(G.pair_group(5, 1), scan=scan)
    assert report.anomalies == (anomaly,)
    assert report.records == CL.census(G.pair_group(5, 1)).records


def test_census_command_exits_2_on_a_tampered_hit(monkeypatch):
    add, drop, anomalies = TAMPERED_HITS["disconnected"]
    _tamper_survivors(monkeypatch, add, drop)
    out = io.StringIO()
    assert cli.main(["census", "--group", "5^1x5"], out=out) == 2
    assert tuple(json.loads(out.getvalue())["anomalies"]) == anomalies


@pytest.mark.parametrize("spec", sorted(REPORT_SHA256))
def test_census_classifies_one_set_per_orbit(monkeypatch, spec):
    calls = []
    classify_hit = CL._classify_hit

    def counted(*args):
        calls.append(args)
        return classify_hit(*args)

    monkeypatch.setattr(CL, "_classify_hit", counted)
    rep = CL.census(G.parse_group(spec))
    assert rep.anomalies == ()
    assert len(calls) == rep.orbit_count



def test_census_tags_each_orbit_once(monkeypatch):
    """recognize runs once per orbit.  On an antipodal diameter-2 orbit that
    one tag is also the multipartite cross-check, whose anomaly text holds."""
    d = G.pair_group(3, 1)
    multipartite = next(
        r for r in CL.census(d).records if r.family == "CompleteMultipartite(3,3)"
    )
    calls = []
    recognize = CL.recognize

    def mistagged(graph, array):
        calls.append(graph.connection.mask)
        tag = recognize(graph, array)
        if tag.kind == D.FamilyTag.MULTIPARTITE:
            return D.FamilyTag(D.FamilyTag.TDLINE, (2, 3))
        return tag

    monkeypatch.setattr(CL, "recognize", mistagged)
    report = CL.census(d)
    assert len(calls) == len(set(calls)) == report.orbit_count == 3
    assert report.anomalies == (
        "antipodal diameter-2 DRG not tagged multipartite: "
        f"{list(multipartite.set_strs)}",
    )


# per group: hits, then orbits; the report validates one SymmetricSet per orbit
REPORT_SETS = {"3^2x3": (9, 5), "5^1x5": (57, 5)}


@pytest.mark.parametrize("spec", sorted(REPORT_SETS))
def test_report_builds_one_symmetric_set_per_orbit(monkeypatch, spec):
    d = G.parse_group(spec)
    survivors = _survivors(d)
    made = []

    class Counted(C.SymmetricSet):
        def __post_init__(self):
            made.append(self.mask)
            super().__post_init__()

    monkeypatch.setattr(CL, "SymmetricSet", Counted)
    report = CL._assemble_report(d, survivors, K.connected_count(d), [], [])
    assert (len(survivors), report.orbit_count) == REPORT_SETS[spec]
    assert report.anomalies == ()
    assert len(made) == len(set(made)) == report.orbit_count
    assert sorted(list(r.set_strs) for r in report.records) == sorted(
        C.SymmetricSet(d, mask).member_strs() for mask in made
    )

# per group: hits, then survivor orbits (one exact verdict each in both modes)
EXACT_DECISIONS = {"3^1x3": (11, 3), "3^2x3": (9, 5), "5^1x5": (57, 5)}


@pytest.mark.parametrize("spec", sorted(EXACT_DECISIONS))
def test_census_decides_each_survivor_orbit_once(monkeypatch, spec):
    """Kernel and orbit mode decide one lead per Aut(G) orbit of their c_2
    survivors by BFS in the report, and call neither the library verdict
    nor is_drg_pairmask."""
    d = G.parse_group(spec)
    hits, orbits = EXACT_DECISIONS[spec]
    verdicts, pairmasks, decided = [], [], []
    library_verdict, pairmask, connected = CL._library_verdict, K.is_drg_pairmask, CL.is_connected

    def counted_verdict(desc, bits):
        verdicts.append(bits)
        return library_verdict(desc, bits)

    def counted_pairmask(desc, bits):
        pairmasks.append(bits)
        return pairmask(desc, bits)

    def counted_connected(graph):
        decided.append(graph.connection)
        return connected(graph)

    monkeypatch.setattr(CL, "_library_verdict", counted_verdict)
    monkeypatch.setattr(K, "is_drg_pairmask", counted_pairmask)
    monkeypatch.setattr(CL, "is_connected", counted_connected)
    for scan in ("kernel", "orbit"):
        decided.clear()
        report = CL.census(d, scan=scan)
        assert (report.drg_sets, report.orbit_count) == (hits, orbits)
        assert verdicts == [] and pairmasks == []
        # the decided leads lie in distinct orbits that hold every hit
        canonical = [CL.orbit_canonical(sset) for sset in decided]
        assert len(decided) == len({lead.mask for lead, _ in canonical}) == orbits
        assert sum(size for _, size in canonical) == hits


@pytest.mark.parametrize("spec", ["3^2x3", "5^1x5"])
def test_orbit_mode_funnel_loses_no_hit(monkeypatch, spec):
    """The leaders the library verdict calls distance-regular, each leader
    decided, are the leads the report's BFS calls distance-regular."""
    d = G.parse_group(spec)
    leaders = [sum(1 << j for j in leader) for leader in CL.orbit_leaders(K.pair_layer(d))]
    expected = {
        C.SymmetricSet.from_pair_bits(d, bits).mask
        for bits in leaders
        if CL._library_verdict(d, bits)[1]
    }
    decided = []
    check_drg = CL.check_drg

    def recorded(graph, *args):
        array = check_drg(graph, *args)
        if graph.group == d:  # not an antipodal quotient
            decided.append((graph.connection.mask, array is not None))
        return array

    monkeypatch.setattr(CL, "check_drg", recorded)
    CL.census(d, scan="orbit")
    assert len(decided) < len(leaders)
    assert {mask for mask, drg in decided if drg} == expected


def test_orbit_mode_reports_a_disconnected_survivor(monkeypatch):
    """A word the funnel passes but BFS finds disconnected is one anomaly
    for its whole orbit, in orbit and kernel mode; the report is otherwise
    the clean one."""
    d = G.pair_group(5, 1)
    clean = CL.census(d).records
    word_funnel = CL.word_funnel

    def tampered(desc, words):
        passed, seconds = word_funnel(desc, words)
        return passed[:-1] + (np.union1d(passed[-1], [1]),), seconds

    monkeypatch.setattr(CL, "word_funnel", tampered)
    for scan in ("orbit", "kernel"):
        report = CL.census(d, scan=scan)
        assert report.anomalies == TAMPERED_HITS["disconnected"][2]
        assert report.records == clean


def test_census_rejects_non_pair_groups_and_big_groups(monkeypatch):
    with pytest.raises(ValueError):
        CL.census(G.cyclic_group(27))
    with pytest.raises(ValueError, match="partitions must be >= 1"):
        CL.census(G.pair_group(3, 1), partitions=0)

    def no_work(*args):
        raise AssertionError("the DFS or a BFS ran")

    # library mode's 2^P subsets meet the orbit budget before any BFS:
    # 2^40 on 3^3x3 against the default, 2^13 on 3^2x3 against 50
    monkeypatch.setattr(CL, "_library_verdict", no_work)
    with pytest.raises(CL.CensusBudgetError, match="1099511627776 pair-subsets exceed"):
        CL.census(G.pair_group(3, 3), scan="library")
    with pytest.raises(CL.CensusBudgetError, match="8192 pair-subsets exceed the orbit budget of 50"):
        CL.census(G.pair_group(3, 2), scan="library", orbit_budget=50)
    # the budget bounds the Burnside count, 17,793 and 119 orbits, before the DFS
    monkeypatch.setattr(CL, "orbit_leaders", no_work)
    with pytest.raises(CL.CensusBudgetError, match="17793 Aut.G. orbits exceed"):
        CL.census(G.pair_group(7, 1), scan="orbit", orbit_budget=50)
    with pytest.raises(CL.CensusBudgetError, match="119 Aut.G. orbits exceed"):
        CL.census(G.pair_group(7, 1), orbit_budget=50)


def test_orbit_leader_count_small():
    d = G.pair_group(3, 1)
    leaders = list(CL.orbit_leaders(K.pair_layer(d)))
    # pair action is S_4: one orbit per nonempty subset size
    assert len(leaders) == 4
    assert sorted(len(l) for l in leaders) == [1, 2, 3, 4]


def _layer_leaders(layer):
    """The lex-least point tuple of every orbit of nonempty layer sets, in lex
    order: brute force over every set with at most one point per block, with
    the orbits taken from ``layer.action``."""
    after = layer.after.tolist()
    blocks = [range(start, after[start]) for start in sorted({0, *after})[:-1]]
    rows = layer.action.tolist()
    seen: set[tuple[int, ...]] = set()
    leaders = []
    for choice in product(*[(None, *block) for block in blocks]):
        points = tuple(t for t in choice if t is not None)
        if points and points not in seen:
            orbit = {tuple(sorted(row[t] for t in points)) for row in rows}
            seen |= orbit
            leaders.append(min(orbit))
    return sorted(leaders)


@pytest.mark.parametrize("spec", ["3^1x3", "3^2x3", "5^1x5", "6x2"])
def test_orbit_leaders_are_the_lex_least_member_of_every_orbit(spec):
    """Brute force over every nonempty pair-subset; 6x2 has singleton pairs.
    The DFS emits the leaders in lex order of their point tuples."""
    d = G.parse_group(spec)
    seen: set[int] = set()
    expected = []
    for bits in range(1, 1 << len(G.inverse_pairs(d))):
        sset = C.SymmetricSet.from_pair_bits(d, bits)
        if sset.mask not in seen:
            orbit = _element_orbit(sset)
            seen |= orbit
            expected.append(_lex_least(orbit))
    layer = K.pair_layer(d)
    leaders = list(CL.orbit_leaders(layer))
    assert leaders == _layer_leaders(layer)
    masks = [C.SymmetricSet.from_pair_bits(d, sum(1 << j for j in leader)).mask for leader in leaders]
    assert sorted(masks) == sorted(expected)


@pytest.mark.parametrize("spec", ["3^1x3", "3^2x3", "5^1x5"])
def test_orbit_leaders_of_every_multiplier_layer_in_lex_order(spec):
    for layer in K.multiplier_layers(G.parse_group(spec)):
        assert list(CL.orbit_leaders(layer)) == _layer_leaders(layer)


@pytest.mark.parametrize("spec", ["3^1x3", "3^2x3", "5^1x5", "7^1x7", "3^3x3", "5^2x5", "11^1x11"])
def test_layer_action_row_0_is_the_identity(spec):
    """``orbit_leaders`` reads column 0 of its row sums as the set itself."""
    for layer in K.multiplier_layers(G.parse_group(spec)):
        assert layer.action[0].tolist() == list(range(len(layer.words)))


@pytest.mark.parametrize("spec", ["3^1x3", "3^2x3", "5^1x5", "6x2", "Zn:9"])
def test_pair_permutations_rows(spec):
    """Row 0 is the identity, rows are distinct and ascend, and they are the
    pair action of automorphism_group."""
    d = G.parse_group(spec)
    pairs = G.inverse_pairs(d)
    pair_of = {g: j for j, cell in enumerate(pairs) for g in cell}
    derived = {
        tuple(pair_of[aut[cell[0]]] for cell in pairs)
        for aut in G.automorphism_group(d).tolist()
    }
    rows = [tuple(r) for r in np.asarray(G.pair_permutations(d)).tolist()]
    assert rows[0] == tuple(range(len(pairs)))
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert set(rows) == derived


def test_orbit_mode_refuses_more_than_62_pairs_before_enumerating(monkeypatch):
    d = G.pair_group(13, 1)  # 84 inverse pairs
    verdicts = []
    monkeypatch.setattr(CL, "_assemble_report", lambda *args: verdicts.append(args))
    with pytest.raises(ValueError, match="84 inverse pairs"):
        CL.census(d, scan="orbit")
    assert verdicts == []


def test_orbit_first_census_matches_on_z5z5():
    d = G.pair_group(5, 1)
    assert CL.census(d, scan="orbit").to_json() == CL.census(d).to_json()


def test_construct_family():
    d = G.pair_group(3, 2)
    graph, arr = CL.construct_family(d, "complete")
    assert str(arr) == "{26;1}"
    graph, arr = CL.construct_family(d, "multipartite", t=3, m=9)
    assert arr.b == (18, 8) and arr.c == (1, 18)
    d5 = G.pair_group(5, 1)
    graph, arr = CL.construct_family(d5, "td-line", r=2)
    assert astuple(D.srg_params(arr)) == (25, 8, 3, 2)
    with pytest.raises(ValueError):
        CL.construct_family(d5, "td-line", r=5)  # r must stay below p
    with pytest.raises(ValueError):
        CL.construct_family(d, "multipartite", t=5, m=9)
    with pytest.raises(ValueError):
        CL.construct_family(d, "td-line", r=2)  # needs s = 1


@pytest.mark.parametrize(
    "desc,kind,params",
    [
        (G.pair_group(3, 2), "complete", {}),
        (G.pair_group(3, 2), "multipartite", {"t": 3, "m": 9}),
        (G.pair_group(5, 1), "td-line", {"r": 2}),
    ],
)
def test_construct_family_refuses_a_graph_that_fails_its_check(monkeypatch, desc, kind, params):
    """Every family goes through the one array comparison: a graph that
    check_drg does not certify is refused."""
    monkeypatch.setattr(CL, "check_drg", lambda graph: None)
    with pytest.raises(AssertionError, match=f"{kind} construction expected .*, got None"):
        CL.construct_family(desc, kind, **params)
