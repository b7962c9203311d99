import json
from math import comb

import pytest

from drgcayley import cayley as C
from drgcayley import classify as CL
from drgcayley import drg as D
from drgcayley import groups as G


def test_enumerate_symmetric_sets_is_streamed_and_complete():
    d = G.pair_group(3, 1)
    gen = CL.enumerate_symmetric_sets(d)
    assert not isinstance(gen, (list, tuple))
    sets = list(gen)
    assert len(sets) == 16
    assert len({s.mask for s in sets}) == 16
    d9 = G.pair_group(3, 2)
    count = sum(1 for _ in CL.enumerate_symmetric_sets(d9))
    assert count == 8192


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


def test_census_counts_reconcile_with_subgroup_union_formula():
    """Over Z_p+Z_p every union of >= 2 order-p subgroups is a hit and
    conversely; the counts must equal sums of binomials."""
    for p in (3, 5):
        d = G.pair_group(p, 1)
        rep = CL.census(d)
        subgroup_count = len(G.subgroups_of_order(d, p))
        expected = sum(comb(subgroup_count, r) for r in range(2, subgroup_count + 1))
        assert rep.drg_sets == expected


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
    for spec in ("3^1x3", "3^2x3", "5^1x5"):
        d = G.parse_group(spec)
        base = CL.census(d).to_json()
        assert CL.census(d, scan="library").to_json() == base
        assert CL.census(d, scan="orbit").to_json() == base


def test_census_partitions_and_threads_deterministic():
    d = G.parse_group("3^2x3")
    base = CL.census(d, partitions=1).to_json()
    assert CL.census(d, partitions=4).to_json() == base
    assert CL.census(d, partitions=8, threads=4).to_json() == base
    assert CL.census(d, partitions=5, threads=2).to_json() == base


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


def test_census_rejects_non_pair_groups_and_big_groups():
    with pytest.raises(ValueError):
        CL.census(G.cyclic_group(27))
    with pytest.raises(CL.CensusBudgetError):
        CL.census(G.pair_group(3, 3))  # 2^40 subsets
    with pytest.raises(CL.CensusBudgetError):
        CL.census(G.pair_group(3, 3), scan="orbit", orbit_budget=50)


def test_orbit_leader_count_small():
    d = G.pair_group(3, 1)
    leaders = list(CL.orbit_leaders(d))
    # pair action is S_4: one orbit per subset size
    assert len(leaders) == 5
    assert sorted(len(l) for l in leaders) == [0, 1, 2, 3, 4]


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
    assert D.srg_params(arr).as_tuple() == (25, 8, 3, 2)
    with pytest.raises(ValueError):
        CL.construct_family(d5, "td-line", r=5)  # r must stay below p
    with pytest.raises(ValueError):
        CL.construct_family(d, "multipartite", t=5, m=9)
    with pytest.raises(ValueError):
        CL.construct_family(d, "td-line", r=2)  # needs s = 1
