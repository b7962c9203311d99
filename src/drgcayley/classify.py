"""Exhaustive, automorphism-aware census of distance-regular connection sets.

The scan enumerates all 2^P inverse-pair subsets (kernel-accelerated),
re-verifies every hit in exact library arithmetic, cross-checks the Schur
ring route, groups hits into automorphism orbits, tags families, and
reconciles the result against the expected family list.  Anything outside
that list is an anomaly and fails the run.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

from . import schur
from .cayley import (
    CayleyGraph,
    SymmetricSet,
    build,
    distance_partition,
    is_connected,
    iter_bits,
    mask_of,
)
from .drg import FamilyTag, IntersectionArray, check_drg, recognize
from .groups import (
    GroupDescriptor,
    Subgroup,
    automorphism_group,
    inverse_pairs,
    pair_permutations,
    subgroups_of_order,
)
from .kernels import census_scan
from .structure import (
    antipodal_classes,
    identity_antipodal_subgroup,
    is_bipartite,
    quotient_by_subgroup,
)


class CensusBudgetError(RuntimeError):
    """Enumeration would exceed the configured budget."""


DEFAULT_MAX_PAIRS = 24
DEFAULT_ORBIT_BUDGET = 2_000_000


def enumerate_symmetric_sets(desc: GroupDescriptor) -> Iterator[SymmetricSet]:
    """All 2^P pair-subset connection sets, in pair-index order, streamed."""
    pairs = inverse_pairs(desc)
    pair_masks = [mask_of(cell) for cell in pairs]
    for bits in range(1 << len(pairs)):
        mask = 0
        for j in iter_bits(bits):
            mask |= pair_masks[j]
        yield SymmetricSet(desc, mask)


def orbit_canonical(sset: SymmetricSet) -> tuple[SymmetricSet, int]:
    """Lexicographically minimal Aut(G) image and the orbit size."""
    desc = sset.group
    images = {aut.apply_mask(sset.mask) for aut in automorphism_group(desc)}
    best = min(images, key=lambda m: tuple(iter_bits(m)))
    return SymmetricSet(desc, best), len(images)


@dataclass(frozen=True)
class CensusRecord:
    set_strs: tuple[str, ...]
    set_mask: int
    orbit_size: int
    family: str
    array: str
    diameter: int
    bipartite: bool
    antipodal: bool
    primitive: bool
    schur_verified: bool

    def to_json_obj(self) -> dict:
        return {
            "set": list(self.set_strs),
            "orbitSize": self.orbit_size,
            "family": self.family,
            "array": self.array,
            "diameter": self.diameter,
            "flags": {
                "bipartite": self.bipartite,
                "antipodal": self.antipodal,
                "primitive": self.primitive,
                "schurVerified": self.schur_verified,
            },
        }


@dataclass(frozen=True)
class CensusReport:
    group: str
    symmetric_sets: int
    connected_sets: int
    drg_sets: int
    orbit_count: int
    parameter_class_count: int
    family_set_counts: dict[str, int]
    family_orbit_counts: dict[str, int]
    records: tuple[CensusRecord, ...]
    anomalies: tuple[str, ...]

    def to_json_obj(self) -> dict:
        return {
            "group": self.group,
            "totals": {
                "symmetricSets": self.symmetric_sets,
                "connectedSets": self.connected_sets,
                "drgSets": self.drg_sets,
                "orbitCount": self.orbit_count,
                "parameterClassCount": self.parameter_class_count,
                "familySetCounts": dict(sorted(self.family_set_counts.items())),
                "familyOrbitCounts": dict(sorted(self.family_orbit_counts.items())),
            },
            "records": [r.to_json_obj() for r in self.records],
            "anomalies": list(self.anomalies),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"


def _require_census_group(desc: GroupDescriptor) -> tuple[int, int]:
    pp = desc.prime_power_pair
    if pp is None or pp[0] == 2:
        raise ValueError(
            f"census runs over Z_(p^s) + Z_p with odd prime p; got {desc.spec()}"
        )
    return pp


def _split_ranges(total: int, partitions: int) -> list[tuple[int, int]]:
    if partitions < 1:
        raise ValueError("partitions must be >= 1")
    base, extra = divmod(total, partitions)
    ranges = []
    lo = 0
    for i in range(partitions):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def _classify_hit(
    desc: GroupDescriptor, mask: int, s: int, run_schur: bool
) -> tuple[CensusRecord | None, list[str]]:
    """Library-exact verification of one kernel hit; returns record + anomalies."""
    anomalies: list[str] = []
    sset = SymmetricSet(desc, mask)
    graph = build(desc, sset)
    if not is_connected(graph):
        anomalies.append(f"kernel hit is disconnected: {sset.member_strs()}")
        return None, anomalies
    part = distance_partition(graph)
    array = check_drg(graph, part)
    if array is None:
        anomalies.append(f"kernel hit fails library DRG check: {sset.member_strs()}")
        return None, anomalies
    d = part.diameter
    bip = is_bipartite(graph) is not None
    classes = antipodal_classes(graph, part) if d >= 2 else None
    antip = classes is not None
    primitive = not bip and not antip
    if not array.is_monotone():
        anomalies.append(f"non-monotone intersection array {array} for {sset.member_strs()}")
    schur_ok = True
    module_primitive = primitive
    if run_schur:
        module = schur.distance_module(graph, part)
        constants = schur.is_schur_ring(module)
        schur_ok = constants is not None
        if not schur_ok:
            anomalies.append(
                f"distance module is not a Schur ring for DRG {sset.member_strs()}"
            )
        else:
            schur.structure_constants_sanity(module, constants)
            module_primitive = schur.is_primitive(module)
            if module_primitive != primitive:
                anomalies.append(
                    f"module primitivity {module_primitive} disagrees with graph "
                    f"primitivity {primitive} for {sset.member_strs()}"
                )
    if antip:
        sub = identity_antipodal_subgroup(graph, classes)
        quotient = quotient_by_subgroup(graph, sub)
        q_part = distance_partition(quotient.graph)
        q_array = check_drg(quotient.graph, q_part)
        if q_array is None or q_part.diameter != d // 2:
            anomalies.append(
                f"antipodal quotient not DRG of half diameter for {sset.member_strs()}"
            )
        if d == 2:
            tag_check = recognize(graph, array)
            if tag_check.kind != FamilyTag.MULTIPARTITE:
                anomalies.append(
                    f"antipodal diameter-2 DRG not tagged multipartite: {sset.member_strs()}"
                )
    family = recognize(graph, array)
    if family.kind == FamilyTag.OTHER:
        anomalies.append(f"unrecognized family for {sset.member_strs()}: {family.note}")
    if family.kind in (FamilyTag.PALEY, FamilyTag.CYCLE):
        anomalies.append(f"{family} tag over a p-power pair group: {sset.member_strs()}")
    if antip and not bip and d == 3:
        anomalies.append(f"antipodal non-bipartite diameter-3 DRG: {sset.member_strs()}")
    if primitive and s >= 2 and family.kind != FamilyTag.COMPLETE:
        anomalies.append(
            f"primitive non-complete DRG with s >= 2: {sset.member_strs()}"
        )
    record = CensusRecord(
        set_strs=tuple(sset.member_strs()),
        set_mask=mask,
        orbit_size=0,  # filled at orbit grouping
        family=str(family),
        array=str(array),
        diameter=d,
        bipartite=bip,
        antipodal=antip,
        primitive=primitive,
        schur_verified=schur_ok,
    )
    return record, anomalies


def _assemble_report(
    desc: GroupDescriptor,
    hit_masks: list[int],
    connected: int,
    scanned: int,
    schur_checks: str | int,
) -> CensusReport:
    _, s = desc.prime_power_pair
    pairs = inverse_pairs(desc)
    schur_all = schur_checks == "all"
    schur_limit = 0 if schur_all else int(schur_checks)
    anomalies: list[str] = []
    by_mask: dict[int, CensusRecord] = {}
    for i, mask in enumerate(sorted(hit_masks, key=lambda m: tuple(iter_bits(m)))):
        run_schur = schur_all or i < schur_limit
        record, probs = _classify_hit(desc, mask, s, run_schur)
        anomalies.extend(probs)
        if record is not None:
            by_mask[mask] = record
    # orbit grouping under Aut(G)
    remaining = set(by_mask)
    orbit_records: list[CensusRecord] = []
    while remaining:
        mask = min(remaining, key=lambda m: tuple(iter_bits(m)))
        sset = SymmetricSet(desc, mask)
        canon, orbit_size = orbit_canonical(sset)
        images = {aut.apply_mask(mask) for aut in automorphism_group(desc)}
        missing = images - set(by_mask)
        if missing:
            anomalies.append(
                f"orbit of {sset.member_strs()} leaves the hit set; "
                f"{len(missing)} images missing"
            )
        remaining -= images
        rec = by_mask[canon.mask if canon.mask in by_mask else mask]
        orbit_records.append(
            CensusRecord(
                set_strs=rec.set_strs,
                set_mask=rec.set_mask,
                orbit_size=orbit_size,
                family=rec.family,
                array=rec.array,
                diameter=rec.diameter,
                bipartite=rec.bipartite,
                antipodal=rec.antipodal,
                primitive=rec.primitive,
                schur_verified=rec.schur_verified,
            )
        )
    orbit_records.sort(key=lambda r: tuple(iter_bits(r.set_mask)))
    total_from_orbits = sum(r.orbit_size for r in orbit_records)
    if total_from_orbits != len(hit_masks):
        anomalies.append(
            f"orbit sizes sum to {total_from_orbits}, expected {len(hit_masks)}"
        )
    family_sets: dict[str, int] = {}
    family_orbits: dict[str, int] = {}
    param_classes: set[tuple[str, str]] = set()
    for r in orbit_records:
        family_sets[r.family] = family_sets.get(r.family, 0) + r.orbit_size
        family_orbits[r.family] = family_orbits.get(r.family, 0) + 1
        param_classes.add((r.family, r.array))
    if scanned != 1 << len(pairs):
        anomalies.append(f"scanned {scanned} of {1 << len(pairs)} subsets")
    return CensusReport(
        group=desc.spec(),
        symmetric_sets=1 << len(pairs),
        connected_sets=connected,
        drg_sets=len(hit_masks),
        orbit_count=len(orbit_records),
        parameter_class_count=len(param_classes),
        family_set_counts=family_sets,
        family_orbit_counts=family_orbits,
        records=tuple(orbit_records),
        anomalies=tuple(anomalies),
    )


def census(
    desc: GroupDescriptor,
    *,
    partitions: int = 1,
    threads: int = 1,
    scan: str = "kernel",
    schur_checks: str | int = "all",
    max_pairs: int = DEFAULT_MAX_PAIRS,
    orbit_budget: int = DEFAULT_ORBIT_BUDGET,
) -> CensusReport:
    """Scan every symmetric subset, classify hits, reconcile families.

    scan="kernel" uses the accelerated filters; scan="library" runs the full
    exact check on every subset with no pruning (identical output required);
    scan="orbit" enumerates lex-leader orbit representatives only.
    """
    _require_census_group(desc)
    pairs = inverse_pairs(desc)
    P = len(pairs)
    if scan == "orbit":
        return _census_orbit_first(desc, schur_checks, orbit_budget)
    if P > max_pairs:
        raise CensusBudgetError(
            f"2^{P} subsets exceeds the full-enumeration budget 2^{max_pairs}; "
            "use the orbit-first mode"
        )
    total = 1 << P
    ranges = _split_ranges(total, partitions)
    hit_masks: list[int] = []
    connected = 0
    scanned = 0
    if scan == "kernel":
        pair_masks = [mask_of(cell) for cell in pairs]

        def expand(bits: int) -> int:
            m = 0
            for j in iter_bits(bits):
                m |= pair_masks[j]
            return m

        if threads > 1 and len(ranges) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(
                    pool.map(lambda rg: census_scan(desc, rg[0], rg[1]), ranges)
                )
        else:
            results = [census_scan(desc, lo, hi) for lo, hi in ranges]
        for res in results:
            hit_masks.extend(expand(int(g)) for g in res.hits)
            connected += res.connected
            scanned += res.scanned
    elif scan == "library":
        for lo, hi in ranges:
            for bits in range(lo, hi):
                sset = SymmetricSet.from_pair_bits(desc, bits)
                scanned += 1
                if sset.mask == 0:
                    continue
                graph = build(desc, sset)
                if not is_connected(graph):
                    continue
                connected += 1
                if check_drg(graph) is not None:
                    hit_masks.append(sset.mask)
    else:
        raise ValueError(f"unknown scan mode {scan!r}")
    return _assemble_report(desc, hit_masks, connected, scanned, schur_checks)


# -- orbit-first enumeration (experimental) ----------------------------------


def _leader_children(leader: tuple[int, ...], P: int) -> Iterator[tuple[int, ...]]:
    start = leader[-1] + 1 if leader else 0
    for t in range(start, P):
        yield leader + (t,)


def _is_leader(perms: tuple[tuple[int, ...], ...], subset: tuple[int, ...]) -> bool:
    for perm in perms:
        image = sorted(perm[i] for i in subset)
        if tuple(image) < subset:
            return False
    return True


def orbit_leaders(
    desc: GroupDescriptor, budget: int = DEFAULT_ORBIT_BUDGET
) -> Iterator[tuple[int, ...]]:
    """Lex-least pair-subset orbit representatives, by guided DFS.

    A sorted-tuple lex-minimal representative stays minimal after removing
    its largest element, so the search only ever extends leaders; every
    orbit is emitted exactly once.  Raises past the visit budget.
    """
    perms = pair_permutations(desc)
    P = len(inverse_pairs(desc))
    visited = 0
    stack: list[tuple[int, ...]] = [()]
    while stack:
        leader = stack.pop()
        visited += 1
        if visited > budget:
            raise CensusBudgetError(f"orbit enumeration exceeded budget {budget}")
        yield leader
        children = []
        for child in _leader_children(leader, P):
            if _is_leader(perms, child):
                children.append(child)
        stack.extend(reversed(children))


def _census_orbit_first(
    desc: GroupDescriptor, schur_checks: str | int, budget: int
) -> CensusReport:
    pairs = inverse_pairs(desc)
    perms = pair_permutations(desc)
    pair_masks = [mask_of(cell) for cell in pairs]
    hit_masks: list[int] = []
    connected = 0
    for leader in orbit_leaders(desc, budget):
        orbit = {tuple(sorted(perm[i] for i in leader)) for perm in perms}
        size = len(orbit)
        mask = 0
        for j in leader:
            mask |= pair_masks[j]
        if mask == 0:
            continue
        sset = SymmetricSet(desc, mask)
        graph = build(desc, sset)
        if not is_connected(graph):
            continue
        connected += size
        if check_drg(graph) is not None:
            for member in orbit:
                m = 0
                for j in member:
                    m |= pair_masks[j]
                hit_masks.append(m)
    return _assemble_report(
        desc, hit_masks, connected, 1 << len(pairs), schur_checks
    )


# -- family constructors -----------------------------------------------------


def construct_family(
    desc: GroupDescriptor, kind: str, **params: int
) -> tuple[CayleyGraph, IntersectionArray]:
    """Build a named family member and verify its intersection array.

    kind="complete"; kind="multipartite" with t, m (t*m = |G|);
    kind="td-line" with r over Z_p + Z_p (2 <= r <= p - 1).
    """
    n = desc.order
    if kind == "complete":
        sset = SymmetricSet(desc, ((1 << n) - 1) ^ 1)
        graph = build(desc, sset)
        array = check_drg(graph)
        if array is None or array.diameter != 1:
            raise AssertionError("complete construction failed verification")
        return graph, array
    if kind == "multipartite":
        t, m = params["t"], params["m"]
        if t * m != n or m < 2 or t < 2:
            raise ValueError(f"need t*m = {n} with t, m >= 2; got t={t}, m={m}")
        subs = subgroups_of_order(desc, m)
        if not subs:
            raise ValueError(f"no subgroup of order {m}")
        sset = SymmetricSet(desc, ((1 << n) - 1) ^ subs[0].mask)
        graph = build(desc, sset)
        array = check_drg(graph)
        expect_b = (n - m, m - 1)
        expect_c = (1, n - m)
        if array is None or (array.b, array.c) != (expect_b, expect_c):
            raise AssertionError("multipartite construction failed verification")
        return graph, array
    if kind == "td-line":
        r = params["r"]
        pp = desc.prime_power_pair
        if pp is None or pp[1] != 1:
            raise ValueError("td-line families live over Z_p + Z_p")
        p = pp[0]
        if not 2 <= r <= p - 1:
            raise ValueError(f"need 2 <= r <= p-1 = {p - 1}, got r = {r}")
        subs = subgroups_of_order(desc, p)
        mask = 0
        for h in subs[:r]:
            mask |= h.mask
        sset = SymmetricSet(desc, mask ^ 1)
        graph = build(desc, sset)
        array = check_drg(graph)
        from .designs import td_line_srg_params
        from .drg import srg_params

        want = td_line_srg_params(r, p)
        got = srg_params(array) if array is not None else None
        if got is None or got != want:
            raise AssertionError(
                f"td-line construction expected {want}, got {got}"
            )
        return graph, array
    raise ValueError(f"unknown family kind {kind!r}")
