"""Exhaustive, automorphism-aware census of distance-regular connection sets.

A census candidate is a pair-bits int: bit j selects inverse pair j of
``groups.inverse_pairs``.  Three enumerations hand the sets they pass to the
report as pair bits.  The default, ``scan="kernel"``, generates only the
sets that Schur's multiplier theorem allows and filters them
(``kernels.census_generate``; the connected count is a Moebius sum over
the subgroup lattice) and passes its c_2 survivors.  ``scan="library"``
decides all 2^P subsets with the exact library check and passes its hits.
``scan="orbit"`` takes one lex-leader per Aut(G) orbit, passes the leaders
through the generator's funnel (``kernels.word_funnel``) and passes the
whole orbit of each c_2 survivor; the connected count is the kernel mode's
Moebius sum.  The exhaustive ``kernels.census_scan`` stays outside
``census`` as the oracle the tests hold the generator to.

The report groups the sets it is given into Aut(G) orbits under the pair
action ``groups.pair_permutations``, as pair bits.  Since sigma in Aut(G)
gives Cay(G, S) = Cay(G, sigma(S)), connectivity, distance-regularity and
every field of a record are orbit invariants.  So only the lead of each
orbit, its lex-least member present, is built as a ``SymmetricSet`` and
decided, by one BFS, and the lead of each distance-regular orbit is
classified with that same graph: its family is tagged, the Schur ring route
and the antipodal quotient cross-checked, and the result reconciled against
the expected family list.  Anything outside that list is an anomaly and
fails the run.

Every orbit computation is a gather on, or a matmul with, that one (k, P)
table.  The lex rule: among sets with equally many pairs, the lex-least
sorted pair tuple holds the lowest pair where two sets differ, so it has the
largest reversed word (pair j at bit P - 1 - j).  Words are int64, so P > 62 is refused.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator

import numpy as np

from . import schur
from .cayley import (
    CayleyGraph,
    DistancePartition,
    SymmetricSet,
    build,
    distance_partition,
    is_connected,
    iter_bits,
)
from .drg import FamilyTag, IntersectionArray, check_drg, recognize, td_line_srg_params
from .groups import (
    GroupDescriptor,
    all_subgroups,
    inverse_pairs,
    pair_permutations,
    subgroups_of_order,
)
from .kernels import (
    BATCH,
    FUNNEL_STAGES,
    candidate_count,
    census_generate,
    connected_count,
    word_funnel,
)
from .structure import is_antipodal, is_bipartite, quotient_by_subgroup


class CensusBudgetError(RuntimeError):
    """Enumeration would exceed the census budget, MAX_PAIRS inverse pairs."""


MAX_PAIRS = 24  # groups with more inverse pairs are refused
DEFAULT_ORBIT_BUDGET = 2_000_000


def _pair_action(desc: GroupDescriptor) -> tuple[np.ndarray, np.ndarray]:
    """``pair_permutations`` and its reversed-word bits (entry j as bit P - 1 - j).

    Words are int64, so groups with more than 62 inverse pairs are refused.
    """
    perms = pair_permutations(desc)
    P = perms.shape[1]
    if P > 62:
        raise ValueError(f"{desc.spec()} has {P} inverse pairs; pair words hold 62")
    return perms, 1 << (P - 1 - perms)


def _pair_orbit(desc: GroupDescriptor, bits: int) -> set[int]:
    """The pair-bit images of ``bits`` under Aut(G)."""
    images = pair_permutations(desc)[:, list(iter_bits(bits))]
    return set((1 << images).sum(axis=1).tolist())


def orbit_canonical(sset: SymmetricSet) -> tuple[SymmetricSet, int]:
    """Lexicographically minimal Aut(G) image and the orbit size.

    Images in one orbit have equally many pairs, and pairs are ordered by
    their minimum rank, so the lex-least pair-index tuple is also the
    lex-least element-rank tuple.
    """
    desc = sset.group
    perms, rev = _pair_action(desc)
    members = [j for j, cell in enumerate(inverse_pairs(desc)) if sset.mask >> cell[0] & 1]
    words = rev[:, members].sum(axis=1)
    best = perms[words.argmax(), members]
    return SymmetricSet.from_pair_bits(desc, int((1 << best).sum())), len(set(words.tolist()))


@dataclass(frozen=True)
class CensusRecord:
    set_strs: tuple[str, ...]
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
    # (stage, sets out, seconds) per census stage; never part of the JSON
    funnel: tuple[tuple[str, int, float], ...] = field(default=(), compare=False)

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


def _require_census_group(desc: GroupDescriptor) -> None:
    pp = desc.prime_power_pair
    if pp is None or pp[0] == 2:
        raise ValueError(
            f"census runs over Z_(p^s) + Z_p with odd prime p; got {desc.spec()}"
        )


def _split_ranges(total: int, partitions: int) -> list[tuple[int, int]]:
    if partitions < 1:
        raise ValueError("partitions must be >= 1")
    return [
        (total * i // partitions, total * (i + 1) // partitions)
        for i in range(partitions)
    ]


def _library_verdict(desc: GroupDescriptor, bits: int) -> tuple[bool, bool]:
    """(connected, distance-regular) for one pair-subset, by BFS alone."""
    if bits == 0:
        return False, False
    graph = build(desc, SymmetricSet.from_pair_bits(desc, bits))
    if not is_connected(graph):
        return False, False
    return True, check_drg(graph) is not None


def _classify_hit(
    graph: CayleyGraph, part: DistancePartition, array: IntersectionArray, s: int, orbit_size: int
) -> tuple[CensusRecord, list[str]]:
    """The record of a verified hit's orbit, and the anomalies its set shows."""
    sset = graph.connection
    anomalies: list[str] = []
    d = part.diameter
    bip = is_bipartite(graph) is not None
    antip = is_antipodal(graph, part)
    primitive = not bip and not antip
    family = recognize(graph, array)
    if not array.is_monotone():
        anomalies.append(f"non-monotone intersection array {array} for {sset.member_strs()}")
    module = schur.distance_module(graph, part)
    constants = schur.is_schur_ring(module)
    if constants is None:
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
        anti = part.layer_masks[0] | part.layer_masks[d]
        sub = next(h for h in all_subgroups(sset.group) if h.mask == anti)
        quotient = quotient_by_subgroup(graph, sub)
        q_part = distance_partition(quotient)
        q_array = check_drg(quotient, q_part)
        if q_array is None or q_part.diameter != d // 2:
            anomalies.append(
                f"antipodal quotient not DRG of half diameter for {sset.member_strs()}"
            )
        if d == 2 and family.kind != FamilyTag.MULTIPARTITE:
            anomalies.append(
                f"antipodal diameter-2 DRG not tagged multipartite: {sset.member_strs()}"
            )
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
        orbit_size=orbit_size,
        family=str(family),
        array=str(array),
        diameter=d,
        bipartite=bip,
        antipodal=antip,
        primitive=primitive,
        schur_verified=constants is not None,
    )
    return record, anomalies


def _assemble_report(
    desc: GroupDescriptor,
    survivors: list[int],
    connected: int,
    checks: list[str],
    funnel: list[tuple[str, int, float]],
) -> CensusReport:
    """Decide ``survivors`` one Aut(G) orbit at a time and report the hits.

    Distance-regularity is an orbit invariant, so the lead of each orbit is
    decided by BFS and stands for every member present: a disconnected lead
    is an anomaly (the enumeration's connectivity test passed it), a lead
    that is not distance-regular drops its orbit (c_2 is only necessary),
    and a distance-regular lead is classified.  ``checks`` are the
    enumeration's own anomalies and ``funnel`` its stages, to which the hits
    and orbits stages are added.
    """
    _, s = desc.prime_power_pair
    tick = time.perf_counter()
    present = set(survivors)
    grouped: set[int] = set()
    disconnected: list[str] = []
    orbits = []
    for bits in survivors:
        if bits in grouped:
            continue
        orbit = _pair_orbit(desc, bits)
        grouped |= orbit
        # images have equally many pairs, so by the lex rule the lex-least
        # present one has the largest bit string read from pair 0 up
        lead = max(orbit & present, key=lambda image: f"{image:b}"[::-1])
        sset = SymmetricSet.from_pair_bits(desc, lead)
        graph = build(desc, sset)
        if not is_connected(graph):
            disconnected.append(f"c2 survivor is disconnected: {sset.member_strs()}")
            continue
        part = distance_partition(graph)
        array = check_drg(graph, part)
        if array is not None:
            orbits.append((graph, part, array, orbit))
    hits = sum(len(orbit & present) for *_, orbit in orbits)
    funnel.append(("hits", hits, time.perf_counter() - tick))
    tick = time.perf_counter()
    anomalies: list[str] = []
    orbit_records: list[CensusRecord] = []
    # records in lex order of their leads' element ranks
    for graph, part, array, orbit in sorted(orbits, key=lambda item: item[0].connection.members()):
        record, probs = _classify_hit(graph, part, array, s, len(orbit))
        anomalies.extend(probs)
        missing = orbit - present
        if missing:
            anomalies.append(
                f"orbit of {graph.connection.member_strs()} leaves the hit set; "
                f"{len(missing)} images missing"
            )
        orbit_records.append(record)
    total_from_orbits = sum(r.orbit_size for r in orbit_records)
    if total_from_orbits != hits:
        anomalies.append(f"orbit sizes sum to {total_from_orbits}, expected {hits}")
    family_sets: dict[str, int] = {}
    family_orbits: dict[str, int] = {}
    param_classes: set[tuple[str, str]] = set()
    for r in orbit_records:
        family_sets[r.family] = family_sets.get(r.family, 0) + r.orbit_size
        family_orbits[r.family] = family_orbits.get(r.family, 0) + 1
        param_classes.add((r.family, r.array))
    funnel.append(("orbits", len(orbit_records), time.perf_counter() - tick))
    return CensusReport(
        group=desc.spec(),
        symmetric_sets=1 << len(inverse_pairs(desc)),
        connected_sets=connected,
        drg_sets=hits,
        orbit_count=len(orbit_records),
        parameter_class_count=len(param_classes),
        family_set_counts=family_sets,
        family_orbit_counts=family_orbits,
        records=tuple(orbit_records),
        anomalies=tuple(anomalies + checks + disconnected),
        funnel=tuple(funnel),
    )


def _generate(
    desc: GroupDescriptor, partitions: int, threads: int
) -> tuple[list[int], list[str], list[tuple[str, int, float]]]:
    """c_2 survivors, generator checks and funnel of the multiplier-class generator.

    ``partitions`` splits the generator's ``candidate_count`` indices.
    Together the parts must produce exactly that many words, all distinct.
    """
    expected = candidate_count(desc)
    ranges = _split_ranges(expected, partitions)
    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda rg: census_generate(desc, rg[0], rg[1]), ranges))
    else:
        results = [census_generate(desc, lo, hi) for lo, hi in ranges]
    checks = []
    words = np.concatenate([res.words for res in results])
    if len(words) != expected:
        checks.append(f"generator produced {len(words)} of {expected} candidates")
    repeats = len(words) - len(np.unique(words))
    if repeats:
        checks.append(f"generator repeated {repeats} candidate words")
    funnel = [
        (rows[0][0], sum(row[1] for row in rows), sum(row[2] for row in rows))
        for rows in zip(*(res.funnel for res in results))
    ]
    survivors = np.concatenate([res.survivors for res in results])
    return sorted(survivors.tolist()), checks, funnel


def census(
    desc: GroupDescriptor,
    *,
    partitions: int = 1,
    threads: int = 1,
    scan: str = "kernel",
    orbit_budget: int = DEFAULT_ORBIT_BUDGET,
) -> CensusReport:
    """Find every distance-regular connection set, classify hits, reconcile families.

    scan="kernel" generates the multiplier classes and filters them
    (``kernels.census_generate``); scan="library" runs the full exact check
    on every one of the 2^P subsets with no pruning; scan="orbit" passes one
    lex-leader per Aut(G) orbit through the same filters and expands each
    survivor's orbit.  The report then decides one lead per orbit of what
    the enumeration passed.  All three give the same report bytes.
    The report's ``funnel`` holds the count and seconds of each stage run;
    library mode's exhaustive loop is not a stage, so its funnel is the
    report's hits and orbits.
    """
    _require_census_group(desc)
    if scan == "orbit":
        return _census_orbit_first(desc, orbit_budget)
    P = len(inverse_pairs(desc))
    if P > MAX_PAIRS:
        raise CensusBudgetError(f"{P} inverse pairs exceed the census budget of {MAX_PAIRS}")
    if scan == "kernel":
        survivors, checks, funnel = _generate(desc, partitions, threads)
        return _assemble_report(desc, survivors, connected_count(desc), checks, funnel)
    if scan != "library":
        raise ValueError(f"unknown scan mode {scan!r}")
    hits = []
    connected = 0
    for lo, hi in _split_ranges(1 << P, partitions):
        for bits in range(lo, hi):
            conn, drg = _library_verdict(desc, bits)
            connected += conn
            if drg:
                hits.append(bits)
    return _assemble_report(desc, hits, connected, [], [])


# -- orbit-first enumeration (experimental) ----------------------------------


def orbit_leaders(
    desc: GroupDescriptor, budget: int = DEFAULT_ORBIT_BUDGET
) -> Iterator[tuple[int, ...]]:
    """Lex-least pair-subset orbit representatives, by guided DFS.

    A sorted-tuple lex-minimal representative stays minimal after removing
    its largest element, so the search only ever extends leaders; every
    orbit is emitted exactly once.  All children of a leader are tested at
    once: row 0 of the pair action is the identity, so a child leads when no
    row's reversed word beats row 0's.  Raises past the visit budget.
    """
    rev = _pair_action(desc)[1]
    visited = 0
    stack: list[tuple[int, ...]] = [()]
    while stack:
        leader = stack.pop()
        visited += 1
        if visited > budget:
            raise CensusBudgetError(f"orbit enumeration exceeded budget {budget}")
        yield leader
        start = leader[-1] + 1 if leader else 0
        words = rev[:, list(leader)].sum(axis=1)[:, None] + rev[:, start:]
        leads = np.flatnonzero((words <= words[0]).all(axis=0)) + start
        stack.extend(leader + (t,) for t in reversed(leads.tolist()))


def _census_orbit_first(desc: GroupDescriptor, budget: int) -> CensusReport:
    """Orbit mode: the leaders pass ``word_funnel`` BATCH at a time, and each
    c_2 survivor's whole orbit goes to the report, which decides it.

    The connected count is the kernel mode's, ``connected_count``.  The
    first slice of leaders streams in before ``word_funnel`` asks for
    ``scan_context``, so a visit budget below BATCH is met first.
    """
    leaders = orbit_leaders(desc, budget)
    counts = np.zeros(1 + len(FUNNEL_STAGES), dtype=np.int64)
    seconds = np.zeros(1 + len(FUNNEL_STAGES))
    survivors = []
    while True:
        tick = time.perf_counter()
        words = np.array(
            [sum(1 << j for j in leader) for leader in islice(leaders, BATCH)], dtype=np.int64
        )
        seconds[0] += time.perf_counter() - tick
        if not len(words):
            break
        passed, stage_s = word_funnel(desc, words)
        counts += [len(words)] + [len(stage) for stage in passed]
        seconds[1:] += stage_s
        survivors.append(passed[-1])
    funnel = list(zip(("leaders",) + FUNNEL_STAGES, counts.tolist(), seconds.tolist()))
    images = [
        image for bits in np.concatenate(survivors).tolist() for image in _pair_orbit(desc, bits)
    ]
    return _assemble_report(desc, images, connected_count(desc), [], funnel)


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
        if n < 2:
            raise ValueError(f"the complete family needs |G| >= 2, got {n}")
        mask = ((1 << n) - 1) ^ 1
        expected = ((n - 1,), (1,))
    elif kind == "multipartite":
        t, m = params["t"], params["m"]
        if t * m != n or m < 2 or t < 2:
            raise ValueError(f"need t*m = {n} with t, m >= 2; got t={t}, m={m}")
        subs = subgroups_of_order(desc, m)
        if not subs:
            raise ValueError(f"no subgroup of order {m}")
        mask = ((1 << n) - 1) ^ subs[0].mask
        expected = ((n - m, m - 1), (1, n - m))
    elif kind == "td-line":
        r = params["r"]
        pp = desc.prime_power_pair
        if pp is None or pp[1] != 1:
            raise ValueError("td-line families live over Z_p + Z_p")
        p = pp[0]
        if not 2 <= r <= p - 1:
            raise ValueError(f"need 2 <= r <= p-1 = {p - 1}, got r = {r}")
        mask = 0
        for h in subgroups_of_order(desc, p)[:r]:
            mask |= h.mask
        mask ^= 1
        # a strongly regular (n, k, lam, mu) graph has the array {k, k - 1 - lam; 1, mu}
        srg = td_line_srg_params(r, p)
        expected = ((srg.k, srg.k - 1 - srg.lam), (1, srg.mu))
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    graph = build(desc, SymmetricSet(desc, mask))
    array = check_drg(graph)
    got = None if array is None else (array.b, array.c)
    if got != expected:
        raise AssertionError(f"{kind} construction expected {expected}, got {got}")
    return graph, array
