"""Exhaustive, automorphism-aware census of distance-regular connection sets.

A census candidate is a pair-bits int: bit j selects inverse pair j of
``groups.inverse_pairs``.  Since sigma in Aut(G) gives Cay(G, S) =
Cay(G, sigma(S)), kernel and orbit mode enumerate one set per Aut(G) orbit,
with one DFS, ``orbit_leaders``, on *layers* (``kernels.Layer``): pair-word
points in blocks, a set taking at most one point per block and ``after[t]``
the first point that may follow point t.  Kernel mode's layers are the
multiplier layers, H-orbits in M-orbit blocks; orbit mode's one layer has
every pair as a point and a block.  Aut(G) commutes with the multipliers,
so it maps each layer onto itself and permutes its points (``kernels``
docstring).  ``orbit_count`` counts a layer's orbits by Burnside's lemma
before the DFS runs; ``orbit_budget`` bounds that count, and the leaders
must number exactly it.  The DFS yields each leader's pair word; the words
pass one filter funnel (``kernels.word_funnel``), and the Aut(G) orbit of
each c_2 survivor goes to the report; the connected count is a Moebius sum
over the subgroup lattice.  ``scan="library"`` decides all 2^P subsets with
the exact library check and passes its hits' orbits, which must hold
exactly its hits.  The exhaustive ``kernels.census_scan`` stays outside
``census`` as the oracle the tests hold the enumeration to.

The report takes Aut(G) orbits under the pair action
``groups.pair_permutations``, as sets of pair words.  Connectivity,
distance-regularity and every field of a record are orbit invariants.  So
only the lead of each orbit, its lex-least member, is built as a
``SymmetricSet`` and decided, by one BFS, and the lead of each
distance-regular orbit is classified with that same graph: its family is
tagged, the Schur ring route and the antipodal quotient cross-checked, and
the result reconciled against the expected family list.  Anything outside
that list is an anomaly and fails the run.

Every orbit computation is a gather on, or a matmul with, that one (k, P)
table.  The lex rule: among sets with equally many pairs (or points), the
lex-least sorted tuple holds the lowest index where two sets differ, so it
has the largest reversed word (index j at bit P - 1 - j).  Words are int64,
so ``kernels.scan_context`` refuses P > 62.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import lru_cache
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
    FUNNEL_STAGES,
    Layer,
    connected_count,
    multiplier_layers,
    pair_layer,
    word_funnel,
)
from .structure import is_antipodal, is_bipartite, quotient_by_subgroup


class CensusBudgetError(RuntimeError):
    """Enumeration would exceed the orbit budget: more Aut(G) orbits of layer
    sets in kernel or orbit mode, or more pair-subsets in library mode."""


DEFAULT_ORBIT_BUDGET = 2_000_000


def _pair_orbit(desc: GroupDescriptor, bits: int) -> set[int]:
    """The pair-bit images of ``bits`` under Aut(G)."""
    images = pair_permutations(desc)[:, list(iter_bits(bits))]
    return set((1 << images).sum(axis=1).tolist())


def _lex_least(images) -> int:
    """The lex-least of pair-bit sets with equally many pairs.

    By the lex rule it has the largest bit string read from pair 0 up.
    """
    return max(images, key=lambda image: f"{image:b}"[::-1])


def orbit_canonical(sset: SymmetricSet) -> tuple[SymmetricSet, int]:
    """Lexicographically minimal Aut(G) image and the orbit size.

    Images in one orbit have equally many pairs, and pairs are ordered by
    their minimum rank, so the lex-least pair-index tuple is also the
    lex-least element-rank tuple.  No census path calls it; the benchmark
    traces it.
    """
    desc = sset.group
    bits = sum(1 << j for j, cell in enumerate(inverse_pairs(desc)) if sset.mask >> cell[0] & 1)
    orbit = _pair_orbit(desc, bits)
    return SymmetricSet.from_pair_bits(desc, _lex_least(orbit)), len(orbit)


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


def _hit_orbits(desc: GroupDescriptor, hits) -> list[set[int]]:
    """The Aut(G) orbits through the pair words ``hits``, one per orbit."""
    orbits: list[set[int]] = []
    for bits in hits:
        if not any(bits in orbit for orbit in orbits):
            orbits.append(_pair_orbit(desc, bits))
    return orbits


def _assemble_report(
    desc: GroupDescriptor,
    orbits: list[set[int]],
    connected: int,
    checks: list[str],
    funnel: list[tuple[str, int, float]],
) -> CensusReport:
    """Decide each Aut(G) orbit, a set of pair words, and report the hits.

    Distance-regularity is an orbit invariant, so the lead of each orbit,
    its lex-least member, is decided by BFS and stands for its whole orbit:
    a disconnected lead is an anomaly (the enumeration's connectivity test
    passed it), a lead that is not distance-regular drops its orbit (c_2 is
    only necessary), and a distance-regular lead is classified.  ``checks``
    are the enumeration's own anomalies and ``funnel`` its stages, to which
    the hits and orbits stages are added.
    """
    _, s = desc.prime_power_pair
    tick = time.perf_counter()
    disconnected: list[str] = []
    decided = []
    for orbit in orbits:
        sset = SymmetricSet.from_pair_bits(desc, _lex_least(orbit))
        graph = build(desc, sset)
        if not is_connected(graph):
            disconnected.append(f"c2 survivor is disconnected: {sset.member_strs()}")
            continue
        part = distance_partition(graph)
        array = check_drg(graph, part)
        if array is not None:
            decided.append((graph, part, array, len(orbit)))
    hits = sum(size for *_, size in decided)
    funnel.append(("hits", hits, time.perf_counter() - tick))
    tick = time.perf_counter()
    anomalies: list[str] = []
    orbit_records: list[CensusRecord] = []
    # records in lex order of their leads' element ranks
    for graph, part, array, size in sorted(decided, key=lambda item: item[0].connection.members()):
        record, probs = _classify_hit(graph, part, array, s, size)
        anomalies.extend(probs)
        orbit_records.append(record)
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


def orbit_leaders(layer: Layer) -> Iterator[int]:
    """The pair word of the lex-least point tuple of every Aut(G) orbit of
    nonempty layer sets, in lex order of those tuples.

    Orderly generation (Read, *Every one a winner*, 1978): a lex-least
    sorted tuple stays lex-least after its largest point is removed, so the
    search only ever extends leaders, by a point at or past ``after`` of the
    last one, and emits every orbit exactly once.

    Each stack entry carries its leader's pair word (a child's is its
    parent's OR its new point's), ``base``, the leader's reversed word
    (point t as bit L - 1 - t) under each of the k rows of the action, and
    ``start``, the first point a child may add.  ``rev`` holds each point's
    bit under each row as an (L, k) array, so one add, ``rev[start:] +
    base``, gives the k words of every child, child start + j in row j, and
    that row is the child's ``base``: no node re-sums its leader.  Row 0 of
    the action is the identity, so column 0 is each child's own word, and a
    child leads exactly when no row's word beats it, that is when column 0
    holds its row's max.
    """
    points = len(layer.words)
    rev = np.ascontiguousarray(1 << (points - 1 - layer.action.T))
    after = layer.after.tolist()
    pair_words = layer.words.tolist()
    stack = [(0, np.zeros(rev.shape[1], dtype=rev.dtype), 0)]
    while stack:
        leader, base, start = stack.pop()
        if leader:
            yield leader
        if start == points:  # the last block is taken: no child
            continue
        words = rev[start:] + base
        leads = (words.max(axis=1) == words[:, 0]).nonzero()[0].tolist()
        for j in reversed(leads):
            stack.append((leader | pair_words[start + j], words[j], after[start + j]))


@lru_cache(maxsize=None)
def orbit_count(layer: Layer) -> int:
    """How many Aut(G) orbits the nonempty layer sets form, by Burnside's lemma.

    A set is fixed by sigma when it is chosen per sigma-cycle of blocks: a
    cycle of length l through block B either holds no point or holds x in B
    with sigma^l x = x, and the points sigma x, ..., sigma^(l-1) x in the
    rest of the cycle.  So sigma fixes prod over cycles of (1 + #{x in B :
    sigma^l x = x}) sets, the empty one included, and the count is the mean
    of that less 1 over the rows of the action.
    """
    after = layer.after.tolist()
    starts = sorted({0, *after})[:-1]  # a block is range(start, after[start])
    fixed = 0
    for row in layer.action.tolist():
        seen: set[int] = set()  # blocks, by their after, on a cycle already counted
        sets = 1
        for start in starts:
            end = after[start]
            if end in seen:
                continue
            x, length = row[start], 1
            while after[x] != end:
                seen.add(after[x])
                x, length = row[x], length + 1
            count = 0
            for y in range(start, end):
                z = y
                for _ in range(length):
                    z = row[z]
                count += z == y
            sets *= 1 + count
        fixed += sets - 1
    return fixed // len(layer.action)


def _census_leaders(desc: GroupDescriptor, scan: str, budget: int) -> CensusReport:
    """Kernel and orbit mode: the leaders' pair words pass ``word_funnel``
    in one call, and the report decides the orbit of each c_2 survivor.

    The ``aut`` stage times the one-off builds: Aut(G) and its action on the
    layers, the scan context and the layers' Burnside count, which the
    budget bounds before any leader is made.  The leaders must number
    exactly that count; a layer's DFS stops one leader past its count, so an
    overrun is reported, not run to its end.  A DFS that repeats one orbit
    and drops another keeps the count, but leaders are lex-least, so a
    repeated orbit yields a repeated word, which is an anomaly.  The c_2
    survivors' orbits must also be pairwise disjoint, or an anomaly is
    recorded; that catches a yield that is not its orbit's least word.  The
    connected count is the Moebius sum ``connected_count``.
    """
    tick = time.perf_counter()
    layers = multiplier_layers(desc) if scan == "kernel" else (pair_layer(desc),)
    expected = sum(orbit_count(layer) for layer in layers)
    funnel = [("aut", expected, time.perf_counter() - tick)]
    if expected > budget:
        raise CensusBudgetError(f"{expected} Aut(G) orbits exceed the orbit budget of {budget}")
    tick = time.perf_counter()
    leaders = []
    for layer in layers:
        leaders += islice(orbit_leaders(layer), orbit_count(layer) + 1)
    words = np.array(leaders, dtype=np.int64)
    funnel.append(("leaders", len(words), time.perf_counter() - tick))
    checks = []
    if len(words) != expected:
        checks.append(f"enumeration produced {len(words)} of {expected} orbit leaders")
    repeats = len(leaders) - len(set(leaders))
    if repeats:
        checks.append(f"enumeration repeated {repeats} orbit leaders")
    passed, seconds = word_funnel(desc, words)
    funnel += zip(FUNNEL_STAGES, map(len, passed), seconds.tolist())
    orbits = [_pair_orbit(desc, bits) for bits in passed[-1].tolist()]
    size, distinct = sum(map(len, orbits)), len(set().union(*orbits))
    if distinct != size:
        checks.append(f"c2 survivor orbits overlap: sizes sum to {size}, {distinct} distinct sets")
    return _assemble_report(desc, orbits, connected_count(desc), checks, funnel)


def census(
    desc: GroupDescriptor,
    *,
    partitions: int = 1,
    threads: int = 1,
    scan: str = "kernel",
    orbit_budget: int = DEFAULT_ORBIT_BUDGET,
) -> CensusReport:
    """Find every distance-regular connection set, classify hits, reconcile families.

    scan="kernel" takes one lex-leader per Aut(G) orbit of each multiplier
    layer (``kernels.multiplier_layers``), scan="orbit" one per Aut(G)
    orbit of all pair-subsets (``kernels.pair_layer``); both pass the
    leaders through one filter funnel and hand the report each survivor's
    orbit.  scan="library" runs the full exact check on every one of the
    2^P subsets with no pruning, within ``orbit_budget`` as the other modes'
    orbits are, and hands the report its hits' orbits.  The report decides
    one lead per orbit, and all three give the same report bytes.
    The report's ``funnel`` holds the count and seconds of each stage run;
    library mode's exhaustive loop is not a stage, so its funnel is the
    report's hits and orbits.

    ``partitions`` (at least 1) and ``threads`` change no work in any mode:
    the funnel takes every leader in one call.  They, and scan="orbit",
    stay only because the benchmark's census-small ops pass them; all three
    go once the benchmark no longer does (ROADMAP item 1).  The command
    line runs kernel mode.
    """
    _require_census_group(desc)
    if partitions < 1:
        raise ValueError("partitions must be >= 1")
    if scan not in ("kernel", "orbit", "library"):
        raise ValueError(f"unknown scan mode {scan!r}")
    if scan != "library":
        return _census_leaders(desc, scan, orbit_budget)
    total = 1 << len(inverse_pairs(desc))
    if total > orbit_budget:
        raise CensusBudgetError(f"{total} pair-subsets exceed the orbit budget of {orbit_budget}")
    hits = []
    connected = 0
    for bits in range(total):
        conn, drg = _library_verdict(desc, bits)
        connected += conn
        if drg:
            hits.append(bits)
    orbits = _hit_orbits(desc, hits)  # Aut(G)-closed hits fill their orbits
    size = sum(map(len, orbits))
    checks = [] if size == len(hits) else [f"orbit sizes sum to {size}, expected {len(hits)}"]
    return _assemble_report(desc, orbits, connected, checks, [])


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
