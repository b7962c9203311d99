"""The benchmark's workloads: seeded op streams over the public API, with checks.

Each workload builds its per-group caches in setup(), yields an endless
seeded stream of ops from ops(seed), and runs one op in run(op), which
returns the number of connection sets the op decided and raises OpFailure
when an output is wrong.  The seed fixes the op order and the per-op
parameters; the program only ever sees the generated groups and sets.
"""

from __future__ import annotations

import hashlib
import itertools
import random

from drgcayley import cayley, classify, designs, drg, fourier, groups, kernels, schur, structure

CENSUS_SMALL_GROUPS = ("3^1x3", "3^2x3", "5^1x5")
CERTIFY_GROUPS = ("3^3x3", "11^1x11", "5^2x5")
TD_GROUP = "11^1x11"


class OpFailure(Exception):
    """An op produced an output that disagrees with the reference."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise OpFailure(message)


def _warm_group(desc) -> None:
    """Per-group caches every workload's pipeline reads."""
    groups.group_tables(desc)
    groups.inverse_pairs(desc)
    groups.all_subgroups(desc)
    cayley.verify_translation_invariance(desc)


class Census7x7:
    """Seeded chunks of the Z_7 + Z_7 census scan, checked chunk by chunk."""

    name = "census-7x7"

    def __init__(self, reference: dict) -> None:
        self.table = reference["chunks"]
        self.size = 1 << self.table["chunkBits"]
        self.desc = None

    def setup(self) -> None:
        self.desc = groups.parse_group(self.table["group"])
        _warm_group(self.desc)
        kernels.scan_context(self.desc)

    def ops(self, seed: int):
        rng = random.Random(seed)
        order = list(range(len(self.table["connected"])))
        while True:
            rng.shuffle(order)
            yield from order

    def run(self, chunk: int, tracer=None) -> int:
        lo = chunk * self.size
        rechecks = tracer.calls("kernels.recheck") if tracer else 0
        res = kernels.census_scan(self.desc, lo, lo + self.size)
        _require(res.scanned == self.size, f"chunk {chunk}: scanned {res.scanned}")
        want = self.table["connected"][chunk]
        _require(res.connected == want, f"chunk {chunk}: connected {res.connected} != {want}")
        hits = [int(g) for g in res.hits]
        _require(hits == self.table["hits"][chunk], f"chunk {chunk}: hits {hits}")
        if tracer:
            got = tracer.calls("kernels.recheck") - rechecks
            want = self.table["rechecks"][chunk]
            _require(got == want, f"chunk {chunk}: {got} rechecks != {want}")
        return res.scanned


class CensusSmall:
    """Full census() of three small groups, each in both scan modes, two calls per op.

    A round of three ops runs every group once in kernel mode (seeded
    partition count) and once in orbit mode; the rounds and the calls within
    an op are in seeded order, and every report must match the reference
    digest.  The pairing is fixed by cost: 3^2x3 and 5^1x5 with both modes
    cost nearly the same, so with one group per op the median fell where
    their latencies overlap and moved with the seeded order.  Paired as
    below, the three kinds of op lie about 1.5x and more apart, and the
    median falls inside the middle kind.
    """

    name = "census-small"
    PARTITIONS = (1, 2, 4)
    ROUND = (
        (("3^1x3", "kernel"), ("3^1x3", "orbit")),
        (("3^2x3", "kernel"), ("5^1x5", "orbit")),
        (("3^2x3", "orbit"), ("5^1x5", "kernel")),
    )

    def __init__(self, reference: dict) -> None:
        self.expected = reference["census"]
        self.descs: dict = {}

    def setup(self) -> None:
        for spec in CENSUS_SMALL_GROUPS:
            desc = groups.parse_group(spec)
            _warm_group(desc)
            groups.maximal_subgroup_masks(desc)
            groups.automorphism_group(desc)
            groups.pair_permutations(desc)
            kernels.scan_context(desc)
            self.descs[spec] = desc

    def ops(self, seed: int):
        """Tuples of (group, scan mode, partitions) census calls.

        Each group's kernel calls draw their partition counts from a seeded
        deck of PARTITIONS, so every count is used equally often.
        """
        rng = random.Random(seed)
        kinds = list(self.ROUND)
        decks: dict[str, list[int]] = {spec: [] for spec in CENSUS_SMALL_GROUPS}

        def partitions(spec: str) -> int:
            if not decks[spec]:
                decks[spec] = rng.sample(self.PARTITIONS, len(self.PARTITIONS))
            return decks[spec].pop()

        while True:
            rng.shuffle(kinds)
            for pair in kinds:
                calls = [
                    (spec, mode, partitions(spec) if mode == "kernel" else 1)
                    for spec, mode in pair
                ]
                rng.shuffle(calls)
                yield tuple(calls)

    def run(self, op, tracer=None) -> int:
        sets = 0
        for spec, mode, parts in op:
            want = self.expected[spec]
            report = classify.census(self.descs[spec], partitions=parts, threads=1, scan=mode)
            tag = f"census {spec} scan={mode} partitions={parts}"
            _require(report.drg_sets == want["drgSets"], f"{tag}: {report.drg_sets} hits")
            _require(not report.anomalies, f"{tag}: anomalies {list(report.anomalies)}")
            digest = hashlib.sha256(report.to_json().encode()).hexdigest()
            _require(digest == want["sha256"], f"{tag}: report digest {digest[:16]}")
            sets += report.symmetric_sets
        return sets


class CertifyLarge:
    """Seeded connection sets at orders 81-125 through check + fourier-audit.

    One op certifies, for each group in seeded order, RANDOM_PER_GROUP random
    pair-subsets and one family member, so a third of the sets are family
    members.  The ops run in seeded rounds, each holding every combination of
    the groups' family kinds once.  Every op has the same make-up and every
    round the same mix: a random set of 3^3x3 takes about a tenth of a
    family member of 11^1x11, and with one set per op the median latency
    would depend on the seeded mix of cheap and dear sets.
    """

    name = "certify-large"
    RANDOM_PER_GROUP = 2

    def __init__(self, reference: dict) -> None:
        del reference  # expected outputs follow from the family formulas
        self.descs: dict = {}

    def setup(self) -> None:
        for spec in CERTIFY_GROUPS:
            desc = groups.parse_group(spec)
            _warm_group(desc)
            self.descs[spec] = desc

    def ops(self, seed: int):
        """Tuples of (group, mask, expectation) triples; expectation None for random sets."""
        rng = random.Random(seed)
        rounds = list(itertools.product(*(
            ["complete", "multipartite"] + (["td-line"] if spec == TD_GROUP else [])
            for spec in CERTIFY_GROUPS
        )))
        while True:
            rng.shuffle(rounds)
            for kinds in rounds:
                picks = list(zip(CERTIFY_GROUPS, kinds))
                rng.shuffle(picks)
                op = []
                for spec, kind in picks:
                    op += [self._random_set(rng, spec) for _ in range(self.RANDOM_PER_GROUP)]
                    op.append(self._family_member(rng, spec, kind))
                yield tuple(op)

    def _random_set(self, rng: random.Random, spec: str):
        desc = self.descs[spec]
        bits = 0
        while not bits:
            bits = rng.getrandbits(len(groups.inverse_pairs(desc)))
        return spec, cayley.SymmetricSet.from_pair_bits(desc, bits).mask, None

    def _family_member(self, rng: random.Random, spec: str, kind: str):
        desc = self.descs[spec]
        n = desc.order
        full = (1 << n) - 1
        if kind == "complete":
            return spec, full ^ 1, ("complete", n)
        if kind == "multipartite":
            orders = [m for m in range(2, n // 2 + 1) if n % m == 0]
            m = rng.choice(orders)
            sub = rng.choice(groups.subgroups_of_order(desc, m))
            return spec, full ^ sub.mask, ("multipartite", m)
        p = desc.second_modulus
        r = rng.randint(2, p - 1)
        lines = rng.sample(groups.subgroups_of_order(desc, p), r)
        mask = 0
        for h in lines:
            mask |= h.mask
        return spec, mask ^ 1, ("td-line", r)

    def run(self, op, tracer=None) -> int:
        for spec, mask, expect in op:
            self._certify(spec, mask, expect)
        return len(op)

    def _certify(self, spec: str, mask: int, expect) -> None:
        desc = self.descs[spec]
        tag = f"certify {spec} {expect[0] if expect else 'random'}"
        graph = cayley.build(desc, cayley.SymmetricSet(desc, mask))
        if not cayley.is_connected(graph):
            _require(expect is None, f"{tag}: family member is disconnected")
            return
        part = cayley.distance_partition(graph)
        array = drg.check_drg(graph, part)
        module = schur.distance_module(graph, part)
        constants = schur.is_schur_ring(module)
        _require(
            (array is None) == (constants is None),
            f"{tag}: check_drg and is_schur_ring disagree",
        )
        bip = structure.is_bipartite(graph) is not None
        antip = structure.is_antipodal(graph, part)
        if array is None:
            _require(expect is None, f"{tag}: family member is not distance-regular")
            return
        family = drg.recognize(graph, array)
        primitive = not bip and not antip
        _require(
            schur.is_primitive(module) == primitive,
            f"{tag}: module primitivity disagrees with the graph",
        )
        if part.diameter >= 2:
            audit = fourier.fourier_audit(graph, array, part)
            _require(audit.ok, f"{tag}: fourier audit failed: {audit.failure}")
        if expect is not None:
            _check_family(tag, expect, array, family, desc)


def _check_family(tag: str, expect, array, family, desc) -> None:
    kind, param = expect
    n = desc.order
    if kind == "complete":
        _require((array.b, array.c) == ((n - 1,), (1,)), f"{tag}: array {array}")
        _require(family.kind == drg.FamilyTag.COMPLETE, f"{tag}: tagged {family}")
    elif kind == "multipartite":
        m = param
        _require((array.b, array.c) == ((n - m, m - 1), (1, n - m)), f"{tag}: array {array}")
        _require(family.kind == drg.FamilyTag.MULTIPARTITE, f"{tag}: tagged {family}")
    else:
        r = param
        want = designs.td_line_srg_params(r, desc.second_modulus)
        _require(drg.srg_params(array) == want, f"{tag}: array {array}, want {want}")
        _require(family.kind == drg.FamilyTag.TDLINE, f"{tag}: tagged {family}")


WORKLOADS = {cls.name: cls for cls in (Census7x7, CensusSmall, CertifyLarge)}
