"""Transversal designs, their line graphs, and difference-set machinery.

Covers the partial-congruence-partition route to TD(r, v), the explicit
line-graph isomorphism onto Cay(G, union of subgroups minus identity), an
exhaustive translation-canonical difference-set search, and the bipartite
double-layer construction over Z_n + Z_2 driven by difference sets in its
even-index subgroup.  ``line_graph`` and ``diffset_search`` check the
lemmas their docstrings state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, isqrt
from typing import Iterator

import numpy as np

from .cayley import (
    CayleyGraph,
    SymmetricSet,
    build,
    distance_partition,
    is_connected,
)
from .drg import IntersectionArray, check_drg, srg_params, td_line_srg_params
from .groups import (
    GroupDescriptor,
    Subgroup,
    automorphism_group,
    coset_keys,
    group_tables,
    product_group,
    subgroups_of_order,
)
from .structure import is_antipodal, is_bipartite


class SearchBudgetError(RuntimeError):
    """Candidate count exceeds the enumeration budget."""


# bipartite_double_sweep refuses more row pairs than this; the largest n it
# accepts is 32, with (2^8 - 1)^2 = 65,025 pairs
SWEEP_BUDGET = 1 << 16
# diffset_search refuses more candidate subsets C(|G| - 1, k - 1) than this
DIFFSET_BUDGET = 10_000_000


# -- partial congruence partitions and transversal designs ------------------


@dataclass(frozen=True)
class PartialCongruencePartition:
    group: GroupDescriptor
    subgroups: tuple[Subgroup, ...]

    @property
    def degree(self) -> int:
        return len(self.subgroups)


def _square_side(desc: GroupDescriptor) -> int:
    """v with v * v = |G|; a PCP of order-v subgroups needs a square order."""
    v = isqrt(desc.order)
    if v * v != desc.order:
        raise ValueError(f"group order {desc.order} is not a perfect square")
    return v


def pcp_enumerate(desc: GroupDescriptor, r: int) -> Iterator[PartialCongruencePartition]:
    """Every r-set of order-v subgroups meeting pairwise in the identity, built
    lazily; a non-square order is refused at the call."""
    subs = subgroups_of_order(desc, _square_side(desc))
    return (
        PartialCongruencePartition(desc, combo)
        for combo in itertools.combinations(subs, r)
        if all((a.mask & b.mask) == 1 for a, b in itertools.combinations(combo, 2))
    )


@dataclass(frozen=True)
class TransversalDesign:
    v: int
    r: int
    points: tuple[tuple[int, int], ...]  # (class index, coset index)
    classes: tuple[tuple[int, ...], ...]  # point ids per class
    lines: tuple[tuple[int, ...], ...]  # point ids per line, indexed by g

    def to_json_obj(self) -> dict:
        return {
            "v": self.v,
            "r": self.r,
            "points": [list(pt) for pt in self.points],
            "classes": [list(cls) for cls in self.classes],
            "lines": [list(line) for line in self.lines],
        }

    def validate(self) -> None:
        if len(self.points) != self.r * self.v:
            raise AssertionError("wrong point count")
        if len(self.lines) != self.v * self.v:
            raise AssertionError("wrong line count")
        class_of = {}
        for ci, cls in enumerate(self.classes):
            for pt in cls:
                class_of[pt] = ci
        for line in self.lines:
            if len(line) != self.r:
                raise AssertionError("line of wrong size")
            if len({class_of[pt] for pt in line}) != self.r:
                raise AssertionError("line meets some class twice")
        # two points in distinct classes lie on exactly one common line,
        # two points in the same class on none
        npts = len(self.points)
        common = [[0] * npts for _ in range(npts)]
        for line in self.lines:
            for a, b in itertools.combinations(line, 2):
                common[a][b] += 1
                common[b][a] += 1
        for a in range(npts):
            for b in range(a + 1, npts):
                expected = 0 if class_of[a] == class_of[b] else 1
                if common[a][b] != expected:
                    raise AssertionError(
                        f"points {a},{b} lie on {common[a][b]} common lines"
                    )


def td_from_pcp(pcp: PartialCongruencePartition) -> TransversalDesign:
    """Points = cosets gH, classes = cosets of each H, lines = {gH : H}.

    Coset indices are ordered by minimal member rank so designs serialize
    reproducibly; point (i, j) has id i*v + j.  Degenerate r = v + 1 input
    is rejected.
    """
    desc = pcp.group
    v = _square_side(desc)
    r = pcp.degree
    if not 2 <= r <= v:
        raise ValueError(f"need 2 <= r <= v = {v}, got r = {r}")
    keys = [coset_keys(desc, sub.mask) for sub in pcp.subgroups]
    # coset index of g in class i: the rank of its key among the keys of class i
    coset_index = np.array([np.unique(k, return_inverse=True)[1] for k in keys])
    point_ids = coset_index + v * np.arange(r)[:, None]
    td = TransversalDesign(
        v=v,
        r=r,
        points=tuple((i, j) for i in range(r) for j in range(v)),
        classes=tuple(tuple(range(i * v, (i + 1) * v)) for i in range(r)),
        lines=tuple(map(tuple, point_ids.T.tolist())),
    )
    td.validate()
    return td


def line_graph(pcp: PartialCongruencePartition, td: TransversalDesign) -> CayleyGraph:
    """Lines as vertices, adjacency = shared point; checked against Cayley.

    Lemma checked: L(TD(r, p)) is Cay(G, union of the subgroups minus
    identity), strongly regular with ``td_line_srg_params(r, p)``.  The map
    sending line {gH : H} to the group element g must carry the line graph
    edge-for-edge onto it; a failure would be a construction bug and raises.
    """
    desc = pcp.group
    n = desc.order
    adj = [0] * n
    point_lines: dict[int, list[int]] = {}
    for li, line in enumerate(td.lines):
        for pt in line:
            point_lines.setdefault(pt, []).append(li)
    for lids in point_lines.values():
        for a, b in itertools.combinations(lids, 2):
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    union_mask = 0
    for sub in pcp.subgroups:
        union_mask |= sub.mask
    sset = SymmetricSet(desc, union_mask ^ 1)
    cay = build(desc, sset)
    if any(adj[g] != cay.adjacency[g] for g in range(n)):
        raise AssertionError("line graph is not isomorphic to the Cayley graph")
    array = check_drg(cay)
    if array is None or srg_params(array) != td_line_srg_params(td.r, td.v):
        raise AssertionError(f"line graph of TD({td.r}, {td.v}) has array {array}")
    return cay


# -- difference sets ---------------------------------------------------------


@dataclass(frozen=True)
class DifferenceSetCertificate:
    group: GroupDescriptor
    elements: tuple[int, ...]
    v: int
    k: int
    lam: int

    @property
    def nontrivial(self) -> bool:
        return self.k not in (0, 1, self.v - 1, self.v)

    def element_strs(self) -> list[str]:
        return [self.group.element_str(g) for g in self.elements]


def diffset_verify(
    desc: GroupDescriptor, elements: tuple[int, ...] | frozenset[int]
) -> DifferenceSetCertificate | None:
    """Certificate when the difference multiset is flat, else None."""
    sub = group_tables(desc).sub
    elems = tuple(sorted(set(elements)))
    counts = [0] * desc.order
    for d1 in elems:
        row = sub[d1]
        for d2 in elems:
            if d1 != d2:
                counts[int(row[d2])] += 1
    lams = set(counts[1:])
    if len(lams) != 1:
        return None
    return DifferenceSetCertificate(
        desc, elems, desc.order, len(elems), lams.pop()
    )


def diffset_canonical(
    desc: GroupDescriptor, elements: tuple[int, ...]
) -> tuple[int, ...]:
    """Lex-least image under all translations and group automorphisms."""
    # images[a, i, t] = auts[a, elements[i]] + t; one sorted row per (a, t)
    images = group_tables(desc).add[automorphism_group(desc)[:, list(elements)]]
    rows = np.sort(images, axis=1).transpose(0, 2, 1).reshape(-1, images.shape[1])
    return min(map(tuple, rows.tolist()))


def diffset_search(desc: GroupDescriptor, k: int) -> list[DifferenceSetCertificate]:
    """All size-k difference sets up to translation/automorphism equivalence.

    Lemma checked, with ``bipartite_double_check``: this exhaustive search is
    the difference-set side of the double-layer construction's equivalence.
    Translation canonicalization pins the identity into every candidate, so
    the scan is over C(|G|-1, k-1) subsets; ``DIFFSET_BUDGET`` guards that count.
    """
    n = desc.order
    if k == 0:
        return []
    candidates = comb(n - 1, k - 1)
    if candidates > DIFFSET_BUDGET:
        raise SearchBudgetError(
            f"C({n - 1},{k - 1}) = {candidates} exceeds budget {DIFFSET_BUDGET}"
        )
    found: dict[tuple[int, ...], DifferenceSetCertificate] = {}
    for rest in itertools.combinations(range(1, n), k - 1):
        cert = diffset_verify(desc, (0,) + rest)
        if cert is None:
            continue
        canon = diffset_canonical(desc, cert.elements)
        if canon not in found:
            recert = diffset_verify(desc, canon)
            assert recert is not None
            found[canon] = recert
    return [found[key] for key in sorted(found)]


# -- bipartite double-layer construction over Z_n + Z_2 ----------------------


@dataclass(frozen=True)
class BipartiteDoubleReport:
    group: GroupDescriptor
    graph: CayleyGraph
    certificate: DifferenceSetCertificate | None
    is_drg: bool
    array: IntersectionArray | None
    diameter: int | None
    bipartite: bool
    antipodal: bool

    @property
    def in_diffset_family(self) -> bool:
        """DRG of diameter 3 and non-antipodal: the difference-set family."""
        return self.is_drg and self.diameter == 3 and not self.antipodal

    @property
    def equivalence_holds(self) -> bool:
        return self.in_diffset_family == (
            self.certificate is not None and self.certificate.nontrivial
        )


def _require_even_order(n: int) -> None:
    if n % 2 != 0 or n < 4:
        raise ValueError("n must be even and >= 4")


def bipartite_double_check(
    n: int, row0: tuple[int, ...] | frozenset[int], row1: tuple[int, ...] | frozenset[int]
) -> BipartiteDoubleReport:
    """Build Cay(Z_n + Z_2, (R_0,0) u (R_1,1)) and test the equivalence.

    R_0 and R_1 must be nonempty, negation-closed subsets of the odd
    residues.  The shifted set (-1+R_0, 0) u (-1+R_1, 1) is verified as a
    difference set inside the even-index subgroup; the graph is in the
    diameter-3 non-antipodal bipartite family exactly when that set is a
    nontrivial difference set, and the report records both sides.
    """
    _require_even_order(n)
    r0 = sorted({x % n for x in row0})
    r1 = sorted({x % n for x in row1})
    if not r0 or not r1:
        raise ValueError("both rows must be nonempty")
    for r in (r0, r1):
        if any(x % 2 == 0 for x in r):
            raise ValueError("rows must consist of odd residues")
        if {(-x) % n for x in r} != set(r):
            raise ValueError("rows must be negation-closed")
    desc = product_group(n, 2)
    sset = SymmetricSet.from_elements(
        desc, [desc.rank(a, 0) for a in r0] + [desc.rank(a, 1) for a in r1]
    )
    graph = build(desc, sset)
    # 2Z_n + Z_2 is Z_{n/2} + Z_2, and a - 1 is even: (a - 1, b) is ((a - 1) / 2, b)
    sub = product_group(n // 2, 2)
    shifted = tuple(
        sorted([sub.rank((a - 1) // 2, 0) for a in r0] + [sub.rank((a - 1) // 2, 1) for a in r1])
    )
    cert = diffset_verify(sub, shifted)
    if not is_connected(graph):
        return BipartiteDoubleReport(
            desc, graph, cert, False, None, None, False, False
        )
    part = distance_partition(graph)
    array = check_drg(graph, part)
    bip = is_bipartite(graph) is not None
    antip = is_antipodal(graph, part)
    return BipartiteDoubleReport(
        desc,
        graph,
        cert,
        array is not None,
        array,
        part.diameter,
        bip,
        antip,
    )


def odd_row_subsets(n: int) -> list[tuple[int, ...]]:
    """Every negation-closed subset of the odd residues of Z_n."""
    cells: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for x in range(1, n, 2):
        if x in seen:
            continue
        y = (-x) % n
        seen.add(x)
        seen.add(y)
        cells.append((x,) if x == y else (x, y))
    subsets = []
    for bits in range(1 << len(cells)):
        s: list[int] = []
        for i, cell in enumerate(cells):
            if bits >> i & 1:
                s.extend(cell)
        subsets.append(tuple(sorted(s)))
    return subsets


def negation_classes(n: int) -> int:
    """Cells {x, -x} of the odd residues of Z_n, n even: (n/2 + [n = 2 mod 4]) / 2.

    x = -x only for x = n/2, which is odd exactly when n = 2 mod 4.
    """
    return (n // 2 + (n % 4 == 2)) // 2


def bipartite_double_sweep(n: int) -> list[BipartiteDoubleReport]:
    """Exhaustive (R_0, R_1) sweep; the both-directions empirical check.

    There are (2^c - 1)^2 pairs of nonempty rows, c = ``negation_classes(n)``;
    above SWEEP_BUDGET the sweep is refused before any row is listed.
    """
    _require_even_order(n)
    c = negation_classes(n)
    if c > SWEEP_BUDGET.bit_length() or (2**c - 1) ** 2 > SWEEP_BUDGET:
        raise SearchBudgetError(
            f"(2^{c} - 1)^2 row pairs exceed the sweep budget {SWEEP_BUDGET}"
        )
    subsets = [s for s in odd_row_subsets(n) if s]
    reports = []
    for r0 in subsets:
        for r1 in subsets:
            reports.append(bipartite_double_check(n, r0, r1))
    return reports
