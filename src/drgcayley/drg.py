"""Distance-regularity certification, intersection arrays, family tagging."""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .cayley import (
    CayleyGraph,
    DistancePartition,
    distance_partition,
    iter_bits,
    verify_translation_invariance,
)
from .groups import _is_prime


@dataclass(frozen=True)
class IntersectionArray:
    b: tuple[int, ...]  # b_0 .. b_{d-1}
    c: tuple[int, ...]  # c_1 .. c_d
    a: tuple[int, ...]  # a_0 .. a_d
    k: tuple[int, ...]  # layer sizes k_0 .. k_d

    @property
    def diameter(self) -> int:
        return len(self.b)

    @property
    def valency(self) -> int:
        return self.b[0]

    def __str__(self) -> str:
        bs = ",".join(map(str, self.b))
        cs = ",".join(map(str, self.c))
        return "{" + bs + ";" + cs + "}"

    def validate(self) -> None:
        d = self.diameter
        if len(self.c) != d or len(self.a) != d + 1 or len(self.k) != d + 1:
            raise ValueError("inconsistent array lengths")
        if d >= 1 and self.c[0] != 1:
            raise ValueError("c_1 must be 1")
        kk = self.valency
        for i in range(d + 1):
            ci = self.c[i - 1] if i >= 1 else 0
            bi = self.b[i] if i < d else 0
            if ci + self.a[i] + bi != kk:
                raise ValueError(f"a_{i}+b_{i}+c_{i} != k")
        for i in range(d):
            if self.k[i] * self.b[i] != self.k[i + 1] * self.c[i]:
                raise ValueError(f"k_{i} b_{i} != k_{i+1} c_{i+1}")

    def is_monotone(self) -> bool:
        """c non-decreasing and b non-increasing; flagged, never assumed."""
        c_ok = all(x <= y for x, y in zip(self.c, self.c[1:]))
        b_ok = all(x >= y for x, y in zip(self.b, self.b[1:]))
        return c_ok and b_ok


@dataclass(frozen=True)
class SrgParams:
    n: int
    k: int
    lam: int
    mu: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n, self.k, self.lam, self.mu)

    def feasible(self) -> bool:
        return self.k * (self.k - self.lam - 1) == (self.n - self.k - 1) * self.mu

    def __str__(self) -> str:
        return f"({self.n},{self.k},{self.lam},{self.mu})"


@dataclass(frozen=True)
class FamilyTag:
    kind: str
    params: tuple[int, ...] = ()
    note: str = ""

    COMPLETE = "Complete"
    MULTIPARTITE = "CompleteMultipartite"
    CYCLE = "Cycle"
    PALEY = "Paley"
    COCKTAIL = "CocktailComplement"
    TDLINE = "TDLineGraph"
    OTHER = "Other"

    def __str__(self) -> str:
        if self.params:
            return f"{self.kind}({','.join(map(str, self.params))})"
        return self.kind


def check_drg(
    graph: CayleyGraph, partition: DistancePartition | None = None
) -> IntersectionArray | None:
    """The intersection array, or None when the graph is not distance-regular.

    Vertex transitivity reduces the check to identity-rooted pairs: the
    translation-automorphism property is asserted once per group (cached),
    after which constancy of (c_i, a_i, b_i) over each BFS layer from the
    identity decides distance-regularity exactly.
    """
    verify_translation_invariance(graph.group)
    if partition is None:
        partition = distance_partition(graph)
    layers = partition.layer_masks
    d = partition.diameter
    b: list[int] = []
    c: list[int] = []
    a: list[int] = []
    for i, layer in enumerate(layers):
        prev = layers[i - 1] if i > 0 else 0
        nxt = layers[i + 1] if i < d else 0
        ref = None
        for v in iter_bits(layer):
            adj = graph.adjacency[v]
            triple = (
                (adj & prev).bit_count(),
                (adj & layer).bit_count(),
                (adj & nxt).bit_count(),
            )
            if ref is None:
                ref = triple
            elif triple != ref:
                return None
        assert ref is not None
        if i > 0:
            c.append(ref[0])
        a.append(ref[1])
        if i < d:
            b.append(ref[2])
    arr = IntersectionArray(
        b=tuple(b), c=tuple(c), a=tuple(a), k=partition.layer_sizes()
    )
    arr.validate()
    return arr


def srg_params(array: IntersectionArray) -> SrgParams | None:
    """Strongly-regular parameters; present exactly for diameter 2."""
    if array.diameter != 2:
        return None
    return SrgParams(
        n=sum(array.k), k=array.b[0], lam=array.a[1], mu=array.c[1]
    )


def _td_line_match(p: SrgParams) -> tuple[int, int] | None:
    """(r, v) with params == (v^2, r(v-1), v+r^2-3r, r^2-r), 2 <= r <= v."""
    v = isqrt(p.n)
    if v * v != p.n or v < 2:
        return None
    if p.k % (v - 1) != 0:
        return None
    r = p.k // (v - 1)
    if not 2 <= r <= v:
        return None
    if p.lam == v + r * r - 3 * r and p.mu == r * r - r:
        return (r, v)
    return None


def _paley_match(p: SrgParams) -> bool:
    n = p.n
    if n % 4 != 1 or not _is_prime(n):
        return False
    return (p.k, p.lam, p.mu) == ((n - 1) // 2, (n - 5) // 4, (n - 1) // 4)


def recognize(graph: CayleyGraph, array: IntersectionArray) -> FamilyTag:
    """Deterministic parameter-based family tag for a verified array.

    First match wins in the fixed order below; the two purely parameter-tuple
    tags (Paley, TD line graph) are additionally asserted disjoint, and a
    double fire is reported as Other with a diagnostic instead of resolved
    silently.
    """
    n = graph.order
    d = array.diameter
    k = array.valency
    if d <= 1:
        return FamilyTag(FamilyTag.COMPLETE)
    params = srg_params(array)
    if params is not None and params.mu == k:
        m = n - k
        return FamilyTag(FamilyTag.MULTIPARTITE, (n // m, m))
    if k == 2:
        return FamilyTag(FamilyTag.CYCLE, (n,))
    if d == 3 and n % 2 == 0:
        m = n // 2
        cocktail = IntersectionArray(
            b=(m - 1, m - 2, 1), c=(1, m - 2, m - 1), a=(0, 0, 0, 0), k=(1, m - 1, m - 1, 1)
        )
        if (array.b, array.c) == (cocktail.b, cocktail.c):
            return FamilyTag(FamilyTag.COCKTAIL, (m,))
    if params is not None:
        paley = _paley_match(params)
        td = _td_line_match(params)
        if paley and td:
            return FamilyTag(
                FamilyTag.OTHER,
                (),
                note=f"ambiguous parameters {params}: Paley and TD line both match",
            )
        if paley:
            return FamilyTag(FamilyTag.PALEY, (params.n,))
        if td:
            return FamilyTag(FamilyTag.TDLINE, td)
    return FamilyTag(FamilyTag.OTHER)
