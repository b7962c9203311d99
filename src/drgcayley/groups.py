"""Arithmetic, subgroup, and automorphism structure of Z_m + Z_q.

Every group handled by this package is Z_m + Z_q with q | m (or q = 1 for
plain cyclic groups).  Elements are addressed by a fixed rank bijection

    rank(a, b) = a*q + b,   a in [0, m),  b in [0, q),

so bit-vector indices are stable across runs and serialized artifacts.
Subsets of the group are stored as Python int bitmasks over ranks.

The group's tables are read-only intp arrays indexed by rank, Aut(G) among
them: ``automorphism_group`` is one permutation table with a row per
automorphism, and ``pair_permutations`` its action on inverse pairs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

AUT_ORDER_BOUND = 243
# group_tables refuses larger orders: one check takes about a minute at 1024
MAX_TABLE_ORDER = 1024


class GroupFormatError(ValueError):
    """A group or element literal failed to parse."""


class AutomorphismBoundError(RuntimeError):
    """Group order exceeds the automorphism enumeration bound."""


# the set bit positions of each byte value, ascending
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in increasing order, a byte at a time."""
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
        if byte:
            for i in _BYTE_BITS[byte]:
                yield base + i
        base += 8


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, e) with n = p**e, or None."""
    if n < 2:
        return None
    for p in range(2, n + 1):
        if p * p > n:
            return (n, 1)
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            return (p, e) if n == 1 else None
    return None


@dataclass(frozen=True)
class GroupDescriptor:
    """The abelian group Z_m + Z_q with the fixed rank bijection."""

    first_modulus: int
    second_modulus: int

    def __post_init__(self) -> None:
        m, q = self.first_modulus, self.second_modulus
        if m < 1 or q < 1:
            raise GroupFormatError(f"moduli must be positive, got ({m}, {q})")

    @property
    def order(self) -> int:
        return self.first_modulus * self.second_modulus

    @property
    def is_cyclic(self) -> bool:
        return self.second_modulus == 1

    @property
    def prime_power_pair(self) -> tuple[int, int] | None:
        """(p, s) when the group is Z_{p^s} + Z_p, else None."""
        q = self.second_modulus
        if q == 1 or not _is_prime(q):
            return None
        pp = _prime_power(self.first_modulus)
        if pp is None or pp[0] != q:
            return None
        return (q, pp[1])

    # -- element arithmetic ------------------------------------------------
    def rank(self, a: int, b: int = 0) -> int:
        m, q = self.first_modulus, self.second_modulus
        return (a % m) * q + (b % q)

    def unrank(self, r: int) -> tuple[int, int]:
        return divmod(r, self.second_modulus)

    def add(self, x: int, y: int) -> int:
        a1, b1 = self.unrank(x)
        a2, b2 = self.unrank(y)
        return self.rank(a1 + a2, b1 + b2)

    def scale(self, c: int, x: int) -> int:
        a, b = self.unrank(x)
        return self.rank(c * a, c * b)

    def elements(self) -> range:
        return range(self.order)

    # -- literals ----------------------------------------------------------
    def spec(self) -> str:
        if self.is_cyclic:
            return f"Zn:{self.first_modulus}"
        pp = self.prime_power_pair
        if pp is not None:
            p, s = pp
            return f"{p}^{s}x{p}"
        return f"{self.first_modulus}x{self.second_modulus}"

    def element_str(self, r: int) -> str:
        if self.is_cyclic:
            return str(r)
        a, b = self.unrank(r)
        return f"({a},{b})"

    def parse_element(self, token: str) -> int:
        token = token.strip()
        if self.is_cyclic:
            if not re.fullmatch(r"\d+", token):
                raise GroupFormatError(f"bad cyclic element literal {token!r}")
            v = int(token)
            if not 0 <= v < self.order:
                raise GroupFormatError(f"element {v} out of range for {self.spec()}")
            return v
        m = re.fullmatch(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)", token)
        if not m:
            raise GroupFormatError(f"bad element literal {token!r}")
        a, b = int(m.group(1)), int(m.group(2))
        if a >= self.first_modulus or b >= self.second_modulus:
            raise GroupFormatError(f"element ({a},{b}) out of range for {self.spec()}")
        return self.rank(a, b)


def pair_group(p: int, s: int) -> GroupDescriptor:
    """Z_{p^s} + Z_p.  p = 2 is allowed only for the even-order extension."""
    if not _is_prime(p):
        raise GroupFormatError(f"{p} is not prime")
    if s < 1:
        raise GroupFormatError(f"exponent must be >= 1, got {s}")
    return GroupDescriptor(p**s, p)


def cyclic_group(n: int) -> GroupDescriptor:
    return GroupDescriptor(n, 1)


def product_group(m: int, q: int) -> GroupDescriptor:
    return GroupDescriptor(m, q)


_PAIR_RE = re.compile(r"(\d+)(?:\^(\d+))?\s*x\s*(\d+)", re.IGNORECASE)
_CYCLIC_RE = re.compile(r"Zn\s*:\s*(\d+)", re.IGNORECASE)


def parse_group(spec: str) -> GroupDescriptor:
    """Parse "p^s x p" / "m x q" / "Zn:n" group literals."""
    s = spec.strip()
    m = _CYCLIC_RE.fullmatch(s)
    if m:
        return cyclic_group(int(m.group(1)))
    m = _PAIR_RE.fullmatch(s)
    if m:
        base = int(m.group(1))
        exp = int(m.group(2)) if m.group(2) else 1
        q = int(m.group(3))
        return GroupDescriptor(base**exp, q)
    raise GroupFormatError(f"unrecognized group literal {spec!r}")


# -- cached numpy tables ---------------------------------------------------


@dataclass(frozen=True)
class GroupTables:
    add: np.ndarray  # intp (n, n): add[x, y] = rank(x + y)
    sub: np.ndarray  # intp (n, n): sub[x, y] = rank(x - y)
    neg: np.ndarray  # intp (n,): neg[x] = rank(-x)
    order_of: np.ndarray  # int32 (n,)


@lru_cache(maxsize=None)
def group_tables(desc: GroupDescriptor) -> GroupTables:
    m, q = desc.first_modulus, desc.second_modulus
    n = desc.order
    if n > MAX_TABLE_ORDER:
        raise ValueError(f"group order {n} exceeds the table bound {MAX_TABLE_ORDER}")
    r = np.arange(n, dtype=np.intp)
    a, b = np.divmod(r, q)
    a1 = a[:, None] + a[None, :]
    b1 = b[:, None] + b[None, :]
    add = (a1 % m) * q + (b1 % q)
    neg = ((-a) % m) * q + ((-b) % q)
    sub = add[:, neg]
    oa = m // np.gcd(a, m)
    ob = q // np.gcd(b, q)
    order_of = (oa * ob // np.gcd(oa, ob)).astype(np.int32)
    return GroupTables(add=add, sub=sub, neg=neg, order_of=order_of)


# -- inverse pairs and atoms -----------------------------------------------


@lru_cache(maxsize=None)
def inverse_pairs(desc: GroupDescriptor) -> tuple[tuple[int, ...], ...]:
    """Partition of non-identity elements into {g, -g} cells.

    Cells are ordered by their minimum rank.  Involutions (g = -g, possible
    only in even-order groups) come out as singleton cells.
    """
    neg = group_tables(desc).neg
    cells: list[tuple[int, ...]] = []
    seen = 0
    for g in range(1, desc.order):
        if seen >> g & 1:
            continue
        h = int(neg[g])
        seen |= (1 << g) | (1 << h)
        cells.append((g,) if h == g else (g, h))
    return tuple(cells)


@lru_cache(maxsize=None)
def pair_of_rank(desc: GroupDescriptor) -> np.ndarray:
    """The index in ``inverse_pairs`` of each nonzero rank, a read-only intp array.

    A pair is named by its least rank min(g, -g).  Entry 0, the identity, is 0.
    """
    firsts = [cell[0] for cell in inverse_pairs(desc)]
    pair_of = np.searchsorted(firsts, np.minimum(np.arange(desc.order), group_tables(desc).neg))
    pair_of.flags.writeable = False
    return pair_of


@lru_cache(maxsize=None)
def atom_partition(desc: GroupDescriptor) -> tuple[tuple[int, ...], ...]:
    """Cells [g] = {x : <x> = <g>}, the unit orbits; the identity forms its own cell.

    Lemma checked: a set has a rational transform exactly when it is a union
    of cells (Bridges and Mena 1982; see ``fourier.rational_image_orbits``).
    """
    by_subgroup: dict[int, list[int]] = {}
    for g in desc.elements():
        key = cyclic_subgroup_mask(desc, g)
        by_subgroup.setdefault(key, []).append(g)
    cells = [tuple(sorted(v)) for v in by_subgroup.values()]
    cells.sort(key=lambda c: c[0])
    return tuple(cells)


# -- subgroups ---------------------------------------------------------------


@dataclass(frozen=True)
class Subgroup:
    group: GroupDescriptor
    mask: int
    order: int
    generators: tuple[int, ...]

    def members(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.mask))


def cyclic_subgroup_mask(desc: GroupDescriptor, g: int) -> int:
    mask = 1
    x = g
    while not mask >> x & 1:
        mask |= 1 << x
        x = desc.add(x, g)
    return mask


def ranks_mask(desc: GroupDescriptor, ranks: np.ndarray) -> int:
    """Bitmask of the ranks in ``ranks`` (any shape; repeats are harmless)."""
    members = np.zeros(desc.order, dtype=bool)
    members[ranks] = True
    return int.from_bytes(np.packbits(members, bitorder="little").tobytes(), "little")


def coset_keys(desc: GroupDescriptor, sub_mask: int) -> np.ndarray:
    """Per element g, the least rank in its coset g + H of the subgroup H.

    Two elements lie in one coset exactly when their keys agree.
    """
    return group_tables(desc).add[:, list(iter_bits(sub_mask))].min(axis=1)


def linear_map(
    desc: GroupDescriptor,
    target: GroupDescriptor,
    x: int | np.ndarray,
    y: int | np.ndarray,
) -> np.ndarray:
    """Ranks in ``target`` of a*x + b*y, for each element (a, b) of ``desc``.

    This is the homomorphism sending (1, 0) to x and (0, 1) to y; it is well
    defined when the order of x divides m and that of y divides q.  Arrays
    of images x and y broadcast against each other, and the map for each
    pair fills the last axis of the result.
    """
    t, u = target.first_modulus, target.second_modulus
    a, b = np.divmod(np.arange(desc.order), desc.second_modulus)
    x1, x2 = np.divmod(np.asarray(x)[..., None], u)
    y1, y2 = np.divmod(np.asarray(y)[..., None], u)
    return ((a * x1 + b * y1) % t) * u + (a * x2 + b * y2) % u


def closure_mask(desc: GroupDescriptor, mask: int) -> int:
    """Mask of the subgroup generated by the elements of ``mask``.

    The subgroup generated by a set is the intersection of the subgroups
    that contain it.  That intersection is itself a subgroup, so it is in
    the complete ``all_subgroups`` list, and it lies inside every other
    subgroup containing the set; the list is sorted by order, so it is the
    first entry that contains the set.
    """
    return next(h.mask for h in all_subgroups(desc) if not mask & ~h.mask)


@lru_cache(maxsize=None)
def all_subgroups(desc: GroupDescriptor) -> tuple[Subgroup, ...]:
    """Every subgroup, found as joins of at most two cyclic subgroups.

    All groups handled here are generated by two elements, so one join
    round over the cyclic subgroups is exhaustive.  The join of H1 and H2
    is the sum set H1 + H2, one gather on the add table.
    """
    add = group_tables(desc).add
    cyclic: dict[int, int] = {}  # mask -> smallest generator
    for g in desc.elements():
        m = cyclic_subgroup_mask(desc, g)
        if m not in cyclic:
            cyclic[m] = g
    found: dict[int, tuple[int, ...]] = {m: (g,) for m, g in cyclic.items()}
    masks = sorted(cyclic)
    members = [list(iter_bits(m)) for m in masks]
    for i, m1 in enumerate(masks):
        for j in range(i + 1, len(masks)):
            join = ranks_mask(desc, add[np.ix_(members[i], members[j])])
            if join not in found:
                found[join] = (cyclic[m1], cyclic[masks[j]])
    subs = [
        Subgroup(desc, mask, mask.bit_count(), gens)
        for mask, gens in found.items()
    ]
    subs.sort(key=lambda h: (h.order, h.mask))
    return tuple(subs)


def subgroups_of_order(desc: GroupDescriptor, order: int) -> tuple[Subgroup, ...]:
    if desc.order % order != 0:
        return ()
    return tuple(h for h in all_subgroups(desc) if h.order == order)


@lru_cache(maxsize=None)
def maximal_subgroup_masks(desc: GroupDescriptor) -> tuple[int, ...]:
    """Masks of the prime-index subgroups.

    <S> = G exactly when S is contained in none of them, which turns the
    census connectivity test into a handful of word ANDs.
    """
    n = desc.order
    primes = {p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)}
    return tuple(
        h.mask for h in all_subgroups(desc) if n // h.order in primes
    )


def is_transversal(desc: GroupDescriptor, elements: Iterable[int], sub: Subgroup) -> bool:
    """True when ``elements`` meets every coset of ``sub`` exactly once."""
    keys = coset_keys(desc, sub.mask)[list(elements)]
    return len(keys) == desc.order // sub.order == len(np.unique(keys))


# -- automorphisms -----------------------------------------------------------


@lru_cache(maxsize=None)
def automorphism_group(desc: GroupDescriptor) -> np.ndarray:
    """All automorphisms, a read-only (|Aut|, n) intp array: row r sends g to ``auts[r, g]``.

    The image x of (1, 0) must have order m and the image y of (0, 1) an
    order dividing q.  One ``linear_map`` call gives the homomorphism of
    every such pair, y the outer index and x the inner, and a row is kept
    when only rank 0 maps to 0: a homomorphism with a trivial kernel is a
    bijection.  Cyclic groups are the case q = 1, where y = 0.

    The rows come out in ascending lexicographic order with no sort.
    Entries 1 .. q-1 of a row are the multiples of y, entry 1 = y, and
    entry q is x (for q = 1, entry 1 is x); the pairs ascend, y outer.
    """
    n = desc.order
    if n > AUT_ORDER_BOUND:
        raise AutomorphismBoundError(
            f"group order {n} exceeds automorphism enumeration bound {AUT_ORDER_BOUND}"
        )
    m, q = desc.first_modulus, desc.second_modulus
    order_of = group_tables(desc).order_of
    xs = np.flatnonzero(order_of == m)
    ys = np.flatnonzero(q % order_of == 0)
    maps = linear_map(desc, desc, xs, ys[:, None]).reshape(-1, n)
    auts = maps[(maps[:, 1:] != 0).all(axis=1)]
    auts.flags.writeable = False
    return auts


@lru_cache(maxsize=None)
def pair_permutations(desc: GroupDescriptor) -> np.ndarray:
    """Distinct actions of Aut(G) on inverse-pair indices (duplicates merged).

    A read-only intp array of shape (k, P): row r sends pair j to pair
    ``perms[r, j]``.  Rows are distinct and ascend lexicographically, so row 0
    is the identity.
    """
    firsts = [cell[0] for cell in inverse_pairs(desc)]
    # sorted(set()) and not np.unique(axis=0), which imports numpy.ma (~17 ms)
    images = pair_of_rank(desc)[automorphism_group(desc)[:, firsts]]
    perms = np.array(sorted(set(map(tuple, images.tolist()))), dtype=np.intp)
    perms.flags.writeable = False
    return perms
