"""Exact discrete Fourier analysis over Z_{p^s} in the ring Z[w].

w is a primitive p^s-th root of unity.  Values are integer coefficient
vectors of full length p^s, reduced to canonical form modulo the p^s-th
cyclotomic polynomial Phi(x) = 1 + x^{p^{s-1}} + ... + x^{(p-1) p^{s-1}}:
after reduction every exponent with top block digit p-1 carries a zero
coefficient, and equality of values is equality of vectors.  No floating
point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .groups import (
    GroupDescriptor,
    _prime_power,
    cyclic_group,
    is_transversal,
    subgroups_of_order,
)


@dataclass(frozen=True)
class CyclotomicInteger:
    p: int
    s: int
    coeffs: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return self.p**self.s

    @classmethod
    def _reduced(cls, p: int, s: int, vec: list[int]) -> "CyclotomicInteger":
        m = p ** (s - 1)
        top = (p - 1) * m
        for j in range(m):
            t = vec[j + top]
            if t:
                for i in range(p):
                    vec[j + i * m] -= t
        return cls(p, s, tuple(vec))

    @classmethod
    def zero(cls, p: int, s: int) -> "CyclotomicInteger":
        return cls(p, s, (0,) * p**s)

    @classmethod
    def integer(cls, p: int, s: int, value: int) -> "CyclotomicInteger":
        vec = [0] * p**s
        vec[0] = value
        return cls(p, s, tuple(vec))

    @classmethod
    def root_power(cls, p: int, s: int, t: int) -> "CyclotomicInteger":
        """w^t in canonical form."""
        n = p**s
        vec = [0] * n
        vec[t % n] = 1
        return cls._reduced(p, s, vec)

    @classmethod
    def from_coeffs(cls, p: int, s: int, coeffs: Sequence[int]) -> "CyclotomicInteger":
        n = p**s
        if len(coeffs) != n:
            raise ValueError(f"expected {n} coefficients, got {len(coeffs)}")
        return cls._reduced(p, s, list(coeffs))

    def _check(self, other: "CyclotomicInteger") -> None:
        if (self.p, self.s) != (other.p, other.s):
            raise ValueError("cyclotomic integers from different rings")

    def __add__(self, other: "CyclotomicInteger") -> "CyclotomicInteger":
        self._check(other)
        return CyclotomicInteger(
            self.p, self.s, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "CyclotomicInteger") -> "CyclotomicInteger":
        self._check(other)
        return CyclotomicInteger(
            self.p, self.s, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "CyclotomicInteger":
        return CyclotomicInteger(self.p, self.s, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CyclotomicInteger | int") -> "CyclotomicInteger":
        if isinstance(other, int):
            return CyclotomicInteger(
                self.p, self.s, tuple(a * other for a in self.coeffs)
            )
        self._check(other)
        n = self.modulus
        out = [0] * n
        for i, ai in enumerate(self.coeffs):
            if ai == 0:
                continue
            for j, bj in enumerate(other.coeffs):
                if bj:
                    out[(i + j) % n] += ai * bj
        return CyclotomicInteger._reduced(self.p, self.s, out)

    __rmul__ = __mul__

    def rotate(self, t: int) -> "CyclotomicInteger":
        """Multiply by w^t (an index rotation plus one reduction)."""
        n = self.modulus
        out = [0] * n
        for i, ai in enumerate(self.coeffs):
            if ai:
                out[(i + t) % n] += ai
        return CyclotomicInteger._reduced(self.p, self.s, out)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def is_rational(self) -> bool:
        """Exact: canonical form concentrated at w^0."""
        return all(a == 0 for a in self.coeffs[1:])

    def __str__(self) -> str:
        terms = [
            (f"{c}" if e == 0 else f"{c}*w^{e}")
            for e, c in enumerate(self.coeffs)
            if c
        ]
        return " + ".join(terms) if terms else "0"


def epsilon(p: int, s: int) -> CyclotomicInteger:
    """A primitive p-th root of unity inside the same ring: w^{p^{s-1}}."""
    return CyclotomicInteger.root_power(p, s, p ** (s - 1))


@dataclass(frozen=True)
class TransformTable:
    p: int
    s: int
    values: tuple[CyclotomicInteger, ...]

    @property
    def modulus(self) -> int:
        return self.p**self.s

    def value_at(self, z: int) -> CyclotomicInteger:
        return self.values[z % self.modulus]

    def to_json_obj(self) -> dict:
        """Coefficient vectors per evaluation point, JSON-ready."""
        return {
            "modulus": self.modulus,
            "values": [list(v.coeffs) for v in self.values],
        }


class FourierContext:
    """Transforms of integer functions on Z_{p^s}, all exact."""

    def __init__(self, p: int, s: int) -> None:
        pp = _prime_power(p**s)
        if pp is None or pp != (p, s):
            raise ValueError(f"({p}, {s}) does not describe a prime power")
        self.p = p
        self.s = s
        self.n = p**s

    def transform_function(self, f: Sequence[int]) -> TransformTable:
        """F(f)(z) = sum_i f(i) w^{iz}."""
        n = self.n
        if len(f) != n:
            raise ValueError(f"expected {n} values, got {len(f)}")
        values = []
        for z in range(n):
            vec = [0] * n
            for i, fi in enumerate(f):
                if fi:
                    vec[(i * z) % n] += fi
            values.append(CyclotomicInteger.from_coeffs(self.p, self.s, vec))
        return TransformTable(self.p, self.s, tuple(values))

    def transform_subset(self, subset: Iterable[int]) -> TransformTable:
        f = [0] * self.n
        for t in subset:
            f[t % self.n] += 1
        return self.transform_function(f)

    def transform_table(self, table: TransformTable) -> TransformTable:
        """Apply the transform to cyclotomic values: sum_i v_i w^{iz}."""
        n = self.n
        values = []
        for z in range(n):
            acc = CyclotomicInteger.zero(self.p, self.s)
            for i, vi in enumerate(table.values):
                acc = acc + vi.rotate(i * z)
            values.append(acc)
        return TransformTable(self.p, self.s, tuple(values))

    def convolve_functions(self, f: Sequence[int], g: Sequence[int]) -> list[int]:
        n = self.n
        out = [0] * n
        for i, fi in enumerate(f):
            if fi:
                for j, gj in enumerate(g):
                    if gj:
                        out[(i + j) % n] += fi * gj
        return out


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    checked: int
    failure: str = ""


def convolution_check(p: int, s: int, a: Iterable[int], b: Iterable[int]) -> CheckReport:
    """Oracle: F(f * g) = F(f) . F(g) and (D_A * D_B)(i) = |(i-A) & B|."""
    ctx = FourierContext(p, s)
    n = ctx.n
    aset = {x % n for x in a}
    bset = {x % n for x in b}
    fa = [1 if i in aset else 0 for i in range(n)]
    fb = [1 if i in bset else 0 for i in range(n)]
    conv = ctx.convolve_functions(fa, fb)
    for i in range(n):
        direct = len({(i - x) % n for x in aset} & bset)
        if conv[i] != direct:
            return CheckReport(False, i, f"convolution value at {i}: {conv[i]} != {direct}")
    ta, tb = ctx.transform_subset(aset), ctx.transform_subset(bset)
    tconv = ctx.transform_function(conv)
    for z in range(n):
        lhs = tconv.value_at(z)
        rhs = ta.value_at(z) * tb.value_at(z)
        if lhs != rhs:
            return CheckReport(False, z, f"transform mismatch at z={z}")
    return CheckReport(True, 2 * n)


def inversion_check(p: int, s: int, f: Sequence[int]) -> CheckReport:
    """Oracle: F(F(f))(z) = n f(-z), pointwise in Z[w]."""
    ctx = FourierContext(p, s)
    n = ctx.n
    double = ctx.transform_table(ctx.transform_function(f))
    for z in range(n):
        expect = CyclotomicInteger.integer(p, s, n * f[(-z) % n])
        if double.value_at(z) != expect:
            return CheckReport(False, z, f"inversion mismatch at z={z}")
    return CheckReport(True, n)


def transversal_zeros(p: int, s: int, subset: Iterable[int], r: int) -> bool:
    """Transform of a transversal of rZ_n vanishes on (n/r)Z_n minus 0.

    The precondition (subset transversal of rZ_n) is checked; a False result
    would certify a contradiction with the predicted vanishing and is
    surfaced to the caller rather than asserted away.
    """
    ctx = FourierContext(p, s)
    n = ctx.n
    if n % r != 0:
        raise ValueError(f"r={r} does not divide {n}")
    desc = cyclic_group(n)
    elems = sorted({x % n for x in subset})
    rsub = None  # rZ_n, of order n/r
    for h in subgroups_of_order(desc, n // r):
        if all(m % r == 0 for m in h.members()):
            rsub = h
            break
    if rsub is None:
        raise AssertionError("subgroup rZ_n not found")
    if not is_transversal(desc, elems, rsub):
        raise ValueError("subset is not a transversal of rZ_n")
    table = ctx.transform_subset(elems)
    step = n // r
    for m in range(n):
        if m % r == 0:
            continue
        z = (m * step) % n
        if not table.value_at(z).is_zero():
            return False
    return True


def unit_orbit(n: int, divisor: int) -> tuple[int, ...]:
    """O_r = elements of additive order r in Z_n (one multiplicative orbit)."""
    return tuple(x for x in range(n) if n // gcd(x, n) == divisor)


def rational_image_orbits(
    p: int, s: int, subset: Iterable[int]
) -> tuple[tuple[int, tuple[int, ...]], ...] | None:
    """Orbit decomposition of the subset when its transform is rational.

    Rationality is decided exactly from canonical forms.  Consistency is
    asserted both ways: a rational transform must come from a union of unit
    orbits, and a union of unit orbits must transform rationally.
    """
    ctx = FourierContext(p, s)
    n = ctx.n
    aset = {x % n for x in subset}
    table = ctx.transform_subset(aset)
    rational = all(v.is_rational() for v in table.values)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    orbits = {d: unit_orbit(n, d) for d in divisors}
    used = [d for d in divisors if set(orbits[d]) <= aset and orbits[d]]
    covered = set()
    for d in used:
        covered |= set(orbits[d])
    is_union = covered == aset
    if rational != is_union:
        raise AssertionError(
            "rational transform and union-of-orbits disagree; "
            "this contradicts the unit-orbit characterization"
        )
    if not rational:
        return None
    return tuple((d, orbits[d]) for d in used if orbits[d])


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    identities_checked: int
    weighted_checked: int
    failure: str = ""


def fourier_audit(graph, array, partition) -> AuditReport:
    """Pointwise exact verification of the row-transform identity system.

    For a verified distance-regular Cay(Z_{p^s} + Z_p, S) with diameter >= 2
    and rows R_j, second-layer rows R_{j,2}, valency k, lam = a_1, mu = c_2:

        sum_i r_i(z) r_{(j-i) mod p}(z) = k[j=0] + lam r_j(z) + mu r2_j(z)

    for every j and every z, plus the eps-weighted combinations
    X_i^2 = k + (lam - mu) X_i + mu W_i with eps = w^{p^{s-1}},
    X_i = sum_j eps^{ij} r_j and W_i = sum_j eps^{ij} (r_j + r2_j).
    """
    group: GroupDescriptor = graph.group
    pp = group.prime_power_pair
    if pp is None:
        raise ValueError("audit applies to Z_{p^s} + Z_p groups only")
    p, s = pp
    if array.diameter < 2:
        raise ValueError("audit needs diameter >= 2")
    ctx = FourierContext(p, s)
    k = array.valency
    lam = array.a[1]
    mu = array.c[1]
    rows = graph.connection.rows().rows
    r1 = [ctx.transform_subset(rows[j]) for j in range(p)]
    r2 = [ctx.transform_subset(partition.row_layer(j, 2)) for j in range(p)]
    n = ctx.n
    checked = 0
    for j in range(p):
        for z in range(n):
            lhs = CyclotomicInteger.zero(p, s)
            for i in range(p):
                lhs = lhs + r1[i].value_at(z) * r1[(j - i) % p].value_at(z)
            rhs = CyclotomicInteger.integer(p, s, k if j == 0 else 0)
            rhs = rhs + lam * r1[j].value_at(z) + mu * r2[j].value_at(z)
            if lhs != rhs:
                return AuditReport(
                    False, checked, 0, f"row identity failed at j={j}, z={z}"
                )
            checked += 1
    eps = epsilon(p, s)
    eps_pow = [CyclotomicInteger.integer(p, s, 1)]
    for _ in range(p - 1):
        eps_pow.append(eps_pow[-1] * eps)
    weighted = 0
    for i in range(p):
        for z in range(n):
            x = CyclotomicInteger.zero(p, s)
            w = CyclotomicInteger.zero(p, s)
            for j in range(p):
                coef = eps_pow[(i * j) % p]
                x = x + coef * r1[j].value_at(z)
                w = w + coef * (r1[j].value_at(z) + r2[j].value_at(z))
            lhs = x * x
            rhs = CyclotomicInteger.integer(p, s, k) + (lam - mu) * x + mu * w
            if lhs != rhs:
                return AuditReport(
                    False, checked, weighted, f"weighted identity failed at i={i}, z={z}"
                )
            weighted += 1
    return AuditReport(True, checked, weighted)
