"""Exact discrete Fourier analysis over Z_{p^s} in the ring Z[w].

w is a primitive n-th root of unity, n = p^s, m = p^{s-1}.  A value is an
integer coefficient vector of length n in canonical form modulo the n-th
cyclotomic polynomial Phi(x) = 1 + x^m + ... + x^{(p-1) m}: every exponent
in the top block [(p-1) m, n) carries a zero coefficient, and equality of
values is equality of vectors.  No floating point anywhere.

The arithmetic runs on int64 arrays whose last axis holds the n
coefficients; a transform table is an (n, n) array whose row z holds F(z).
Products are taken mod x^n - 1 and reduced once at the end: reduction mod
Phi is a ring homomorphism from Z[x]/(x^n - 1) and linear, so
canonical(lhs - rhs) == 0 is the same test as comparing canonical forms.
Callers receive values as rows of a ``TransformTable``; the tuple
arithmetic the tests compare the arrays against lives with the tests.

int64 bound.  With M the largest |input| coefficient, no integer on the
array path exceeds 2 n M in ``transform_function`` and ``transform_table``
(before reduction each output coefficient is a sum of at most n inputs, and
reduction subtracts one such sum from another) and n M_a M_b in ``product``.
``fourier_audit`` forms the polynomials d_j of its docstring once, from
the 0/1 row indicators, so |d_j| <= p n + |lam| + |mu| + k coefficientwise.
Substituting x -> x^z sums at most n of those coefficients (k lands on
coefficient 0 alone), and reduction subtracts one such sum from another,
so no integer it forms exceeds 2 (n (p n + |lam| + |mu|) + k).  Each of
the four raises ``ValueError`` when its bound exceeds 2^62, so int64 never
wraps.
``convolution_check``, ``inversion_check``, ``transversal_zeros`` and
``rational_image_orbits`` check the lemmas their docstrings state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

import numpy as np

from .groups import (
    GroupDescriptor,
    _prime_power,
    atom_partition,
    cyclic_group,
    is_transversal,
    subgroups_of_order,
)

INT64_SAFE = 1 << 62


@dataclass(frozen=True, eq=False)
class TransformTable:
    """Row z of ``coeffs`` (read-only, int64, canonical) holds F(z)."""

    p: int
    s: int
    coeffs: np.ndarray

    @property
    def modulus(self) -> int:
        return self.p**self.s

    def to_json_obj(self) -> dict:
        """Coefficient vectors per evaluation point, JSON-ready."""
        return {"modulus": self.modulus, "values": self.coeffs.tolist()}


def _require_int64(bound: int) -> None:
    if bound > INT64_SAFE:
        raise ValueError(f"values up to {bound} exceed the exact int64 range 2^62")


def _max_abs(values) -> int:
    """Largest |v| as a Python int (np.abs wraps at -2^63)."""
    if isinstance(values, np.ndarray):
        return max(abs(int(values.min(initial=0))), abs(int(values.max(initial=0))))
    return max((abs(int(v)) for v in values), default=0)


def _first(bad: np.ndarray) -> int | None:
    """Flat C-order index of the first True entry of ``bad``, or None."""
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else None


@lru_cache(maxsize=None)
def _index_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(power, shift) for Z_n: power[z, i] = i z, shift[c, e] = c - e (mod n).
    Built on first use, read-only."""
    ar = np.arange(n)
    power = np.outer(ar, ar) % n
    shift = (ar[:, None] - ar) % n
    for table in (power, shift):
        table.setflags(write=False)
    return power, shift


def _one_hot(power: np.ndarray, zs) -> np.ndarray:
    """(n, len(zs) n) 0/1 array whose entry (i, t n + c) is [i zs[t] = c]."""
    n = len(power)
    zs = np.asarray(zs)
    columns = np.zeros((n, len(zs) * n), np.int64)
    columns[np.arange(n)[:, None], np.arange(len(zs)) * n + power[:, zs]] = 1
    columns.setflags(write=False)
    return columns


@lru_cache(maxsize=None)
def _transform_onehot(n: int) -> np.ndarray:
    """onehot[i, z n + c] = [i z = c] at every z, (n, n^2); built only for a
    full transform (``fourier_audit`` reads ``_orbit_tables`` instead)."""
    return _one_hot(_index_tables(n)[0], range(n))


class FourierContext:
    """Transforms of integer functions on Z_{p^s}, all exact."""

    def __init__(self, p: int, s: int) -> None:
        pp = _prime_power(p**s)
        if pp is None or pp != (p, s):
            raise ValueError(f"({p}, {s}) does not describe a prime power")
        self.p = p
        self.s = s
        self.n = p**s
        self._power, self._shift = _index_tables(self.n)

    def canonical(self, v: np.ndarray) -> np.ndarray:
        """Canonical forms mod Phi of the coefficient vectors on the last axis.

        x^j Phi(x) = sum_i x^{j + i m}, so subtracting the top block from every
        block (the top one included) keeps each value and zeroes its top block.
        """
        blocks = v.reshape(v.shape[:-1] + (self.p, -1))
        return (blocks - blocks[..., -1:, :]).reshape(v.shape)

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a b mod x^n - 1 along the last axis (broadcast), not reduced."""
        _require_int64(self.n * _max_abs(a) * _max_abs(b))
        return np.einsum("...e,...ce->...c", a, b[..., self._shift])

    def _transform(self, f: np.ndarray) -> np.ndarray:
        """sum_i f(i) x^{iz} for f of shape (..., n): shape (..., n, n), not reduced."""
        return (f @ _transform_onehot(self.n)).reshape(f.shape[:-1] + (self.n, self.n))

    def _table(self, values: np.ndarray) -> TransformTable:
        coeffs = self.canonical(values)
        coeffs.setflags(write=False)
        return TransformTable(self.p, self.s, coeffs)

    def transform_function(self, f: Sequence[int]) -> TransformTable:
        """F(f)(z) = sum_i f(i) w^{iz}."""
        n = self.n
        if len(f) != n:
            raise ValueError(f"expected {n} values, got {len(f)}")
        _require_int64(2 * n * _max_abs(f))
        return self._table(self._transform(np.array(f, dtype=np.int64)))

    def transform_subset(self, subset: Iterable[int]) -> TransformTable:
        members = np.fromiter(subset, dtype=np.int64)
        return self.transform_function(np.bincount(members % self.n, minlength=self.n))

    def transform_table(self, table: TransformTable) -> TransformTable:
        """Apply the transform to cyclotomic values: sum_i v_i w^{iz}."""
        n = self.n
        v = table.coeffs
        _require_int64(2 * n * _max_abs(v))
        # entry z of the sum over i: coefficient c of v_i w^{iz} is v_i[c - iz]
        gather = self._shift.T[self._power]
        return self._table(v[np.arange(n)[:, None], gather].sum(axis=1))


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    checked: int
    failure: str = ""


def convolution_check(p: int, s: int, a: Iterable[int], b: Iterable[int]) -> CheckReport:
    """Lemma checked: F(f * g) = F(f) . F(g) and (D_A * D_B)(i) = |(i-A) & B|."""
    ctx = FourierContext(p, s)
    n = ctx.n
    aset = {x % n for x in a}
    bset = {x % n for x in b}
    fa, fb = (np.isin(np.arange(n), list(t)).astype(np.int64) for t in (aset, bset))
    conv = ctx.product(fa, fb)  # the cyclic convolution on Z_n
    direct = [len({(i - x) % n for x in aset} & bset) for i in range(n)]
    i = _first(conv != direct)
    if i is not None:
        return CheckReport(False, i, f"convolution value at {i}: {conv[i]} != {direct[i]}")
    ta, tb = ctx.transform_subset(aset), ctx.transform_subset(bset)
    tconv = ctx.transform_function(conv)
    rhs = ctx.canonical(ctx.product(ta.coeffs, tb.coeffs))
    z = _first((tconv.coeffs != rhs).any(axis=1))
    if z is not None:
        return CheckReport(False, z, f"transform mismatch at z={z}")
    return CheckReport(True, 2 * n)


def inversion_check(p: int, s: int, f: Sequence[int]) -> CheckReport:
    """Lemma checked, Fourier inversion: F(F(f))(z) = n f(-z), pointwise in Z[w]."""
    ctx = FourierContext(p, s)
    n = ctx.n
    double = ctx.transform_table(ctx.transform_function(f))
    expect = np.zeros((n, n), np.int64)
    expect[:, 0] = n * np.array(f, dtype=np.int64)[-np.arange(n) % n]
    z = _first((double.coeffs != expect).any(axis=1))
    if z is not None:
        return CheckReport(False, z, f"inversion mismatch at z={z}")
    return CheckReport(True, n)


def transversal_zeros(p: int, s: int, subset: Iterable[int], r: int) -> bool:
    """Lemma checked: the transform of a transversal of rZ_n vanishes on (n/r)Z_n minus 0.

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
    m = np.arange(n)
    return not table.coeffs[m[m % r != 0] * (n // r) % n].any()


def rational_image_orbits(
    p: int, s: int, subset: Iterable[int]
) -> tuple[tuple[int, tuple[int, ...]], ...] | None:
    """Orbit decomposition of the subset when its transform is rational.

    Lemma checked (Bridges and Mena, J. Combin. Theory A 32, 1982): the
    transform is rational exactly when the subset is a union of unit orbits,
    the cells of ``groups.atom_partition`` of Z_n, each named by the
    additive order of its elements.  Rationality is decided exactly from
    canonical forms, and the lemma is asserted both ways.
    """
    ctx = FourierContext(p, s)
    n = ctx.n
    aset = {x % n for x in subset}
    table = ctx.transform_subset(aset)
    rational = not table.coeffs[:, 1:].any()
    orbits = sorted((n // gcd(cell[0], n), cell) for cell in atom_partition(cyclic_group(n)))
    used = [(d, cell) for d, cell in orbits if set(cell) <= aset]
    is_union = set().union(*(cell for _, cell in used)) == aset
    if rational != is_union:
        raise AssertionError(
            "rational transform and union-of-orbits disagree; "
            "this contradicts the unit-orbit characterization"
        )
    if not rational:
        return None
    return tuple(used)


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    identities_checked: int
    weighted_checked: int
    failure: str = ""


def row_indicators(group: GroupDescriptor, mask: int) -> np.ndarray:
    """(q, m) 0/1 array whose entry (j, a) is bit rank(a, j) = a q + j of mask.

    Row j is the indicator on Z_m of row j of the set, {a : (a, j) in S}.
    """
    m, q = group.first_modulus, group.second_modulus
    octets = np.frombuffer(mask.to_bytes((m * q + 7) // 8, "little"), np.uint8)
    bits = np.unpackbits(octets, count=m * q, bitorder="little")
    return bits.reshape(m, q).T.astype(np.int64)


@lru_cache(maxsize=None)
def _orbit_tables(p: int, s: int) -> tuple[tuple[int, ...], np.ndarray]:
    """(reps, columns) for the audit over Z_n, n = p^s.

    reps = (0, 1, p, ..., p^{s-1}) are the least members of the s + 1
    orbits of the units on Z_n, in ascending order.  columns (n, (s+1) n)
    holds the one-hot columns at them: columns[i, t n + c] = [i reps[t] = c].
    Built on first use, read-only.
    """
    reps = (0,) + tuple(p**t for t in range(s))
    return reps, _one_hot(_index_tables(p**s)[0], reps)


@lru_cache(maxsize=None)
def _product_tables(p: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(gather, fold) for ``_row_products`` on (p, n) arrays.

    gather, of shape (n, p n), indexes a flattened (p, n) array f so that
    entry (e, i n + c) of f.ravel()[gather] is f[i, (c - e) mod n].  fold
    (p, p) holds fold[i, j] = i p + (j - i) mod p.  Built on first use,
    read-only.
    """
    shift = _index_tables(n)[1]
    ap = np.arange(p)
    gather = (ap[:, None] * n + shift.T[:, None, :]).reshape(n, p * n)
    fold = ap[:, None] * p + (ap - ap[:, None]) % p
    for table in (gather, fold):
        table.setflags(write=False)
    return gather, fold


def _row_products(f: np.ndarray) -> np.ndarray:
    """h[j] = sum_i f[i] f[(j - i) mod p] mod x^n - 1, for f of shape (p, n).

    One int64 matmul forms the Z_n convolution of every pair of rows:
    conv[i, i2 n + c] = sum_e f[i, e] f[i2, (c - e) mod n].  The fold over
    Z_p then adds conv[i, (j - i) mod p] over i.
    """
    p, n = f.shape
    gather, fold = _product_tables(p, n)
    conv = f @ f.reshape(-1)[gather]
    return conv.reshape(p * p, n)[fold].sum(axis=0)


def fourier_audit(graph, array, partition) -> AuditReport:
    """Pointwise exact verification of the row-transform identity system.

    For a verified distance-regular Cay(Z_{p^s} + Z_p, S) with diameter >= 2
    and rows R_j, second-layer rows R_{j,2}, valency k, lam = a_1, mu = c_2:

        E_j(z) = sum_i r_i(z) r_{(j-i) mod p}(z) - k[j=0] - lam r_j(z) - mu r2_j(z) = 0

    for every j and every z.  The first failure is reported in (j, z)
    lexicographic order.

    One z per orbit of the units decides every z.  For a unit u of Z_n the
    map s_u: w -> w^u is a ring automorphism of Z[w] (the Galois group of
    Q(w) is (Z/n)^x; Washington, Introduction to Cyclotomic Fields,
    Thm 2.5), and s_u(r_j(z)) = sum_a f_j(a) w^{a u z} = r_j(u z).  With k,
    lam and mu integers, E_j(u z) = s_u(E_j(z)), so the identity holds at
    u z exactly when it holds at z.  The orbits of the units on Z_n are
    {0} and the p^t times units, t < s, whose least members are 0 < 1 < p <
    ... < p^{s-1}; the identities are evaluated there alone, in that order.
    For each j the least failing z is then the representative of the first
    failing orbit, so the report, with ``identities_checked`` = j n + z at
    the first failure, is the one an evaluation at all n points gives.

    The products are formed once, as polynomials.  Let F_j and G_j in
    Z[x]/(x^n - 1) be the 0/1 indicators of R_j and R_{j,2}, and s_z the
    substitution x -> x^z.  For every integer z, units or not, s_z is a ring
    endomorphism of Z[x]/(x^n - 1): it sends x^n - 1 to x^{z n} - 1, a
    multiple of x^n - 1.  Since r_j(z) and r2_j(z) are s_z(F_j) and s_z(G_j)
    read at x = w, E_j(z) is s_z(d_j) read at x = w, where

        d_j = sum_i F_i F_{(j-i) mod p} - k[j=0] - lam F_j - mu G_j.

    So d is formed once, at z = 1, and one int64 matmul carries it to every
    representative; the unreduced array at each z equals, element for
    element, the one formed by multiplying the transforms at that z.

    The eps-weighted combinations X_i^2 = k + lam X_i + mu Y_i, with
    eps = w^m, X_i = sum_j eps^{ij} r_j and Y_i = sum_j eps^{ij} r2_j, follow
    and need no check of their own: since eps^{ia} eps^{i(j-a)} = eps^{ij},
    each weighted difference X_i^2 - k - lam X_i - mu Y_i equals
    sum_j x^{m i j} (row-j difference) mod x^n - 1, so it reduces to zero mod
    Phi whenever every row identity does.  ``weighted_checked`` counts these
    p n identities: p n on success, 0 when a row identity fails.
    """
    group: GroupDescriptor = graph.group
    pp = group.prime_power_pair
    if pp is None:
        raise ValueError("audit applies to Z_{p^s} + Z_p groups only")
    p, s = pp
    if array.diameter < 2:
        raise ValueError("audit needs diameter >= 2")
    ctx = FourierContext(p, s)
    n = ctx.n
    k = array.valency
    lam = array.a[1]
    mu = array.c[1]
    reps, columns = _orbit_tables(p, s)
    masks = (graph.connection.mask, partition.layer_masks[2])
    f1, f2 = (row_indicators(group, mask) for mask in masks)
    _require_int64(2 * (n * (p * n + abs(lam) + abs(mu)) + abs(k)))
    d = _row_products(f1) - lam * f1 - mu * f2
    d[0, 0] -= k
    diff = (d @ columns).reshape(p, len(reps), n)  # diff[j, t] = s_{reps[t]}(d[j])
    bad = _first(ctx.canonical(diff).any(axis=-1))
    if bad is not None:
        j, t = divmod(bad, len(reps))
        z = reps[t]
        return AuditReport(False, j * n + z, 0, f"row identity failed at j={j}, z={z}")
    return AuditReport(True, p * n, p * n)
