import cmath
import io
import itertools
import json
import random
from dataclasses import dataclass, replace
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drgcayley import cayley as C
from drgcayley import cli
from drgcayley import drg as D
from drgcayley import fourier as F
from drgcayley import groups as G


@dataclass(frozen=True)
class Cyc:
    """A value of Z[w] as its canonical coefficient tuple, with tuple
    arithmetic: the reference that the int64 array path is compared against."""

    p: int
    s: int
    coeffs: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return self.p**self.s

    @classmethod
    def _reduced(cls, p: int, s: int, vec: list[int]) -> "Cyc":
        m = p ** (s - 1)
        top = (p - 1) * m
        for j in range(m):
            t = vec[j + top]
            if t:
                for i in range(p):
                    vec[j + i * m] -= t
        return cls(p, s, tuple(vec))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @classmethod
    def zero(cls, p: int, s: int) -> "Cyc":
        return cls(p, s, (0,) * p**s)

    @classmethod
    def integer(cls, p: int, s: int, value: int) -> "Cyc":
        vec = [0] * p**s
        vec[0] = value
        return cls(p, s, tuple(vec))

    @classmethod
    def root_power(cls, p: int, s: int, t: int) -> "Cyc":
        """w^t in canonical form."""
        n = p**s
        vec = [0] * n
        vec[t % n] = 1
        return cls._reduced(p, s, vec)

    @classmethod
    def from_coeffs(cls, p: int, s: int, coeffs) -> "Cyc":
        n = p**s
        if len(coeffs) != n:
            raise ValueError(f"expected {n} coefficients, got {len(coeffs)}")
        return cls._reduced(p, s, list(coeffs))

    def _check(self, other: "Cyc") -> None:
        if (self.p, self.s) != (other.p, other.s):
            raise ValueError("cyclotomic integers from different rings")

    def __add__(self, other: "Cyc") -> "Cyc":
        self._check(other)
        return Cyc(self.p, self.s, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Cyc") -> "Cyc":
        self._check(other)
        return Cyc(self.p, self.s, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Cyc":
        return Cyc(self.p, self.s, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "Cyc | int") -> "Cyc":
        if isinstance(other, int):
            return Cyc(self.p, self.s, tuple(a * other for a in self.coeffs))
        self._check(other)
        n = self.modulus
        out = [0] * n
        for i, ai in enumerate(self.coeffs):
            if ai == 0:
                continue
            for j, bj in enumerate(other.coeffs):
                if bj:
                    out[(i + j) % n] += ai * bj
        return Cyc._reduced(self.p, self.s, out)

    __rmul__ = __mul__


def lifted(table: F.TransformTable) -> tuple[Cyc, ...]:
    """A transform table's rows as values with the reference arithmetic."""
    return tuple(Cyc(table.p, table.s, tuple(row)) for row in table.coeffs.tolist())


def numeric_value(x: Cyc) -> complex:
    """Independent check route: evaluate at w = exp(2 pi i / p^s)."""
    n = x.modulus
    w = cmath.exp(2j * cmath.pi / n)
    return sum(c * w**e for e, c in enumerate(x.coeffs))


def oracle_table(p, s, values):
    """[sum_i v_i w^{iz} for z in Z_n] by the reference arithmetic."""
    n = p**s
    return [
        sum((Cyc.root_power(p, s, i * z) * v for i, v in enumerate(values)), Cyc.zero(p, s))
        for z in range(n)
    ]


def oracle_transform(p, s, f):
    """[F(f)(z) for z in Z_n] by the reference arithmetic."""
    return oracle_table(p, s, [Cyc.integer(p, s, int(x)) for x in f])


def random_cyclotomic(rng, p, s):
    n = p**s
    return Cyc.from_coeffs(p, s, [rng.randint(-4, 4) for _ in range(n)])


@pytest.mark.parametrize("p,s", [(3, 1), (3, 2), (3, 3), (5, 1)])
def test_ring_axioms_and_numeric_agreement(p, s):
    rng = random.Random(100 * p + s)
    for _ in range(40):
        x = random_cyclotomic(rng, p, s)
        y = random_cyclotomic(rng, p, s)
        z = random_cyclotomic(rng, p, s)
        assert (x + y).coeffs == (y + x).coeffs
        assert (x * y).coeffs == (y * x).coeffs
        assert ((x * y) * z).coeffs == (x * (y * z)).coeffs
        assert (x * (y + z)).coeffs == (x * y + x * z).coeffs
        # canonical form idempotence
        assert Cyc.from_coeffs(p, s, x.coeffs).coeffs == x.coeffs
        # numeric cross-check of the product
        assert cmath.isclose(
            numeric_value(x * y),
            numeric_value(x) * numeric_value(y),
            rel_tol=1e-9,
            abs_tol=1e-7,
        )


def test_canonical_form_top_block_is_zero():
    rng = random.Random(9)
    p, s = 3, 2
    m = p ** (s - 1)
    for _ in range(50):
        x = random_cyclotomic(rng, p, s)
        for j in range(m):
            assert x.coeffs[j + (p - 1) * m] == 0


def test_root_power_multiplication():
    p, s = 3, 2
    n = 9
    for a, b in itertools.product(range(n), repeat=2):
        lhs = Cyc.root_power(p, s, a) * Cyc.root_power(p, s, b)
        assert lhs == Cyc.root_power(p, s, (a + b) % n)


def test_cyclotomic_relation_reduces_to_zero():
    # 1 + w^{p^{s-1}} + ... + w^{(p-1) p^{s-1}} = 0
    for p, s in ((3, 1), (3, 2), (3, 3), (5, 2)):
        m = p ** (s - 1)
        acc = Cyc.zero(p, s)
        for i in range(p):
            acc = acc + Cyc.root_power(p, s, i * m)
        assert acc.is_zero()


def test_hand_reduction_p3_s1():
    one_w = Cyc.from_coeffs(3, 1, [1, 1, 0])
    one_w2 = Cyc.from_coeffs(3, 1, [1, 0, 1])
    assert (one_w * one_w2) == Cyc.integer(3, 1, 1)


def test_transform_examples():
    ctx = F.FourierContext(3, 2)
    t = ctx.transform_subset({0})
    assert all(v == Cyc.integer(3, 2, 1) for v in lifted(t))
    t = ctx.transform_subset(range(9))
    assert lifted(t)[0] == Cyc.integer(3, 2, 9)
    assert all(v.is_zero() for v in lifted(t)[1:])
    t = ctx.transform_subset({0, 1, 2})
    assert lifted(t)[3].is_zero()  # 1 + w^3 + w^6
    assert lifted(t)[0] == Cyc.integer(3, 2, 3)


def test_transform_additive_on_disjoint_subsets():
    ctx = F.FourierContext(3, 2)
    rng = random.Random(12)
    for _ in range(20):
        a = {x for x in range(9) if rng.random() < 0.4}
        b = {x for x in range(9) if rng.random() < 0.4} - a
        ta, tb = lifted(ctx.transform_subset(a)), lifted(ctx.transform_subset(b))
        tu = lifted(ctx.transform_subset(a | b))
        for z in range(9):
            assert tu[z] == ta[z] + tb[z]


def test_parseval_count():
    # sum_z F(D_A)(z) F(D_-A)(z) = n |A|
    for p, s in ((3, 2), (5, 1), (3, 3)):
        ctx = F.FourierContext(p, s)
        n = ctx.n
        rng = random.Random(n)
        for _ in range(10):
            a = {x for x in range(n) if rng.random() < 0.5}
            ta = lifted(ctx.transform_subset(a))
            tneg = lifted(ctx.transform_subset({(-x) % n for x in a}))
            acc = Cyc.zero(p, s)
            for z in range(n):
                acc = acc + ta[z] * tneg[z]
            assert acc == Cyc.integer(p, s, n * len(a))


def test_convolution_check_cases():
    assert F.convolution_check(3, 2, {0}, {0}).ok
    assert F.convolution_check(3, 2, set(range(9)), {2, 5}).ok
    rng = random.Random(6)
    for _ in range(25):
        a = {x for x in range(9) if rng.random() < 0.5}
        b = {x for x in range(9) if rng.random() < 0.5}
        assert F.convolution_check(3, 2, a, b).ok


def test_inversion_check_cases():
    f = [0] * 9
    f[0] = 1
    assert F.inversion_check(3, 2, f).ok
    f = [0] * 9
    f[1] = 1
    ctx = F.FourierContext(3, 2)
    double = ctx.transform_table(ctx.transform_function(f))
    assert lifted(double)[8] == Cyc.integer(3, 2, 9)
    assert all(v.is_zero() for v in lifted(double)[:8])
    rng = random.Random(3)
    for _ in range(10):
        f = [rng.randint(-5, 5) for _ in range(27)]
        assert F.inversion_check(3, 3, f).ok


def test_transversal_zeros_examples():
    assert F.transversal_zeros(3, 2, {0, 1, 2}, 3)
    assert F.transversal_zeros(3, 2, {0, 4, 8}, 3)
    assert F.transversal_zeros(3, 1, {0, 1, 2}, 3)
    with pytest.raises(ValueError):
        F.transversal_zeros(3, 2, {0, 3, 6}, 3)  # not a transversal


def all_transversals(n, h_members):
    cosets = {}
    for g in range(n):
        key = min((g + h) % n for h in h_members)
        cosets.setdefault(key, []).append(g)
    return [set(combo) for combo in itertools.product(*cosets.values())]


def test_transversal_zeros_exhaustive_z9():
    for a in all_transversals(9, (0, 3, 6)):
        assert F.transversal_zeros(3, 2, a, 3)


def test_union_of_orbit_transversals_collapse():
    """Union-of-orbits transversals of p^{s-1} Z_{p^s} must equal p Z_{p^s}.

    For s >= 2 no such transversal exists at all; for s = 1 the only one is
    {0} = p Z_p.  Both facts are enumerated exhaustively here.
    """
    for p, s in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2)):
        n = p**s
        h = [(x * p ** (s - 1)) % n for x in range(p)]
        p_zn = {x for x in range(n) if x % p == 0}
        found = []
        orbit_of = {x: cell for cell in G.atom_partition(G.cyclic_group(n)) for x in cell}
        for a in all_transversals(n, h):
            orbit_closed = all(set(orbit_of[x]) <= a for x in a)
            if orbit_closed:
                found.append(a)
        for a in found:
            assert a == p_zn
        if s >= 2:
            assert found == []
        else:
            assert found == [{0}]


def test_rational_image_orbits():
    assert F.rational_image_orbits(3, 2, {3, 6}) == ((3, (3, 6)),)
    assert F.rational_image_orbits(3, 2, {1}) is None
    assert F.rational_image_orbits(3, 2, set(range(1, 9))) == (
        (3, (3, 6)),
        (9, (1, 2, 4, 5, 7, 8)),
    )


def test_fourier_audit_on_verified_graphs():
    d3 = G.pair_group(3, 1)
    subs3 = G.subgroups_of_order(d3, 3)
    for mask in (
        (subs3[0].mask | subs3[1].mask) ^ 1,  # lattice
        ((1 << 9) - 1) ^ subs3[0].mask,  # K_{3x3}
    ):
        g = C.build(d3, C.SymmetricSet(d3, mask))
        part = C.distance_partition(g)
        arr = D.check_drg(g, part)
        assert F.fourier_audit(g, arr, part).ok

    d5 = G.pair_group(5, 1)
    subs5 = G.subgroups_of_order(d5, 5)
    mask = (subs5[0].mask | subs5[1].mask | subs5[2].mask) ^ 1
    g = C.build(d5, C.SymmetricSet(d5, mask))
    part = C.distance_partition(g)
    arr = D.check_drg(g, part)
    assert F.fourier_audit(g, arr, part).ok


def test_fourier_audit_preconditions():
    d3 = G.pair_group(3, 1)
    complete = C.build(d3, C.SymmetricSet(d3, ((1 << 9) - 1) ^ 1))
    part = C.distance_partition(complete)
    arr = D.check_drg(complete, part)
    with pytest.raises(ValueError):
        F.fourier_audit(complete, arr, part)  # diameter 1


def reference_row_transforms(group, elements):
    """[[r_j(z) for z in Z_n] for j in Z_p] of an element set, by the reference arithmetic."""
    p, s = group.prime_power_pair
    n = p**s
    f = [[0] * n for _ in range(p)]
    for v in elements:
        a, b = group.unrank(v)
        f[b][a] = 1
    return [oracle_transform(p, s, row) for row in f]


def row_identity_holds(array, r1, r2, j, z):
    """sum_i r_i(z) r_{j-i}(z) == k [j=0] + lam r_j(z) + mu r2_j(z), by the reference arithmetic."""
    p, s = r1[0][0].p, r1[0][0].s
    lhs = Cyc.zero(p, s)
    for i in range(p):
        lhs = lhs + r1[i][z] * r1[(j - i) % p][z]
    rhs = Cyc.integer(p, s, array.valency if j == 0 else 0)
    return lhs == rhs + array.a[1] * r1[j][z] + array.c[1] * r2[j][z]


def reference_audit(graph, array, partition):
    """The row-transform identity audit as a loop over every z, by the reference arithmetic."""
    group = graph.group
    p, s = group.prime_power_pair
    n = p**s
    k, lam, mu = array.valency, array.a[1], array.c[1]
    r1 = reference_row_transforms(group, graph.connection.members())
    r2 = reference_row_transforms(group, G.iter_bits(partition.layer_masks[2]))
    checked = 0
    for j in range(p):
        for z in range(n):
            if not row_identity_holds(array, r1, r2, j, z):
                return F.AuditReport(False, checked, 0, f"row identity failed at j={j}, z={z}")
            checked += 1
    eps_pow = [Cyc.root_power(p, s, t * n // p) for t in range(p)]
    weighted = 0
    for i in range(p):
        for z in range(n):
            x = Cyc.zero(p, s)
            w = Cyc.zero(p, s)
            for j in range(p):
                coef = eps_pow[(i * j) % p]
                x = x + coef * r1[j][z]
                w = w + coef * (r1[j][z] + r2[j][z])
            rhs = Cyc.integer(p, s, k) + (lam - mu) * x + mu * w
            if x * x != rhs:
                return F.AuditReport(
                    False, checked, weighted, f"weighted identity failed at i={i}, z={z}"
                )
            weighted += 1
    return F.AuditReport(True, checked, weighted)


def audit_inputs(spec):
    """Complete multipartite members (parts a subgroup of order p, and of order
    p^s) and, for s = 1, the TD line graph of two lines; each with its true
    parameters, lam or mu moved by 1, and one layer-2 vertex moved within its
    row (row sizes kept, so the first failure lies at some z != 0)."""
    desc = G.parse_group(spec)
    p, n = desc.second_modulus, desc.first_modulus
    full = (1 << desc.order) - 1
    masks = [full ^ G.subgroups_of_order(desc, p)[0].mask, full ^ G.subgroups_of_order(desc, n)[-1].mask]
    if n == p:
        lines = G.subgroups_of_order(desc, p)
        masks.append((lines[0].mask | lines[1].mask) ^ 1)
    for mask in masks:
        graph = C.build(desc, C.SymmetricSet(desc, mask))
        part = C.distance_partition(graph)
        arr = D.check_drg(graph, part)
        assert arr is not None and arr.diameter >= 2, spec
        yield graph, arr, part
        for da, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            a, c = list(arr.a), list(arr.c)
            a[1] += da
            c[1] += dc
            yield graph, replace(arr, a=tuple(a), c=tuple(c)), part
        layers = list(part.layer_masks)
        a, b = desc.unrank(next(G.iter_bits(part.layer_masks[2])))
        moved = next(
            desc.rank(u, b) for u in range(n) if not layers[2] >> desc.rank(u, b) & 1
        )
        layers[2] ^= 1 << desc.rank(a, b) | 1 << moved
        yield graph, arr, replace(part, layer_masks=tuple(layers))


@pytest.mark.parametrize("spec", ["3^1x3", "3^2x3", "5^1x5", "3^3x3", "5^2x5", "11^1x11"])
def test_fourier_audit_matches_reference(spec):
    reports = []
    for graph, arr, part in audit_inputs(spec):
        report = F.fourier_audit(graph, arr, part)
        assert report == reference_audit(graph, arr, part)
        reports.append(report)
    assert [r.ok for r in reports].count(True) == len(reports) // 6
    p, s = G.parse_group(spec).prime_power_pair
    assert all(r.weighted_checked == p ** (s + 1) for r in reports if r.ok)
    assert any(r.identities_checked % p**s for r in reports if not r.ok)


@pytest.mark.parametrize("spec", ["3^1x3", "5^1x5", "3^2x3", "3^3x3", "5^2x5", "11^1x11"])
def test_fourier_audit_matches_reference_on_failures_along_unit_orbits(spec):
    """Failures that fill whole unit orbits: row 1 fails at every u p^t, u a unit.

    Cay(G, G - H) with H = K + Z_p, K = p^{s-t} Z_n of order p^t, is complete
    multipartite with layer 2 = H - 0, whose row 1 is K.  Translating that row
    by 1 changes r2_1 by F(1_{1+K} - 1_K)(z) = p^t (w^z - 1) [z in p^t Z_n],
    so row 1 fails exactly on p^t Z_n - 0: on every u p^t, u a unit, and on
    the orbits above.  The audit evaluates p^t alone of orbit t and must
    report the reference's first failure, (j, z) = (1, p^t).
    """
    desc = G.parse_group(spec)
    p, s = desc.prime_power_pair
    n = p**s
    full = (1 << desc.order) - 1
    for t in range(s):
        k_members = range(0, n, p ** (s - t))
        h = G.mask_of(desc.rank(a, b) for a in k_members for b in range(p))
        graph = C.build(desc, C.SymmetricSet(desc, full ^ h))
        part = C.distance_partition(graph)
        arr = D.check_drg(graph, part)
        row1 = G.mask_of(desc.rank(a, 1) for a in k_members)
        assert part.layer_masks[2] & row1 == row1
        layers = list(part.layer_masks)
        layers[2] ^= row1 | G.mask_of(desc.rank(a + 1, 1) for a in k_members)
        tampered = replace(part, layer_masks=tuple(layers))
        r1 = reference_row_transforms(desc, graph.connection.members())
        r2 = reference_row_transforms(desc, G.iter_bits(tampered.layer_masks[2]))
        fails = [z for z in range(n) if not row_identity_holds(arr, r1, r2, 1, z)]
        assert fails == [z for z in range(1, n) if z % p**t == 0]
        report = F.fourier_audit(graph, arr, tampered)
        assert report == reference_audit(graph, arr, tampered)
        assert report == F.AuditReport(False, n + p**t, 0, f"row identity failed at j=1, z={p**t}")


ORACLE_RINGS = ((3, 2), (3, 3), (5, 2), (11, 1))


@pytest.mark.parametrize("p,s", ORACLE_RINGS)
def test_unit_multiples_move_the_transform_by_the_galois_action(p, s):
    """F(f)(u z) = s_u(F(f)(z)) for every unit u, s_u: w -> w^u, and the audit's
    points 0, 1, p, ..., p^{s-1} are the least members of the unit orbits."""
    n = p**s
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    orbits = {frozenset(u * z % n for u in units) for z in range(n)}
    assert F._orbit_tables(p, s)[0] == tuple(sorted(min(o) for o in orbits))
    ctx = F.FourierContext(p, s)
    rng = random.Random(n)
    for _ in range(4):
        table = ctx.transform_function([rng.randint(-9, 9) for _ in range(n)]).coeffs.tolist()
        for u in units:
            for z in range(n):
                image = [0] * n
                for c, v in enumerate(table[z]):
                    image[u * c % n] += v
                assert Cyc.from_coeffs(p, s, image).coeffs == tuple(table[u * z % n])


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_array_path_matches_cyclotomic_oracle(data):
    p, s = data.draw(st.sampled_from(ORACLE_RINGS))
    n = p**s
    vectors = st.lists(st.integers(-30, 30), min_size=n, max_size=n)
    f, g, raw = data.draw(vectors), data.draw(vectors), data.draw(vectors)
    ctx = F.FourierContext(p, s)
    tf, tg = ctx.transform_function(f), ctx.transform_function(g)
    ref_f, ref_g = oracle_transform(p, s, f), oracle_transform(p, s, g)
    assert lifted(tf) == tuple(ref_f) and lifted(tg) == tuple(ref_g)
    assert lifted(ctx.transform_table(tf)) == tuple(oracle_table(p, s, ref_f))
    product = ctx.canonical(ctx.product(tf.coeffs, tg.coeffs))
    assert product.tolist() == [list((x * y).coeffs) for x, y in zip(ref_f, ref_g)]
    canonical = ctx.canonical(np.array(raw, dtype=np.int64))
    assert canonical.tolist() == list(Cyc.from_coeffs(p, s, raw).coeffs)


def einsum_row_products(f):
    """The audit's sums sum_i f[i] f[(j - i) mod p] mod x^n - 1 at one orbit, as
    one einsum over a (p, p, n, n) gather: the oracle for its matmul and fold."""
    p, n = f.shape
    ar, ap = np.arange(n), np.arange(p)
    shift = (ar[:, None] - ar) % n
    rolled = (ap - ap[:, None]) % p
    gather = rolled[:, :, None, None] * n + shift
    return np.einsum("ie,ijce->jc", f, f.reshape(-1)[gather])


@pytest.mark.parametrize("p,s", [(2, 3), (3, 1), (3, 3), (5, 2), (7, 1), (11, 1)])
def test_row_products_match_the_einsum(p, s):
    n = p**s
    rng = np.random.default_rng(100 * p + s)
    for bound in (1, n, 1 << 20):
        f = rng.integers(-bound, bound + 1, size=(p, n))
        got = F._row_products(f)
        assert got.dtype == np.int64
        assert np.array_equal(got, einsum_row_products(f))


def substitute(f, z):
    """s_z(f): x -> x^z on the last axis of f, mod x^n - 1, by scatter-add."""
    n = f.shape[-1]
    out = np.zeros_like(f)
    np.add.at(out, (..., np.arange(n) * z % n), f)
    return out


@pytest.mark.parametrize("p,s", ORACLE_RINGS)
def test_substitution_commutes_with_row_products(p, s):
    """s_z is a ring endomorphism of Z[x]/(x^n - 1) for every z, units or not,
    so forming the row products once and substituting equals substituting first."""
    n = p**s
    rng = np.random.default_rng(7 * n)
    f = rng.integers(-9, 10, size=(p, n))
    products = F._row_products(f)
    for z in range(n):
        assert np.array_equal(substitute(products, z), F._row_products(substitute(f, z)))


def test_int64_guard_near_2_62():
    p, s = 3, 3
    n = p**s
    ctx = F.FourierContext(p, s)
    rng = random.Random(62)
    top = F.INT64_SAFE // (2 * n)
    f = [rng.choice((top, -top, top - 1, 0)) for _ in range(n)]
    assert lifted(ctx.transform_function(f)) == tuple(oracle_transform(p, s, f))
    for bad in (top + 1, -top - 1, 1 << 62, -(1 << 63), 1 << 70):
        with pytest.raises(ValueError, match="int64"):
            ctx.transform_function([bad] + [0] * (n - 1))
    # the second transform of inversion_check sums n values of F(f)(z)
    edge = F.INT64_SAFE // (2 * n * n)
    assert F.inversion_check(p, s, [edge] * n).ok
    assert F.inversion_check(p, s, [edge, -edge] + [edge - 1] * (n - 2)).ok
    with pytest.raises(ValueError, match="int64"):
        F.inversion_check(p, s, [edge + 1] * n)
    # every coefficient of a product of two constant vectors is n a b
    assert ctx.product(np.full(n, 1 << 28), np.full(n, -(1 << 28))).tolist() == [-n << 56] * n
    with pytest.raises(ValueError, match="int64"):
        ctx.product(np.full(n, 1 << 29), np.full(n, 1 << 29))
    # the audit bounds its whole sum, lam r_j(z) and mu r2_j(z) included,
    # through reduction: 2 (n (p n + |lam| + |mu|) + k) <= 2^62
    graph, arr, part = next(audit_inputs("3^1x3"))
    with pytest.raises(ValueError, match="int64"):
        F.fourier_audit(graph, replace(arr, a=(0, F.INT64_SAFE) + arr.a[2:]), part)
    with pytest.raises(ValueError, match="int64"):
        F.fourier_audit(graph, replace(arr, c=(1, F.INT64_SAFE) + arr.c[2:]), part)
    p, s = graph.group.prime_power_pair
    n = p**s
    top = (F.INT64_SAFE // 2 - arr.valency) // n - p * n - abs(arr.c[1])
    for lam, past in ((top, top + 1), (-top, -top - 1)):
        edge = replace(arr, a=(0, lam) + arr.a[2:])
        assert F.fourier_audit(graph, edge, part) == reference_audit(graph, edge, part)
        with pytest.raises(ValueError, match="int64"):
            F.fourier_audit(graph, replace(arr, a=(0, past) + arr.a[2:]), part)


@pytest.mark.parametrize(
    "part_of",
    [lambda a, b: (a % 3, b) == (0, 0), lambda a, b: b == 0],
    ids=["K_9x3", "K_3x9"],
)
def test_fourier_audit_cli_tables_match_oracle(part_of):
    # K_{9x3} and K_{3x9} over Z_9 + Z_3: S is the complement of a subgroup
    members = [(a, b) for a in range(9) for b in range(3) if not part_of(a, b)]
    text = ",".join(f"({a},{b})" for a, b in members)
    out = io.StringIO()
    argv = ["--format", "json", "fourier-audit", "--group", "3^2x3", "--set", text, "--tables"]
    assert cli.main(argv, out=out) == 0
    data = json.loads(out.getvalue())
    assert data["verdict"] == "ok" and data["failure"] is None
    assert (data["rowIdentities"], data["weightedIdentities"]) == (27, 27)
    rows = [[int((a, j) in members) for a in range(9)] for j in range(3)]
    assert data["rowTransforms"] == [
        {"modulus": 9, "values": [list(v.coeffs) for v in oracle_transform(3, 2, row)]}
        for row in rows
    ]
