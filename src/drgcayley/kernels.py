"""Census kernels: multiplier layers, the filter funnel and the exhaustive oracle scan.

Both paths narrow the inverse-pair subsets S of G = Z_{p^s} + Z_p (bit j
selects pair j of ``groups.inverse_pairs``) with word-level numpy filters
that every connected distance-regular Cay(G, S) passes.  The census hands
the survivors to ``classify``, which decides one lead per Aut(G) orbit of
them exactly; the scan decides its survivors itself with
``is_drg_pairmask``.

Generation (``multiplier_layers``, what ``classify.census`` runs).  The
distance module of a distance-regular Cayley graph over an abelian group is
a Schur ring, so by Schur's multiplier theorem (Schur 1933; Wielandt,
*Finite Permutation Groups*, Thm 23.9) S^(u) = S or S^(u) & S = 0 for every
unit u of Z_{p^s}, where S^(u) = {u x : x in S}.  Modulo +-1 the
multipliers form a cyclic group M of order phi(p^s)/2 acting on the pairs.
Let H be the stabilizer of S in M.  S is H-invariant, and it meets every
M-orbit of pairs in at most one H-orbit: two, x H and y H with y = u x,
would put y in S^(u) & S with u outside H.  Conversely, such a union S of
H-orbits has stabilizer exactly H, and S^(u) & S = 0 for every u outside H,
exactly when every chosen pair x has Stab_M(x) <= H: u x lies in x H
exactly when u is in Stab_M(x) H.  M is cyclic, so with t = [M : H] that is
a test on each M-orbit O alone, t divides |O|, and such an O splits into
exactly t H-orbits.  So the layer of H keeps the k M-orbits that pass, and
its nonempty sets take nothing or one of the t H-orbits from each:
(1 + t)^k - 1 sets with the multiplier property, each under its own
stabilizer.

A ``Layer`` holds this as points and blocks: its points are the H-orbits,
listed M-orbit by M-orbit, each as a pair word, and ``after[t]``, the first
point of the next M-orbit, is the first point a set may take after point
t, so that a set takes at most one point per M-orbit.  Every sigma in
Aut(G) commutes with the multipliers, so it maps M-orbits and H-orbits onto
M-orbits and H-orbits, with Stab_M(sigma x) = Stab_M(x): each layer is
Aut(G)-invariant, and ``action`` holds each row of
``groups.pair_permutations`` as a permutation of the points.  Orbit mode's
``pair_layer`` is the layer of all P pairs, one point and one block each.
``classify.orbit_leaders`` walks one lex-leader per Aut(G) orbit of a
layer's nonempty sets, and ``classify.orbit_count`` counts those orbits by
Burnside's lemma.

The leaders then pass one vectorized funnel, ``word_funnel``:
connected (S meets the complement of every maximal subgroup; a pair lies
wholly inside or wholly outside a subgroup, so this is a test on the pair
bits); lambda(g) = |S & (g + S)| constant on S; and c_2 constant.  For g
outside S and 0, lambda(g) > 0 exactly when g is at distance 2, and
lambda(g) then counts its common neighbours with 0, which a
distance-regular graph holds at c_2 (Brouwer-Cohen-Neumaier 1989).  Both
constancy tests are the Cauchy-Schwarz equality s0 * s2 == s1^2 over the
selected pairs (s_k = sum of lambda^k).  Every test is an Aut(G)
invariant, so a leader stands for its orbit.  ``connected_count`` counts
the connected sets without enumerating them, by Moebius inversion over the
subgroup lattice.

The scan (``census_scan``, the exhaustive oracle) walks all 2^P subsets in
Gray-code order, with the connectivity test above, a triangle-count
pre-test and the lambda test.  A batch is the BATCH indices from a multiple
base of BATCH.  For i < BATCH, gray(base + i) = gray(base) ^ gray(i) with
gray(i) < BATCH, so every word of a batch is shared | low: shared =
gray(base) & -BATCH holds the bits that every word of the batch holds, and
low = gray(x) & (BATCH - 1) depends only on x mod 2 BATCH.  When shared
alone meets every maximal subgroup's complement, each set of the batch is
connected.

The pre-test is a scalar consequence of edge-regularity.  tr(A^3) counts
closed walks of length 3, n sum_{g in S} lambda(g) of them, and the
eigenvalues of A are the character sums F(chi) below, so sum_{g in S}
lambda(g) = tr(A^3) / n = sum_c w_c F_c^3 over the conjugate classes c,
with w_c = |c| / n.  If lambda is constant on S, the sum is k lambda_0 with
k = |S| = F_0, so k divides it; 84.9% of the 7^1x7 words fail this.
Character sums add over disjoint pair sets, so F(shared | low) = a + b with
a = F(low) and b = F(shared), and the sum is

    [a^3 | a^2 | a] @ [w; 3 w b; 3 w b^2] + w . b^3.

``_triangle_table`` holds the row [a^3 | a^2 | a] of each of the 2 BATCH
residues x mod 2 BATCH; it is built on a group's first scan.  Its first
half serves the even batches, its second the odd ones.

The scan takes BLOCK batches at a time from start rounded down to a
multiple of 2 BATCH, so the batches of a block alternate between the halves
(the last block is cut to an even number of batches).  ``_triangle_block``
forms a block's vectors b with one matmul and its triangle sums with one
more, which writes batch 2i + h to row (i, h) of a (batches / 2, 2, BATCH)
array, so the sums come out in Gray order.  Slices cut the first and last
blocks to [start, stop), and the masks over a block keep that order.  Only
a block with a disconnected shared part takes the per-word connectivity
test (26 of the 32,768 7^1x7 batches have one).  The empty word is the one
word with k = 0: the ratio test skips it, as 0/0 would warn, and the
connectivity test drops it.  The surviving words are pooled, and the lambda
test takes BATCH of them at a time and the rest at the end, so
``is_drg_pairmask`` sees its words in Gray order.

lambda comes from the spectrum of S.  The characters of G are
chi_{c,d}(a, b) = exp(2 pi i (ac/m + bd/q)); since S = -S, F(chi) =
sum_{s in S} chi(s) is real and F(chi) = F(conj chi), so one value per
conjugate class (the trivial character and one per inverse pair of the dual,
P + 1 classes) holds the whole spectrum, and F is the sum of the chosen rows
of a (P, P + 1) table of per-pair cosine sums.  By Fourier inversion
lambda(g) = (1/n) sum_chi F(chi)^2 chi(g), a second (P + 1, P) table weighted
by class size / n.

Exactness: pair words hold P <= 62 pairs, so n <= 2P + 1 <= 125.  Every table
entry is within a few ulps of its true value, |F| <= n and each product sums
at most P + 1 terms, so the fp64 lambda is within 1e-9 of an integer and rint
recovers it exactly (seeded words of 3^3x3, 5^2x5 and 11^1x11 measured at
most 1.0e-13).  The Cauchy-Schwarz terms are integers below P^2 n^2 < 2^26
and so exact in fp64 as well.  In the pre-test a and b are character sums of
pair sets too, so |a|, |b| <= n, and since the w_c sum to 1 the terms of the
triangle sum add up in size to at most sum_c w_c (|a_c| + |b_c|)^3 <= 8 n^3
< 2^24.  So the computed sum is within 1e-6 of its true value, sum_{g in S}
lambda(g), an integer below n^2, and rint recovers it exactly (1e-9 is
asserted over every 5^1x5 word; the full 7^1x7 scan measured 6.8e-13).
Blocks change none of this: each sum has the same terms, and the bound
holds in whatever order the matmul adds them.  On every nonempty word
k >= 1, and the quotient of that integer by k, both exact, is an integer
exactly when k divides it: otherwise it lies at least 1/k > 1/n away from
every integer, far beyond its rounding error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cayley import SymmetricSet, build
from .drg import check_drg
from .groups import (
    GroupDescriptor,
    all_subgroups,
    inverse_pairs,
    linear_map,
    maximal_subgroup_masks,
    pair_of_rank,
    pair_permutations,
)

# Subsets per lambda step and per Gray batch (module docstring).  At this
# size the step's arrays stay in cache and are recycled by the allocator
# instead of page-faulted back (twice the rows took 2.4x the time per row),
# and its matmuls run on one BLAS thread.
BATCH = 1 << 9

# Batches per pre-test block.  The full 7^1x7 scan took 1.60 / 1.41 / 1.21 s
# at 8 / 16 / 32 (medians of five, 2-vCPU Xeon).  The census-7x7 benchmark's
# peak RSS grows by about 200 B per op it completes; over the per-batch
# scan's it read +6.0% at 16 and +6.0 to +8.6% at 32, against a 10% bound.
# At 16 the triangle matmul runs on one BLAS thread; OpenBLAS splits it at 32.
BLOCK = 16


def active_backend() -> str:
    """Name of the scan implementation, for callers that record it."""
    return "numpy"


@dataclass(frozen=True)
class ScanContext:
    pair_count: int
    out_masks: tuple[int, ...]  # per maximal subgroup, the pair bits outside it
    spectrum: np.ndarray  # float64 (P, P+1): each pair's character sums per class
    weights: np.ndarray  # float64 (P+1,): class size / n
    inverse: np.ndarray  # float64 (P+1, P): class size / n * character at each pair


@lru_cache(maxsize=None)
def scan_context(desc: GroupDescriptor) -> ScanContext:
    pairs = inverse_pairs(desc)
    if len(pairs) > 62:
        raise ValueError(f"{desc.spec()} has {len(pairs)} inverse pairs; pair words hold 62")
    n = desc.order
    out = tuple(
        sum(1 << j for j, cell in enumerate(pairs) if not sub >> cell[0] & 1)
        for sub in maximal_subgroup_masks(desc)
    )
    m, q = desc.first_modulus, desc.second_modulus
    a, b = np.divmod(np.arange(n), q)
    cos = np.cos(2 * np.pi * (np.outer(a, a) % m / m + np.outer(b, b) % q / q))
    # chi_{c,d} is named by the element (c, d) and its conjugate by -(c, d),
    # so the conjugate classes are the identity and the inverse pairs
    classes = ((0,),) + pairs
    reps = [cell[0] for cell in classes]
    spectrum = np.array([cos[list(cell)][:, reps].sum(axis=0) for cell in pairs])
    weights = np.array([len(cell) for cell in classes]) / n
    return ScanContext(
        pair_count=len(pairs),
        out_masks=out,
        spectrum=spectrum.reshape(len(pairs), len(classes)),
        weights=weights,
        inverse=weights[:, None] * cos[reps][:, reps[1:]],
    )


def _pair_bits(words: np.ndarray, count: int) -> np.ndarray:
    """Bit j of each 64-bit word as column j of a (len(words), count) float64 0/1 array."""
    octets = words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=count, bitorder="little").astype(np.float64)


def common_neighbors(ctx: ScanContext, bits: np.ndarray) -> np.ndarray:
    """lambda at each pair's representative, one row per 0/1 row of ``bits``."""
    spec = bits @ ctx.spectrum
    spec *= spec
    lam = spec @ ctx.inverse
    return np.rint(lam, out=lam)


def _constant_on(lam: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """Rows where ``lam`` takes one value on the pairs ``sel`` marks (0/1 floats).

    The Cauchy-Schwarz equality s0 * s2 == s1^2, with s_k the sum of lam^k
    over the marked pairs; it holds for an empty selection too.  Each sum is
    a matmul with a ones vector, which numpy runs faster than ``sum(axis=1)``.
    ``lam`` is overwritten: the scan allocates no array here (see BATCH).
    """
    ones = np.ones(sel.shape[1])
    lam *= sel
    s0, s1 = sel @ ones, lam @ ones
    lam *= lam
    return s0 * (lam @ ones) == s1 * s1


@dataclass(frozen=True)
class ScanResult:
    hits: np.ndarray  # int64 pair-subset bitmasks, ascending
    connected: int
    scanned: int


def is_drg_pairmask(desc: GroupDescriptor, pair_bits: int) -> bool:
    """Exact verdict for one pair-subset: connected and distance-regular."""
    outside = scan_context(desc).out_masks
    if pair_bits == 0 or any(pair_bits & out == 0 for out in outside):
        return False
    return check_drg(build(desc, SymmetricSet.from_pair_bits(desc, pair_bits))) is not None


@lru_cache(maxsize=None)
def _triangle_table(desc: GroupDescriptor) -> np.ndarray:
    """The scan's (2 BATCH, 3(P+1)) float64 table [a^3 | a^2 | a] (module
    docstring): row r serves every Gray index x with x mod 2 BATCH = r, and
    a = F(gray(r) & (BATCH - 1)) there."""
    ctx = scan_context(desc)
    rows = np.arange(2 * BATCH, dtype=np.uint64)
    low = (rows ^ rows >> np.uint64(1)) & np.uint64(BATCH - 1)
    # filled in place, so that the build holds no second table-sized array
    powers = np.empty((2 * BATCH, 3 * (ctx.pair_count + 1)))
    cube, square, a = np.split(powers, 3, axis=1)
    np.matmul(_pair_bits(low, ctx.pair_count), ctx.spectrum, out=a)
    np.multiply(a, a, out=square)
    np.multiply(square, a, out=cube)
    return powers


def _triangle_block(desc: GroupDescriptor, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum of lambda over S, and |S|, for each word at Gray indices [lo, hi),
    lo a multiple of 2 BATCH.  Both are float64; the sums are exact after
    rounding (module docstring)."""
    ctx = scan_context(desc)
    bases = np.arange(lo, hi + (lo - hi) % (2 * BATCH), BATCH, dtype=np.uint64)
    shared = (bases ^ bases >> np.uint64(1)) & ~np.uint64(BATCH - 1)
    b = _pair_bits(shared, ctx.pair_count) @ ctx.spectrum
    wb = ctx.weights * b
    vectors = np.hstack((np.broadcast_to(ctx.weights, b.shape), 3 * wb, 3 * wb * b))
    halves = _triangle_table(desc).reshape(2, BATCH, -1)
    # batch 2i + h reads half h and is written to row (i, h), in batch order
    tri = np.empty((len(b) // 2, 2, BATCH))
    np.matmul(vectors.reshape(-1, 2, vectors.shape[1]).swapaxes(0, 1),
              halves.swapaxes(1, 2), out=tri.swapaxes(0, 1))
    tri += (wb * b * b).sum(axis=1).reshape(-1, 2, 1)
    # column 0 of the a block is the trivial class: a_0 = |low|
    k = halves[:, :, 2 * b.shape[1]] + b[:, 0].reshape(-1, 2, 1)
    return tri.reshape(-1)[:hi - lo], k.reshape(-1)[:hi - lo]


def census_scan(desc: GroupDescriptor, start: int, stop: int) -> ScanResult:
    """Hits and connected count over the Gray-code indices [start, stop)."""
    ctx = scan_context(desc)
    if not 0 <= start <= stop <= 1 << ctx.pair_count:
        raise ValueError(f"scan range [{start}, {stop}) is not within [0, 2^{ctx.pair_count}]")
    hits: list[int] = []
    connected = 0
    pool = np.zeros(0, dtype=np.int64)
    for lo in range(start - start % (2 * BATCH), stop, BLOCK * BATCH):
        hi = min(lo + BLOCK * BATCH, stop)
        first = max(start, lo)
        tri, k = (a[first - lo:] for a in _triangle_block(desc, lo, hi))
        # edge-regularity: |S| divides the sum of lambda over S; k is then scratch
        np.divide(np.rint(tri, out=tri), k, out=tri, where=k > 0)
        keep = tri == np.rint(tri, out=k)
        connected += hi - first
        shared = ((x ^ x >> 1) & -BATCH for x in range(lo, hi, BATCH))
        if not all(s and all(s & outside for outside in ctx.out_masks) for s in shared):
            gray = np.arange(first, hi)
            gray ^= gray >> 1
            conn = gray != 0
            for outside in ctx.out_masks:
                conn &= gray & outside != 0
            connected += int(conn.sum()) - len(conn)
            keep &= conn
        x = np.flatnonzero(keep) + first
        del tri, k  # the block's arrays, freed before the lambda step
        pool = np.concatenate((pool, x ^ x >> 1))
        while len(pool) >= BATCH or hi == stop and len(pool):
            words, pool = pool[:BATCH], pool[BATCH:]
            sel = _pair_bits(words, ctx.pair_count)
            for g in words[_constant_on(common_neighbors(ctx, sel), sel)].tolist():
                if is_drg_pairmask(desc, g):
                    hits.append(g)
    out = np.sort(np.array(hits, dtype=np.int64))
    return ScanResult(hits=out, connected=connected, scanned=stop - start)


# -- multiplier-class generation ---------------------------------------------


@lru_cache(maxsize=None)
def _multiplier_action(desc: GroupDescriptor) -> np.ndarray:
    """The multiplier group M on pair indices, as an (|M|, P) intp array.

    Row k is the pair permutation of x -> g^k x, for a primitive root g mod
    p^s.  g has order 2|M| and g^|M| = -1 fixes every pair, so the rows are
    M in order, row 0 is the identity, and the subgroup of order d is every
    (|M|/d)-th row.  The pairs are read first, so that ``group_tables``
    refuses a group past its bound before the root search runs.
    """
    firsts = [cell[0] for cell in inverse_pairs(desc)]
    p, _ = desc.prime_power_pair
    ps = desc.first_modulus
    order = ps // p * (p - 1) // 2
    g = next(
        u for u in range(2, ps + 1)
        if len({pow(u, k, ps) for k in range(2 * order)}) == 2 * order
    )
    units = np.array([pow(g, k, ps) for k in range(order)])
    images = linear_map(desc, desc, units * desc.second_modulus, units % desc.second_modulus)
    return pair_of_rank(desc)[images[:, firsts]]


def _orbits(perms: np.ndarray, members) -> list[list[int]]:
    """Orbits through ``members`` of the group whose pair permutations are the rows."""
    seen: set[int] = set()
    orbits = []
    for j in members:
        if j not in seen:
            orbit = sorted(set(perms[:, j].tolist()))
            seen.update(orbit)
            orbits.append(orbit)
    return orbits


@dataclass(frozen=True, eq=False)
class Layer:
    """Points, each a pair word, and the Aut(G) action on them (module docstring).

    A layer set takes at most one point per block, a run of consecutive
    points; ``after[t]`` is the first point of the block after t's.  Layers
    compare and hash by identity, so that a cached count is kept per layer.
    """

    words: np.ndarray  # int64 (L,): the pair word of each point
    action: np.ndarray  # intp (k, L): row r of pair_permutations on the points
    after: np.ndarray  # intp (L,): the first point that may follow point t


def _layer(desc: GroupDescriptor, blocks: list[list[list[int]]]) -> Layer:
    """The layer whose points are the pair lists of ``blocks``, block by block.

    Every row of ``pair_permutations`` must map each point onto a point.
    Words are int64: ``scan_context`` refuses more than 62 inverse pairs,
    after the automorphism table's own bound.
    """
    perms = pair_permutations(desc)
    scan_context(desc)
    pairs = perms.shape[1]
    points = [point for block in blocks for point in block]
    sizes = [len(block) for block in blocks]
    point_of = np.full(pairs, -1)
    for i, point in enumerate(points):
        point_of[point] = i
    return Layer(
        words=np.array([sum(1 << j for j in point) for point in points], dtype=np.int64),
        action=point_of[perms[:, [point[0] for point in points]]],
        after=np.repeat(np.cumsum(sizes), sizes),
    )


@lru_cache(maxsize=None)
def pair_layer(desc: GroupDescriptor) -> Layer:
    """Orbit mode's one layer: every pair is a point and a block of its own.

    Only ``classify.census(scan="orbit")`` reads it, which stays while the
    benchmark's census-small ops run orbit mode.
    """
    return _layer(desc, [[[j]] for j in range(len(inverse_pairs(desc)))])


@lru_cache(maxsize=None)
def multiplier_layers(desc: GroupDescriptor) -> tuple[Layer, ...]:
    """One layer per subgroup H of M (one per divisor of |M|), by order of H.

    Its blocks are the M-orbits O with t = [M : H] dividing |O|, and the
    points of a block are the t H-orbits of O.
    """
    perms = _multiplier_action(desc)
    order, pairs = perms.shape
    return tuple(
        _layer(desc, [
            _orbits(perms[::t], orbit) for orbit in _orbits(perms, range(pairs))
            if len(orbit) % t == 0
        ])
        for t in range(order, 0, -1) if order % t == 0
    )


def connected_count(desc: GroupDescriptor) -> int:
    """How many pair-subsets S generate G, by Moebius inversion (P. Hall 1936).

    With f(H) the subsets generating H, the 2^P(H) subsets of the pairs
    inside H are sum over K <= H of f(K), so f(G) = sum over H of
    mu(H, G) 2^P(H), with mu(G, G) = 1 and mu(H, G) = -sum of mu(K, G) over
    H < K <= G.  ``all_subgroups`` is sorted by order, so every K above H
    comes before H in reverse.
    """
    pairs = inverse_pairs(desc)
    mu: dict[int, int] = {}
    total = 0
    for h in reversed(all_subgroups(desc)):
        mu[h.mask] = -sum(v for k, v in mu.items() if not h.mask & ~k) if mu else 1
        total += mu[h.mask] * 2 ** sum(h.mask >> cell[0] & 1 for cell in pairs)
    return total


FUNNEL_STAGES = ("connected", "lambda", "c2")


def word_funnel(
    desc: GroupDescriptor, words: np.ndarray
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The words that pass each of FUNNEL_STAGES, in order, and each stage's seconds.

    BATCH words at a time, so that the filter's arrays stay in cache.
    """
    ctx = scan_context(desc)
    passed = tuple([words[:0]] for _ in FUNNEL_STAGES)
    seconds = np.zeros(len(FUNNEL_STAGES))
    for base in range(0, len(words), BATCH):
        batch = words[base:base + BATCH]
        clock = [time.perf_counter()]
        for outside in ctx.out_masks:
            batch = batch[batch & outside != 0]
        passed[0].append(batch)
        clock.append(time.perf_counter())
        sel = _pair_bits(batch, ctx.pair_count)
        lam = common_neighbors(ctx, sel)
        keep = _constant_on(lam.copy(), sel)
        batch, lam, sel = batch[keep], lam[keep], sel[keep]
        passed[1].append(batch)
        clock.append(time.perf_counter())
        # the distance-2 layer: the pairs outside S where lambda > 0
        passed[2].append(batch[_constant_on(lam, (lam > 0) * (1 - sel))])
        clock.append(time.perf_counter())
        seconds += np.diff(clock)
    return tuple(np.concatenate(stage) for stage in passed), seconds
