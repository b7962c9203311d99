"""Census scan: a closed-form character-sum pre-filter with an exact recheck.

The scan walks the 2^P inverse-pair subsets S of a group G = Z_m + Z_q in
Gray-code order.  A set survives the pre-filter when it is connected (it
meets the complement of every maximal subgroup; a pair lies wholly inside or
wholly outside a subgroup, so this is a test on the pair bits) and its
common-neighbor count lambda(g) = |S & (g + S)| is constant on S.  Every
survivor is then decided by the library's own distance-regularity check.

Batches start at multiples of BATCH (only the first and last may be
partial).  For i < BATCH, gray(base + i) = gray(base) ^ gray(i) with
gray(i) < BATCH, so every word of a batch holds the bits
gray(base) & -BATCH.  When those alone meet every maximal subgroup's
complement, each set of the batch is connected and the per-word test is
skipped.  In the 7^1x7 scan, 26 of its 32,768 batches take the per-word
test.

lambda comes from the spectrum of S.  The characters of G are
chi_{c,d}(a, b) = exp(2 pi i (ac/m + bd/q)); since S = -S, F(chi) =
sum_{s in S} chi(s) is real and F(chi) = F(conj chi), so one value per
conjugate class (the trivial character and one per inverse pair of the dual,
P + 1 classes) holds the whole spectrum, and F is the sum of the chosen rows
of a (P, P + 1) table of per-pair cosine sums.  By Fourier inversion
lambda(g) = (1/n) sum_chi F(chi)^2 chi(g), a second (P + 1, P) table weighted
by class size / n.

Exactness: every table entry is within a few ulps of its true value,
|F| <= n <= 62 and each product sums at most 62 terms, so the fp64 lambda
is within 1e-9 of an integer and rint recovers it exactly.  Constancy on S
is the Cauchy-Schwarz equality s0 * s2 == s1^2 over the selected pairs
(s_k = sum of lambda^k), whose terms are integers below 62^4 < 2^24 and so
exact in fp64 as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cayley import SymmetricSet, build
from .drg import check_drg
from .groups import GroupDescriptor, inverse_pairs, maximal_subgroup_masks

# Subsets per vectorized pre-filter step.  At this size each step's arrays
# stay in cache, are recycled by the allocator instead of page-faulted back,
# and the matmuls run on one BLAS thread.
BATCH = 1 << 9


def active_backend() -> str:
    """Name of the scan implementation, for callers that record it."""
    return "numpy"


@dataclass(frozen=True)
class ScanContext:
    pair_count: int
    out_masks: tuple[int, ...]  # per maximal subgroup, the pair bits outside it
    spectrum: np.ndarray  # float64 (P, P+1): each pair's character sums per class
    inverse: np.ndarray  # float64 (P+1, P): class size / n * character at each pair


@lru_cache(maxsize=None)
def scan_context(desc: GroupDescriptor) -> ScanContext:
    n = desc.order
    if n > 62:
        raise ValueError(f"the census scan handles order <= 62, got {n}")
    pairs = inverse_pairs(desc)
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
    sizes = np.array([len(cell) for cell in classes])
    return ScanContext(
        pair_count=len(pairs),
        out_masks=out,
        spectrum=spectrum.reshape(len(pairs), len(classes)),
        inverse=sizes[:, None] / n * cos[reps][:, reps[1:]],
    )


def common_neighbors(ctx: ScanContext, bits: np.ndarray) -> np.ndarray:
    """lambda at each pair's representative, one row per 0/1 row of ``bits``."""
    spec = bits @ ctx.spectrum
    spec *= spec
    lam = spec @ ctx.inverse
    return np.rint(lam, out=lam)


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


def census_scan(desc: GroupDescriptor, start: int, stop: int) -> ScanResult:
    """Hits and connected count over the Gray-code indices [start, stop)."""
    ctx = scan_context(desc)
    hits: list[int] = []
    connected = 0
    ones = np.ones(ctx.pair_count)
    for base in range(start - start % BATCH, stop, BATCH):
        idx = np.arange(max(base, start), min(base + BATCH, stop), dtype=np.uint64)
        gray = idx ^ (idx >> np.uint64(1))
        # bits that every word of the batch holds (module docstring)
        shared = (base ^ base >> 1) & -BATCH
        if not (shared and all(shared & outside for outside in ctx.out_masks)):
            conn = gray != 0
            for outside in ctx.out_masks:
                conn &= (gray & np.uint64(outside)) != 0
            gray = gray[conn]
        connected += len(gray)
        octets = gray.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
        sel = np.unpackbits(octets, axis=1, count=ctx.pair_count, bitorder="little")
        sel = sel.astype(np.float64)
        # lambda constant on S <=> s0 * s2 == s1^2 (Cauchy-Schwarz); in place, see BATCH
        lam = common_neighbors(ctx, sel)
        lam *= sel
        s0, s1 = sel @ ones, lam @ ones
        lam *= lam
        for g in gray[s0 * (lam @ ones) == s1 * s1].tolist():
            if is_drg_pairmask(desc, g):
                hits.append(g)
    out = np.sort(np.array(hits, dtype=np.int64))
    return ScanResult(hits=out, connected=connected, scanned=stop - start)
