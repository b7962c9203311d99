"""Census scan: a vectorized numpy pre-filter with an exact integer recheck.

The scan walks the 2^P inverse-pair subsets of a group in Gray-code order,
filters by connectivity (containment in a prime-index subgroup) and by
first-layer common-neighbor constancy, and runs the full layer check on the
survivors.  The common-neighbor counts come from an FFT autocorrelation
(counts are small integers, so rounding fp64 values is exact with enormous
margin); every survivor is then re-checked in exact integer arithmetic by
the library's own distance-regularity check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cayley import SymmetricSet, build
from .drg import check_drg
from .groups import (
    GroupDescriptor,
    inverse_pairs,
    iter_bits,
    mask_of,
    maximal_subgroup_masks,
)

BATCH = 1 << 14  # subsets per vectorized pre-filter step


def active_backend() -> str:
    """Name of the scan implementation, for callers that record it."""
    return "numpy"


@dataclass(frozen=True)
class ScanContext:
    n: int
    pair_count: int
    pair_masks: np.ndarray  # int64 (P,)
    pair_matrix: np.ndarray  # uint8 (P, n): indicator of each pair
    comp_masks: np.ndarray  # int64 (#maximal,) complements of maximal subgroups


@lru_cache(maxsize=None)
def scan_context(desc: GroupDescriptor) -> ScanContext:
    n = desc.order
    if n > 62:
        raise ValueError(f"the census scan handles order <= 62, got {n}")
    pairs = inverse_pairs(desc)
    pm = np.array([mask_of(cell) for cell in pairs], dtype=np.int64)
    mat = np.zeros((len(pairs), n), dtype=np.uint8)
    for i, cell in enumerate(pairs):
        for g in cell:
            mat[i, g] = 1
    full = (1 << n) - 1
    comp = np.array(
        [full ^ m for m in maximal_subgroup_masks(desc)], dtype=np.int64
    )
    return ScanContext(
        n=n,
        pair_count=len(pairs),
        pair_masks=pm,
        pair_matrix=mat,
        comp_masks=comp,
    )


@dataclass(frozen=True)
class ScanResult:
    hits: np.ndarray  # int64 pair-subset bitmasks, ascending
    connected: int
    scanned: int


def is_drg_pairmask(desc: GroupDescriptor, pair_bits: int) -> bool:
    """Exact verdict for one pair-subset: connected and distance-regular."""
    ctx = scan_context(desc)
    smask = 0
    for j in iter_bits(pair_bits):
        smask ^= int(ctx.pair_masks[j])
    if smask == 0:
        return False
    for comp in ctx.comp_masks:
        if smask & int(comp) == 0:
            return False
    return check_drg(build(desc, SymmetricSet(desc, smask))) is not None


def census_scan(desc: GroupDescriptor, start: int, stop: int) -> ScanResult:
    """Hits and connected count over the Gray-code indices [start, stop)."""
    ctx = scan_context(desc)
    n = ctx.n
    m, q = desc.first_modulus, desc.second_modulus
    P = ctx.pair_count
    shifts = np.arange(P, dtype=np.uint64)
    pair_mat = ctx.pair_matrix.astype(np.float64)
    comp_rows = [
        np.flatnonzero([(cm >> v) & 1 for v in range(n)]) for cm in ctx.comp_masks
    ]
    hits: list[int] = []
    connected = 0
    for lo in range(start, stop, BATCH):
        hi = min(lo + BATCH, stop)
        idx = np.arange(lo, hi, dtype=np.uint64)
        gray = idx ^ (idx >> np.uint64(1))
        bits = ((gray[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.float64)
        sel = bits @ pair_mat  # (B, n) 0/1
        nonempty = sel.any(axis=1)
        conn = nonempty.copy()
        for rows in comp_rows:
            conn &= sel[:, rows].any(axis=1)
        connected += int(conn.sum())
        if not conn.any():
            continue
        sub = sel[conn]
        sub_gray = gray[conn]
        # group autocorrelation via FFT over Z_m x Z_q: counts are small
        # integers, fp64 round-trip is exact
        cube = sub.reshape(-1, m, q)
        spec = np.fft.fftn(cube, axes=(1, 2))
        corr = np.fft.ifftn(spec * np.conj(spec), axes=(1, 2)).real
        corr = np.rint(corr).astype(np.int64).reshape(-1, n)
        smat = sub.astype(bool)
        lam_min = np.where(smat, corr, np.iinfo(np.int64).max).min(axis=1)
        lam_max = np.where(smat, corr, -1).max(axis=1)
        for row in np.flatnonzero(lam_min == lam_max):
            g = int(sub_gray[row])
            if is_drg_pairmask(desc, g):
                hits.append(g)
    out = np.sort(np.array(hits, dtype=np.int64))
    return ScanResult(hits=out, connected=connected, scanned=stop - start)

