"""Regenerate perfbench/reference.json, the expected outputs the benchmark checks.

    python3 perfbench/make_reference.py

Runs one full census() per census group and records the sha256 of its
canonical JSON with its counts, then scans Z_7 + Z_7 chunk by chunk through
kernels.census_scan and records, per chunk, the connected count, the number
of exact rechecks (calls of kernels.is_drg_pairmask) and the hit words.
The chunk totals are cross-checked against the full census.  Takes a few
minutes on the numpy backend.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from drgcayley import classify, kernels  # noqa: E402
from drgcayley.groups import inverse_pairs, parse_group  # noqa: E402

CENSUS_GROUPS = ("3^1x3", "3^2x3", "5^1x5", "7^1x7")
CHUNK_GROUP = "7^1x7"
CHUNK_BITS = 14


def census_entry(spec: str) -> dict:
    t0 = time.perf_counter()
    report = classify.census(parse_group(spec))
    text = report.to_json()
    print(f"census {spec}: {report.drg_sets} hits, {time.perf_counter() - t0:.1f}s", flush=True)
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "symmetricSets": report.symmetric_sets,
        "connectedSets": report.connected_sets,
        "drgSets": report.drg_sets,
        "anomalies": list(report.anomalies),
    }


def chunk_table(spec: str) -> dict:
    desc = parse_group(spec)
    total = 1 << len(inverse_pairs(desc))
    size = 1 << CHUNK_BITS
    original = kernels.is_drg_pairmask
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    kernels.is_drg_pairmask = counted
    connected, rechecks, hits = [], [], []
    try:
        t0 = time.perf_counter()
        for lo in range(0, total, size):
            calls[0] = 0
            res = kernels.census_scan(desc, lo, lo + size)
            if res.scanned != size:
                raise RuntimeError(f"chunk at {lo}: scanned {res.scanned} of {size}")
            connected.append(res.connected)
            rechecks.append(calls[0])
            hits.append([int(g) for g in res.hits])
        print(f"chunks {spec}: {time.perf_counter() - t0:.1f}s", flush=True)
    finally:
        kernels.is_drg_pairmask = original
    return {
        "group": spec,
        "chunkBits": CHUNK_BITS,
        "connected": connected,
        "rechecks": rechecks,
        "hits": hits,
    }


def main() -> int:
    censuses = {spec: census_entry(spec) for spec in CENSUS_GROUPS}
    chunks = chunk_table(CHUNK_GROUP)
    full = censuses[CHUNK_GROUP]
    if (sum(chunks["connected"]) != full["connectedSets"]
            or sum(len(h) for h in chunks["hits"]) != full["drgSets"]):
        raise RuntimeError("chunk totals disagree with the full census")
    out = {
        "backend": kernels.active_backend(),
        "census": censuses,
        "chunks": chunks,
    }
    path = HERE / "reference.json"
    path.write_text(json.dumps(out, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
