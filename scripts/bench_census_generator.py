"""census() and the benchmark, this checkout against a parent, written to a BENCH_*.json.

    python3 scripts/bench_census_generator.py --parent PARENT_CHECKOUT
        [--claim census-small] [--pairs 10] [--other-pairs 3]
        [--out BENCH_census_generator.json]

PARENT_CHECKOUT is a checkout of the commit to compare against (a ``git
clone`` at that commit, or ``git archive <parent> | tar -x -C DIR``); the
change is this checkout.  The output's ``what`` names each side by its
``git rev-parse HEAD``, or as "no git metadata" for an archive extract,
which has no commit to name.  The record goes to ``--out``, by default
``BENCH_census_generator.json`` at the root of this checkout.  The script
records two things, each side in fresh interpreters with the program
imported from that checkout's ``src``:

- ``census``: wall time of ``census()`` per census group on both sides, and
  of the full ``census_scan`` oracle on the groups with at most 2^24
  subsets (``SCAN_PAIRS``).  The first call in a fresh process is
  reported as ``cold_s``; the median of the later calls as ``warm_s``.
  Each of ``CENSUS_ROUNDS`` rounds runs one fresh process per side, parent
  first in even rounds (parent, change, change, parent, ...), and the
  summary gives per group, for ``warm_s`` and ``census_scan_s``, each
  side's median and quartiles over the rounds and the number of rounds the
  change won.
- ``pairs``: alternating 35 s ``perfbench/run.py`` runs of both sides
  (parent first on even pair index), ``--pairs`` pairs of the workload
  named by ``--claim`` (the one whose gain is claimed, ``census-small`` by
  default) and then ``--other-pairs`` pairs of each other workload, with
  per-metric medians, quartiles and the number of pairs the change won.

Run it on an otherwise idle host: the two sides share its cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GROUPS = ("3^1x3", "3^2x3", "5^1x5", "7^1x7", "3^3x3", "5^2x5")
SCAN_PAIRS = 24  # the full census_scan is timed only up to 2^24 subsets
WORKLOADS = ("census-small", "census-7x7", "certify-large")
METRICS = ("sets_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb")
CENSUS_METRICS = ("warm_s", "census_scan_s")
CENSUS_ROUNDS = 6
HIGHER_IS_BETTER = {"sets_per_s"}

# Times census() for each group, and the full census_scan oracle where it
# has at most 2^SCAN_PAIRS subsets, in one fresh interpreter per side.
TIMER = r"""
import json, statistics, sys, time
from drgcayley import classify, groups, kernels
reps, scan_pairs = int(sys.argv[1]), int(sys.argv[2])
out = {}
for spec in sys.argv[3:]:
    desc = groups.parse_group(spec)
    runs = []
    for _ in range(reps):
        t0 = time.perf_counter()
        report = classify.census(desc)
        runs.append(time.perf_counter() - t0)
    entry = {"cold_s": runs[0], "warm_s": statistics.median(runs[1:]), "drg_sets": report.drg_sets}
    out[spec] = entry
    pairs = len(groups.inverse_pairs(desc))
    if pairs > scan_pairs:
        continue
    scans = []
    for _ in range(2 if pairs == scan_pairs else reps):
        t0 = time.perf_counter()
        kernels.census_scan(desc, 0, 1 << pairs)
        scans.append(time.perf_counter() - t0)
    entry["census_scan_s"] = statistics.median(scans)
print(json.dumps(out))
"""


def _python(checkout: Path, args: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, *args], cwd=checkout, env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.strip().splitlines()[-1]


def describe(checkout: Path) -> str:
    """The checkout's HEAD commit, or "no git metadata"."""
    if not (checkout / ".git").exists():
        return "no git metadata"

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True, check=True).stdout.strip()

    dirty = " with uncommitted changes" if git("status", "--porcelain") else ""
    return f"{git('rev-parse', 'HEAD')}{dirty}"


def time_census(checkout: Path, reps: int) -> dict:
    return json.loads(_python(checkout, ["-c", TIMER, str(reps), str(SCAN_PAIRS), *GROUPS]))


def census_rounds(sides: dict[str, Path], rounds: int, reps: int) -> dict:
    """``rounds`` alternating fresh-process timings of both sides, and their summary."""
    runs = []
    for i in range(rounds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs.append({"side": side, "round": i, "groups": time_census(sides[side], reps)})
    summary = {}
    for spec in GROUPS:
        summary[spec] = {}
        for name in CENSUS_METRICS:
            if name not in runs[0]["groups"][spec]:
                continue
            by_side = {
                side: [r["groups"][spec][name] for r in runs if r["side"] == side]
                for side in sides
            }
            summary[spec][name] = {
                "parent": quartiles(by_side["parent"]),
                "change": quartiles(by_side["change"]),
                "change_wins": sum(c < p for p, c in zip(by_side["parent"], by_side["change"])),
            }
    return {"rounds": rounds, "summary": summary, "runs": runs}


def bench_run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    args = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    result = json.loads(_python(checkout, args))
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name]["value"] for name in METRICS},
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    parent = [r for r in runs if r["side"] == "parent"]
    change = [r for r in runs if r["side"] == "change"]
    out = {
        "pairs": len(parent),
        "failed_ops": {
            "parent": sum(r["failed"] for r in parent),
            "change": sum(r["failed"] for r in change),
        },
    }
    for name in METRICS:
        p = [r["metrics"][name] for r in parent]
        c = [r["metrics"][name] for r in change]
        better = (lambda a, b: a > b) if name in HIGHER_IS_BETTER else (lambda a, b: a < b)
        ps, cs = quartiles(p), quartiles(c)
        out[name] = {
            "parent": ps,
            "change": cs,
            "change_wins": sum(better(b, a) for a, b in zip(p, c)),
            "change_vs_parent": cs["median"] / ps["median"],
            "medians_differ_by_more_than_parent_iqr":
                abs(cs["median"] - ps["median"]) > ps["q3"] - ps["q1"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--claim", choices=WORKLOADS, default="census-small",
                        help="the workload whose gain is claimed")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of the claimed workload")
    parser.add_argument("--other-pairs", type=int, default=3,
                        help="pairs of each other workload")
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--seed", type=int, default=1101,
                        help="first seed; pairs use consecutive seeds")
    parser.add_argument("--reps", type=int, default=5,
                        help="census() calls per group and process")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_census_generator.json")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": ROOT}

    census = census_rounds(sides, CENSUS_ROUNDS, args.reps)
    plan = [(args.claim, args.pairs)]
    plan += [(workload, args.other_pairs) for workload in WORKLOADS if workload != args.claim]
    runs: list[dict] = []
    seed = args.seed
    for workload, pairs in plan:
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run = bench_run(sides[side], workload, seed, args.seconds)
                runs.append({"side": side, "workload": workload, "seed": seed, **run})
                print(f"{workload} seed {seed} {side}: sets_per_s "
                      f"{run['metrics']['sets_per_s']:.1f}", file=sys.stderr)
            seed += 1
    payload = {
        "what": f"side change: {describe(ROOT)}; side parent: {describe(sides['parent'])}",
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {args.seconds} "
                   "--trace 0",
        "order": "pairs alternate which side runs first (parent first on even pair index); "
                 f"seeds from {args.seed}, one per pair",
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
        },
        "census": census,
        "summary": {w: summarize([r for r in runs if r["workload"] == w]) for w, _ in plan},
        "runs": runs,
    }
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
