"""Command-line front end.

Subcommands: check, census, construct, fourier-audit, bipartite-drg.
Exit codes: 0 ok, 2 negative verdict or anomalies, 64 usage error,
65 budget exceeded.  ``census`` runs the library's kernel mode; its
output paths are checked before the census starts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import classify, designs, fourier
from .cayley import SymmetricSet, build, distance_partition, edge_list, is_connected, to_graph6
from .drg import check_drg, recognize, srg_params
from .groups import AutomorphismBoundError, pair_group, parse_group
from .schur import distance_module, is_primitive, is_schur_ring
from .structure import is_antipodal, is_bipartite

EXIT_OK = 0
EXIT_NEGATIVE = 2
EXIT_USAGE = 64
EXIT_BUDGET = 65


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _require(args, family: str, *names: str) -> None:
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        raise UsageError(f"--family {family} needs {', '.join(missing)}")


def _emit(payload: dict, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        for key, value in payload.items():
            out.write(f"{key}: {value}\n")


def cmd_check(args, out) -> int:
    desc = parse_group(args.group)
    sset = SymmetricSet.parse(desc, args.set)
    graph = build(desc, sset)
    if not is_connected(graph):
        _emit(
            {"verdict": "not-DRG", "reason": "disconnected", "set": sset.member_strs()},
            args.format,
            out,
        )
        return EXIT_NEGATIVE
    part = distance_partition(graph)
    array = check_drg(graph, part)
    if array is None:
        _emit(
            {"verdict": "not-DRG", "reason": "layer counts not constant"},
            args.format,
            out,
        )
        return EXIT_NEGATIVE
    module = distance_module(graph, part)
    constants = is_schur_ring(module)
    bip = is_bipartite(graph) is not None
    antip = is_antipodal(graph, part)
    family = recognize(graph, array)
    params = srg_params(array)
    payload = {
        "verdict": "DRG",
        "array": str(array),
        "diameter": part.diameter,
        "family": str(family),
        "srg": str(params) if params else None,
        "bipartite": bip,
        "antipodal": antip,
        "primitive": not bip and not antip,
        "schurRing": constants is not None,
        "modulePrimitive": is_primitive(module) if constants is not None else None,
    }
    if args.constants and constants is not None:
        payload["structureConstants"] = constants.tolist()
    if args.graph6:
        payload["graph6"] = to_graph6(graph.adjacency)
    if args.edges_out:
        with open(args.edges_out, "w", encoding="utf-8") as fh:
            fh.write(edge_list(graph.adjacency))
    _emit(payload, args.format, out)
    return EXIT_OK


def cmd_census(args, out) -> int:
    desc = parse_group(args.group)
    # refuse a missing directory, or a directory as the file, before the census
    # runs, without creating or truncating the file, so a failed census leaves
    # an old report as it was
    for flag, path in (("--out", args.out), ("--stats", args.stats)):
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise UsageError(f"{flag} {path}: no such directory")
        if path and os.path.isdir(path):
            raise UsageError(f"{flag} {path}: is a directory")
    report = classify.census(desc, orbit_budget=args.orbit_budget)
    start = time.perf_counter()
    text = report.to_json()
    if args.stats:
        funnel = report.funnel + (("report", len(text), time.perf_counter() - start),)
        stats = {
            "group": report.group,
            "stages": [{"stage": n, "count": c, "seconds": t} for n, c, t in funnel],
        }
        with open(args.stats, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(stats, indent=2) + "\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.write(f"report written to {args.out}\n")
    else:
        out.write(text)
    return EXIT_NEGATIVE if report.anomalies else EXIT_OK


def cmd_construct(args, out) -> int:
    if args.design_out and args.family != "td-line":
        raise UsageError("--design-out applies to --family td-line only")
    if args.family == "td-line":
        _require(args, "td-line", "p", "r")
        desc = pair_group(args.p, 1)
        graph, array = classify.construct_family(desc, "td-line", r=args.r)
        pcp = next(designs.pcp_enumerate(desc, args.r))
        design = designs.td_from_pcp(pcp)
    elif args.family == "complete":
        _require(args, "complete", "group")
        desc = parse_group(args.group)
        graph, array = classify.construct_family(desc, "complete")
    elif args.family == "multipartite":
        _require(args, "multipartite", "group", "t", "m")
        desc = parse_group(args.group)
        graph, array = classify.construct_family(desc, "multipartite", t=args.t, m=args.m)
    else:
        raise UsageError(f"unknown family {args.family}")
    params = srg_params(array)
    payload = {
        "group": graph.group.spec(),
        "family": args.family,
        "set": graph.connection.member_strs(),
        "array": str(array),
        "srg": str(params) if params else None,
    }
    if args.graph6:
        payload["graph6"] = to_graph6(graph.adjacency)
    if args.edges_out:
        with open(args.edges_out, "w", encoding="utf-8") as fh:
            fh.write(edge_list(graph.adjacency))
    if args.design_out:
        with open(args.design_out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(design.to_json_obj(), indent=2, sort_keys=True) + "\n")
    _emit(payload, args.format, out)
    return EXIT_OK


def cmd_fourier_audit(args, out) -> int:
    desc = parse_group(args.group)
    sset = SymmetricSet.parse(desc, args.set)
    graph = build(desc, sset)
    if not is_connected(graph):
        _emit({"verdict": "not-DRG", "reason": "disconnected"}, args.format, out)
        return EXIT_NEGATIVE
    part = distance_partition(graph)
    array = check_drg(graph, part)
    if array is None:
        _emit({"verdict": "not-DRG"}, args.format, out)
        return EXIT_NEGATIVE
    report = fourier.fourier_audit(graph, array, part)
    payload = {
        "verdict": "ok" if report.ok else "FAILED",
        "rowIdentities": report.identities_checked,
        "weightedIdentities": report.weighted_checked,
        "failure": report.failure or None,
    }
    if args.tables:
        ctx = fourier.FourierContext(*desc.prime_power_pair)
        payload["rowTransforms"] = [
            ctx.transform_function(row).to_json_obj()
            for row in fourier.row_indicators(desc, sset.mask)
        ]
    _emit(payload, args.format, out)
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _parse_residues(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",") if t.strip())


def cmd_bipartite_drg(args, out) -> int:
    if args.auto_search:
        reports = designs.bipartite_double_sweep(args.n)
        hits = [r for r in reports if r.in_diffset_family]
        inconsistent = [r for r in reports if not r.equivalence_holds]
        payload = {
            "n": args.n,
            "pairsSwept": len(reports),
            "diffsetFamilyHits": [
                {
                    "set": r.graph.connection.member_strs(),
                    "array": str(r.array),
                    "certificate": r.certificate.element_strs(),
                }
                for r in hits
            ],
            "equivalenceViolations": len(inconsistent),
        }
        _emit(payload, args.format, out)
        return EXIT_OK if not inconsistent else EXIT_NEGATIVE
    if not args.r0 or not args.r1:
        raise UsageError("provide --r0 and --r1, or --auto-search")
    report = designs.bipartite_double_check(
        args.n, _parse_residues(args.r0), _parse_residues(args.r1)
    )
    payload = {
        "n": args.n,
        "isDRG": report.is_drg,
        "diameter": report.diameter,
        "array": str(report.array) if report.array else None,
        "bipartite": report.bipartite,
        "antipodal": report.antipodal,
        "certificate": report.certificate.element_strs() if report.certificate else None,
        "certificateNontrivial": bool(report.certificate and report.certificate.nontrivial),
        "equivalenceHolds": report.equivalence_holds,
    }
    _emit(payload, args.format, out)
    return EXIT_OK if report.is_drg else EXIT_NEGATIVE


def build_parser() -> _Parser:
    parser = _Parser(prog="drgcayley", description="distance-regular Cayley graph tools")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_check = subs.add_parser("check", help="decide distance-regularity of one set")
    p_check.add_argument("--group", required=True)
    p_check.add_argument("--set", required=True)
    p_check.add_argument("--constants", action="store_true", help="include p_ij^k tensor (json)")
    p_check.add_argument("--graph6", action="store_true", help="include the graph6 encoding")
    p_check.add_argument("--edges-out", default=None, help="write the edge list here")
    p_check.set_defaults(fn=cmd_check)

    p_census = subs.add_parser(
        "census", help="find every distance-regular symmetric set of a group"
    )
    p_census.add_argument("--group", required=True)
    p_census.add_argument("--out", default=None, help="write the JSON report here")
    p_census.add_argument(
        "--stats", default=None, help="write the per-stage counts and seconds here as JSON"
    )
    p_census.add_argument(
        "--orbit-budget", type=int, default=classify.DEFAULT_ORBIT_BUDGET
    )
    p_census.set_defaults(fn=cmd_census)

    p_con = subs.add_parser("construct", help="build a named family member")
    p_con.add_argument("--family", required=True, choices=("complete", "multipartite", "td-line"))
    p_con.add_argument("--group", default=None)
    p_con.add_argument("--t", type=int, default=None)
    p_con.add_argument("--m", type=int, default=None)
    p_con.add_argument("--p", type=int, default=None)
    p_con.add_argument("--r", type=int, default=None)
    p_con.add_argument("--graph6", action="store_true")
    p_con.add_argument("--edges-out", default=None)
    p_con.add_argument("--design-out", default=None, help="write the TD as JSON (td-line)")
    p_con.set_defaults(fn=cmd_construct)

    p_fa = subs.add_parser("fourier-audit", help="exact row-transform identity audit")
    p_fa.add_argument("--group", required=True)
    p_fa.add_argument("--set", required=True)
    p_fa.add_argument("--tables", action="store_true", help="include row transform tables")
    p_fa.set_defaults(fn=cmd_fourier_audit)

    p_bd = subs.add_parser(
        "bipartite-drg", help="bipartite double-layer construction over Z_n + Z_2"
    )
    p_bd.add_argument("--n", type=int, required=True)
    p_bd.add_argument("--r0", default=None, help="comma-separated odd residues")
    p_bd.add_argument("--r1", default=None)
    p_bd.add_argument("--auto-search", action="store_true")
    p_bd.set_defaults(fn=cmd_bipartite_drg)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args, out)
    except (UsageError, ValueError, OSError) as exc:  # OSError: unwritable output file
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (classify.CensusBudgetError, designs.SearchBudgetError, AutomorphismBoundError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    raise SystemExit(main())
