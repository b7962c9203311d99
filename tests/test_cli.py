import io
import json

import pytest

from drgcayley import cli, kernels


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def test_check_lattice_is_drg():
    code, text = run(["check", "--group", "3^1x3", "--set", "(1,0),(2,0),(0,1),(0,2)"])
    assert code == 0
    assert "verdict: DRG" in text
    assert "TDLineGraph(2,3)" in text


def test_check_disconnected_exits_2():
    code, text = run(["check", "--group", "3^1x3", "--set", "(1,0),(2,0)"])
    assert code == 2
    assert "not-DRG" in text


def test_check_full_set_is_complete():
    full = ",".join(f"({a},{b})" for a in range(9) for b in range(3) if (a, b) != (0, 0))
    code, text = run(["check", "--group", "3^2x3", "--set", full])
    assert code == 0 and "family: Complete" in text


def test_check_json_format():
    code, text = run(
        ["--format", "json", "check", "--group", "3^1x3", "--set", "(1,0),(2,0),(0,1),(0,2)"]
    )
    data = json.loads(text)
    assert data["verdict"] == "DRG" and data["srg"] == "(9,4,1,2)"
    assert data["schurRing"] is True


@pytest.mark.parametrize(
    "spec,sets,classes",
    [("3^1x3", 11, 3), ("3^2x3", 9, 3), ("5^1x5", 57, 5)],
)
def test_census_command(spec, sets, classes):
    code, text = run(["census", "--group", spec])
    assert code == 0
    data = json.loads(text)
    assert data["totals"]["drgSets"] == sets
    assert data["totals"]["parameterClassCount"] == classes
    assert data["anomalies"] == []


def test_census_to_file(tmp_path):
    out_file = tmp_path / "report.json"
    code, text = run(["census", "--group", "3^1x3", "--out", str(out_file)])
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["totals"]["drgSets"] == 11


FUNNEL_STAGES = ["aut", "leaders", "connected", "lambda", "c2", "hits", "orbits", "report"]


def test_census_stats_file_leaves_the_report_bytes_alone(tmp_path):
    plain = tmp_path / "plain.json"
    with_stats = tmp_path / "with-stats.json"
    stats = tmp_path / "stats.json"
    assert run(["census", "--group", "5^1x5", "--out", str(plain)])[0] == 0
    code, _ = run(
        ["census", "--group", "5^1x5", "--out", str(with_stats), "--stats", str(stats)]
    )
    assert code == 0
    assert with_stats.read_bytes() == plain.read_bytes()
    data = json.loads(stats.read_text())
    assert data["group"] == "5^1x5"
    assert [s["stage"] for s in data["stages"]] == FUNNEL_STAGES
    counts = [s["count"] for s in data["stages"]]
    # aut: the Burnside count of the multiplier layers' Aut(G) orbits
    assert counts == [18, 18, 16, 10, 5, 57, 5, len(plain.read_bytes())]
    assert all(s["seconds"] >= 0 for s in data["stages"])
    # the hits stage decides 5 orbits by BFS and the orbits stage classifies them
    assert all(s["seconds"] > 0 for s in data["stages"] if s["stage"] in ("hits", "orbits"))


def test_orbit_first_stats_report_the_leader_funnel():
    """Orbit mode, which only the library offers, reports the same
    funnel stages as the command's kernel mode."""
    report = cli.classify.census(cli.parse_group("3^2x3"), scan="orbit")
    assert [stage for stage, *_ in report.funnel] == FUNNEL_STAGES[:-1]
    assert [count for _, count, _ in report.funnel] == [287, 287, 274, 12, 5, 9, 5]


@pytest.mark.parametrize(
    "option", [["--threads", "2"], ["--orbit-first"], ["--partitions", "4"]]
)
def test_removed_census_options_exit_64(option, capsys):
    code, text = run(["census", "--group", "3^1x3", *option])
    assert (code, text) == (64, "")
    assert capsys.readouterr().err.startswith("usage error: unrecognized arguments")


def test_census_output_into_a_missing_directory_exits_64_before_any_work(
    tmp_path, monkeypatch, capsys
):
    def no_work(*args):
        raise AssertionError("the DFS ran")

    monkeypatch.setattr(cli.classify, "orbit_leaders", no_work)
    missing = tmp_path / "no-such-dir"
    report = tmp_path / "report.json"
    for argv in (
        ["--out", str(missing / "r.json")],
        ["--out", str(report), "--stats", str(missing / "s.json")],
    ):
        code, text = run(["census", "--group", "11^1x11", *argv])
        assert (code, text) == (64, "")
        assert capsys.readouterr().err.startswith("usage error: --")
    assert not missing.exists() and not report.exists()


def test_census_output_at_a_directory_exits_64_before_any_work(tmp_path, monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("the DFS ran")

    monkeypatch.setattr(cli.classify, "orbit_leaders", no_work)
    report = tmp_path / "report.json"
    for argv in (
        ["--out", str(tmp_path)],
        ["--out", str(report), "--stats", str(tmp_path)],
    ):
        code, text = run(["census", "--group", "5^1x5", *argv])
        assert (code, text) == (64, "")
        assert capsys.readouterr().err == f"usage error: {argv[-2]} {tmp_path}: is a directory\n"
    assert list(tmp_path.iterdir()) == []


def test_construct_command():
    code, text = run(["--format", "json", "construct", "--family", "td-line", "--p", "5", "--r", "3"])
    assert code == 0
    data = json.loads(text)
    assert data["srg"] == "(25,12,5,6)"
    code, text = run(
        ["--format", "json", "construct", "--family", "multipartite", "--group", "3^2x3", "--t", "3", "--m", "9"]
    )
    assert json.loads(text)["array"] == "{18,8;1,18}"
    code, text = run(["construct", "--family", "complete", "--group", "3^1x3"])
    assert code == 0 and "{8;1}" in text


@pytest.mark.parametrize("p,r", [(7, 3), (13, 6)])
def test_construct_td_line_builds_one_pcp(monkeypatch, tmp_path, p, r):
    """The design comes from the first PCP; the other C(p + 1, r) - 1 are never built."""
    from drgcayley import designs

    built = []

    class CountingPCP(designs.PartialCongruencePartition):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(designs, "PartialCongruencePartition", CountingPCP)
    design = tmp_path / "d.json"
    args = ["construct", "--family", "td-line", "--p", str(p), "--r", str(r)]
    code, _ = run(args + ["--design-out", str(design)])
    assert code == 0
    assert len(built) == 1
    assert json.loads(design.read_text())["r"] == r


def test_design_out_outside_td_line_writes_nothing(tmp_path):
    edges, design = tmp_path / "e.txt", tmp_path / "d.json"
    code, text = run(
        ["construct", "--family", "complete", "--group", "3^1x3",
         "--edges-out", str(edges), "--design-out", str(design)]
    )
    assert (code, text) == (64, "")
    assert not edges.exists() and not design.exists()


def test_fourier_audit_command():
    code, text = run(
        ["fourier-audit", "--group", "3^1x3", "--set", "(1,0),(2,0),(0,1),(0,2)"]
    )
    assert code == 0 and "verdict: ok" in text
    code, _ = run(["fourier-audit", "--group", "3^1x3", "--set", "(1,0),(2,0)"])
    assert code == 2


def test_bipartite_drg_commands():
    code, text = run(["--format", "json", "bipartite-drg", "--n", "16", "--auto-search"])
    assert code == 0
    data = json.loads(text)
    assert data["pairsSwept"] == 225
    assert data["equivalenceViolations"] == 0
    assert data["diffsetFamilyHits"] == []
    code, text = run(
        ["--format", "json", "bipartite-drg", "--n", "16", "--r0", "1,15", "--r1", "3,5,11,13"]
    )
    assert code == 2
    assert json.loads(text)["equivalenceHolds"] is True


def test_usage_errors_exit_64():
    code, _ = run(["check", "--group", "nonsense", "--set", "(1,0)"])
    assert code == 64
    code, _ = run(["census", "--group", "bad!"])
    assert code == 64
    code, _ = run(["bipartite-drg", "--n", "16"])  # no rows, no search
    assert code == 64
    for argv in (
        ["construct", "--family", "td-line", "--r", "2"],
        ["construct", "--family", "multipartite", "--group", "3^1x3"],
        ["construct", "--family", "complete"],
        ["construct", "--family", "complete", "--group", "Zn:1"],
        ["bipartite-drg", "--n", "0", "--auto-search"],
        ["bipartite-drg", "--n", "5", "--auto-search"],
    ):
        code, _ = run(argv)
        assert code == 64, argv


def test_budget_exit_65(monkeypatch, capsys, tmp_path):
    """The census fails after its output paths are checked, and leaves an
    existing report as it was."""
    def no_work(*args):
        raise AssertionError("the DFS ran")

    monkeypatch.setattr(cli.classify, "orbit_leaders", no_work)
    report, stats = tmp_path / "report.json", tmp_path / "stats.json"
    report.write_text("old report\n")
    code, text = run(["census", "--group", "3^3x3", "--orbit-budget", "100",
                      "--out", str(report), "--stats", str(stats)])
    assert (code, text) == (65, "")
    assert capsys.readouterr().err == (
        "budget exceeded: 345 Aut(G) orbits exceed the orbit budget of 100\n"
    )
    assert report.read_text() == "old report\n" and not stats.exists()


def test_orbit_first_census_past_the_orbit_budget_exits_65(monkeypatch):
    """3^3x3's layer of all 40 pairs holds 6,794,936,703 Aut(G) orbits, so
    the default budget refuses orbit mode before any leader is made or
    decided; the command maps that error to exit 65 (``test_budget_exit_65``)."""
    def no_work(*args):
        raise AssertionError("a leader was made or decided")

    monkeypatch.setattr(cli.classify, "orbit_leaders", no_work)
    monkeypatch.setattr(cli.classify, "_assemble_report", no_work)
    with pytest.raises(
        cli.classify.CensusBudgetError,
        match=r"^6794936703 Aut\(G\) orbits exceed the orbit budget of 2000000$",
    ):
        cli.classify.census(cli.parse_group("3^3x3"), scan="orbit")


@pytest.mark.parametrize("n", ["34", "36", "99999998"])
def test_bipartite_sweep_past_the_budget_exits_65_before_any_work(n, monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cli.designs, "odd_row_subsets", no_work)
    monkeypatch.setattr(cli.designs, "bipartite_double_check", no_work)
    code, _ = run(["bipartite-drg", "--n", n, "--auto-search"])
    assert code == 65
    assert "exceed the sweep budget" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["5^3x5", "7^2x7", "3^5x3"])
def test_orbit_first_census_past_the_automorphism_bound_exits_65(spec, capsys):
    """The command's kernel mode and the library's orbit mode both build
    Aut(G) first, and both stop at its bound."""
    code, _ = run(["census", "--group", spec])
    assert code == 65
    assert capsys.readouterr().err.startswith("budget exceeded: group order")
    with pytest.raises(cli.AutomorphismBoundError, match="^group order"):
        cli.classify.census(cli.parse_group(spec), scan="orbit")


def test_check_non_negation_closed_set_exits_64(capsys):
    code, text = run(["check", "--group", "3^1x3", "--set", "(1,0)"])
    assert (code, text) == (64, "")
    assert capsys.readouterr().err == "usage error: set is not negation-closed: contains 3 but not 6\n"


def test_census_past_the_pair_word_exits_64(monkeypatch, capsys):
    """13^1x13's Aut(G) table builds (order 169), and its 84 pairs are then
    refused before any leader is made."""
    def no_work(*args):
        raise AssertionError("a leader was made")

    monkeypatch.setattr(cli.classify, "orbit_leaders", no_work)
    code, text = run(["census", "--group", "13^1x13"])
    assert (code, text) == (64, "")
    assert "84 inverse pairs; pair words hold 62" in capsys.readouterr().err


def test_census_past_the_table_bound_exits_64_at_once(monkeypatch, capsys):
    """3^16x3 is refused by the group-table bound before the primitive-root
    search over its 2 * 3^15 multipliers runs."""
    def no_root_search(*args):
        raise AssertionError("the primitive-root search ran")

    monkeypatch.setattr(kernels, "pow", no_root_search, raising=False)
    code, text = run(["census", "--group", "3^16x3"])
    assert (code, text) == (64, "")
    assert capsys.readouterr().err == (
        "usage error: group order 129140163 exceeds the table bound 1024\n"
    )


def test_check_past_the_table_bound_exits_64(capsys):
    code, _ = run(["check", "--group", "99999999x1", "--set", "1"])
    assert code == 64
    assert "exceeds the table bound" in capsys.readouterr().err


def test_trivial_group_certifies_k1_with_diameter_0():
    code, text = run(["--format", "json", "check", "--group", "Zn:1", "--set", ""])
    assert code == 0
    data = json.loads(text)
    assert (data["verdict"], data["diameter"], data["array"]) == ("DRG", 0, "{;}")
    assert data["family"] == "Complete"


def test_unwritable_output_files_exit_64(tmp_path):
    missing = tmp_path / "no-such-dir"
    lattice = "(1,0),(2,0),(0,1),(0,2)"
    for argv in (
        ["census", "--group", "3^1x3", "--out", str(missing / "report.json")],
        ["check", "--group", "3^1x3", "--set", lattice, "--edges-out", str(missing / "e.txt")],
        ["construct", "--family", "complete", "--group", "3^1x3",
         "--edges-out", str(missing / "e.txt")],
        ["construct", "--family", "td-line", "--p", "3", "--r", "2",
         "--design-out", str(missing / "td.json")],
    ):
        code, _ = run(argv)
        assert code == 64, argv
    assert not missing.exists()


K_9X3 = ",".join(f"({a},{b})" for a in range(1, 9) for b in range(3))  # G minus <(0,1)>

# The payloads exactly as the earlier per-cell Schur loop printed them.
PINNED_CONSTANTS = [
    (
        ["--group", "3^1x3", "--set", "(1,0),(2,0),(0,1),(0,2)"],
        {
            "antipodal": False, "array": "{4,2;1,2}", "bipartite": False,
            "diameter": 2, "family": "TDLineGraph(2,3)", "modulePrimitive": True,
            "primitive": True, "schurRing": True, "srg": "(9,4,1,2)",
            "structureConstants": [
                [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                [[0, 1, 0], [4, 1, 2], [0, 2, 2]],
                [[0, 0, 1], [0, 2, 2], [4, 2, 1]],
            ],
            "verdict": "DRG",
        },
    ),
    (
        ["--group", "3^2x3", "--set", K_9X3],
        {
            "antipodal": True, "array": "{24,2;1,24}", "bipartite": False,
            "diameter": 2, "family": "CompleteMultipartite(9,3)",
            "modulePrimitive": False, "primitive": False, "schurRing": True,
            "srg": "(27,24,21,24)",
            "structureConstants": [
                [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                [[0, 1, 0], [24, 21, 24], [0, 2, 0]],
                [[0, 0, 1], [0, 2, 0], [2, 0, 1]],
            ],
            "verdict": "DRG",
        },
    ),
]


@pytest.mark.parametrize("argv, payload", PINNED_CONSTANTS)
def test_check_constants_json_is_pinned(argv, payload):
    code, text = run(["--format", "json", "check", *argv, "--constants"])
    assert code == 0
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
