import io
import json

import pytest

from drgcayley import cli


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


def test_census_thread_counts_byte_identical():
    outputs = []
    for threads in ("1", "4", "8"):
        code, text = run(
            ["census", "--group", "3^2x3", "--partitions", "8", "--threads", threads]
        )
        assert code == 0
        outputs.append(text)
    assert outputs[0] == outputs[1] == outputs[2]


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
        ["census", "--group", "3^1x3", "--threads", "0"],
    ):
        code, _ = run(argv)
        assert code == 64, argv


def test_bad_thread_count_exits_64(monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_THREADS, "two")
    code, _ = run(["census", "--group", "3^1x3"])
    assert code == 64
    assert cli.ENV_THREADS in capsys.readouterr().err
    monkeypatch.setenv(cli.ENV_THREADS, "0")
    code, _ = run(["census", "--group", "3^1x3"])
    assert code == 64
    monkeypatch.setenv(cli.ENV_THREADS, "2")
    code, _ = run(["census", "--group", "3^1x3"])
    assert code == 0


def test_budget_exit_65():
    code, _ = run(["census", "--group", "3^3x3"])
    assert code == 65
