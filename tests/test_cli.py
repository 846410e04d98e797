import json
import subprocess
import sys
from pathlib import Path


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "antiatom", *args],
                          capture_output=True, text=True)


def test_analyze_interval_semigroup():
    result = run_cli("analyze", "--gens", "9,10,11,12,13")
    assert result.returncode == 0
    out = result.stdout
    assert "pa                6" in out
    assert "min_size          31" in out
    assert "lambda_minimal    no" in out
    assert "witness_ideal     1,14,16" in out
    assert "min_partition     9,8,2,2,2,2,2,2,2" in out


def test_analyze_symmetric_by_gaps():
    result = run_cli("analyze", "--gaps", "1")
    assert result.returncode == 0
    assert "pa                1" in result.stdout
    assert "lambda_minimal    yes" in result.stdout


def test_analyze_partition_input():
    result = run_cli("analyze", "--partition", "9,8,2,2,2,2,2,2,2")
    assert result.returncode == 0
    assert "size              31" in result.stdout
    assert "hook_set          1,2,3,4,5,6,7,8,14,15,16,17" in result.stdout
    assert "atom_monoid       {0,9,10,11,12,13,18,->}" in result.stdout


def test_analyze_json_schema_and_roundtrip():
    result = run_cli("analyze", "--gens", "9,10,11,12,13", "--json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["pa"] == 6
    assert doc["sizes"] == [31, 31, 32, 32, 38, 38]
    assert doc["lambda_minimal"] is False
    assert doc["witness_ideal"] == [1, 14, 16]
    assert doc["semigroup"]["gaps"] == [1, 2, 3, 4, 5, 6, 7, 8, 14, 15, 16, 17]
    assert doc["void_poset"]["void"] == [1, 2, 3, 14, 15, 16]
    # feeding the reported gaps back in gives the same report
    again = run_cli("analyze", "--gaps",
                    ",".join(map(str, doc["semigroup"]["gaps"])), "--json")
    assert json.loads(again.stdout) == doc


def test_analyze_partition_and_semigroup_agree():
    on_partition = run_cli("analyze", "--partition", "9,8,2,2,2,2,2,2,2", "--json")
    on_semigroup = run_cli("analyze", "--gens", "9,10,11,12,13", "--json")
    a, b = json.loads(on_partition.stdout), json.loads(on_semigroup.stdout)
    assert a["pa"] == b["pa"]
    assert a["sizes"] == b["sizes"]


def test_analyze_rejects_non_semigroup_gaps():
    result = run_cli("analyze", "--gaps", "2")
    assert result.returncode == 2
    assert "not closed" in result.stderr


def test_analyze_rejects_bad_generators():
    assert run_cli("analyze", "--gens", "2,4").returncode == 2
    assert run_cli("analyze", "--gens", "0,3").returncode == 2
    assert run_cli("analyze", "--gens", "two").returncode == 2


def test_analyze_requires_exactly_one_input():
    assert run_cli("analyze").returncode == 2
    assert run_cli("analyze", "--gaps", "1", "--gens", "2,3").returncode == 2


def test_analyze_natural_numbers():
    result = run_cli("analyze", "--gens", "1")
    assert result.returncode == 0
    assert "pa" in result.stdout


def test_analyze_verify_flag():
    plain = run_cli("analyze", "--gens", "9,10,11,12,13", "--json")
    checked = run_cli("analyze", "--gens", "9,10,11,12,13", "--json", "--verify")
    assert checked.returncode == 0
    assert checked.stdout == plain.stdout


def test_byte_identical_reruns():
    first = run_cli("analyze", "--gens", "5,6,7,8,9", "--json")
    second = run_cli("analyze", "--gens", "5,6,7,8,9", "--json")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_enumerate_ndjson():
    result = run_cli("enumerate", "--genus", "4")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 7
    docs = [json.loads(line) for line in lines]
    assert all(doc["genus"] == 4 for doc in docs)
    assert [doc["gaps"] for doc in docs] == sorted(doc["gaps"] for doc in docs)
    assert "genus=4" in result.stderr and "7" in result.stderr


def test_enumerate_by_frobenius():
    result = run_cli("enumerate", "--frobenius", "5")
    docs = [json.loads(line) for line in result.stdout.strip().splitlines()]
    assert len(docs) == 5
    assert all(doc["frobenius"] == 5 for doc in docs)


def test_scan_text_output():
    result = run_cli("scan", "--genus", "6")
    assert result.returncode == 0
    assert "total 49, non-minimal 0" in result.stdout


def test_scan_json_output():
    result = run_cli("scan", "--frobenius", "8", "--json")
    doc = json.loads(result.stdout)
    assert doc["total"] == 36
    assert doc["non_minimal"] == []


def test_scan_threads_flag():
    seq = run_cli("scan", "--frobenius", "9", "--json")
    par = run_cli("scan", "--frobenius", "9", "--json", "--threads", "2")
    assert seq.stdout == par.stdout


def test_scan_threads_below_one_exits_2():
    for threads in ("0", "-2"):
        result = run_cli("scan", "--frobenius", "9", "--threads", threads)
        assert result.returncode == 2
        assert "at least 1" in result.stderr


def test_scan_bound_exceeded():
    assert run_cli("scan", "--genus", "31").returncode == 3
    assert run_cli("scan", "--frobenius", "41").returncode == 3


def test_scan_expected_file(tmp_path: Path):
    expected = tmp_path / "expected.json"
    expected.write_text("[]", encoding="utf-8")
    ok = run_cli("scan", "--genus", "5", "--expected", str(expected))
    assert ok.returncode == 0
    expected.write_text("[[1, 2, 3]]", encoding="utf-8")
    bad = run_cli("scan", "--genus", "5", "--expected", str(expected))
    assert bad.returncode == 4
    assert "does not match" in bad.stderr


def test_scan_genus_12_golden(tmp_path: Path):
    expected = tmp_path / "expected.json"
    expected.write_text(
        "[[1, 2, 3, 4, 5, 6, 7, 8, 14, 15, 16, 17]]", encoding="utf-8")
    result = run_cli("scan", "--genus", "12", "--only", "12",
                     "--expected", str(expected))
    assert result.returncode == 0
    assert "non-minimal: genus=12 gaps=1,2,3,4,5,6,7,8,14,15,16,17" in result.stdout


def test_family_commands():
    ok = run_cli("family", "staircase", "5", "3", "4")
    assert ok.returncode == 0
    assert "result: ok" in ok.stdout
    ok = run_cli("family", "interval-m", "9")
    assert ok.returncode == 0
    ok = run_cli("family", "interval-k", "4", "2", "--json")
    assert ok.returncode == 0
    doc = json.loads(ok.stdout)
    assert doc["ok"] is True
    assert {c["name"]: c["ok"] for c in doc["checks"]}["lambda_t"] is True


def test_family_domain_errors():
    assert run_cli("family", "interval-m", "8").returncode == 2
    assert run_cli("family", "interval-k", "4", "3").returncode == 2
    assert run_cli("family", "staircase", "1", "1", "1").returncode == 2


def test_render_diagram():
    result = run_cli("render", "--gaps", "1,2,3,4,6,8", "--hooks", "--walk")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "walk: RUUUURURU->"
    assert lines[1] == "8 3 1"
    plain = run_cli("render", "--partition", "6,2,1")
    assert plain.stdout.splitlines()[0] == "######"


def test_render_empty_partition():
    result = run_cli("render", "--partition", "")
    assert result.returncode == 0
    assert result.stdout == ""


def test_unknown_command_exits_2():
    assert run_cli("frobnicate").returncode == 2
    assert run_cli().returncode == 2
