import json
import subprocess
import sys

import pytest

from taulab.cli import main


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out = capsys.readouterr().out.strip() if capsys else None
    return code, out


def test_bracket_values(capsys):
    code, out = run_cli("bracket", "--indices", "2,3,3", capsys=capsys)
    assert (code, out) == (0, "5/144")
    code, out = run_cli("bracket", "--indices", "2,2,2,2,2", capsys=capsys)
    assert (code, out) == (0, "25/16")
    code, out = run_cli("bracket", "--indices", "1", capsys=capsys)
    assert (code, out) == (0, "0")


def test_char_and_schur(capsys):
    code, out = run_cli("char", "--mu", "2,1", "--lambda", "3", capsys=capsys)
    assert (code, out) == (0, "-1")
    code, out = run_cli("schur", "--mu", "2,1", "--format", "json", capsys=capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["family"] == "P"
    rows = {tuple(r["exp"]): r["coeff"] for r in obj["terms"]}
    assert rows[(0, 3, 0, 0)] == "1/3"     # p_1^3 / 3
    assert rows[(0, 0, 0, 1)] == "-1/3"    # -p_3 / 3


def test_hurwitz_command(capsys):
    code, out = run_cli("hurwitz", "--kind", "onepart", "--genus", "1",
                        "--profile", "3", "--method", "brute", capsys=capsys)
    assert (code, out) == (0, "2")
    # h_{0;(2,2)} = 24: the unstable-part coefficient 1/2 times m! |Aut|
    code, out = run_cli("hurwitz", "--kind", "simple", "--genus", "0",
                        "--profile", "2,2", "--json", capsys=capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == "24/1"


def test_bracket_table(capsys):
    code, out = run_cli("bracket-table", "--genus", "2", capsys=capsys)
    assert code == 0
    obj = json.loads(out)
    vals = {tuple(r["indices"]): r["value"] for r in obj["brackets"]}
    assert vals[(6,)] == "1/1920"
    assert vals[(2, 2, 2, 2, 2)] == "25/16"
    code, out = run_cli("bracket-table", "--genus", "1", "--format", "csv",
                        capsys=capsys)
    assert code == 0
    assert out.splitlines()[1] == "2,1/24"


def test_verify_corner(capsys):
    code, out = run_cli("verify", "corner", "--max-size", "6", capsys=capsys)
    assert code == 0
    assert out.endswith("PASS")


def test_verify_hirota_default_tau(capsys):
    code, out = run_cli("verify", "hirota", "--i", "2", "--j", "3",
                        "--cap-weight", "8", "--cap-aux", "5", capsys=capsys)
    assert code == 0
    assert "max weight checked: 3" in out and out.endswith("PASS")


def test_verify_hirota_from_file(tmp_path, capsys):
    code, built = run_cli("series", "--build", "lp2h", "--cap-weight", "7",
                          "--cap-aux", "5", capsys=capsys)
    assert code == 0
    path = tmp_path / "tau.json"
    path.write_text(built)
    code, out = run_cli("verify", "hirota", "--i", "2", "--j", "2",
                        "--tau", str(path), capsys=capsys)
    assert code == 0 and out.endswith("PASS")
    # a series that is not a tau function fails with exit 1 (corrupt a
    # low-weight coefficient so it lands inside the checked region)
    bad = json.loads(built)
    assert bad["terms"][4]["exp"] == [0, 0, 0, 1, 0, 0, 0, 0]
    bad["terms"][4]["coeff"] = "17/5"
    path.write_text(json.dumps(bad))
    code, out = run_cli("verify", "hirota", "--i", "2", "--j", "2",
                        "--tau", str(path), capsys=capsys)
    assert code == 1 and out.endswith("FAIL")


def test_series_roundtrip(tmp_path, capsys):
    code, built = run_cli("series", "--build", "f", "--cap-weight", "6",
                          capsys=capsys)
    assert code == 0
    path = tmp_path / "f.json"
    path.write_text(built)
    code, out = run_cli("series", "--roundtrip", str(path), capsys=capsys)
    assert (code, out) == (0, "PASS")


def test_hodge_command(capsys):
    code, out = run_cli("hodge", "--genus", "1", "--indices", "1", "--k", "0",
                        capsys=capsys)
    assert (code, out) == (0, "1/24")
    code, out = run_cli("hodge", "--genus", "1", "--indices", "0", "--k", "1",
                        capsys=capsys)
    assert (code, out) == (0, "1/24")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bracket"])  # missing --indices
    assert exc.value.code == 2


def test_cache_file(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache.jsonl"
    monkeypatch.setenv("TAU_LAB_CACHE", str(cache))
    code, out = run_cli("hurwitz", "--kind", "onepart", "--genus", "1",
                        "--profile", "2", capsys=capsys)
    assert (code, out) == (0, "1/2")
    assert cache.exists()
    row = json.loads(cache.read_text().splitlines()[0])
    assert row == {"query": ["onepart", 1, [2]], "value": "1/2"}
    # second run hits the cache and checks consistency
    code, out = run_cli("hurwitz", "--kind", "onepart", "--genus", "1",
                        "--profile", "2", capsys=capsys)
    assert (code, out) == (0, "1/2")


def test_console_script_entry():
    out = subprocess.run([sys.executable, "-m", "taulab.cli", "bracket",
                          "--indices", "2"], capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.strip() == "1/24"


def test_clean_error_for_invalid_method_combination(capsys):
    code = main(["hurwitz", "--kind", "simple", "--genus", "0",
                 "--profile", "3", "--method", "closed"])
    err = capsys.readouterr().err
    assert code == 2 and "one-part" in err


@pytest.mark.parametrize("argv", [
    "hurwitz --kind onepart --genus -1 --profile 3",
    "hurwitz --kind simple --genus 0 --profile 0",
    "hurwitz --kind simple --genus 0 --profile ,",
    "hurwitz --kind simple --genus 0 --profile 3 --method closed",
    "hurwitz --kind simple --genus 0 --profile 6 --method brute",
    "hodge --genus 0 --indices 0",
    "hodge --genus -1 --indices 0,0,0,0,0,0",
    "schur --mu 0",
    "char --mu 2,1 --lambda 3,0",
    "bracket --indices -1",
    "bracket --indices 2,-1",
    "bracket-table --genus -1",
    "hodge --genus 1 --indices 1 --k -1",
    "series --build simple-h --cap-weight -1",
    "verify hirota --i 3 --j 2",
    "verify hirota --cap-aux -1",
    "verify u-tau --cap-weight -2",
    # verifications whose region is empty must not report PASS
    "verify ck --kmax 0",
    "verify ck --kmax -3",
    "verify corner --max-size -1",
    "verify weight-flow --max-size -1",
    "verify char-identity --max-size 0",
])
def test_malformed_input_exits_2(argv, capsys):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 2, argv
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["verify hirota --tau", "series --roundtrip"])
@pytest.mark.parametrize("defect", ["negative cap", "negative exponent", "zero denominator"])
def test_malformed_series_file_exits_2(command, defect, tmp_path, capsys):
    obj = {"family": "P", "caps": {"weight": 4, "aux": 2},
           "terms": [{"exp": [0, 2], "coeff": "1/2"}]}
    if defect == "negative cap":
        obj["caps"]["aux"] = -1
    elif defect == "negative exponent":
        obj["terms"][0]["exp"] = [0, -2]
    else:
        obj["terms"][0]["coeff"] = "1/0"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code = main(command.split() + [str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


def test_verify_kdv_default_regions_nonempty(capsys):
    code, out = run_cli("verify", "kdv", capsys=capsys)
    assert code == 0 and out.endswith("PASS")
    checks = out.splitlines()[:-1]
    assert len(checks) == 8
    for line in checks:
        weight = int(line.rsplit("<=", 1)[1].rstrip(")"))
        assert weight >= 2, line


def test_verify_kdv_empty_region_names_check(capsys):
    code = main(["verify", "kdv", "--cap-weight", "8"])
    err = capsys.readouterr().err
    assert code == 2 and "F03 z^0" in err and "empty region" in err
