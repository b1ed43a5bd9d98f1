import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from taulab.cli import VERIFIERS, VERIFY_OPTIONS, build_parser, main


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


def test_an_empty_list_is_the_empty_partition(capsys):
    assert run_cli("char", "--mu", "", "--lambda", "", capsys=capsys) == (0, "1")
    assert run_cli("schur", "--mu", "", capsys=capsys) == (0, "1*1")


def test_bracket_series_build_reads_only_the_weight(capsys):
    for name in ("f", "u", "u-in-T"):
        code, out = run_cli("series", "--build", name, "--cap-weight", "4", capsys=capsys)
        assert code == 0 and json.loads(out)["caps"] == {"weight": 4, "aux": 0}, name


def test_kind_choices_are_the_hurwitz_families():
    # the parser names the families literally, so building it imports nothing
    from taulab import hurwitz
    hurwitz_parser = next(a for a in build_parser()._actions if a.choices).choices["hurwitz"]
    kind = next(a for a in hurwitz_parser._actions if "--kind" in a.option_strings)
    assert kind.choices == [hurwitz.ONEPART, hurwitz.SIMPLE]


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


def test_hodge_answers_zero_off_grading_without_a_table(monkeypatch, capsys):
    # an entry exists only for k <= g and sum(ds) + k = 3g - 3 + n
    from taulab import hodge

    def refuse(g, n):
        raise AssertionError("the table was built")

    monkeypatch.setattr(hodge, "hurwitz_to_hodge", refuse)
    for argv in ("--genus 4 --indices 0,0,0", "--genus 3 --indices 3,3,3 --k 4",
                 "--genus 1 --indices 0,0,0 --k 3"):
        assert run_cli("hodge", *argv.split(), capsys=capsys) == (0, "0")
    # stability is checked before grading
    code = main(["hodge", "--genus", "0", "--indices", "0"])
    err = capsys.readouterr().err
    assert code == 2 and err.count("error:") == 1 and "is not stable" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bracket"])  # missing --indices
    assert exc.value.code == 2


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
    # a negative index must not read as a missing (zero) table entry
    "hodge --genus 1 --indices -1",
    "hodge --genus 1 --indices 2,-1",
    "hodge --genus -1 --indices 1",
    "schur --mu 0",
    "char --mu 2,1 --lambda 3,0",
    "bracket --indices -1",
    "bracket --indices 2,-1",
    "bracket-table --genus -1",
    "hodge --genus 1 --indices 1 --k -1",
    "series --build simple-h --cap-weight -1",
    "series --build hooks --cap-weight -1",
    # the bracket series have no aux variable: --cap-aux used to be ignored
    "series --build f --cap-weight 4 --cap-aux 5",
    "series --build u --cap-aux 0",
    "series --build u-in-T --cap-weight 6 --cap-aux 2",
    # an empty item in a comma list used to be dropped silently
    "bracket --indices 1,,2",
    "bracket --indices ,",
    "hurwitz --kind onepart --genus 1 --profile 3,",
    "verify hirota --i 3 --j 2",
    "verify hirota --cap-aux -1",
    "verify u-tau --cap-weight -2",
    # a derivative heavier than the weight cap knows no coefficient
    "verify hirota --cap-weight 2",
    "verify hirota --cap-weight 3",
    "verify u-tau --cap-weight 3",
    "verify u-tau --cap-weight 4",
    # verifications whose region is empty must not report PASS
    "verify ck --kmax 0",
    "verify ck --kmax -3",
    "verify ck --kmax 13",  # beyond the listed c_k values
    "verify corner --max-size -1",
    "verify weight-flow --max-size -1",
    "verify char-identity --max-size 0",
    "verify descent --max-ij 1",
    "verify descent --max-ij -3",
])
def test_malformed_input_exits_2(argv, capsys):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 2, argv
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "Traceback" not in captured.err


def _series_file(caps={"weight": 4, "aux": 2}, row={"exp": [0, 2], "coeff": "1/2"},
                 **fields):
    """A series file, valid unless a part is replaced."""
    return {"family": "P", "caps": caps, "terms": [row], **fields}


SERIES_FILE_DEFECTS = {
    "negative cap": _series_file(caps={"weight": 4, "aux": -1}),
    "negative exponent": _series_file(row={"exp": [0, -2], "coeff": "1/2"}),
    "zero denominator": _series_file(row={"exp": [0, 2], "coeff": "1/0"}),
    "top-level list": [_series_file()],
    "terms a string": _series_file(terms="[]"),
    "caps a string": _series_file(caps="4,2"),
    "int coeff": _series_file(row={"exp": [0, 2], "coeff": 1}),
    "int exp": _series_file(row={"exp": 2, "coeff": "1/2"}),
    "empty exp": _series_file(row={"exp": [], "coeff": "1/2"}),
    "coeff without denominator": _series_file(row={"exp": [0, 2], "coeff": "1"}),
    "coeff not a number": _series_file(row={"exp": [0, 2], "coeff": "1/x"}),
    "fractional cap": _series_file(caps={"weight": 4.5, "aux": 2}),
    "boolean cap": _series_file(caps={"weight": True, "aux": 2}),
    "missing caps": {"family": "P", "terms": [{"exp": [0, 2], "coeff": "1/2"}]},
}


@pytest.mark.parametrize("command", ["verify hirota --tau", "series --roundtrip"])
@pytest.mark.parametrize("defect", list(SERIES_FILE_DEFECTS))
def test_malformed_series_file_exits_2(command, defect, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(SERIES_FILE_DEFECTS[defect]))
    code = main(command.split() + [str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


def test_verify_ck_checks_every_listed_value(capsys):
    code, out = run_cli("verify", "ck", capsys=capsys)
    lines = out.splitlines()
    assert code == 0 and lines[-1] == "PASS"
    assert len(lines) == 13 and all(line.endswith(" ok") for line in lines[:-1])


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


def test_a_failing_suite_names_what_failed(monkeypatch, capsys):
    from taulab import hierarchy, hodge
    monkeypatch.setattr(hierarchy, "corner_descent_check", lambda mu: mu.size < 3)
    assert run_cli("verify", "corner", capsys=capsys) == (1, "failed at Partition(3,)\nFAIL")
    monkeypatch.setattr(hodge, "LISTED_CK", [hodge.LISTED_CK[0], hodge.LISTED_CK[1] + 1])
    code, out = run_cli("verify", "ck", "--kmax", "2", capsys=capsys)
    lines = out.splitlines()
    assert code == 1 and lines[0].endswith(" ok") and lines[2] == "FAIL"
    assert lines[1].startswith("k=2 lowering=-1/2 ") and lines[1].endswith(" listed=1/2 BAD")


# -- options a run does not read -------------------------------------------------

UNREAD = [(suite, name) for suite, (_, reads) in sorted(VERIFIERS.items())
          for name in VERIFY_OPTIONS if name not in reads]


def _refused(argv, capsys, flags):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "", argv
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert lines[0].endswith("does not read " + flags), lines[0]


def test_every_verify_flag_is_read_by_some_suite():
    assert len(UNREAD) == 52
    verify = next(a for a in build_parser()._actions if a.choices).choices["verify"]
    flags = {a.dest for a in verify._actions if a.option_strings and a.dest != "help"}
    assert flags == set(VERIFY_OPTIONS)


@pytest.mark.parametrize("suite, name", UNREAD, ids=["%s--%s" % p for p in UNREAD])
def test_verify_refuses_an_option_its_suite_does_not_read(suite, name, capsys):
    # a --tau file that does not exist would be exit 2 as well, so the
    # message must name the option
    flag = "--" + name.replace("_", "-")
    _refused(["verify", suite, flag, "no-such.json" if name == "tau" else "4"], capsys, flag)


@pytest.mark.parametrize("command, options, flags", [
    ("verify hirota --tau", ["--cap-weight", "8"], "--cap-weight"),
    ("verify hirota --tau", ["--cap-aux", "6", "--i", "2"], "--cap-aux"),
    ("series --roundtrip", ["--build", "f"], "--build"),
    ("series --roundtrip", ["--cap-weight", "99", "--cap-aux", "1"], "--cap-weight, --cap-aux"),
])
def test_a_series_file_sets_its_own_caps(command, options, flags, tmp_path, capsys):
    path = tmp_path / "tau.json"
    assert main(["series", "--build", "lp2h", "--cap-weight", "6", "--cap-aux", "4"]) == 0
    path.write_text(capsys.readouterr().out)
    _refused(command.split() + [str(path)] + options, capsys, flags)


# -- random argument vectors -----------------------------------------------------

SUBPARSERS = next(a for a in build_parser()._actions if a.choices).choices
SMALL = st.integers(-2, 3).map(str)
JUNK = st.sampled_from(["", ",", "-", "--", "x", "1,,2", "0,0,0", "-1,2", "2/3",
                        "1e3", "--nope"])
LISTS = st.lists(st.integers(-2, 3), min_size=1, max_size=2).map(
    lambda xs: ",".join(map(str, xs)))


def _value(draw, action):
    if action.choices:
        return draw(st.sampled_from(sorted(action.choices)))
    return draw(SMALL if action.type is int else st.one_of(LISTS, JUNK))


@st.composite
def argvs(draw):
    """A subcommand of the real parser with a random subset of its options,
    values drawn from its choices, from small ints, from lists of them or
    from junk, and possibly one junk token inserted anywhere.  A verify
    suite draws from the options VERIFIERS says it reads, and in about a
    quarter of the draws gets one option that it does not read."""
    name = draw(st.sampled_from(sorted(SUBPARSERS)))
    argv, actions, foreign = [name], SUBPARSERS[name]._actions, []
    if name == "verify":
        suite = draw(st.sampled_from(sorted(VERIFIERS)))
        reads = VERIFIERS[suite][1]
        argv.append(suite)
        if draw(st.integers(0, 3)) == 0:
            foreign = [draw(st.sampled_from([a for a in actions if a.dest in VERIFY_OPTIONS
                                             and a.dest not in reads]))]
        actions = [a for a in actions if a.dest in reads]
    for action in actions:
        if "-h" in action.option_strings:
            continue
        if action.option_strings:
            if not action.required and draw(st.booleans()):
                continue
            argv.append(draw(st.sampled_from(action.option_strings)))
            if action.nargs == 0:
                continue
        argv.append(_value(draw, action))
    for action in foreign:
        argv += [action.option_strings[0], _value(draw, action)]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.one_of(JUNK, SMALL)))
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argvs())
# the random draws rarely parse a genus >= 3 hodge query with valid indices,
# so these solve real genus-3 and genus-4 tables under the contract
@example(["hodge", "--genus", "3", "--indices", "3,3,3"])
@example(["hodge", "--genus", "3", "--indices", "2,3", "--k", "3"])
@example(["hodge", "--genus", "4", "--indices", "4,4,4"])
def test_random_argv_keeps_exit_contract(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
