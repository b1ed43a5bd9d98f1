"""What a cold process imports: ``import taulab`` loads no submodule, and each
``tau-lab`` command loads only the modules it runs.  Each check starts a fresh
interpreter, because this process already holds every module."""

import ast
import os
import subprocess
import sys
import types

import pytest

import taulab

SRC = os.path.dirname(os.path.dirname(taulab.__file__))


def loaded_after(code):
    """The taulab submodules a fresh interpreter holds after running code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = code + "\nprint(sorted(m[7:] for m in sys.modules if m.startswith('taulab.')))"
    out = subprocess.run([sys.executable, "-c", "import sys\n" + probe],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return set(ast.literal_eval(out.stdout.splitlines()[-1]))


def loaded_by_command(argv):
    return loaded_after("from taulab.cli import main\nassert main(%r) == 0" % argv.split())


def test_import_taulab_loads_no_submodule():
    assert loaded_after("import taulab") == set()


def test_public_name_loads_its_home_module():
    assert loaded_after("import taulab\ntaulab.Series") == {"series"}
    assert loaded_after("from taulab import character") == {"series", "partitions",
                                                            "symfunc"}


@pytest.mark.parametrize("argv", ["char --mu 2,1 --lambda 3", "schur --mu 2,1"])
def test_char_and_schur_load_only_their_modules(argv):
    assert loaded_by_command(argv) == {"cli", "partitions", "series", "symfunc"}


@pytest.mark.parametrize("argv, absent", [
    ("hurwitz --kind simple --genus 0 --profile 2,2",
     {"pic", "hodge", "diffops", "hierarchy"}),
    ("hurwitz --kind onepart --genus 1 --profile 3",
     {"pic", "hodge", "diffops", "hierarchy"}),
    ("series --build lp2h --cap-weight 4 --cap-aux 3",
     {"pic", "hodge", "diffops", "hierarchy"}),
    ("bracket --indices 2,3,3", {"hodge", "diffops", "hierarchy"}),
    # u-tau computes Hirota residuals, so it needs hierarchy and diffops
    ("verify u-tau", {"hodge"}),
    ("verify corner --max-size 4", {"hodge", "pic"}),
    ("hodge --genus 1 --indices 1", {"hierarchy"}),
])
def test_command_skips_modules_it_does_not_run(argv, absent):
    got = loaded_by_command(argv)
    assert "cli" in got and not got & absent, got


def test_submodule_attribute_is_the_module():
    assert loaded_after("import taulab, types\n"
                        "assert isinstance(taulab.hurwitz, types.ModuleType)\n"
                        "assert isinstance(taulab.pic, types.ModuleType)\n"
                        "assert taulab.hurwitz.hurwitz is sys.modules['taulab.hurwitz'].hurwitz"
                        ) == {"series", "partitions", "symfunc", "hurwitz", "pic"}
    assert isinstance(taulab.hurwitz, types.ModuleType)
    assert taulab.hurwitz is sys.modules["taulab.hurwitz"]


def test_star_import_binds_each_name_to_its_home_object():
    ns = {}
    exec("from taulab import *", ns)
    assert set(ns) - {"__builtins__"} == set(taulab.__all__)
    for name in taulab.__all__:
        home = sys.modules["taulab." + taulab._HOME[name]]
        assert ns[name] is getattr(home, name) is getattr(taulab, name), name
        if isinstance(ns[name], (type, types.FunctionType)) and name != "Rat":
            assert ns[name].__module__ == home.__name__, name


def test_public_names_in_order():
    assert taulab.__all__ == [
        "Series", "Rat", "FAMILY_P", "FAMILY_TQ",
        "Partition", "partitions_of", "partitions_upto", "aut_order", "zee",
        "class_size", "hook", "cut_and_join_eigenvalue",
        "character", "dimension", "schur_poly", "power_to_schur",
        "TOp", "ZOp",
        "HurwitzQuery", "ONEPART", "SIMPLE", "hurwitz_bruteforce",
        "hurwitz_frobenius", "hurwitz_closed", "h_onepart_series",
        "h_simple_series",
        "d_mu", "hirota_residual", "kp_residual", "lkp_residual", "cut_and_join",
        "bracket", "f_series", "u_series", "u_hierarchy_residuals",
        "a_coeff", "hurwitz_to_hodge", "f_moduli",
    ]


def test_dir_and_unknown_names():
    assert set(taulab.__all__) <= set(dir(taulab))
    assert not hasattr(taulab, "nope")
    with pytest.raises(AttributeError, match="nope"):
        taulab.nope
