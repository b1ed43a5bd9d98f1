"""Each demo prints exactly its golden output, byte for byte.

The golden files in ``demos/expected`` hold the stdout of each
``demos/0*.py`` script.  A demo runs in a fresh interpreter under
``-W error``, so a warning fails it as well."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_every_demo_has_a_golden_file():
    assert DEMOS
    golden = sorted(p.stem for p in (ROOT / "demos" / "expected").glob("*.txt"))
    assert golden == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_output_is_golden(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, "-W", "error", str(demo)], env=env,
                         capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (ROOT / "demos" / "expected" / (demo.stem + ".txt")).read_bytes()
