"""Each ``tau-lab`` line of README's "Command line" block, and ``verify
<suite>`` at its defaults for every suite, prints exactly its golden stdout
with its golden exit code.

``tests/expected/readme_cli.txt`` holds one ``$ tau-lab ...`` line per
command, then its stdout, then ``[exit N]``.  A command redirected with
``> FILE`` writes FILE in the working directory, where a later command
reads it.  ``PYTHONPATH=src python tests/test_readme_cli.py`` rewrites the
golden file; do so only when a change is meant to alter what a command
prints."""

import contextlib
import io
import os
import tempfile
from pathlib import Path

from taulab.cli import VERIFIERS, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "expected" / "readme_cli.txt"


def commands():
    block = (ROOT / "README.md").read_text().split("## Command line", 1)[1].split("```")[1]
    readme = [line.split("#", 1)[0].split() for line in block.splitlines()
              if line.startswith("tau-lab ")]
    return readme + [["tau-lab", "verify", suite] for suite in sorted(VERIFIERS)]


def transcript():
    """Run every command in the working directory; return the transcript."""
    parts = []
    for argv in commands():
        args, target = (argv[:argv.index(">")], argv[-1]) if ">" in argv else (argv, None)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(args[1:])
        if target:
            Path(target).write_text(out.getvalue())
        parts.append("$ %s\n%s[exit %d]\n" % (" ".join(argv), out.getvalue(), code))
    return "".join(parts)


def test_readme_commands_print_golden_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert transcript().encode() == GOLDEN.read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        GOLDEN.write_text(transcript())
