"""The library keeps what its callers run.  Every public module-level function
or class in ``src/taulab`` is either exported through ``taulab._EXPORTS`` or
referenced by a caller: another library function (a reference inside its own
body does not count), a demo, or the benchmark's session, launcher or
reference maker.  A name that only the tests reach belongs in the tests.

The check reads source with ``ast`` and imports nothing but ``taulab``."""

import ast
import os

import taulab

SRC = os.path.dirname(taulab.__file__)
ROOT = os.path.dirname(os.path.dirname(SRC))
CALLERS = [os.path.join(ROOT, "demos", name)
           for name in sorted(os.listdir(os.path.join(ROOT, "demos"))) if name.endswith(".py")]
CALLERS += [os.path.join(ROOT, "perfbench", name)
            for name in ("session.py", "launch.py", "make_reference.py")]


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _names(node):
    """Every name node reads, as a bare name or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unreferenced():
    """The public definitions of the library that no caller reads, sorted as
    'module.name'."""
    exported = {name for names in taulab._EXPORTS.values() for name in names}
    defined = set()  # (module, name)
    readers = {}  # name: {(module, top-level name whose statement reads it)}
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        module = fname[:-3]
        for stmt in _parse(os.path.join(SRC, fname)).body:
            owner = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not owner.startswith("_"):
                defined.add((module, owner))
            for name in _names(stmt):
                readers.setdefault(name, set()).add((module, owner))
    outside = {name for path in CALLERS for name in _names(_parse(path))}
    return sorted("%s.%s" % (module, name) for module, name in defined
                  if name not in exported and name not in outside
                  and not readers.get(name, set()) - {(module, name)})


def test_every_public_definition_has_a_caller():
    assert unreferenced() == []
