"""The mutation gate (tests/mutants.py) runs outside the suite and takes
minutes; a snippet that no longer occurs in its file would go unnoticed until
then.  This reads every snippet against the checkout, without running pytest."""

import ast
import os

from mutants import MUTANTS, ROOT


def test_every_mutant_snippet_occurs_once_in_its_file():
    stale = []
    for m in MUTANTS:
        with open(os.path.join(ROOT, m.file)) as fh:
            n = fh.read().count(m.snippet)
        if n != 1:
            stale.append((m.name, m.file, n))
    assert not stale
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


def test_every_test_a_mutant_names_is_defined_in_its_file():
    defined, missing = {}, []
    for m in MUTANTS:
        for test in m.tests:
            path, name = test.split("::")
            if path not in defined:
                with open(os.path.join(ROOT, path)) as fh:
                    defined[path] = {node.name for node in ast.walk(ast.parse(fh.read()))
                                     if isinstance(node, ast.FunctionDef)}
            if name not in defined[path]:
                missing.append((m.name, test))
    assert not missing
