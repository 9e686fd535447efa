"""Every function, class and method defined in qlocal has a caller outside
the tests.

A name counts as called when it appears as a name or attribute in the
package (its __init__.py re-exports aside) or in perfbench/. A public name
that only tests use goes into TEST_ONLY here on purpose, with the reason.
"""
import ast
from pathlib import Path

import qlocal

PACKAGE = Path(qlocal.__file__).parent
PERFBENCH = PACKAGE.parent.parent / "perfbench"

TEST_ONLY = {
    "adversary_gamma_law": "one adversary's law; checks the TV search's witness distance",
    "cs": "gate constructor; the dense-engine, arena and tableau tests build CS gates with it",
    "cnot": "gate constructor; the dense-engine and arena tests build CNOT gates with it",
    "run_gates": "dense reference the tests compare the arena and the tableau against",
    "exact_distribution": "dense reference the tests compare the arena and the tableau against",
    "fidelity": "dense reference the tests compare the arena and the tableau against",
    "dense_vector": "the arena's own amplitudes, which the tests compare against the dense reference",
}


def _defined_names():
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(
                    f.name for f in node.body if isinstance(f, ast.FunctionDef)
                )
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def _used_names():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += PERFBENCH.glob("*.py")
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_name_has_a_caller_outside_the_tests():
    assert _defined_names() - _used_names() == set(TEST_ONLY)
