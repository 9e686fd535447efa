"""Every function, class and method defined in qlocal has a caller outside
the tests.

A name counts as called when it appears as a name or attribute in the
package (its __init__.py re-exports aside) or in perfbench/. A public name
that only tests use goes into TEST_ONLY here on purpose, with the reason.

The check matches by name alone, so it has a blind spot: a method passes
when any other object's attribute of the same name is read, and dunders
(`__len__`, `__iter__`, ...) are not checked at all. A
`GammaLaw.probability` that only tests call would pass, for one, because
`OutcomeDistribution.probability` is read. The two law classes, whose
surface matters, get a pin of their own methods, dunders included, below.
"""
import ast
from importlib import import_module
from pathlib import Path

import qlocal

PACKAGE = Path(qlocal.__file__).parent
PERFBENCH = PACKAGE.parent.parent / "perfbench"

TEST_ONLY = {
    "run_exact": "general exact-law engine, the tests' reference for `_exact_branches`",
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
    assert PERFBENCH.is_dir(), (
        f"{PERFBENCH} is missing: the names perfbench calls cannot be counted"
    )
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


def _law_methods(name):
    """The methods, dunders included, that `distributions.py`'s class
    `name` defines in its own body."""
    tree = ast.parse((PACKAGE / "distributions.py").read_text())
    (law,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name]
    return {f.name for f in law.body if isinstance(f, ast.FunctionDef)}


def test_a_gamma_law_is_its_arrays():
    # no dict face: `items()` is its only reader, and no method rebuilds Γ
    # as a mapping keyed by (b, x) tuples
    assert _law_methods("GammaLaw") == {"__init__", "items"}


def test_an_outcome_distribution_defines_only_what_is_read():
    # the caller check skips dunders: this pin is what keeps an unread
    # `__len__` or `__iter__` out of the dict law
    assert _law_methods("OutcomeDistribution") == {"__post_init__", "probability", "items"}


def _imports(module):
    """The package modules that `module` imports, directly or through
    others."""
    seen, todo = set(), [module]
    while todo:
        tree = ast.parse((PACKAGE / f"{todo.pop()}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = ([node.module.split(".")[0]] if node.module
                         else [alias.name for alias in node.names])
                todo += [name for name in names if name not in seen]
                seen.update(names)
    return seen


def test_the_two_oracles_import_nothing_from_each_other():
    # the path sum and the tableau are independent computations of every
    # stabilizer law; they share `affine` and the gate table, not each other
    assert "stabilizer" not in _imports("sparse")
    assert "sparse" not in _imports("stabilizer")


def test_the_tracer_finds_the_round_loop_and_the_programs(monkeypatch):
    # the benchmark's tracer skips a hook it cannot resolve and only counts
    # it in trace.hooks_missing, so a rename here would go unnoticed there;
    # `sparse` and `statevector` are left out, their hooks name removed code
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracing imports checks
    modules = {f"qlocal.{name}" for name in
               ("network", "protocols", "separation", "distributions", "verify")}
    hooks = [
        (module, path) for module, path, *_ in import_module("tracing").HOOKS
        if module in modules
    ]
    assert {module for module, _ in hooks} == modules
    missing = []
    for module, path in hooks:
        owner = import_module(module)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.append(f"{module}:{path}")
    assert missing == []


def _input_subscripts(path):
    """The top-level definition around each `ctx.input[...]` or
    `self.ctx.input[...]` in the module at `path`."""
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "input"
                    and ast.unparse(node.value.value) in ("ctx", "self.ctx")):
                yield getattr(top, "name", None)


def test_only_the_derandomizer_indexes_a_node_input():
    # every bit a protocol reads goes through `protocols._read_bit`; the
    # derandomizer reads a byte whose domain its oracle defines
    assert set(_input_subscripts(PACKAGE / "protocols.py")) == {"DerandomizedProgram"}
