"""Every name a quiverbelt module imports is used in that module, no
function imports locally from a quiverbelt module that its file already
imports from at the top, every module-level function and class of a
quiverbelt module is referenced somewhere in src/, tests/ or perfbench/,
and no quiverbelt module imports or reads an underscore name of another
quiverbelt module (tests and perfbench may).

A stdlib-ast scan standing in for pyflakes' unused-import rule: an import
binds a name, and the name must be read somewhere in the module, listed in
its __all__, or named in a string annotation.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quiverbelt"
REFERENCING = [
    path
    for tree in ("src", "tests", "perfbench")
    for path in sorted((ROOT / tree).rglob("*.py"))
]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _annotation_names(node):
    """Names read by a string annotation such as -> "FieldElem"."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            tree = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
        return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str):
    """(line, name) for each imported name that the module never uses."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                used |= _annotation_names(arg.annotation)
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)
            }
    return [(line, name) for line, name in imported if name not in used]


def local_reimports(source: str):
    """(line, module) for each function-local `from quiverbelt.X import`
    in a file whose top level already imports from quiverbelt.X."""
    tree = ast.parse(source)
    top = {node.module for node in tree.body if isinstance(node, ast.ImportFrom)}
    found = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.ImportFrom)
                    and node.module in top
                    and node.module.startswith("quiverbelt.")
                ):
                    found.add((node.lineno, node.module))
    return sorted(found)


def test_scanner_reports_unused_and_accepts_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "from math import gcd, lcm as least\n"
        "from typing import Optional\n"
        "from fractions import Fraction\n"
        "__all__ = ['Fraction']\n"
        "def f(x: 'Optional[int]') -> int:\n"
        "    from math import pi\n"
        "    return gcd(x, 2)\n"
    )
    assert unused_imports(source) == [(2, "os"), (2, "os"), (3, "least"), (8, "pi")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, ", ".join(f"{path.name}:{line} {name}" for line, name in unused)


def test_scanner_reports_function_local_reimports():
    source = (
        "from math import gcd\n"
        "from quiverbelt.cycfield import FieldElem\n"
        "from quiverbelt.seedgeom import initial_seed\n"
        "def f():\n"
        "    from math import pi\n"
        "    from quiverbelt.cycfield import sin_product\n"
        "    from quiverbelt.exmatrix import mutate\n"
        "    def g():\n"
        "        from quiverbelt.seedgeom import spherical_seed\n"
        "    return FieldElem, gcd, pi, sin_product, mutate, g, initial_seed\n"
    )
    assert local_reimports(source) == [
        (6, "quiverbelt.cycfield"),
        (9, "quiverbelt.seedgeom"),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_local_reimports(path):
    found = local_reimports(path.read_text(encoding="utf-8"))
    assert not found, ", ".join(f"{path.name}:{line} {mod}" for line, mod in found)


def referenced_names(source: str) -> set:
    """Names a file refers to: identifiers, attribute names, imported names
    and strings that are identifiers (perfbench patches functions by name).
    A module-level definition's references to itself do not count."""
    found = set()
    for stmt in ast.parse(source).body:
        own = stmt.name if isinstance(stmt, DEFINITIONS) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
            ):
                name = node.value
            else:
                continue
            if name != own:
                found.add(name)
    return found


def unreferenced_definitions(module_source: str, references: set):
    """(line, name) for each module-level function or class of the module
    whose name is not among `references`."""
    return [
        (node.lineno, node.name)
        for node in ast.parse(module_source).body
        if isinstance(node, DEFINITIONS) and node.name not in references
    ]


def test_scanner_reports_unreferenced_definitions():
    module = (
        "def used():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "class Patched:\n"
        "    pass\n"
        "class Reached:\n"
        "    pass\n"
        "def dead():\n"
        "    return used\n"
    )
    caller = (
        "import pkg.mod\n"
        "from pkg.mod import used as alias\n"
        "setattr(object, 'Patched', None)\n"
        "pkg.mod.Reached()\n"
    )
    references = referenced_names(module) | referenced_names(caller)
    assert unreferenced_definitions(module, references) == [(5, "recursive"), (11, "dead")]


@pytest.fixture(scope="module")
def references():
    return set().union(
        *(referenced_names(path.read_text(encoding="utf-8")) for path in REFERENCING)
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unreferenced_definitions(path, references):
    found = unreferenced_definitions(path.read_text(encoding="utf-8"), references)
    assert not found, ", ".join(f"{path.name}:{line} {name}" for line, name in found)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node):
    """'a.b.c' for a chain of attribute reads on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def private_reads(source: str):
    """(line, name) for each underscore name that a module imports from a
    quiverbelt module, or reads as an attribute of a quiverbelt module it
    imported.  A private module's public names (the kernels re-export)
    do not count."""
    tree = ast.parse(source)
    modules = set()  # names and dotted paths bound to quiverbelt modules
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] != "quiverbelt":
                continue
            for alias in node.names:
                if _is_private(alias.name):
                    found.add((node.lineno, alias.name))
                if node.module == "quiverbelt":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "quiverbelt":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and _is_private(node.attr)
            and _dotted(node.value) in modules
        ):
            found.add((node.lineno, node.attr))
    return sorted(found)


def test_scanner_reports_underscore_names_of_other_modules():
    source = (
        "from quiverbelt import exgraph, seedgeom as sg\n"
        "from quiverbelt.cycfield import FieldElem, _initial_sign_bits\n"
        "from quiverbelt.exmatrix import _lift_matrix as lift\n"
        "from quiverbelt._kernels_py import content\n"
        "import quiverbelt.rank2\n"
        "from math import gcd as _gcd\n"
        "def f(seed):\n"
        "    exgraph.bfs(seed)._cache\n"
        "    sg._source_sink(seed.B)\n"
        "    quiverbelt.rank2._helper()\n"
        "    return exgraph.__name__, lift, FieldElem, content, _gcd, seed._cache\n"
    )
    assert private_reads(source) == [
        (2, "_initial_sign_bits"),
        (3, "_lift_matrix"),
        (9, "_source_sink"),
        (10, "_helper"),
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_underscore_names_from_other_modules(path):
    found = private_reads(path.read_text(encoding="utf-8"))
    assert not found, ", ".join(f"{path.name}:{line} {name}" for line, name in found)
