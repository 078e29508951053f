"""The library holds no test-only code, and its layers import in order.

Every public module-level function, class and constant of
``src/aglstab`` is reached from the library itself or named by
perfbench.  A name is reached when a module-level statement that is
itself reached refers to it: statements that bind no name (imports, the
``__main__`` guard) are reached, and so is every name that perfbench
names, as a string in its wrap list or as ``module.name`` in its
workloads.  ``__init__.py`` only re-exports, so it reaches nothing.
Code that only the tests call lives in ``tests/reference.py``.

``numtheory`` imports no other library module, ``ffield`` and ``agl``
reach it without the closed form in ``counting``, and no module imports
sympy when it is itself imported.  No module holds an ``assert`` or reads
``__debug__``, both of which ``python -O`` changes.
"""

import ast
import importlib
from pathlib import Path

import aglstab
from reference import assert_lines

SRC = Path(aglstab.__file__).resolve().parent
PERFBENCH = SRC.parents[1] / "perfbench"
MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__"}


def bound_names(stmt) -> list[str]:
    """The names that a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def references(stmt, scope: dict) -> set[tuple[str, str]]:
    """The (module, name) pairs that a statement refers to: a bare name
    through ``scope``, and ``module.name`` for a library module."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and node.id in scope:
            out.add(scope[node.id])
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in MODULES):
            out.add((node.value.id, node.attr))
    return out


def library_statements() -> list[tuple[str, list[str], set]]:
    """(module, bound names, references) for every module-level statement
    of the library outside ``__init__.py``."""
    out = []
    for module in sorted(MODULES):
        tree = ast.parse((SRC / f"{module}.py").read_text())
        scope = {}
        for stmt in tree.body:
            if (isinstance(stmt, ast.ImportFrom) and stmt.level == 1
                    and stmt.module):
                scope.update({alias.asname or alias.name:
                              (stmt.module, alias.name)
                              for alias in stmt.names})
            scope.update({name: (module, name) for name in bound_names(stmt)})
        out.extend((module, bound_names(stmt), references(stmt, scope))
                   for stmt in tree.body)
    return out


def perfbench_names() -> set[str]:
    """Every string constant and every ``module.name`` attribute of a
    library module in perfbench's sources."""
    out = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in MODULES):
                out.add(node.attr)
    return out


def test_every_public_name_is_reached_by_the_library_or_perfbench():
    statements = library_statements()
    public = {(module, name) for module, bound, _ in statements
              for name in bound if not name.startswith("_")}
    assert {module for module, _ in public} == MODULES
    named = perfbench_names()
    reached = {(module, name) for module, name in public if name in named}
    grew = True
    while grew:
        grew = False
        for module, bound, refs in statements:
            if bound and not any((module, n) in reached for n in bound):
                continue
            new = refs - reached - {(module, n) for n in bound}
            if new:
                reached |= new
                grew = True
    assert sorted(public - reached) == []


def test_no_module_asserts_or_reads_debug():
    # python -O strips assert statements and sets __debug__ to False, so
    # no check of the library may rest on either
    modules = [aglstab] + [importlib.import_module(f"aglstab.{name}")
                           for name in sorted(MODULES)]
    found = [(module.__name__, line) for module in modules
             for line in assert_lines(module)]
    assert found == []


def imports(module: str, at_import: bool = False) -> set[str]:
    """The modules that a library module imports, a relative import named
    by its module within the package (``from . import x`` by ``x``).  With
    ``at_import``, only the imports that run when the module is imported:
    none inside a function body."""
    nodes, out = [ast.parse((SRC / f"{module}.py").read_text())], set()
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level and not node.module:
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module)
        nodes.extend(child for child in ast.iter_child_nodes(node)
                     if not (at_import and isinstance(
                         child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda))))
    return out


def test_the_field_and_group_layers_import_no_closed_form():
    # ffield and agl reach the number theory without the closed form
    assert "counting" not in imports("ffield") | imports("agl")
    assert "numtheory" in imports("ffield") & imports("agl")


def test_numtheory_imports_no_other_library_module():
    assert [name for name in imports("numtheory")
            if name in MODULES or name.split(".")[0] == "aglstab"] == []


def test_no_library_module_imports_sympy_when_it_is_imported():
    # sympy is imported only inside the fallbacks that reach it, so a
    # command whose numbers plain ints decide never loads it
    assert sorted(module for module in MODULES
                  if any(name.split(".")[0] == "sympy"
                         for name in imports(module, at_import=True))) == []
