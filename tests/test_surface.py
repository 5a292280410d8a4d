"""Guard against package code that only the tests reach.

A function, class or method of `superkdv` is live when the package can
reach it by name: from module-level code (command tables, constants,
`__main__`), from a click command, from a dunder method, from an
allowlisted definition, or from another live definition.  Names are
matched loosely (any `x.name` counts for every method `name`), so the
check can miss dead code but never flags code the package uses.
Imports do not count as uses, so a name that is only imported and
re-exported is not live.
"""

import ast
from pathlib import Path

import superkdv

SRC = Path(superkdv.__file__).parent

#: definitions kept although nothing in the package calls them, with why
ALLOWED = {
    "GradedSeries.log": "its power series cross-checks GradedSeries.exp",
    "compare_to_tables": "TR against the symbolic tables, run by the acceptance tests",
    "eta_spin_compare": "the eta re-expansion against spin, run by the acceptance tests",
}


def _loaded_names(nodes) -> set[str]:
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                out.add(sub.attr)
    return out


def _is_root(qualname: str, node) -> bool:
    if node.name.startswith("__") and node.name.endswith("__"):
        return True
    if qualname in ALLOWED:
        return True
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
        for d in node.decorator_list
    )


def unreached_definitions() -> list[str]:
    defs = {}  # qualname -> (node, the nodes whose names it uses)
    names = set()  # names used by module-level code
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef):
                defs[stmt.name] = (stmt, [stmt])
            elif isinstance(stmt, ast.ClassDef):
                methods = [m for m in stmt.body if isinstance(m, ast.FunctionDef)]
                rest = [m for m in stmt.body if m not in methods]
                defs[stmt.name] = (stmt, rest + stmt.decorator_list + stmt.bases)
                for m in methods:
                    defs[f"{stmt.name}.{m.name}"] = (m, [m])
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                names |= _loaded_names([stmt])
    live: set[str] = set()
    grew = True
    while grew:
        grew = False
        for qualname, (node, uses) in defs.items():
            if qualname not in live and (node.name in names or _is_root(qualname, node)):
                live.add(qualname)
                names |= _loaded_names(uses)
                grew = True
    return sorted(set(defs) - live)


def test_no_definition_is_reached_only_by_tests():
    assert unreached_definitions() == []
