"""Guard against package code that only the tests reach.

A function, class or method of `superkdv` is live when the package can
reach it by name: from module-level code (command tables, constants,
`__main__`), from a dunder method, from an allowlisted definition, or
from another live definition; the CLI's commands are live because its
argument parser names them.  Names are
matched loosely (any `x.name` counts for every method `name`), so the
check can miss dead code but never flags code the package uses.
Imports do not count as uses, so a name that is only imported and
re-exported is not live.

A parameter with a default is likewise dead when no call in the package
sets it: by keyword, by position, or by `*`/`**` forwarding.  A call
`Class(...)` is a call of `Class.__init__`, and calls are matched by
name as loosely as above.
"""

import ast
from pathlib import Path

import superkdv

SRC = Path(superkdv.__file__).parent

#: definitions kept although nothing in the package calls them, with why
ALLOWED = {
    "GradedSeries.log": "its power series cross-checks GradedSeries.exp",
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
    return qualname in ALLOWED


def _modules():
    return [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]


def unreached_definitions() -> list[str]:
    defs = {}  # qualname -> (node, the nodes whose names it uses)
    names = set()  # names used by module-level code
    for module in _modules():
        for stmt in module.body:
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


def unset_defaults() -> list[str]:
    """`qualname(parameter)` for each defaulted parameter of a top-level
    function or method, allowlisted ones aside, that no package call sets."""
    params = {}  # callee name -> [(qualname, positional index or None, parameter)]
    calls = []
    for module in _modules():
        for stmt in module.body:
            if isinstance(stmt, ast.FunctionDef):
                defs = [(stmt.name, stmt.name, stmt, 0)]
            elif isinstance(stmt, ast.ClassDef):
                defs = [
                    (stmt.name if m.name == "__init__" else m.name, f"{stmt.name}.{m.name}", m, 1)
                    for m in stmt.body
                    if isinstance(m, ast.FunctionDef)
                ]
            else:
                defs = []
            for callee, qualname, node, bound in defs:
                if qualname in ALLOWED:
                    continue
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for i in range(first, len(positional)):
                    params.setdefault(callee, []).append((qualname, i - bound, positional[i].arg))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        params.setdefault(callee, []).append((qualname, None, arg.arg))
        calls += [node for node in ast.walk(module) if isinstance(node, ast.Call)]
    unset = {(qualname, name) for entries in params.values() for qualname, _, name in entries}
    for call in calls:
        func = call.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        forwarded = any(isinstance(a, ast.Starred) for a in call.args)
        keywords = {k.arg for k in call.keywords}
        for qualname, index, name in params.get(callee, ()):
            if (
                None in keywords
                or name in keywords
                or index is not None and (forwarded or index < len(call.args))
            ):
                unset.discard((qualname, name))
    return sorted(f"{qualname}({name})" for qualname, name in unset)


def test_no_default_is_set_only_by_tests():
    assert unset_defaults() == []


def kappa_reach(name: str) -> set[str]:
    """Names loaded by the `kappa` function `name` and by every `kappa`
    function it reaches by name."""
    module = ast.parse((SRC / "kappa.py").read_text())
    defs = {s.name: s for s in module.body if isinstance(s, ast.FunctionDef)}
    seen, todo, loaded = set(), [name], set()
    while todo:
        current = todo.pop()
        if current in seen:
            continue
        seen.add(current)
        names = _loaded_names([defs[current]])
        loaded |= names
        todo += [n for n in names if n in defs]
    return loaded


def test_bracket_route_a_is_independent_of_route_b():
    # route (b) of the bracket check shifts the free energy through
    # shift_expansion / substitute; route (a) must not, or the check
    # compares one computation with itself
    route_b = {"shift_expansion", "substitute"}
    assert route_b & kappa_reach("bracket_psi_correlators")  # the scan sees route (b)
    assert not route_b & kappa_reach("bracket_expansion")
