import ast
from pathlib import Path

import empint


def _parse_modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(Path(empint.__file__).parent.glob("*.py"))}


def _imported_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    return [(alias.asname or alias.name).split(".")[0] for alias in node.names]


def _declared_all(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def _defined_names(tree: ast.Module) -> set[str]:
    """Names bound at module level by a def, a class or an assignment;
    imports do not count."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_public_surface_matches_the_modules():
    """Three checks over the package source:

    * no module but ``__init__`` imports a name it never reads (the
      package's imports are its public surface, checked below);
    * every name in a module's ``__all__`` is defined in that module, not
      re-exported from another;
    * ``__init__`` imports from each module exactly that module's
      ``__all__``, and nothing from a module without one.
    """
    modules = _parse_modules()
    unused, foreign, surface = [], [], []
    for name, tree in modules.items():
        if name == "__init__":
            continue
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                unused += [f"{name}.py:{node.lineno}: {n}" for n in _imported_names(node)
                           if n not in read]
        declared = _declared_all(tree) or []
        foreign += [f"{name}.{n}" for n in declared if n not in _defined_names(tree)]

    exported: dict[str, set[str]] = {}
    for node in modules["__init__"].body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported.setdefault(node.module, set()).update(_imported_names(node))
    for name, tree in modules.items():
        want = set(_declared_all(tree) or ())
        got = exported.get(name, set())
        if got != want:
            surface.append(f"{name}: __init__ lacks {sorted(want - got)}, "
                           f"imports beyond __all__ {sorted(got - want)}")
    assert not unused, unused
    assert not foreign, foreign
    assert not surface, surface


# Defaulted public parameters that no call in the package or the benchmark
# sets, each with the reason it stays.
UNSET_DEFAULTS_KEPT = {
    # acceptance tests 1, 2, 5 and 6 draw kernels with denominators 4 and 5
    ("random_kernel", "max_den"),
}


def _defaulted_params(fn: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position, name) of every parameter with a default; keyword-only
    parameters have no position."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    return ([(i, a.arg) for i, a in enumerate(positional) if i >= first]
            + [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
               if d is not None])


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether the call sets this parameter, by keyword or by position; a
    ``*args`` or ``**kwargs`` in the call counts as setting it."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args[:position + 1]) or (
        position < len(call.args))


def test_every_public_default_is_set_by_some_caller():
    """A defaulted parameter of a public function that no call in
    ``src/empint`` or ``bench/`` sets is an option with one value: make it
    a constant, or list it in UNSET_DEFAULTS_KEPT with its reason."""
    modules = _parse_modules()
    bench = Path(__file__).resolve().parents[1] / "bench"
    callers = list(modules.values()) + [ast.parse(p.read_text())
                                        for p in sorted(bench.glob("*.py"))]
    calls: dict[str, list[ast.Call]] = {}
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = set()
    for tree in modules.values():
        public = set(_declared_all(tree) or ())
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name in public:
                unset |= {(fn.name, name) for position, name in _defaulted_params(fn)
                          if not any(_passes(c, position, name) for c in calls.get(fn.name, []))}
    assert unset == UNSET_DEFAULTS_KEPT, sorted(unset ^ UNSET_DEFAULTS_KEPT)
