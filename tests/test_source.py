"""Static checks on the package source, read with ast: every ``__all__``
entry names a module-level definition, no module but the package
``__init__`` imports a name it never uses, every ``SolverConfig`` field
is read outside its own ``validate``, and no module calls ``np.median``."""

import ast
from pathlib import Path

_PKG = Path(__file__).resolve().parent.parent / "src" / "lwirange"


def _modules():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
            for p in sorted(_PKG.glob("*.py"))}


def _defined(tree):
    """Names bound at module level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_bound_by(node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def _bound_by(node):
    # `import a.b` binds a; `from m import x as y` binds y
    return [(a.asname or a.name).split(".")[0] for a in node.names]


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


def test_every_all_entry_resolves():
    missing = {name: sorted(set(_exported(tree)) - _defined(tree))
               for name, tree in _modules().items()}
    assert not {k: v for k, v in missing.items() if v}


def test_no_module_imports_a_name_it_does_not_use():
    unused = {}
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue  # re-exports are its purpose
        imported = {b for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for b in _bound_by(node)}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used.update(_exported(tree))
        if imported - used:
            unused[name] = sorted(imported - used)
    assert not unused


def test_every_solver_config_field_is_read():
    # a field that only validate reads is a knob that changes nothing.  A
    # read is any attribute load of the field's name, so this catches a dead
    # field, not one shadowed by a same-named attribute of another object
    modules = _modules()
    cls = next(node for node in modules["hyperspectral.py"].body
               if isinstance(node, ast.ClassDef) and node.name == "SolverConfig")
    fields = {node.target.id for node in cls.body
              if isinstance(node, ast.AnnAssign)}
    validate = next(node for node in cls.body
                    if isinstance(node, ast.FunctionDef) and node.name == "validate")
    inside = {id(node) for node in ast.walk(validate)}
    read = {node.attr for tree in modules.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in inside}
    dead = sorted(fields - read)
    assert fields and not dead, dead


def test_no_module_calls_np_median():
    # np.median imports numpy.ma on first use, about 20 ms of a CLI launch;
    # closed_form._median gives the same bits without it
    calls = sorted(f"{name}:{node.lineno}" for name, tree in _modules().items()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "median"
                   and isinstance(node.func.value, ast.Name)
                   and node.func.value.id in ("np", "numpy"))
    assert not calls
