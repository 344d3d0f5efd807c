"""Static checks on the package source, read with ast: every ``__all__``
entry names a module-level definition or a name the module's
``__getattr__`` resolves, no module but the package
``__init__`` imports a name it never uses, no module but ``cli`` and
``__init__`` imports the solver, only ``_workers`` forks and no module
imports a process pool, every ``SolverConfig`` field
is read outside its own ``validate``, every private module constant and
module-level private function is read, no private module-level name is
defined in two modules, no module calls ``np.median`` or ``np.fromfile``, the solver
checks a caller's maps in one place, evaluates the emissivity penalty only
where emissivity changes, makes no BLAS or LAPACK call and transposes only
at its layout boundaries, and no call passes ``band_major``."""

import ast
import re
from pathlib import Path

_PKG = Path(__file__).resolve().parent.parent / "src" / "lwirange"


def _modules():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
            for p in sorted(_PKG.glob("*.py"))}


def _made(tree):
    """Names a module's own definitions and assignments bind at module level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def _defined(tree):
    """Names bound at module level, imports included."""
    return _made(tree).union(*(_bound_by(node) for node in tree.body
                               if isinstance(node, (ast.Import, ast.ImportFrom))))


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


def _lazy(tree):
    """Names a module-level ``__getattr__`` resolves: the literal tuple of
    its ``name in (...)`` test."""
    return {elt.value for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
            for test in ast.walk(node)
            if isinstance(test, ast.Compare) and isinstance(test.ops[0], ast.In)
            and isinstance(test.comparators[0], ast.Tuple)
            for elt in test.comparators[0].elts}


def test_every_all_entry_resolves():
    missing = {name: sorted(set(_exported(tree)) - _defined(tree) - _lazy(tree))
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


def test_only_the_cli_and_the_package_import_the_solver():
    # the solver is about a quarter of the package; a module that imports it
    # loads it into every launch that reads that module, such as a quad
    # range or an eval, which run no solver code
    def names(node):
        # the dotted parts of every module an import statement names
        mods = [a.name for a in node.names]
        if isinstance(node, ast.ImportFrom) and node.module:
            mods.append(node.module)
        return {part for m in mods for part in m.split(".")}

    found = sorted(f"{name}:{node.lineno}" for name, tree in _modules().items()
                   if name not in ("cli.py", "__init__.py")
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and "hyperspectral" in names(node))
    assert not found, found


def test_only_the_fork_helper_makes_processes():
    # _workers.fork_map is the one place that forks, reads each worker's
    # result and reaps it; no module starts a process pool or forks beside it
    found = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                mods = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                if any(m.split(".")[0] in ("concurrent", "multiprocessing")
                       for m in mods):
                    found.append(f"{name}:{node.lineno}")
            elif (isinstance(node, ast.Attribute) and node.attr == "fork"
                  and name != "_workers.py"):
                found.append(f"{name}:{node.lineno}")
    assert not found, found


def test_every_solver_config_field_is_read():
    # a field that only validate reads is a knob that changes nothing.  A
    # read is any attribute load of the field's name, so this catches a dead
    # field, not one shadowed by a same-named attribute of another object
    modules = _modules()
    cls = next(node for node in modules["forward_model.py"].body
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


def test_every_module_constant_is_read():
    # a module-level _UPPER_CASE constant that nothing loads is a knob that
    # changes nothing.  A load is a Name or an attribute of that name
    # anywhere in the package
    modules = _modules()
    constants = {f"{name}:{c}" for name, tree in modules.items()
                 for c in _defined(tree) if re.fullmatch(r"_[A-Z][A-Z0-9_]*", c)}
    loaded = _loaded_names(modules)
    dead = sorted(c for c in constants if c.split(":")[1] not in loaded)
    assert constants and not dead, dead


def _loaded_names(modules):
    """Every name the package loads, as a Name or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in modules.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def test_every_private_function_is_read():
    # a module-level _name function that nothing loads is a helper its
    # callers left behind.  A load is a Name or an attribute of that name
    # anywhere in the package
    modules = _modules()
    functions = {f"{name}:{node.name}" for name, tree in modules.items()
                 for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node.name.startswith("_") and not node.name.startswith("__")}
    loaded = _loaded_names(modules)
    dead = sorted(f for f in functions if f.split(":")[1] not in loaded)
    assert functions and not dead, dead


def test_no_private_name_is_defined_in_two_modules():
    # the read checks above match loads by bare name, so a load of one
    # module's _name would count as a read of another module's _name too
    where = {}
    for name, tree in _modules().items():
        for made in _made(tree):
            if made.startswith("_") and not made.startswith("__"):
                where.setdefault(made, []).append(name)
    twice = {made: names for made, names in where.items() if len(names) > 1}
    assert not twice, twice


def _np_calls(attr):
    """module:line of every np.<attr>(...) or numpy.<attr>(...) call."""
    return sorted(f"{name}:{node.lineno}" for name, tree in _modules().items()
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == attr
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in ("np", "numpy"))


def test_no_module_calls_np_median():
    # np.median imports numpy.ma on first use, about 20 ms of a CLI launch;
    # closed_form._median gives the same bits without it
    assert not _np_calls("median")


def test_no_module_calls_np_fromfile():
    # np.fromfile returns a short array from a file that shrank after its
    # length check; every LWC1 body streams through cube_io._read_plane,
    # which refuses a short read with FormatError
    assert not _np_calls("fromfile")


def _callers(name):
    """The hyperspectral functions that call name, sorted."""
    return sorted(
        fn.name for fn in ast.walk(_modules()["hyperspectral.py"])
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name for node in ast.walk(fn)))


def test_penalty_is_evaluated_where_eps_changes():
    # the solver state carries the emissivity penalty; only the record's
    # constructor and the step that refits eps evaluate it, so no block
    # re-evaluates the penalty of an eps it did not change
    assert _callers("_penalty") == ["_gn_step", "_state"]


def test_caller_maps_are_read_in_one_place():
    # _flatten_maps is the one check that a caller's maps fit the problem;
    # any other reader of the raw maps would have to restate it.  project
    # reads them without a problem to check them against
    assert _callers("_param_arrays") == ["_flatten_maps", "project"]


# numpy entry points that hand work to BLAS or LAPACK
_BLAS_NAMES = {"linalg", "matmul", "dot", "vdot", "inner", "tensordot"}


def test_solver_makes_no_blas_call():
    # a BLAS or LAPACK kernel may block, thread or reorder a sum by batch
    # size, which would tie a pixel's bits to its batch and break the
    # thread-count contract; the solver's products are einsum with
    # optimize=False (which never dispatches to BLAS) or elementwise
    tree = _modules()["hyperspectral.py"]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"@:{node.lineno}")
        elif isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES:
            found.append(f"{node.attr}:{node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.startswith("numpy.linalg")
                or any(a.name in _BLAS_NAMES for a in node.names)):
            found.append(f"import:{node.lineno}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "einsum"
              and not any(k.arg == "optimize" and isinstance(k.value, ast.Constant)
                          and k.value.value is False for k in node.keywords)):
            found.append(f"einsum without optimize=False:{node.lineno}")
    assert not found, found


# names that transpose an array: the .T attribute and numpy's functions and methods
_TRANSPOSE_NAMES = {"T", "transpose", "swapaxes"}


def test_solver_transposes_only_at_its_layout_boundaries():
    # every per-pixel array the solver holds is pixel-last, the one layout
    # of the forward_model kernels: the public maps convert where they enter
    # (_pixel_last) and leave (_band_maps), and the downwelling rows once
    # into the sky block's (K, Q) columns (_sky_contrast)
    boundaries = {"_pixel_last", "_band_maps", "_sky_contrast"}
    found = [f"{getattr(top, 'name', '<module>')}:{node.lineno}"
             for top in _modules()["hyperspectral.py"].body
             if getattr(top, "name", None) not in boundaries
             for node in ast.walk(top)
             if isinstance(node, ast.Attribute) and node.attr in _TRANSPOSE_NAMES]
    assert not found, found


def test_no_call_passes_band_major():
    # _mix has one layout; a band_major switch would bring the second back
    found = sorted(f"{name}:{node.lineno}" for name, tree in _modules().items()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and any(k.arg == "band_major" for k in node.keywords))
    assert not found, found
