"""Every public name, result field and method is reached by the program.

A name in a module's `__all__` must be referenced outside its own
definition: in `src/parahom`, in `perfbench/` or in the acceptance module.
Every annotated field of a class in `src/parahom` must be read there too,
and every public method or property must be read there outside its own
body.  Unit tests do not count, so public code that only its own tests call
is deleted rather than kept.  The one name and one field kept without such
a reader are listed in KEPT and KEPT_FIELDS, each with its reason, and
neither list may go stale.  The counts of defaulted parameters, defaulted
dataclass fields and `__all__` names may not rise above MAX_COUNTS.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "parahom"
CALLERS = (sorted(PACKAGE.glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])

KEPT = {
    "pde.load_field": "reads the field files that `parahom solve` writes",
}


def _statements(path):
    """(name defined by the statement or None, names it references) for
    each top-level statement of a module."""
    out = []
    for stmt in ast.parse(path.read_text()).body:
        defined = getattr(stmt, "name", None)
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            defined = stmt.targets[0].id
        refs = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name)
        out.append((defined, refs))
    return out


def _public_names():
    """(module, name) for every entry of every module's __all__."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue            # lists the submodules, not API names
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in stmt.targets):
                for elt in stmt.value.elts:
                    yield path.stem, elt.value


def _unreached():
    scans = {path: _statements(path) for path in CALLERS}
    out = set()
    for module, name in _public_names():
        own = PACKAGE / f"{module}.py"
        if not any(name in refs and not (path == own and defined == name)
                   for path, stmts in scans.items()
                   for defined, refs in stmts):
            out.add(f"{module}.{name}")
    return out


def test_every_public_name_has_a_caller():
    unreached = _unreached()
    assert sorted(unreached - set(KEPT)) == []
    assert sorted(set(KEPT) - unreached) == [], "KEPT lists reached names"


KEPT_FIELDS = {
    "EffectiveMatrix.iterations": "the N-independence test of the CG "
                                  "iteration count, and its per-run stats",
}


def _fields():
    """(class, field) for every annotated field of a class in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) \
                            and isinstance(stmt.target, ast.Name):
                        yield node.name, stmt.target.id


def _attribute_reads():
    """Names loaded as attributes in CALLERS, outside `__post_init__` and
    outside the `x.flags` of an `x.flags.writeable = ...` store, so that
    freezing an array cannot pass for reading a field named flags."""
    reads = set()
    for path in CALLERS:
        tree = ast.parse(path.read_text())
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) \
                    and node.name == "__post_init__":
                skip.update(map(id, ast.walk(node)))
            elif isinstance(node, ast.Attribute) \
                    and node.attr == "writeable" \
                    and isinstance(node.ctx, ast.Store):
                skip.add(id(node.value))
        reads.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.ctx, ast.Load)
                     and id(node) not in skip)
    return reads


def test_every_result_field_has_a_reader():
    """Matches by attribute name, not by type: a field is read when any
    `x.<field>` loads it.  Names shared between classes (pole, cube, x, t,
    shift) can hide an unread field, so such fields are checked by hand."""
    reads = _attribute_reads()
    unread = {f"{cls}.{name}" for cls, name in _fields() if name not in reads}
    assert sorted(unread - set(KEPT_FIELDS)) == []
    assert sorted(set(KEPT_FIELDS) - unread) == [], \
        "KEPT_FIELDS lists read fields"


def test_every_public_method_has_a_caller():
    """A public method or property (any decorator) of a class in the
    package is reached when some `x.<name>` outside its own body loads it.
    Matched by name, like the fields."""
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    loads = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.attr, []).append(node)
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(trees[path]):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) \
                        and not fn.name.startswith("_"):
                    own = set(map(id, ast.walk(fn)))
                    if all(id(node) in own for node in loads.get(fn.name, [])):
                        unread.append(f"{cls.name}.{fn.name}")
    assert unread == []


# Upper bounds on the counts ROADMAP tracks, at their current values: a
# change that adds a knob or a public name raises its bound in its own diff.
MAX_COUNTS = {"defaulted parameters": 23,
              "defaulted dataclass fields": 23,
              "__all__ names": 66}


def _is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in cls.decorator_list)


def _counts():
    """Defaulted parameters of every function and lambda, defaulted fields
    of every dataclass, by an AST scan of the package; and `__all__`
    names."""
    params = fields = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                params += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(isinstance(s, ast.AnnAssign)
                              and s.value is not None for s in node.body)
    return {"defaulted parameters": params,
            "defaulted dataclass fields": fields,
            "__all__ names": len(list(_public_names()))}


def test_option_counts_stay_within_their_bounds():
    counts = _counts()
    over = {k: (v, MAX_COUNTS[k]) for k, v in counts.items()
            if v > MAX_COUNTS[k]}
    assert over == {}, "count above its bound: (count, bound)"
