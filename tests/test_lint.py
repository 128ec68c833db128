"""Every name a module imports is used in that module, every name a
`voidhex` module defines is used somewhere, and the package reads its
tables, not the record views it keeps for code outside it.

The checks read the files with `ast`. A name bound by an import in
`src/voidhex/`, `tests/` or `bench/` must appear as a name somewhere else
in the module, or in its `__all__`.
Package `__init__.py` files, which import to re-export, are exempt, and so
are `from __future__` imports. A top-level function, class or constant of a
module in `src/voidhex/` must be referenced by name (as a name, an
attribute or an import, such as a re-export in `__init__.py`) in `src/`,
`tests/` or `bench/`, outside its own definition; the definitions in
`__init__.py` and dunder names are exempt. Every field of a dataclass or
`NamedTuple` in `src/voidhex/` must be read as an attribute (`x.field`)
somewhere in `src/`, `tests/` or `bench/`. No module in `src/voidhex/`
loads the attribute `facets` (`VoronoiCellSet`'s record view) or `patches`
(`FacetQuadMesh`'s). No module in `src/voidhex/` but `bed.py`, which
defines the container shapes, and `fixtures.py`, which builds beds in
them, imports a shape class or names one in an `isinstance` call: other
modules loop over a container's walls. `__init__.py`, which re-exports the
shapes, is exempt. Every `raise` in `src/voidhex/` names a class defined in
`errors.py`, so that a caller catching `VoidhexError` catches every error
the package raises; a bare re-raise is exempt. Every field of
`VoronoiCellSet` but ``bed`` and ``n_real``, and every field of
`GhostSet`, is annotated ``np.ndarray``: facet loops and cells are CSR
arrays and the ghosts' provenance is two index arrays, not lists, from
`generate_ghosts` to `hexgen`. In `src/voidhex/hexgen.py` no function but
`_grow_layers`, the one routine that grows a layer, assigns to a
mesh's `nodes`, `elements`, `elem_cell`, `elem_layer`, `faces` or
`face_surface`, or to an item of one, and no `replace(...)` call passes
any of them but `nodes`: `sweep` builds the first layer and `_grow_layers`
every later one. In the same module only `sweep` calls `audit_conformal`, and
only `_grow_layers` calls `_audit_growth`: each stage audits what it builds,
and the audit of a whole mesh runs once, on the swept one. No function in `src/voidhex/geometry.py` assigns to an
item or an attribute of one of its parameters, also after rebinding the
name (`np.asarray` of an array is that array): its helpers return what
they compute, and the guard stays a check that moves no point. Every
`np.unique` call in `src/voidhex/` passes ``return_index``,
``return_inverse`` or ``return_counts``: numpy 2.4's plain `np.unique`
hashes integers, many times slower than the one sort of
`geometry.distinct`, which gives the same sorted distinct values.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/voidhex", "tests", "bench") for p in (ROOT / d).glob("*.py")
               if p.name != "__init__.py")
READERS = sorted(p for d in ("src/voidhex", "tests", "bench") for p in (ROOT / d).glob("*.py"))
VIEWS = {"facets", "patches"}   # record views for code outside the package
SHAPES = {"Cylinder", "Annulus", "Box"}   # the container shapes of bed.py
ERRORS = {n.name for n in ast.parse((ROOT / "src/voidhex/errors.py").read_text()).body
          if isinstance(n, ast.ClassDef)}
MESH_ARRAYS = {"nodes", "elements", "elem_cell", "elem_layer", "faces", "face_surface"}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_files_found():
    assert any(p.name == "hexgen.py" for p in FILES)
    assert any(p.name == "test_lint.py" for p in FILES)
    assert any(p.name == "workloads.py" for p in FILES)


def test_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [(1, "os")]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == [], f"unused imports in {path.name}"


def _defined(stmt) -> list:
    """Names a top-level statement defines: a function, a class or constants."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _referenced(stmt) -> set:
    """Names a statement uses, as a name, an attribute or an import."""
    refs = set()
    for n in ast.walk(stmt):
        if isinstance(n, ast.Name):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs.add(n.attr)
        elif isinstance(n, ast.alias):
            refs.add(n.name)
    return refs


def dead_names(modules: dict, readers: dict) -> list:
    """(module, name) of each top-level definition in ``modules`` that no
    top-level statement of ``readers`` references, apart from the
    definition itself; both map a file name to its source."""
    refs = Counter()
    for source in readers.values():
        for stmt in ast.parse(source).body:
            refs.update(_referenced(stmt))
    dead = []
    for module, source in modules.items():
        for stmt in ast.parse(source).body:
            own = _referenced(stmt)
            dead += [(module, name) for name in _defined(stmt)
                     if not (name.startswith("__") and name.endswith("__"))
                     and refs[name] - (name in own) == 0]
    return sorted(dead)


def test_finds_a_dead_name():
    src = "X = 1\ndef f():\n    return f()\ndef g():\n    return X\nclass C: pass\n"
    assert dead_names({"m": src}, {"m": src, "t": "g(); m.C\n"}) == [("m", "f")]


def test_no_dead_names():
    modules = {p.name: p.read_text() for p in ROOT.glob("src/voidhex/*.py")
               if p.name != "__init__.py"}
    readers = {str(p.relative_to(ROOT)): p.read_text() for p in READERS}
    assert dead_names(modules, readers) == []


def _is_record(cls: ast.ClassDef) -> bool:
    """Is the class a dataclass or a NamedTuple?"""
    marks = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list] + cls.bases
    return any(getattr(m, "id", getattr(m, "attr", None)) in ("dataclass", "NamedTuple")
               for m in marks)


def unread_fields(modules: dict, readers: dict) -> list:
    """(module, class, field) of each field of a dataclass or NamedTuple in
    ``modules`` that no source of ``readers`` reads as an attribute; both
    map a file name to its source."""
    reads = {n.attr for source in readers.values() for n in ast.walk(ast.parse(source))
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = []
    for module, source in modules.items():
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef) and _is_record(cls):
                unread += [(module, cls.name, stmt.target.id) for stmt in cls.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                           and stmt.target.id not in reads]
    return sorted(unread)


def test_finds_an_unread_field():
    src = ("from dataclasses import dataclass\n"
           "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
           "class B(NamedTuple):\n    z: int\n"
           "class C:\n    w: int\n")
    assert unread_fields({"m": src}, {"m": src, "t": "a.x = 1\nprint(a.y)\n"}) == [
        ("m", "A", "x"), ("m", "B", "z")]


def test_no_unread_fields():
    modules = {p.name: p.read_text() for p in ROOT.glob("src/voidhex/*.py")}
    readers = {str(p.relative_to(ROOT)): p.read_text() for p in READERS}
    assert unread_fields(modules, readers) == []


def attribute_loads(source: str, names) -> list:
    """(line, attribute) of each load of one of ``names`` as an attribute."""
    return sorted((n.lineno, n.attr) for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                  and n.attr in names)


def test_finds_a_view_load():
    src = "cs.facets[0]\ncs.facets = v\nfacets = 1\nq.patches.items()\n"
    assert attribute_loads(src, VIEWS) == [(1, "facets"), (4, "patches")]


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/voidhex/*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_package_reads_no_view(path):
    assert attribute_loads(path.read_text(), VIEWS) == [], f"record view read in {path.name}"


def shape_uses(source: str) -> list:
    """(line, name) of each import of a container shape and each shape
    named in the class argument of an `isinstance` call."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.ImportFrom):
            found += [(n.lineno, a.name) for a in n.names if a.name in SHAPES]
        elif isinstance(n, ast.Call) and getattr(n.func, "id", None) == "isinstance":
            found += [(n.lineno, name) for x in ast.walk(n.args[1])
                      if (name := getattr(x, "id", getattr(x, "attr", None))) in SHAPES]
    return sorted(found)


def test_finds_a_shape_use():
    src = ("from .bed import Box, SphereBed\n"
           "if isinstance(d, (bed.Cylinder, int)):\n    pass\n"
           "isinstance(d, Annulus)\nCylinder((0, 0), 1.0, 2.0)\n")
    assert shape_uses(src) == [(1, "Box"), (2, "Cylinder"), (4, "Annulus")]


@pytest.mark.parametrize("path", [p for p in sorted(ROOT.glob("src/voidhex/*.py"))
                                  if p.name not in ("bed.py", "fixtures.py", "__init__.py")],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_shapes_stay_in_bed(path):
    assert shape_uses(path.read_text()) == [], f"container shape named in {path.name}"


def foreign_raises(source: str, allowed) -> list:
    """(line, name) of each `raise` whose exception, a class or a call of
    one, is not named in ``allowed``; a bare re-raise is exempt."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Raise) and n.exc is not None:
            exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
            name = getattr(exc, "id", getattr(exc, "attr", None))
            if name not in allowed:
                found.append((n.lineno, name))
    return sorted(found)


def test_finds_a_foreign_raise():
    src = ("raise ValidationError('x')\nraise ValueError('y')\nraise errors.GeometryError\n"
           "try:\n    f()\nexcept KeyError:\n    raise\nraise RuntimeError\n")
    assert foreign_raises(src, {"ValidationError", "GeometryError"}) == [
        (2, "ValueError"), (8, "RuntimeError")]


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/voidhex/*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_raises_only_package_errors(path):
    assert foreign_raises(path.read_text(), ERRORS) == [], f"foreign raise in {path.name}"


def non_array_fields(source: str, name: str, exempt) -> list:
    """(field, annotation) of each field of class ``name`` in ``source``,
    but those in ``exempt``, that is not annotated ``np.ndarray``."""
    cls = next(n for n in ast.walk(ast.parse(source))
               if isinstance(n, ast.ClassDef) and n.name == name)
    return sorted((stmt.target.id, ast.unparse(stmt.annotation)) for stmt in cls.body
                  if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                  and stmt.target.id not in exempt and ast.unparse(stmt.annotation) != "np.ndarray")


def test_finds_a_non_array_field():
    src = ("class A:\n    x: np.ndarray\n    y: list\n    z: int\n"
           "    def f(self) -> list:\n        w: list = []\n")
    assert non_array_fields(src, "A", {"z"}) == [("y", "list")]


def test_cell_set_fields_are_arrays():
    source = (ROOT / "src/voidhex/voronoi.py").read_text()
    assert non_array_fields(source, "VoronoiCellSet", {"bed", "n_real"}) == []
    assert non_array_fields(source, "GhostSet", set()) == []


def _written(target) -> list:
    """The attributes an assignment target writes: an attribute, one whose
    item is assigned, or those in a tuple or list of targets."""
    while isinstance(target, (ast.Subscript, ast.Starred)):
        target = target.value
    if isinstance(target, (ast.Tuple, ast.List)):
        return [a for t in target.elts for a in _written(t)]
    return [target] if isinstance(target, ast.Attribute) else []


def attribute_writes(source: str, names) -> list:
    """(line, function, attribute) of each assignment to an attribute in
    ``names``, or to an item of one, with the top-level function or class
    whose body makes it."""
    found = []
    for stmt in ast.parse(source).body:
        for n in ast.walk(stmt):
            targets = n.targets if isinstance(n, ast.Assign) else (
                [n.target] if isinstance(n, (ast.AugAssign, ast.AnnAssign)) else [])
            found += [(a.lineno, getattr(stmt, "name", None), a.attr)
                      for t in targets for a in _written(t) if a.attr in names]
    return sorted(found)


def test_finds_a_mesh_write():
    src = ("def f(m):\n    m.nodes = 1\n    m.faces[0] = 2\n    a, m.elem_cell = 1, 2\n"
           "    x[m.elements] = 3\n    m.radius = 4\n    y = m.nodes\n"
           "class C:\n    def g(self, m):\n        m.elem_layer += 1\n")
    assert attribute_writes(src, MESH_ARRAYS) == [
        (2, "f", "nodes"), (3, "f", "faces"), (4, "f", "elem_cell"), (10, "C", "elem_layer")]


def replace_passes(source: str, names) -> list:
    """(line, keyword) of each keyword in ``names`` passed to a call of
    ``replace`` or of an attribute ``replace``."""
    return sorted((n.lineno, k.arg) for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Call)
                  and getattr(n.func, "id", getattr(n.func, "attr", None)) == "replace"
                  for k in n.keywords if k.arg in names)


def test_finds_a_mesh_replace():
    src = ("def f(m):\n    a = replace(m, nodes=1, faces=2)\n    b = replace(m, surfaces=[])\n"
           "    c = dataclasses.replace(m, elem_layer=3)\n    d = s.strip(faces=4)\n")
    assert replace_passes(src, MESH_ARRAYS - {"nodes"}) == [(2, "faces"), (4, "elem_layer")]


def test_one_routine_grows_the_mesh():
    source = (ROOT / "src/voidhex/hexgen.py").read_text()
    writes = attribute_writes(source, MESH_ARRAYS)
    assert {name for _, fn, name in writes if fn == "_grow_layers"} == MESH_ARRAYS
    assert [w for w in writes if w[1] != "_grow_layers"] == [], "a mesh array assigned elsewhere"
    assert replace_passes(source, MESH_ARRAYS - {"nodes"}) == [], "a layer built outside the routine"


def calls(source: str, names) -> list:
    """(line, function, name) of each call of a name in ``names``, as a
    name or an attribute, with the top-level function or class whose body
    makes it (None at module level)."""
    return sorted((n.lineno, getattr(stmt, "name", None), name)
                  for stmt in ast.parse(source).body for n in ast.walk(stmt)
                  if isinstance(n, ast.Call)
                  and (name := getattr(n.func, "id", getattr(n.func, "attr", None))) in names)


def test_finds_a_call():
    src = ("def f(m):\n    audit(m)\n    x.audit(m)\n    y = audit\n"
           "class C:\n    def g(self):\n        return [other(1), audit(2)]\naudit(3)\n")
    assert calls(src, {"audit"}) == [(2, "f", "audit"), (3, "f", "audit"), (7, "C", "audit"),
                                     (8, None, "audit")]


def test_each_stage_audits_what_it_builds():
    source = (ROOT / "src/voidhex/hexgen.py").read_text()
    found = {(fn, name) for _, fn, name in calls(source, {"audit_conformal", "_audit_growth"})}
    assert found == {("sweep", "audit_conformal"), ("_grow_layers", "_audit_growth")}


def parameter_writes(source: str) -> list:
    """(line, function, parameter) of each assignment, plain or augmented,
    to an item or an attribute of a parameter of the function, or of a
    function nested in it, that makes it."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                  if p is not None}
        for n in ast.walk(fn):
            targets = n.targets if isinstance(n, ast.Assign) else (
                [n.target] if isinstance(n, (ast.AugAssign, ast.AnnAssign)) else [])
            for t in targets:
                for part in t.elts if isinstance(t, (ast.Tuple, ast.List)) else [t]:
                    if not isinstance(part, (ast.Subscript, ast.Attribute)):
                        continue
                    while isinstance(part, (ast.Subscript, ast.Attribute)):
                        part = part.value
                    if isinstance(part, ast.Name) and part.id in params:
                        found.append((n.lineno, fn.name, part.id))
    return sorted(set(found))


def test_finds_a_parameter_write():
    src = ("def f(points, pairs, *rest, guard=1.0):\n"
           "    points[0] = 1.0\n    pairs = np.asarray(pairs)\n    pairs[:, 0] += 1\n"
           "    a, rest[0].x = 1, 2\n    guard = 2.0\n    local = points.copy()\n"
           "    local[0] = guard\n    x = points[0]\n"
           "def g(mesh):\n    mesh.nodes.flags.writeable = False\n")
    assert parameter_writes(src) == [(2, "f", "points"), (4, "f", "pairs"), (5, "f", "rest"),
                                     (11, "g", "mesh")]


def test_geometry_writes_no_parameter():
    source = (ROOT / "src/voidhex/geometry.py").read_text()
    assert parameter_writes(source) == [], "a geometry helper writes into its argument"


UNIQUE_RETURNS = {"return_index", "return_inverse", "return_counts"}


def plain_uniques(source: str) -> list:
    """Line of each `np.unique` call that passes none of ``return_index``,
    ``return_inverse`` and ``return_counts``."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and n.func.attr == "unique" and getattr(n.func.value, "id", None) == "np"
                  and not UNIQUE_RETURNS & {k.arg for k in n.keywords})


def test_finds_a_plain_unique():
    src = ("a = np.unique(x)\nb, i = np.unique(x, return_index=True)\n"
           "c = np.unique(x, axis=0)\nd = distinct(x)\n"
           "e, f, g = np.unique(x, return_inverse=True, return_counts=True)\n"
           "h = np.unique(np.unique(x), return_counts=True)\n")
    assert plain_uniques(src) == [1, 3, 6]


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/voidhex/*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_plain_unique(path):
    assert plain_uniques(path.read_text()) == [], f"plain np.unique in {path.name}"
