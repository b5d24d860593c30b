"""Source guards: runtime invariants of the library raise typed errors, never
`assert` statements (which `python -O` strips) or bare AssertionError, no
module imports a name it does not use, only linalg imports numpy, modules
imports nothing from linalg, only ring, groebner and modules touch packed
terms, no function, class or method goes unreferenced, no module-level
constant or instance attribute goes unread, no function
takes a parameter it never reads, every defaulted parameter is passed
by some library or benchmark call, only ModuleGB manages S-pairs, only modules
touches the Schreyer leads of a matrix, classify calls no
elimination-order construction, appendix resolves the bad algebra's module
in one place, and every span the benchmark traces names a library function
or method."""

import ast
import importlib
import importlib.util
from pathlib import Path

import koszulkit

SRC = Path(koszulkit.__file__).parent
ROOT = SRC.parent.parent


def test_library_has_no_assert_or_assertion_error():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert statement")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}: raise AssertionError")
    assert not found, "\n".join(found)


def test_library_imports_only_names_it_uses():
    """Every name a module imports is used in it; the package __init__
    re-exports and `from __future__` imports are exempt."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_only_linalg_imports_numpy():
    """The int64/object dispatch and the one Gaussian elimination live in
    linalg; every other module reaches numpy arrays only through it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] == "numpy" for m in modules):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "numpy imported outside linalg:\n" + "\n".join(found)


def test_modules_imports_nothing_from_linalg():
    """Minimal module generators are chosen by module normal forms; with no
    linalg import, a dense graded-Nakayama selection cannot come back into
    modules as a second path."""
    path = SRC / "modules.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(name.split(".")[-1] == "linalg" for name in names):
            found.append(f"modules.py:{node.lineno}")
    assert not found, "modules imports linalg:\n" + "\n".join(found)


ELIMINATIONS = {"intersect", "eliminate", "colon"}


def test_classify_calls_no_elimination():
    """Common factors and witnesses come from linear syzygies and linear
    algebra over graded pieces; with no call of an elimination-order
    construction in classify, common factors cannot go back to one."""
    path = SRC / "classify.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ELIMINATIONS:
                found.append(f"classify.py:{node.lineno}: {name}")
    assert not found, "eliminations in classify:\n" + "\n".join(found)


def test_appendix_resolves_in_one_place():
    """The bad algebra's module is resolved only by the cached
    AppendixInstance.resolution, which the differential check and the
    obstruction search share, so a second resolution per field cannot come
    back."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "resolve_over_quotient":
                found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    path = SRC / "appendix.py"
    visit(ast.parse(path.read_text(), filename=str(path)), ())
    assert found == ["AppendixInstance.resolution"], found


PACKED_NAMES = {
    "PackedLayout", "FIELD_BITS", "FIELD_MASK", "LIMIT", "ModuleOrder", "ModuleGB",
    "lead_term", "reduce_terms", "s_element", "scaled", "column_degrees", "lex_terms",
}
PACKING_CALLS = {"packed_columns", "pack_terms"}


def test_only_the_engines_touch_packed_terms():
    """Packed terms are the engine format of ring, groebner and modules;
    every other module works on Polynomial and PolyMatrix.  So no other
    module imports a packed-term name or reaches one as an attribute, and
    none packs a matrix or a polynomial itself."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("ring.py", "groebner.py", "modules.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno}: imports {a.name}" for a in node.names if a.name in PACKED_NAMES]
            elif isinstance(node, ast.Attribute) and node.attr in PACKED_NAMES | PACKING_CALLS:
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert not found, "packed terms outside the engines:\n" + "\n".join(found)


def test_one_pair_manager():
    """S-elements are formed only by ModuleGB.complete, the one S-pair
    manager (buchberger runs on it), and by verify_basis, the independent
    check of Buchberger's criterion, so a second pair loop cannot come
    back."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = scope + (node.name,)
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "s_element":
                    found.add(f"{path.stem}.{'.'.join(scope)}")
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, ())
    assert found == {"groebner.ModuleGB.complete", "groebner.verify_basis"}, sorted(found)


def test_only_modules_touches_schreyer_leads():
    """The Schreyer leads a PolyMatrix keeps (PolyMatrix._leads) are read
    and written only in modules, where TaggedModule packs module columns
    by them, so a second packing of module columns cannot appear."""
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in paths if path != SRC / "modules.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "_leads"
    ]
    assert not found, "Schreyer leads outside modules:\n" + "\n".join(found)


def _references(paths) -> tuple[set[str], set[str]]:
    """(names, attributes) referenced in the files.  Names are identifiers
    used as names, imported names (the package's re-exports) and
    attributes; attributes are the identifiers after a dot, in code or in a
    dotted string constant (the tracer's span lists).  Both take the parts
    of dotted string constants."""
    names, attrs = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attrs.update(part for part in node.value.split(".") if part.isidentifier())
    return names | attrs, attrs


def test_every_function_class_and_method_is_referenced():
    """Each top-level function and class of the package is referenced by
    name, and each non-dunder method as an attribute, somewhere in src/,
    tests/ or bench/."""
    paths = [p for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert (ROOT / "bench").is_dir() and (ROOT / "tests").is_dir()
    names, attrs = _references(paths)
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name not in names:
                found.append(f"{path.name}:{node.lineno}: {node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            found += [
                f"{path.name}:{m.lineno}: {node.name}.{m.name}"
                for m in node.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (m.name.startswith("__") and m.name.endswith("__"))
                and m.name not in attrs
            ]
    assert not found, "defined but never referenced:\n" + "\n".join(found)


def test_every_dataclass_field_is_read():
    """Each field of a package dataclass is read as an attribute somewhere in
    src/, tests/ or bench/; a field only ever written is dead state."""
    paths = [p for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    reads = {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, ast.ClassDef) or not any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list
            ):
                continue
            found += [
                f"{path.name}:{f.lineno}: {node.name}.{f.target.id}"
                for f in node.body
                if isinstance(f, ast.AnnAssign) and f.target.id not in reads
            ]
    assert not found, "dataclass fields never read:\n" + "\n".join(found)


def test_every_constant_and_instance_attribute_is_read():
    """Each module-level name a package module assigns, and each attribute a
    method sets on self, is read somewhere in src/, tests/ or bench/: as a
    loaded name or attribute, an imported name (the package's re-exports),
    or a part of a dotted string constant.  A value only ever written is
    dead state.  Dunder names are exempt."""
    paths = [p for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    reads = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                reads.add(node.id if isinstance(node, ast.Name) else node.attr)
            elif isinstance(node, ast.alias):
                reads.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.update(part for part in node.value.split(".") if part.isidentifier())
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
            found += [
                f"{path.name}:{node.lineno}: {n.id}"
                for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and not (n.id.startswith("__") and n.id.endswith("__")) and n.id not in reads
            ]
        found += [
            f"{path.name}:{node.lineno}: self.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self" and node.attr not in reads
        ]
    assert not found, "assigned but never read:\n" + "\n".join(found)


# Families of functions called through one signature, so a member may leave a
# parameter of that signature unread.
DISPATCH_PROTOCOLS = {
    ("forms.py", "check_"): "FormSpec.check(w, I): check_ht4 needs only I",
    ("repro.py", "chk_"): "run_manifest calls each check with (params, expect)",
}


def _is_abstract(fn) -> bool:
    """The body is only `raise NotImplementedError`, after any docstring."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    if len(body) != 1 or not isinstance(body[0], ast.Raise) or body[0].exc is None:
        return False
    exc = body[0].exc.func if isinstance(body[0].exc, ast.Call) else body[0].exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def test_every_parameter_is_read():
    """Each parameter of each package function or method is read in its
    body; a parameter nobody reads is a knob that does nothing.  A method's
    receiver (self, cls), abstract bodies and the dispatch protocols above
    are exempt."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        receivers = set()
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for m in cls.body:
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and m.args.args and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in m.decorator_list
                ):
                    receivers.add((m.lineno, m.args.args[0].arg))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or _is_abstract(fn):
                continue
            if any(path.name == f and fn.name.startswith(prefix) for f, prefix in DISPATCH_PROTOCOLS):
                continue
            a = fn.args
            params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x]
            reads = {
                n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            found += [
                f"{path.name}:{fn.lineno}: {fn.name}({name})"
                for name in params
                if name not in reads and (fn.lineno, name) not in receivers
            ]
    assert not found, "parameters never read:\n" + "\n".join(found)


def _calls_by_name(paths) -> dict[str, list[tuple[int, set[str] | None]]]:
    """For each called name, one (positional count, keyword names) per call
    in the files; keyword names are None when the call unpacks `*` or `**`.
    A call is named by its function or its attribute, so `Cls(...)` is a
    call of `Cls` and `obj.meth(...)` one of `meth`."""
    calls: dict[str, list] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            unpacks = any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords)
            keywords = None if unpacks else {k.arg for k in node.keywords}
            calls.setdefault(name, []).append((len(node.args), keywords))
    return calls


# The console entry point takes argv for its callers outside the package.
ENTRY_POINTS = {("cli.py", "main", "argv")}


def test_every_defaulted_parameter_is_passed():
    """Each defaulted parameter of a package function or method is passed
    by some call in src/ or bench/; one that only its default or a test
    ever sets is a constant, not a knob.  Calls match by name: `Cls(...)` calls
    `Cls.__init__`, a method's bound receiver counts as one positional
    argument, and a call that unpacks `*` or `**` passes every parameter.
    Matching by name can only over-count calls, so a parameter this flags
    is never passed."""
    paths = [p for d in ("src", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    calls = _calls_by_name(paths)
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {}
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for m in cls.body:
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in m.decorator_list)
                    methods[m] = (cls.name if m.name == "__init__" else m.name, 0 if static else 1)
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name, receiver = methods.get(fn, (fn.name, 0))
            a = fn.args
            positional = a.posonlyargs + a.args
            defaulted = [(i, x.arg) for i, x in enumerate(positional) if i >= len(positional) - len(a.defaults)]
            defaulted += [(None, x.arg) for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for i, param in defaulted:
                if (path.name, fn.name, param) in ENTRY_POINTS:
                    continue
                if not any(
                    kws is None or param in kws or (i is not None and i < npos + receiver)
                    for npos, kws in calls.get(name, [])
                ):
                    found.append(f"{path.name}:{fn.lineno}: {name}({param})")
    assert not found, "defaulted parameters no call passes:\n" + "\n".join(found)


def test_every_benchmark_span_resolves():
    """The benchmark's tracer looks up every span of bench/spans.py before
    any item runs, so a name the library lost fails each traced run."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for modname, names in spans.SPANS.items():
        mod = importlib.import_module(f"koszulkit.{modname}")
        for name in names:
            obj = mod
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{modname}.{name}")
    assert not missing, "spans naming nothing in the library:\n" + "\n".join(missing)
