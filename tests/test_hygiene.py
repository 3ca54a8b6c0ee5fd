"""Source hygiene checks that need no linter: an AST scan of the package and
the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "polyce").glob("*.py"))
PACKAGE_INIT = ROOT / "src" / "polyce" / "__init__.py"
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str, exports: bool = False) -> list[str]:
    """Names bound by an import and never read.  A dotted ``import a.b``
    binds ``a``.  Only in a module that ``exports`` (the package's
    ``__init__``) do names listed in ``__all__`` count as read, so no other
    module keeps an unused import alive by re-exporting it."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (exports and isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a.b import c as d\nsys.exit()\n") == [
        "line 1: os", "line 3: d"]
    module = "import a.b\nfrom x import y\n__all__ = ['y']\na.b.f()\n"
    assert unused_imports(module, exports=True) == []
    assert unused_imports(module) == ["line 2: y"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(), exports=path == PACKAGE_INIT) == []


def dead_private_definitions(definers: list[str], readers: list[str]) -> list[str]:
    """Module-level ``_name`` functions, classes and constants of the
    ``definers`` sources whose name no source in ``readers`` reads, imports or
    takes as an attribute.  Dunder names are exempt."""
    defined = []
    for source in definers:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for t in targets if isinstance(t, ast.Name)]
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_scan_flags_a_dead_private_definition():
    module = "_A = 1\n_B: int = 2\ndef _f():\n    return _A\nclass _C:\n    pass\n__all__ = []\n"
    assert dead_private_definitions([module], [module]) == ["_B", "_f", "_C"]
    reader = "from m import _B, _f\nimport m\nm._C()\n"
    assert dead_private_definitions([module], [module, reader]) == []


def test_no_dead_private_definitions():
    assert dead_private_definitions([p.read_text() for p in PACKAGE],
                                    [p.read_text() for p in SOURCES]) == []


CALLERS = SOURCES + sorted((ROOT / "perfbench").rglob("*.py"))


def dead_parameters(definers: list[str], callers: list[str]) -> list[str]:
    """Defaulted parameters of the functions and methods in ``definers``
    that no call in ``callers`` passes, by keyword or by position.  A call
    counts when its called name, bare or after a dot, is the function's
    name; a ``*args`` or ``**kwargs`` argument counts as passing every
    parameter it could reach.  Dunder methods are exempt."""
    defaulted = []  # (function, parameter, call position or None)
    for source in definers:
        tree = ast.parse(source)
        in_class = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            bound = id(node) in in_class and not static  # self is not in the call
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            for k in range(first, len(positional)):
                defaulted.append((node.name, positional[k].arg, k - bound))
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    defaulted.append((node.name, arg.arg, None))
    calls = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)

    def passes(call, param, position):
        if any(kw.arg in (param, None) for kw in call.keywords):
            return True
        return position is not None and (
            len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))

    return [f"{fn}({param})" for fn, param, position in defaulted
            if not any(passes(call, param, position) for call in calls.get(fn, []))]


def test_scan_flags_a_dead_parameter():
    module = ("def f(a, b=1, c=2, *, d=3):\n    pass\n"
              "class K:\n    def m(self, x=0):\n        pass\n"
              "    @staticmethod\n    def s(y=0):\n        pass\n"
              "    def __init__(self, z=0):\n        pass\n")
    assert dead_parameters([module], [module]) == ["f(b)", "f(c)", "f(d)", "m(x)", "s(y)"]
    caller = "f(0, 1)\nobj.f(0, d=4)\nK().m(5)\nK.s(6)\n"
    assert dead_parameters([module], [caller]) == ["f(c)"]
    assert dead_parameters([module], ["f(*args)\nK().m(**kw)\nK.s(*a)\n"]) == ["f(d)"]


def test_no_dead_parameters():
    assert dead_parameters([p.read_text() for p in PACKAGE],
                           [p.read_text() for p in CALLERS]) == []


def unread_public_definitions(definers: list[str], readers: list[str]) -> list[str]:
    """Public module-level functions and classes, and public methods of
    those classes (as ``Class.method``), of the ``definers`` sources whose
    name no source in ``readers`` reads, imports, takes as an attribute or
    holds as a string constant; the benchmark binds the functions it wraps
    by string."""
    defined = []  # (label, name)
    for source in definers:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{node.name}.{f.name}", f.name) for f in node.body
                            if isinstance(f, ast.FunctionDef)]
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [label for label, name in defined if not name.startswith("_") and name not in read]


def test_scan_flags_an_unread_public_definition():
    module = ("def f():\n    pass\ndef g():\n    pass\ndef _h():\n    pass\n"
              "class K:\n    def m(self):\n        pass\n    def n(self):\n        pass\n"
              "    def __len__(self):\n        return 0\n")
    assert unread_public_definitions([module], [module]) == ["f", "g", "K", "K.m", "K.n"]
    reader = "from mod import f\nimport mod\nmod.K().m()\nWRAPPED = [(mod, 'g')]\n"
    assert unread_public_definitions([module], [reader]) == ["K.n"]


def test_no_unread_public_definitions():
    assert unread_public_definitions([p.read_text() for p in PACKAGE],
                                     [p.read_text() for p in CALLERS]) == []
