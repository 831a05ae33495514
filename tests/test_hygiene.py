"""Source hygiene that a linter would otherwise check.

No module under src/qetude imports a name it never uses.  The check is
scope-aware: a module-level import may be used anywhere in the module, but an
import inside a function must be used inside that same function.

Every private function or method (one leading underscore) defined under
src/qetude is referenced somewhere in src/qetude outside its own body.

Every entry point the benchmark's tracing shim names is defined in the module
or class dictionary it is named under.

No function keeps state in its module: none declares a name `global` or
mutates a list, dict or set bound at module level.

No function assigns or deletes an attribute, except `__init__` and `_make`,
which build a value: every object is finished when it is built.

Every class under src/qetude that declares attribute slots derives from
`poly._Value`, so a caller cannot rebind an attribute and change a hash.

Every private name that a docstring or comment under src/qetude quotes in
backticks is a name the source still defines or uses."""

import ast
import io
import re
import tokenize
from importlib import import_module
from pathlib import Path

import pytest

from qetude.poly import _Value

SRC = Path(__file__).resolve().parent.parent / "src" / "qetude"
MODULES = sorted(p.name for p in SRC.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def own_imports(scope):
    """Names bound by the imports of `scope` itself, not of functions in it."""
    names = set()
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, FUNCTIONS):
            continue
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def used_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        # string annotations such as -> "MPoly"
        note = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            names |= used_names(ast.parse(note.value, mode="eval"))
    return names


def unused_imports(tree):
    """(scope, name) for each import its scope never uses; the module scope
    is "<module>", a function scope is the function's name."""
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, FUNCTIONS)]
    return {(getattr(scope, "name", "<module>"), name)
            for scope in scopes for name in own_imports(scope) - used_names(scope)}


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    unused = unused_imports(ast.parse((SRC / module).read_text()))
    assert not unused, f"{module} imports unused names: {sorted(unused)}"


def test_flags_an_unused_import():
    tree = ast.parse("from fractions import Fraction\nimport os\nimport re\n"
                     "from x import Y\nos.sep\ndef f(a: 'Y') -> 'Fraction': pass\n")
    assert unused_imports(tree) == {("<module>", "re")}


def test_flags_a_function_import_used_only_elsewhere():
    tree = ast.parse("import os\n"
                     "def f():\n    from json import dumps\n    import re\n    return os.sep\n"
                     "def g():\n    return dumps(re)\n"
                     "def h():\n    import sys\n    def inner():\n        return sys\n"
                     "    return inner\n")
    assert unused_imports(tree) == {("f", "dumps"), ("f", "re")}


def unreferenced_privates(trees):
    """Names of the private functions and methods defined in `trees` that no
    name or attribute outside their own bodies refers to."""
    refs = [(node, node.id if isinstance(node, ast.Name) else node.attr)
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    dead = set()
    for tree in trees:
        for fn in ast.walk(tree):
            if (isinstance(fn, FUNCTIONS) and fn.name.startswith("_")
                    and not fn.name.startswith("__")):
                inside = set(map(id, ast.walk(fn)))
                if not any(name == fn.name and id(node) not in inside
                           for node, name in refs):
                    dead.add(fn.name)
    return dead


def test_every_private_function_is_referenced():
    trees = [ast.parse((SRC / module).read_text()) for module in MODULES]
    dead = unreferenced_privates(trees)
    assert not dead, f"private functions nothing refers to: {sorted(dead)}"


def test_flags_an_unreferenced_private():
    trees = [ast.parse("def _used():\n    pass\ndef _dead():\n    return _dead()\n"
                       "class C:\n    def _m(self):\n        return _used()\n"
                       "    def __init__(self):\n        self._m()\n"),
             ast.parse("from a import _used\ndef __getattr__(name):\n    return name\n")]
    assert unreferenced_privates(trees) == {"_dead"}


def benchmark_entry_points():
    """ENTRY_POINTS of perfbench/shim.py, read from its source so that the
    benchmark harness is never imported."""
    tree = ast.parse((SRC.parent.parent / "perfbench" / "shim.py").read_text())
    value, = [node.value for node in tree.body if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["ENTRY_POINTS"]]
    return ast.literal_eval(value)


def test_benchmark_entry_points_are_defined_where_named():
    """The benchmark times each entry point by replacing it in its module or
    class dictionary; a name that moves would silently drop out of its spans."""
    missing = []
    for module, names in benchmark_entry_points().items():
        mod = import_module(f"qetude.{module}")
        for name in names:
            *path, attr = name.split(".")
            owner = mod
            for part in path:
                owner = vars(owner).get(part)
            if owner is None or attr not in vars(owner):
                missing.append(f"{module}.{name}")
    assert not missing, f"benchmark entry points not defined where named: {missing}"


CONTAINERS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "update",
            "setdefault", "popitem", "add", "discard", "sort", "reverse",
            "__setitem__", "__delitem__"}


def module_state_writes(tree):
    """(function, name) for each `global` declaration, and each call of a
    mutating method on, or item assignment or deletion in, a list, dict or
    set bound at module level."""
    containers = set()
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if isinstance(value, CONTAINERS) or (
                isinstance(value, ast.Call)
                and getattr(value.func, "id", None) in ("list", "dict", "set")):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            containers |= {t.id for t in targets if isinstance(t, ast.Name)}
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, FUNCTIONS):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                found |= {(fn.name, f"global {name}") for name in node.names}
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = node.func.value
                if node.func.attr in MUTATORS and getattr(owner, "id", None) in containers:
                    found.add((fn.name, owner.id))
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                for t in getattr(node, "targets", None) or [node.target]:
                    if (isinstance(t, ast.Subscript)
                            and getattr(t.value, "id", None) in containers):
                        found.add((fn.name, t.value.id))
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_function_writes_module_state(module):
    writes = module_state_writes(ast.parse((SRC / module).read_text()))
    assert not writes, f"{module} keeps state at module level: {sorted(writes)}"


def test_flags_a_module_level_memo():
    tree = ast.parse(
        "_dets: list = [None, 1, 1]\n"
        "_SLOT = {1: 'b'}\n_seen = set()\n_count = 0\n"
        "def det_recurrence(n):\n"
        "    for m in range(len(_dets), n + 1):\n"
        "        _dets.append(_dets[m - 1] - _dets[m - 2])\n"
        "    return _dets[n]\n"
        "def f(k):\n    _SLOT[k] = 'h'\n    del _SLOT[1]\n    return _SLOT[k]\n"
        "def g(x):\n    _seen.add(x)\n"
        "def h():\n    global _count\n    _count += 1\n"
        "def __getattr__(name):\n    globals()[name] = 1\n"
        "def local():\n    out = []\n    out.append(_SLOT[1])\n    return out\n")
    assert module_state_writes(tree) == {("det_recurrence", "_dets"), ("f", "_SLOT"),
                                         ("g", "_seen"), ("h", "global _count")}


BUILDERS = ("__init__", "_make")
SETTERS = {"setattr", "__setattr__"}


def attribute_stores(tree):
    """(function, target) for each attribute that a function other than
    __init__ and _make assigns, augments or deletes, or sets through
    setattr or __setattr__."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, FUNCTIONS) or fn.name in BUILDERS:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
                found.add((fn.name, ast.unparse(node)))
            elif isinstance(node, ast.Call) and SETTERS & {
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)}:
                found.add((fn.name, ast.unparse(node.func)))
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_function_assigns_an_attribute(module):
    stores = attribute_stores(ast.parse((SRC / module).read_text()))
    assert not stores, f"{module} changes objects after they are built: {sorted(stores)}"


def test_flags_an_attribute_store():
    tree = ast.parse(
        "def analyze(report):\n    report.x = 1\n"
        "def verify(results):\n    results[-1].name = 'n'\n"
        "def count(self):\n    self.n += 1\n    del self.cache\n"
        "def hidden(r):\n    setattr(r, 'ok', 0)\n    object.__setattr__(r, 'ok', 0)\n"
        "class V:\n    def __init__(self):\n        self.c = {}\n"
        "    @classmethod\n    def _make(cls, c):\n        p = object.__new__(cls)\n"
        "        p.c = c\n        return p\n"
        "def local(r):\n    name = r.name\n    return r._replace(name=name + '!')\n")
    assert attribute_stores(tree) == {
        ("analyze", "report.x"), ("verify", "results[-1].name"),
        ("count", "self.n"), ("count", "self.cache"),
        ("hidden", "setattr"), ("hidden", "object.__setattr__")}


def unguarded_classes(classes):
    """The names of the classes among `classes` that declare attribute slots
    of their own but do not derive from `poly._Value`."""
    return {c.__name__ for c in classes
            if c.__dict__.get("__slots__") and not issubclass(c, _Value)}


def test_every_slotted_class_refuses_rebinding():
    classes = []
    for module in MODULES:
        mod = import_module("qetude" if module == "__init__.py" else f"qetude.{module[:-3]}")
        classes += [c for c in vars(mod).values()
                    if isinstance(c, type) and c.__module__ == mod.__name__]
    assert {"QPoly", "XQPoly", "MPoly", "RationalFunc", "QSeries"} <= {
        c.__name__ for c in classes}
    assert not unguarded_classes(classes)


def test_flags_a_slotted_class_without_the_base():
    class Loose:
        __slots__ = ("c",)

    class Record(tuple):
        __slots__ = ()

    class Value(_Value):
        __slots__ = ("c",)

    assert unguarded_classes([Loose, Record, Value]) == {"Loose"}


BACKTICKED = re.compile(r"`([^`]*)`")
# one leading underscore, then a letter: `_bareiss` and `poly._Value`, not
# `__init__`
PRIVATE = re.compile(r"(?<!\w)_[A-Za-z]\w*")


def prose(source):
    """The docstrings of a module's source, and its comments, consecutive
    comment lines joined into one block."""
    tree = ast.parse(source)
    texts = [ast.get_docstring(node, clean=False) for node in ast.walk(tree)
             if isinstance(node, (ast.Module, ast.ClassDef, *FUNCTIONS))]
    blocks, last = [], None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            line = tok.string.lstrip("#")
            if last == tok.start[0] - 1:
                blocks[-1] += "\n" + line
            else:
                blocks.append(line)
            last = tok.start[0]
    return [t for t in texts if t] + blocks


def code_names(tree):
    """Every name the code of `tree` defines, binds, imports or refers to."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
    return names


def stale_private_names(sources):
    """(module, name) for each private name quoted in backticks in the prose
    of `sources` (module -> source text) that no code among them has."""
    known = set().union(*(code_names(ast.parse(text)) for text in sources.values()))
    return {(module, name) for module, text in sources.items()
            for block in prose(text) for span in BACKTICKED.findall(block)
            for name in PRIVATE.findall(span) if name not in known}


def test_docs_name_only_private_names_the_code_has():
    stale = stale_private_names({module: (SRC / module).read_text() for module in MODULES})
    assert not stale, f"docs quote private names the code no longer has: {sorted(stale)}"


def test_flags_a_stale_private_name():
    sources = {
        "a.py": '"""Calls `b._helper(x)` and `_kept`; `_gone` is deleted."""\n'
                "def _kept():\n    # `__init__` is no private name, and\n"
                "    # `_old` spans two lines of `b.\n    # _helper`\n"
                "    text = '`_in_a_string`'\n    return _helper(text)\n",
        "b.py": "def _helper(x):\n    '''As private as `_kept`.'''\n    return x\n"}
    assert stale_private_names(sources) == {("a.py", "_gone"), ("a.py", "_old")}
