"""Guards over the package's source: no unused import and none inside a
function, imports running one way down ``LAYERS``, no orphaned private
name, caches only bounded and only on the functions ``CACHED`` lists, no
parser built on import, the count of settable values, no bare
``ValueError`` and no one-argument ``int``, no ``print`` to stdout but
in ``cli.main``, dispatch on the package's records by exact type, and
the unchecked constructors read only where ``TRUSTED`` allows.  The ``..._is_found`` and ``..._is_counted`` tests
check the guards' own readers on small sources."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "seqhalt"
# The package's __init__ imports names only to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # Annotations written as strings name types too.
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                parsed = ast.parse(annotation.value, mode="eval")
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    assert sorted(imported_names(tree) - used_names(tree)) == []


def test_unused_import_is_found():
    tree = ast.parse("import os\nfrom typing import Sequence, Union\nx: 'Union[int]' = 1\n")
    assert imported_names(tree) - used_names(tree) == {"os", "Sequence"}


def private_definitions(tree: ast.Module) -> set[str]:
    """Top-level functions, classes and assignment targets named ``_x``
    (dunders excluded)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def loaded_names(tree: ast.Module) -> set[str]:
    """Names read as a variable, as an attribute or by an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_no_orphaned_private_names():
    trees = {p.name: ast.parse(p.read_text()) for p in SOURCES}
    loaded = set().union(*(loaded_names(t) for t in trees.values()))
    orphans = {name: sorted(private_definitions(t) - loaded) for name, t in trees.items()}
    assert {name: found for name, found in orphans.items() if found} == {}


def test_orphaned_private_name_is_found():
    tree = ast.parse(
        "import m\nfrom m import _imported\n_used = 1\n_unused: int = 2\n__dunder__ = 3\n"
        "def _called(): return _used + m._attr\ndef _orphan(): pass\nclass _Gone: pass\n_called()\n"
    )
    assert private_definitions(tree) - loaded_names(tree) == {"_unused", "_orphan", "_Gone"}


# Each module imports only modules before it in this list.
LAYERS = ["program", "threads", "units", "services", "machine", "halting", "cli"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert [n.lineno for n in imports if n not in tree.body] == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_run_one_way(path):
    tree = ast.parse(path.read_text())
    below = LAYERS[: LAYERS.index(path.stem)]
    imported = [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level]
    assert [m for m in imported if m not in below] == []


def cache_decorators(tree: ast.Module) -> list[tuple[ast.AST, ast.expr, ast.Call]]:
    """``(function, decorator, call)`` for each ``cache``/``lru_cache``
    decorator, by name or as a module attribute; a bare decorator is
    given as a call without arguments."""
    found = []
    for node in ast.walk(tree):
        for decorator in getattr(node, "decorator_list", []):
            call = decorator if isinstance(decorator, ast.Call) else ast.Call(decorator, [], [])
            if getattr(call.func, "id", getattr(call.func, "attr", None)) in ("cache", "lru_cache"):
                found.append((node, decorator, call))
    return found


def unbounded_caches(tree: ast.Module) -> list[int]:
    """Lines of ``cache``/``lru_cache`` decorators without an integer
    ``maxsize``, given as a literal or as a module-level constant."""
    constants = {
        t.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for t in node.targets
        if isinstance(t, ast.Name)
    }
    lines = []
    for _, decorator, call in cache_decorators(tree):
        sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
        size = sizes[0] if sizes else None
        if isinstance(size, ast.Name):
            size = constants.get(size.id)
        elif isinstance(size, ast.Constant):
            size = size.value
        if type(size) is not int:
            lines.append(decorator.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_caches_are_bounded(path):
    assert unbounded_caches(ast.parse(path.read_text())) == []


def cached_functions(tree: ast.Module, module: str) -> list[str]:
    """``module.name`` of each function under a ``cache``/``lru_cache``
    decorator."""
    return [f"{module}.{node.name}" for node, _, _ in cache_decorators(tree)]


# The one memoised function: it holds the CLI's argument parser, built on
# the first main call, and no answers.  A cache of answers grows with its
# inputs, so each new one must be listed here with the reason it is safe.
CACHED = ["cli._build_parser"]


def test_only_listed_functions_cache():
    found = [name for p in SOURCES for name in cached_functions(ast.parse(p.read_text()), p.stem)]
    assert found == CACHED


def test_import_builds_no_parser():
    # The CLI's parser is built on the first main call, so that importing
    # the package pays nothing for it.
    probe = "import seqhalt.cli as cli; print(cli._build_parser.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "0\n"


def test_unbounded_cache_is_found():
    tree = ast.parse(
        "import functools\nfrom functools import cache, lru_cache\n_SIZE = 8\n_NONE = None\n"
        "@lru_cache(maxsize=None)\ndef a(): pass\n@functools.cache\ndef b(): pass\n"
        "@lru_cache\ndef c(): pass\n@lru_cache(maxsize=_NONE)\ndef d(): pass\n"
        "@lru_cache(maxsize=4)\ndef e(): pass\n@lru_cache(16)\ndef f(): pass\n"
        "@functools.lru_cache(maxsize=_SIZE)\ndef g(): pass\n@staticmethod\ndef h(): pass\n"
    )
    assert unbounded_caches(tree) == [5, 7, 9, 11]
    assert cached_functions(tree, "m") == [f"m.{name}" for name in "abcdefg"]


def settable_values(tree: ast.Module) -> int:
    """Parameters with a default, over the public top-level functions, and
    record fields with a default, over the public top-level classes."""
    count = 0
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            count += sum(settable_field(stmt) for stmt in node.body)
    return count


def settable_field(stmt: ast.stmt) -> bool:
    """A field with a default: ``x: T = v``, or ``x: T = field(...)``
    given a default and not ``init=False``."""
    if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
        return False
    value = stmt.value
    if not (isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id == "field"):
        return True
    keywords = {k.arg: k.value for k in value.keywords}
    init = keywords.get("init")
    if isinstance(init, ast.Constant) and init.value is False:
        return False
    return "default" in keywords or "default_factory" in keywords


def test_settable_values():
    # Each new default is one more value that tests and benchmarks must
    # cover; raise this count only with a caller that needs the value.
    assert sum(settable_values(ast.parse(p.read_text())) for p in SOURCES) == 12


def test_settable_value_is_counted():
    tree = ast.parse(
        "def a(x, y=1, *, z=2, w): pass\nasync def b(x=0): pass\ndef _c(x=0): pass\n"
        "class D:\n    def e(self, x=0): pass\ndef f(x):\n    def g(y=0): pass\n"
        "class R:\n    a: int\n    b: int = 0\n    c: int = field(default=1, repr=False)\n"
        "    d: int = field(repr=False)\n    e: int = field(init=False, default=2)\n    f = 3\n"
        "class _S:\n    g: int = 0\n"
    )
    assert settable_values(tree) == 5


def bare_value_errors(tree: ast.Module) -> list[int]:
    """Lines that raise ``ValueError`` itself, called or not."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_bare_value_error(path):
    # A rejected input raises InputError, the one type the CLI maps to a
    # usage error; a bare ValueError would be reported as a bug.
    assert bare_value_errors(ast.parse(path.read_text())) == []


def test_bare_value_error_is_found():
    tree = ast.parse(
        "class InputError(ValueError): pass\n"
        "def a(): raise ValueError\ndef b(): raise ValueError('x')\n"
        "def c(): raise InputError('x')\ndef d():\n    try: pass\n    except ValueError: raise\n"
    )
    assert bare_value_errors(tree) == [2, 3]


def inside(tree: ast.Module, function: str | None) -> set[int]:
    """``id``s of the nodes inside each function named ``function``."""
    return {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == function for n in ast.walk(f)}


def bare_int_calls(tree: ast.Module) -> list[int]:
    """Lines that call ``int`` on one argument outside ``read_natural``."""
    reader = inside(tree, "read_natural")
    return sorted(
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Name)
        and n.func.id == "int"
        and len(n.args) + len(n.keywords) == 1
        and id(n) not in reader
    )


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_one_numeral_reader(path):
    # int() on a decimal string past the digit limit (4300 digits by
    # default) raises a bare ValueError, which the CLI reports as a bug;
    # program.read_natural turns it into "no numeral".  A power-of-two
    # base, as in int(bits, 2), has no digit limit.
    assert bare_int_calls(ast.parse(path.read_text())) == []


def test_bare_int_call_is_found():
    tree = ast.parse(
        "def read_natural(t):\n    return int(t)\n"
        "def a(t): return int(t)\ndef b(t): return int(t, 2)\n"
        "def c(t): return int(t, base=16)\nn = int('5')\nm = x.int('5')\n"
    )
    assert bare_int_calls(tree) == [3, 6]


def stdout_prints(tree: ast.Module, function: str | None) -> list[int]:
    """Lines that call ``print`` without a ``file=`` keyword outside the
    function named ``function``."""
    allowed = inside(tree, function)
    return sorted(
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and getattr(n.func, "id", None) == "print"
        and not any(k.arg == "file" for k in n.keywords)
        and id(n) not in allowed
    )


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_one_print_path(path):
    # A subcommand returns its result, and cli.main prints it, once.
    # Passing print to run as the trace hook is not a call, so it passes.
    assert stdout_prints(ast.parse(path.read_text()), "main" if path.stem == "cli" else None) == []


def test_stdout_print_is_found():
    tree = ast.parse(
        "import sys\ndef main():\n    print('ok')\ndef a(): print('x')\n"
        "def b(): print('x', file=sys.stderr)\ndef c(t): return run(print if t else None)\n"
        "print()\nd = log.print('x')\n"
    )
    assert stdout_prints(tree, "main") == [4, 7]
    assert stdout_prints(tree, None) == [3, 4, 7]


# Every class the package defines with a class statement.
SOURCE_CLASSES = {n.name for p in SOURCES for n in ast.walk(ast.parse(p.read_text())) if isinstance(n, ast.ClassDef)}


def isinstance_calls(tree: ast.Module, names: set[str]) -> list[int]:
    """Lines that call ``isinstance`` with a type named in ``names``,
    alone or in a tuple, by name or as a module attribute."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            kinds = node.args[1]
            for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
                if getattr(kind, "id", getattr(kind, "attr", None)) in names:
                    lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_records_dispatch_on_exact_type(path):
    # One way to dispatch on a record of the package: its exact type,
    # ``type(x) is ...`` or a type-keyed table.  That is sound because each
    # kind is built only by the package or checked by exact type where it
    # comes in: instructions by Program, their actions by their own
    # constructors, nodes and actions by RegularThread, services by
    # ServiceFamily.  Only ``str`` is tested with isinstance, where a
    # subclass is accepted on purpose.
    assert isinstance_calls(ast.parse(path.read_text()), SOURCE_CLASSES) == []


def test_record_isinstance_call_is_found():
    tree = ast.parse(
        "from seqhalt import machine, program, threads\n"
        "a = isinstance(u, Plain)\nb = isinstance(u, (PosTest, str))\n"
        "c = isinstance(u, program.TermFalse)\nd = isinstance(u, PostCond)\n"
        "e = type(u) is FwdJump\nf = isinstance(u, (Tau, BwdJump)) or isinstance(u, NegTest)\n"
        "g = isinstance(n, threads.Deadlock)\nh = isinstance(n, (BasicInstruction, StopFalse))\n"
        "i = isinstance(n, TreeNode)\nj = isinstance(s, UnitService)\n"
        "k = isinstance(o, machine.Converged)\nl = isinstance(t, (RegularThread, str))\n"
        "m = isinstance(x, str)\nn = isinstance(x, (str, bytes))\no = type(s) is EmptyService\n"
        "p = isinstance(n, (StopTrue, str))\nq = type(n) is StopFalse\n"
    )
    assert isinstance_calls(tree, SOURCE_CLASSES) == [2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 17]


def uses_outside(tree: ast.Module, name: str, helper: str | None) -> list[int]:
    """Lines that read ``name``, as a name or as an attribute, outside the
    function named ``helper``."""
    allowed = inside(tree, helper)
    return sorted(
        n.lineno
        for n in ast.walk(tree)
        if (isinstance(n, ast.Name) and n.id == name or isinstance(n, ast.Attribute) and n.attr == name)
        and id(n) not in allowed
    )


# The one list of the callers of each private constructor that skips the
# check of its public one (where it is defined, the package says why that
# is safe): {module: the one function that may read it, or "*" for the
# module that defines it}; a module not listed may not read it at all.
TRUSTED = {
    "_tape": {"units": "*", "halting": "_encoded_tape"},
    "_thread": {"threads": "extract"},
    "_service_family": {"services": "*", "machine": "_family", "halting": "_dup_run"},
    "_basic": {"program": "_parse_basic"},
}


GUARDED = [(name, p) for name, callers in TRUSTED.items() for p in SOURCES if callers.get(p.stem) != "*"]


@pytest.mark.parametrize(("name", "path"), GUARDED, ids=[f"{name}-{p.name}" for name, p in GUARDED])
def test_unchecked_constructors_only_from_trusted_callers(name, path):
    assert uses_outside(ast.parse(path.read_text()), name, TRUSTED[name].get(path.stem)) == []


def test_unchecked_constructor_use_is_found():
    tree = ast.parse(
        "from seqhalt import units\nfrom seqhalt.units import _tape\n"
        "def _encoded_tape(w): return _tape(('', w))\n"
        "a = _tape(('', '2'))\nb = units._tape(('', '2'))\nc = map(_tape, [])\n"
        "def d(w):\n    _tape = w\n    return _tape\ne = tape(('', '2'))\n"
    )
    assert uses_outside(tree, "_tape", "_encoded_tape") == [4, 5, 6, 8, 9]
    assert uses_outside(tree, "_tape", None) == [3, 4, 5, 6, 8, 9]
