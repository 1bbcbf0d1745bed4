"""Source-level guards on the library's structure."""

import ast
import importlib
import subprocess
import sys
from importlib import resources

# Per-kind rules live in tables (fitting.Family, population.NOISE_KINDS);
# a comparison on a family tag or a noise kind would be a second home
# for them.  numpy's ``dtype.kind`` codes are not such a kind.
SWITCH_ATTRS = {"tag", "kind"}
SWITCH_OPS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def is_switch_operand(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr in SWITCH_ATTRS
        and not (isinstance(node.value, ast.Attribute) and node.value.attr == "dtype")
    )


def kind_switches(source: str, filename: str) -> list[str]:
    """``file:line`` of each comparison of a ``.tag`` or ``.kind`` by ==, !=, in or not in."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if (
            isinstance(node, ast.Compare)
            and any(isinstance(op, SWITCH_OPS) for op in node.ops)
            and any(is_switch_operand(o) for o in (node.left, *node.comparators))
        ):
            found.append(f"{filename}:{node.lineno}")
    return found


def test_no_tag_or_kind_switches():
    spellings = "\n".join([
        "a.kind == 'x'", "'x' != b.tag", "c.kind in ('x', 'y')", "d.tag not in T",
        "e.kind is None", "f.kind < 2", "g.name == 'x'", "kind == 'x'", "h.dtype.kind == 'U'",
    ])
    assert kind_switches(spellings, "s.py") == ["s.py:1", "s.py:2", "s.py:3", "s.py:4"]

    found = []
    for path in sorted(p for p in resources.files("leanreg").iterdir() if p.name.endswith(".py")):
        found += kind_switches(path.read_text(encoding="utf-8"), path.name)
    assert found == []



def test_exports_resolve():
    # A name deleted from a module but left in its __all__, or among the
    # package's imports, would linger as a stale export.
    package = importlib.import_module("leanreg")
    unresolved = []
    for path in sorted(p for p in resources.files("leanreg").iterdir() if p.name.endswith(".py")):
        stem = path.name[: -len(".py")]
        module = package if stem == "__init__" else importlib.import_module(f"leanreg.{stem}")
        unresolved += [f"{stem}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        if stem == "__init__":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = [a.asname or a.name for node in tree.body
                        if isinstance(node, ast.ImportFrom) for a in node.names]
            unresolved += [f"__init__.{n}" for n in imported if not hasattr(package, n)]
    assert unresolved == []


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reads(source: str, filename: str) -> list[str]:
    """``file:line name`` of each import or attribute read of another leanreg module's underscore name."""
    tree = ast.parse(source, filename)
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "leanreg")]
    modules = {a.asname or a.name for node in imports if node.module in (None, "leanreg") for a in node.names}
    modules |= {a.asname for node in ast.walk(tree) if isinstance(node, ast.Import)
                for a in node.names if a.asname and a.name.startswith("leanreg.")}
    found = [(node.lineno, a.name) for node in imports for a in node.names if is_private(a.name)]
    found += [(node.lineno, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and is_private(node.attr)]
    return [f"{filename}:{line} {name}" for line, name in sorted(found)]


def test_no_module_reads_another_modules_private_names():
    # An underscore name is its module's own; one that another module
    # needs is public, so renaming it cannot break a reader unseen.
    spellings = "\n".join([
        "from . import bootstrap", "from .rng import _halves, substream", "import leanreg.core as c",
        "bootstrap._chunks(3, 4)", "c._words(1)", "from leanreg import fitting as f", "f._sse",
        "bootstrap.chunk_size(4)", "bootstrap.__name__", "self._cache", "np._core", "_local()",
    ])
    assert private_reads(spellings, "s.py") == [
        "s.py:2 _halves", "s.py:4 bootstrap._chunks", "s.py:5 c._words", "s.py:7 f._sse",
    ]

    found = []
    for path in sorted(p for p in resources.files("leanreg").iterdir() if p.name.endswith(".py")):
        found += private_reads(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def local_imports(source: str, filename: str) -> list[str]:
    """``file:line`` of each import statement inside a function."""
    functions = [node for node in ast.walk(ast.parse(source, filename))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    lines = {inner.lineno for node in functions for inner in ast.walk(node)
             if isinstance(inner, (ast.Import, ast.ImportFrom))}
    return [f"{filename}:{line}" for line in sorted(lines)]


def test_no_imports_inside_functions():
    # A module's dependencies are read at its top, and a function-local
    # import can hide a cycle until the function first runs.
    spellings = "import a\ndef f():\n    from . import b\n    def g():\n        import c\n"
    assert local_imports(spellings, "s.py") == ["s.py:3", "s.py:5"]

    found = []
    for path in sorted(p for p in resources.files("leanreg").iterdir() if p.name.endswith(".py")):
        found += local_imports(path.read_text(encoding="utf-8"), path.name)
    assert found == []


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each unused module-level function or class.

    ``sources`` maps module names to their text.  A definition is used
    when its module's ``__all__`` lists it, or when any of the modules
    refers to its name as a name, an attribute or an import.
    """
    trees = {stem: ast.parse(text, f"{stem}.py") for stem, text in sources.items()}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    used = ({n.id for n in nodes if isinstance(n, ast.Name)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            | {n.name for n in nodes if isinstance(n, ast.alias)})
    found = []
    for stem, tree in trees.items():
        exported = [ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)]
        public = set(exported[0]) if exported else set()
        found += [f"{stem}.{node.name}" for node in tree.body
                  if isinstance(node, DEFINITIONS) and node.name not in public | used]
    return found


def test_no_test_only_library_code():
    # Code whose only callers are tests belongs with the tests.
    spellings = {
        "a": "__all__ = ['f']\ndef f():\n    g()\ndef g(): pass\ndef h(): pass\n"
             "class C: pass\nclass D: pass\ndef k(): pass\n",
        "b": "from a import C\nimport a\na.k()\n",
    }
    assert unused_definitions(spellings) == ["a.h", "a.D"]

    sources = {p.name[: -len(".py")]: p.read_text(encoding="utf-8")
               for p in resources.files("leanreg").iterdir() if p.name.endswith(".py")}
    assert unused_definitions(sources) == []


def solver_references(source: str, filename: str) -> list[str]:
    """``file:line`` of each import, name or attribute that refers to ``spd_solve_stack``."""
    lines = {
        node.lineno
        for node in ast.walk(ast.parse(source, filename))
        if (isinstance(node, ast.Name) and node.id == "spd_solve_stack")
        or (isinstance(node, ast.Attribute) and node.attr == "spd_solve_stack")
        or (isinstance(node, ast.ImportFrom) and any(a.name == "spd_solve_stack" for a in node.names))
    }
    return [f"{filename}:{line}" for line in sorted(lines)]


def test_only_fitting_calls_the_cholesky_solve():
    # Every SPD matrix inference inverts is formed in fitting.py: the fits'
    # normal equations and Newton systems, and the one inverse information
    # that covariances, bands, the residual bootstrap and adjustment read.
    spellings = "\n".join([
        "from .core import spd_solve_stack", "spd_solve_stack(a, b, rows, 'm')",
        "core.spd_solve_stack(a, None, rows, 'm')", "solve = spd_solve_stack",
        "def spd_solve_stack(a): pass", "'spd_solve_stack'", "spd_solve(a)",
    ])
    assert solver_references(spellings, "s.py") == ["s.py:1", "s.py:2", "s.py:3", "s.py:4"]

    found = []
    for path in sorted(p for p in resources.files("leanreg").iterdir() if p.name.endswith(".py")):
        if path.name not in ("core.py", "fitting.py"):
            found += solver_references(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def is_scipy(module: str | None) -> bool:
    return module is not None and module.split(".")[0] == "scipy"


def scipy_imports(source: str, filename: str) -> list[str]:
    """``file:line`` of each import of scipy, by statement or by ``__import__``/``import_module``."""
    lines = set()
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import) and any(is_scipy(a.name) for a in node.names):
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and is_scipy(node.module):
            lines.add(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("__import__", "import_module")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and is_scipy(str(node.args[0].value))
        ):
            lines.add(node.lineno)
    return [f"{filename}:{line}" for line in sorted(lines)]


def test_library_does_not_import_scipy():
    # numpy and the stdlib are the library's only runtime dependencies;
    # scipy is the tests' independent oracle.
    spellings = "\n".join([
        "import scipy", "import scipy.special as sc", "from scipy.special import ndtr",
        "from scipy import special", "import os, scipy.stats", "__import__('scipy.special')",
        "importlib.import_module('scipy')", "import scipyx", "from .scipy import f",
        "'scipy'", "x.scipy.special",
    ])
    assert scipy_imports(spellings, "s.py") == [f"s.py:{i}" for i in range(1, 8)]

    found = []
    for path in sorted(p for p in resources.files("leanreg").iterdir() if p.name.endswith(".py")):
        found += scipy_imports(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def test_cli_import_loads_no_scipy():
    code = "import sys, leanreg, leanreg.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_every_module_is_loaded_by_the_package_or_the_cli():
    # A module neither the package nor the CLI loads has only tests as
    # callers; it belongs with them.
    code = "import sys, leanreg, leanreg.cli; print(*sorted(m for m in sys.modules if m.startswith('leanreg.')))"
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.split()
    modules = [f"leanreg.{p.name[: -len('.py')]}" for p in resources.files("leanreg").iterdir()
               if p.name.endswith(".py") and p.name != "__init__.py"]
    assert sorted(set(modules) - set(loaded)) == []


def numpy_integer_references(source: str, filename: str) -> list[str]:
    """``file:line`` of each reference to numpy's ``integer`` type, by attribute or import."""
    lines = {
        node.lineno
        for node in ast.walk(ast.parse(source, filename))
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "integer"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "numpy"
            and any(a.name == "integer" for a in node.names)
        )
    }
    return [f"{filename}:{line}" for line in sorted(lines)]


def test_only_core_tests_for_integers():
    # core.check_integer and core.check_index hold the domain of every
    # count, seed and index; a second isinstance test drifts from them
    # (a bool passing as a count of 1).
    spellings = "\n".join([
        "isinstance(v, (int, np.integer))", "numpy.integer", "from numpy import integer as I",
        "np.issubdtype(d, np.integer)", "np.int64(v)", "x.integer", "integer", "'np.integer'",
        "gen.integers(0, 2)",
    ])
    assert numpy_integer_references(spellings, "s.py") == ["s.py:1", "s.py:2", "s.py:3", "s.py:4"]

    found = []
    for path in sorted(p for p in resources.files("leanreg").iterdir() if p.name.endswith(".py")):
        if path.name != "core.py":
            found += numpy_integer_references(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def docstring_nodes(tree) -> set[int]:
    """``id`` of each module, class and function docstring node of ``tree``."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def float_range_literals(source: str, filename: str) -> list[str]:
    """``file:line`` of each string literal or f-string part, docstrings aside, that says "float range"."""
    tree = ast.parse(source, filename)
    docstrings = docstring_nodes(tree)
    lines = {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and "float range" in node.value.lower()
        and id(node) not in docstrings
    }
    return [f"{filename}:{line}" for line in sorted(lines)]


def test_only_core_words_the_float_range_error():
    # core.float_range_error holds the one message form, "<what> passes
    # the float range"; a second wording drifts from it.
    spellings = "\n".join([
        '"""A module docstring may say float range."""', "raise DomainError('a sum passes the float range')",
        "m = f'{what} is past the Float Range'", "g('float' ' range')", "'a bare string: float range'",
        "# float range", "float_range_error('the sum')", "h('floating range')", "def f():",
        "    '''Nor is a function docstring past the float range checked.'''",
    ])
    assert float_range_literals(spellings, "s.py") == ["s.py:2", "s.py:3", "s.py:4", "s.py:5"]

    found = []
    for path in sorted(p for p in resources.files("leanreg").iterdir() if p.name.endswith(".py")):
        if path.name != "core.py":
            found += float_range_literals(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def dimension_error_references(source: str, filename: str) -> list[str]:
    """``file:line`` of each name, attribute or import in the code that is ``DimensionError``."""
    lines = {
        node.lineno
        for node in ast.walk(ast.parse(source, filename))
        if (isinstance(node, ast.Name) and node.id == "DimensionError")
        or (isinstance(node, ast.Attribute) and node.attr == "DimensionError")
        or (isinstance(node, ast.ImportFrom) and any(a.name == "DimensionError" for a in node.names))
    }
    return [f"{filename}:{line}" for line in sorted(lines)]


def test_only_core_raises_dimension_errors():
    # core.finite_array checks the shape of every array argument; a shape
    # test written by hand elsewhere drifts from its wording and class.
    spellings = "\n".join([
        "raise DimensionError('x has shape ()')", "raise exceptions.DimensionError('bad')",
        "from .exceptions import DimensionError as ShapeError", "errors.append(DimensionError)",
        "raise DomainError('x')", "'the DimensionError of a shape'", "# DimensionError", "def f():",
        "    '''Raises DimensionError through core.finite_array.'''",
    ])
    assert dimension_error_references(spellings, "s.py") == ["s.py:1", "s.py:2", "s.py:3", "s.py:4"]

    found = []
    for path in sorted(p for p in resources.files("leanreg").iterdir() if p.name.endswith(".py")):
        if path.name != "core.py":
            found += dimension_error_references(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def unused_imports(source: str, filename: str) -> list[str]:
    """``file:line name`` of each name a module imports and neither reads nor lists in ``__all__``.

    A name counts as read when it appears as a name anywhere in the code;
    a mention in a docstring or comment does not count.
    """
    tree = ast.parse(source, filename)
    imported = [(node.lineno, (a.asname or a.name).split(".")[0]) for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                for a in node.names]
    exported = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(exported[0]) if exported else set()
    return [f"{filename}:{line} {name}" for line, name in imported if name not in used]


def test_every_import_is_used():
    # A name imported only for a docstring's cross-reference, or left
    # behind when its last reader went, is a dependency the code lacks.
    spellings = "\n".join([
        "from __future__ import annotations", "import os, sys", "import numpy as np",
        "import xml.dom", "from .core import check, spare", "from .exceptions import DomainError",
        "__all__ = ['spare']", "def f(a: np.ndarray) -> None:",
        "    '''Raises :class:`DomainError`.'''", "    check(sys.argv, xml)",
    ])
    assert unused_imports(spellings, "s.py") == ["s.py:2 os", "s.py:6 DomainError"]

    # The package's own imports are its exports (test_exports_resolve).
    found = []
    for path in sorted(p for p in resources.files("leanreg").iterdir() if p.name.endswith(".py")):
        if path.name != "__init__.py":
            found += unused_imports(path.read_text(encoding="utf-8"), path.name)
    assert found == []
