"""Every name a module imports is referenced somewhere in that module, every
function parameter is read somewhere in its function, no function imports
from the package, so that an import cycle cannot hide in a function, and
every function of the package is referenced from the program, not only from
tests.

Scans the package and the scripts with `ast`; a name listed in `__all__`
counts as referenced (a re-export), and `from __future__` is skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "joubert2").glob("*.py"),
                  *(ROOT / "scripts").glob("*.py")])


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names
                         if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant)}
    return sorted(set(imported) - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def test_scan_catches_an_unused_import():
    tree = ast.parse("import itertools\nimport re\nre.compile('x')\n")
    assert _unused_imports(tree) == ["itertools"]


# the registry calls every check with (budget, threads), read or not
_UNIFORM_CHECK_PARAMS = ("budget", "threads")
# (module, function, parameter) kept unread: perfbench's scan workload calls
# ascurve.curve_census with threads=, and perfbench changes only in a
# benchmark revision
_BENCHMARK_PARAMS = {("ascurve", "curve_census", "threads")}


def _unused_params(tree: ast.Module, module: str) -> list[str]:
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        name = getattr(fn, "name", "<lambda>")
        a = fn.args
        params = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  a.vararg, a.kwarg) if x is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        for param in params:
            if param in ("self", "cls") or param in read:
                continue
            if (module == "checks" and name.startswith("check_")
                    and param in _UNIFORM_CHECK_PARAMS
                    or (module, name, param) in _BENCHMARK_PARAMS):
                continue
            out.append(f"{name}.{param}")
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_params(tree, path.stem) == []


def test_scan_catches_an_unused_parameter():
    tree = ast.parse("def f(a, b, threads=1):\n"
                     "    def g(c):\n"
                     "        return b + c\n"
                     "    return g(a)\n"
                     "def check_x(budget=None, threads=1):\n"
                     "    return 0\n")
    assert _unused_params(tree, "checks") == ["f.threads"]
    assert _unused_params(tree, "jsearch") == [
        "check_x.budget", "check_x.threads", "f.threads"]
    # the benchmark's one name, and only in its own module
    tree = ast.parse("def curve_census(q, budget=None, threads=1):\n"
                     "    return q\n"
                     "def surface_census(q, threads=1):\n"
                     "    return q\n")
    assert _unused_params(tree, "ascurve") == [
        "curve_census.budget", "surface_census.threads"]
    assert _unused_params(tree, "cubic") == [
        "curve_census.budget", "curve_census.threads",
        "surface_census.threads"]


def _local_package_imports(tree: ast.Module) -> list[int]:
    """Line numbers of imports from the package made inside a function."""
    lines = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                local = (node.level > 0
                         or (node.module or "").split(".")[0] == "joubert2")
            elif isinstance(node, ast.Import):
                local = any(a.name.split(".")[0] == "joubert2"
                            for a in node.names)
            else:
                continue
            if local:
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_package_imports_inside_functions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _local_package_imports(tree) == []


def test_scan_catches_a_package_import_inside_a_function():
    # the odd-p branch of an older ffield.canonical_modulus (its line 143),
    # which imported fpoly, itself an importer of ffield
    src = ("import functools\n"
           "from .errors import require\n"
           "def canonical_modulus(p, m):\n"
           "    import random\n"
           "    if p != 2:\n"
           "        from .fpoly import UPoly, is_irreducible\n"
           "    def helper():\n"
           "        import joubert2.fpoly\n"
           "    return functools, require, random, helper\n")
    assert _local_package_imports(ast.parse(src)) == [6, 8]


def _mulmod_imports(tree: ast.Module) -> list[int]:
    """Line numbers of imports of `_mulmod` from fastscan and of reads of
    `fastscan._mulmod`: the scalar set-up product stays inside fastscan, and
    every other module takes its products from `ClmulOps`."""
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == "fastscan"
                and any(a.name == "_mulmod" for a in node.names)):
            lines.add(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "_mulmod"
              and isinstance(node.value, ast.Name)
              and node.value.id == "fastscan"):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "fastscan"],
                         ids=lambda p: p.name)
def test_only_fastscan_uses_its_scalar_product(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _mulmod_imports(tree) == []


def test_scan_catches_an_import_of_the_scalar_product():
    # the import of an older ascurve (its line 31), and a read by attribute;
    # ffield's own _mulmod is a different function
    src = ("from .fastscan import (CHUNK, ExtScan,\n"
           "                       _mulmod, _sample)\n"
           "from .ffield import _mulmod as scalar_mulmod\n"
           "from joubert2.fastscan import _mulmod\n"
           "from . import fastscan\n"
           "mul = fastscan._mulmod\n")
    assert _mulmod_imports(ast.parse(src)) == [1, 4, 6]


def _package_imports(tree: ast.Module) -> set[str]:
    """Names of the package modules a module imports, relatively or as
    joubert2.<name>."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "joubert2":
                    continue
                parts = parts[1:]
            # `from . import m` and `from joubert2 import m` name the module
            out |= ({parts[0]} if parts and parts[0]
                    else {a.name for a in node.names})
        elif isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names
                    if a.name.startswith("joubert2.")}
    return out


def test_cubic_form_is_independent_of_the_sweeps():
    # the cubic form's gathers share no code with the vector kernels or
    # the curve census
    tree = ast.parse((ROOT / "src" / "joubert2" / "cubic.py").read_text())
    assert not _package_imports(tree) & {"fastscan", "ascurve"}


def test_scan_catches_a_sweep_import():
    src = ("from . import jsearch, fastscan\n"
           "from .ascurve import curve_census\n"
           "import joubert2.ffield\n"
           "from joubert2 import gflinalg\n"
           "from joubert2.sigma import is_joubert\n"
           "import numpy as np\n")
    assert _package_imports(ast.parse(src)) == {
        "jsearch", "fastscan", "ascurve", "ffield", "gflinalg", "sigma"}


# functions of the package that no program module references, each with the
# reason it stays
_UNREFERENCED_OK = {
    "parse_json": "README: manifest parse",
    "evaluate": "README: polynomial evaluation",
}


def _references(tree: ast.Module, strings: bool = True) -> set[str]:
    """Names, attributes and (with `strings`) string constants read anywhere
    in the module, except inside a function of the same name, so that
    recursion does not count; a string constant counts for getattr-by-name
    tables."""
    out = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            name = node.value
        else:
            name = None
        if name is not None and name not in enclosing:
            out.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return out


def _unreferenced_functions(defining: dict[str, ast.Module],
                            referencing: list[ast.Module],
                            code_only: list[ast.Module] = ()) -> list[str]:
    """module:line:name of each function or method in `defining` that no
    tree in `referencing` names, and no tree in `code_only` names outside a
    string constant, dunder methods and exemptions aside."""
    used = set().union(*map(_references, referencing),
                       *(_references(t, strings=False) for t in code_only))
    out = []
    for module, tree in defining.items():
        for fn in ast.walk(tree):
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (fn.name.startswith("__")
                             and fn.name.endswith("__"))
                    and fn.name not in used
                    and fn.name not in _UNREFERENCED_OK):
                out.append(f"{module}:{fn.lineno}:{fn.name}")
    return out


def _parse_all(paths) -> list[ast.Module]:
    return [ast.parse(p.read_text(), filename=str(p)) for p in paths]


def test_every_function_is_referenced_from_the_program():
    # perfbench reads the package through code; the names in its tracing
    # tables are strings and do not keep a function alive
    package = sorted((ROOT / "src" / "joubert2").glob("*.py"))
    trees = _parse_all(package)
    scripts = _parse_all((ROOT / "scripts").glob("*.py"))
    bench = _parse_all((ROOT / "perfbench").glob("*.py"))
    defining = {p.name: t for p, t in zip(package, trees)}
    assert _unreferenced_functions(defining, trees + scripts, bench) == []


# functions of the package that only perfbench names, each with the reason
# it stays
_BENCH_ONLY = {
    "build_tables": "FieldDesc.build_tables, a no-op that micro.py and "
                    "workloads.py call, until the benchmark revision",
    "strip_timing": "the manifest normalization of the registry workload",
}


def test_bench_only_functions_are_pinned():
    # without perfbench as a reader, exactly these lose their last reference
    package = sorted((ROOT / "src" / "joubert2").glob("*.py"))
    trees = _parse_all(package)
    scripts = _parse_all((ROOT / "scripts").glob("*.py"))
    defining = {p.name: t for p, t in zip(package, trees)}
    unread = _unreferenced_functions(defining, trees + scripts)
    assert {entry.rsplit(":", 1)[1] for entry in unread} == set(_BENCH_ONLY)


def test_scan_catches_an_unreferenced_function():
    src = ("__all__ = ['exported']\n"
           "def exported(): pass\n"
           "def called(): pass\n"
           "def by_name(): pass\n"
           "def recursive(n):\n"
           "    return recursive(n - 1) if n else 0\n"
           "def parse_json(): pass\n"
           "class C:\n"
           "    def __eq__(self, o): return True\n"
           "    def method(self): pass\n"
           "    def used(self): return self.method\n"
           "TABLE = [called, 'by_name']\n")
    tree = ast.parse(src)
    assert _unreferenced_functions({"m.py": tree}, [tree]) == [
        "m.py:5:recursive", "m.py:11:used"]
    # a code-only reader keeps `used` alive, but not `recursive`, which it
    # names only in a string
    bench = ast.parse("TRACED = ['recursive']\nm.C().used()\n")
    assert _unreferenced_functions({"m.py": tree}, [tree], [bench]) == [
        "m.py:5:recursive"]


def _fastscan_names(tree: ast.Module) -> set[str]:
    """The names a module imports from fastscan."""
    return {a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[-1] == "fastscan"
            for a in node.names}


def test_the_audit_takes_only_clmul_ops_from_fastscan():
    # joubert_mask takes its conjugates and products from its own ClmulOps
    # instance: no LinearMap, window table or Tower enters the audit
    tree = ast.parse((ROOT / "src" / "joubert2" / "sigma.py").read_text())
    assert _fastscan_names(tree) == {"ClmulOps"}


def test_the_sweep_takes_no_tower_coordinates():
    # the L_0 sweep reaches the Tower only through Gf2Scan.cube, in packed
    # canonical coordinates: jsearch imports no tower class or map from
    # fastscan and reads no tower attribute
    tree = ast.parse((ROOT / "src" / "joubert2" / "jsearch.py").read_text())
    names = _fastscan_names(tree) | {node.attr for node in ast.walk(tree)
                                     if isinstance(node, ast.Attribute)}
    assert "ExtScan" in names and "cube" in names
    assert not [name for name in names if "tower" in name.lower()]


def _names_read_in(tree: ast.Module, function: str) -> set[str]:
    """Names and attributes read anywhere in the named top-level function."""
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == function)
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(fn)
            if isinstance(n, (ast.Name, ast.Attribute))}


_CONJUGATE_ROUTE = {"conjugates", "min_poly", "frob_val", "frob_iter_val",
                    "_frob"}


def test_the_determinant_route_takes_no_conjugates():
    # char_poly_det reads the multiplication matrix and field operations
    # only, so it stays a route independent of char_poly
    tree = ast.parse((ROOT / "src" / "joubert2" / "fpoly.py").read_text())
    names = _names_read_in(tree, "char_poly_det")
    assert {"rel_coordinates", "inv_val"} <= names
    assert not names & _CONJUGATE_ROUTE


def test_scan_catches_a_conjugate_in_the_determinant_route():
    src = ("def char_poly_det(y, ext):\n"
           "    orbit = conjugates(y, ext)\n"
           "    return ext._frob(y.val), ext.frob_iter_val(y.val, 2)\n"
           "def char_poly(y, ext):\n"
           "    return min_poly(y, ext)\n")
    assert _names_read_in(ast.parse(src), "char_poly_det") & _CONJUGATE_ROUTE \
        == {"conjugates", "_frob", "frob_iter_val"}
