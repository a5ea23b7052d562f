"""Only `stats` reads a pair-kernel result: no other module of the package
imports a private name of `stats` (`_pair_keys`, `_ordered`, ...), takes
one as an attribute of it, or reads a private member of a `SetContext`.
Only `evaluate` and `verify_suite` build an `InequalityReport`: the registry
entries return numbers.  Only the factory `_bound` calls `_ratio`, so every
rendered bound is a row of the registry, and every entry but CS-SUBS and
LEMMA3 is a row of `_bound` or of `_exact`.  Every registry entry is a
function of the context alone, but for CS-SUBS's subsets A1 and A2.  No
function imports a sibling module: the modules import each other at their
top, so an import cycle fails at import time.
The third-party modules the package imports are exactly the runtime
dependencies `pyproject.toml` declares.  Only `exactset` and `_approx` use
`math.lcm`, and only `exactset` `json.dumps`.  The σ kernels of `counting`
count in integers and build a `Fraction` only in a return statement."""

import ast
import inspect
import re
import sys
from pathlib import Path

import pytest

from sumprod.verify import REGISTRY

SRC = Path(__file__).resolve().parent.parent / "src" / "sumprod"


def context_private_members() -> set[str]:
    """The private methods and attributes of `stats.SetContext`."""
    tree = ast.parse((SRC / "stats.py").read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "SetContext")
    names = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
    names |= {n.attr for n in ast.walk(cls) if isinstance(n, ast.Attribute)
              and isinstance(n.value, ast.Name) and n.value.id == "self"}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def private_stats_names(source: str, members=frozenset()) -> set[str]:
    """Private names of `stats` that a module imports or reads as `stats._name`,
    and the names in members that it reads as an attribute of anything."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "stats":
            found |= {a.name for a in node.names if a.name.startswith("_")}
        elif isinstance(node, ast.Attribute) and (node.attr in members or (
                node.attr.startswith("_") and isinstance(node.value, ast.Name)
                and node.value.id == "stats")):
            found.add(node.attr)
    return found


def test_the_checker_sees_both_kinds_of_reach():
    assert private_stats_names("from .stats import _pair_keys, energy") == {"_pair_keys"}
    assert private_stats_names("from sumprod.stats import _window") == {"_window"}
    assert private_stats_names("from . import stats\nstats._ordered(r)") == {"_ordered"}
    assert private_stats_names("from .stats import SetContext\nctx.fibers()") == set()
    members = context_private_members()
    assert {"_result", "_kernel"} <= members
    assert private_stats_names("ctx._result('div')[0]", members) == {"_result"}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "stats.py"),
                         ids=lambda p: p.name)
def test_no_module_but_stats_reaches_a_private_stats_name(path):
    found = private_stats_names(path.read_text(encoding="utf-8"), context_private_members())
    assert not found, f"{path.name} reaches the stats internals {sorted(found)}"


REPORT_BUILDERS = {"evaluate", "verify_suite"}


def callers(source: str, *names: str) -> set[str]:
    """The top-level definitions of a module (``<module>`` for the rest) that
    call one of the names, bare or as an attribute."""
    found = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            ) in names:
                found.add(getattr(top, "name", "<module>"))
    return found


def report_builders(source: str) -> set[str]:
    """The top-level definitions that construct an `InequalityReport` or call `_digest`."""
    return callers(source, "InequalityReport", "_digest")


def test_the_checker_sees_every_report_builder():
    assert report_builders("def entry(ctx, p):\n    return InequalityReport(id='X')") == {"entry"}
    assert report_builders("def f():\n    def g():\n        return _digest(A)") == {"f"}
    assert report_builders("R = {'X': lambda c, p: verify.InequalityReport()}") == {"<module>"}
    assert report_builders("def entry(ctx, p):\n    return _explicit(1, 2)") == set()


def test_only_evaluate_and_verify_suite_build_reports():
    found = report_builders((SRC / "verify.py").read_text(encoding="utf-8"))
    assert found <= REPORT_BUILDERS, f"{sorted(found - REPORT_BUILDERS)} build reports"


RATIO_CALLERS = {"_bound"}


def test_the_checker_sees_every_ratio_caller():
    source = ("def _bound(*factors):\n    def entry(ctx, p):\n        return _ratio(1, [])\n"
              "    return entry\n"
              "def _er(ctx, p):\n    return verify._ratio(ctx.Ep, [])\n"
              "R = {'X': lambda ctx, p: _ratio(ctx.Ex, [])}\n"
              "def _ratio(lhs, factors):\n    return product_pow(factors)\n")
    assert callers(source, "_ratio") == {"_bound", "_er", "<module>"}
    assert callers("def _prev(ctx, p):\n    return _explicit(1, 2)", "_ratio") == set()


def test_only_the_bound_factory_calls_ratio():
    found = callers((SRC / "verify.py").read_text(encoding="utf-8"), "_ratio")
    assert found <= RATIO_CALLERS, f"{sorted(found - RATIO_CALLERS)} call _ratio"


#: the entries that are functions of their own, not rows of a factory
ENTRY_FUNCTIONS = {"CS-SUBS", "LEMMA3"}


def test_every_other_entry_is_a_row_of_a_factory():
    rows = {"_bound.<locals>.entry", "_exact.<locals>.entry"}
    found = {rid: entry.__qualname__ for rid, entry in REGISTRY.items()
             if rid not in ENTRY_FUNCTIONS and entry.__qualname__ not in rows}
    assert not found, f"entries that are not rows: {found}"


def test_registry_entries_take_the_context_and_no_setting():
    for rid, entry in REGISTRY.items():
        params = inspect.signature(entry).parameters.values()
        required = [p.name for p in params if p.default is p.empty]
        optional = {p.name: p.default for p in params if p.default is not p.empty}
        assert len(required) == 1, f"{rid} requires {required}"
        assert optional == ({"A1": None, "A2": None} if rid == "CS-SUBS" else {}), rid


def function_level_imports(source: str) -> set[str]:
    """The functions of a module that import a `sumprod` module in their body."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "sumprod"):
                found.add(fn.name)
            elif isinstance(node, ast.Import) and any(
                    a.name.split(".")[0] == "sumprod" for a in node.names):
                found.add(fn.name)
    return found


def test_the_checker_sees_every_function_level_import():
    assert function_level_imports("def f():\n    from . import verify") == {"f"}
    assert function_level_imports("def f():\n    from .explore import g") == {"f"}
    assert function_level_imports("class C:\n    def m(self):\n        import sumprod.stats") \
        == {"m"}
    assert function_level_imports("def f():\n    def g():\n        from sumprod import x") \
        == {"f", "g"}
    assert function_level_imports("from .stats import SetContext\nimport json") == set()
    assert function_level_imports("def f():\n    import json") == set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_imports_a_sibling_module(path):
    found = function_level_imports(path.read_text(encoding="utf-8"))
    assert not found, f"{path.name}: {sorted(found)} import a sumprod module"


def third_party_imports(source: str) -> set[str]:
    """The top-level names of the absolute imports of a module that are
    neither in the standard library nor `sumprod` itself."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"sumprod"}


def declared_dependencies(pyproject: dict) -> set[str]:
    """The distribution names in `[project] dependencies`, without versions,
    extras or markers."""
    return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
            for d in pyproject["project"]["dependencies"]}


def test_the_checker_sees_every_third_party_import():
    assert third_party_imports("import numpy as np\nimport json, os.path") == {"numpy"}
    assert third_party_imports("from mpmath import mp\nfrom .stats import x") == {"mpmath"}
    assert third_party_imports("def f():\n    import scipy.linalg") == {"scipy"}
    assert third_party_imports("from __future__ import annotations\n"
                               "from sumprod.stats import x\nimport decimal") == set()
    assert declared_dependencies({"project": {"dependencies": [
        "numpy>=1.24", "Foo-Bar[fast] ; python_version >= '3.10'", "tomli"]}}) \
        == {"numpy", "foo_bar", "tomli"}


def test_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")
    imported = set().union(*(third_party_imports(p.read_text(encoding="utf-8"))
                             for p in SRC.rglob("*.py")))
    declared = declared_dependencies(
        tomllib.loads((SRC.parent.parent / "pyproject.toml").read_text(encoding="utf-8")))
    assert imported == declared, (f"imported but not declared: {sorted(imported - declared)}; "
                                  f"declared but not imported: {sorted(declared - imported)}")


def uses_of(source: str, module: str, name: str) -> int:
    """How often a module imports `name` from `module` or reads it as `module.name`."""
    found = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            found += sum(a.name == name for a in node.names)
        elif (isinstance(node, ast.Attribute) and node.attr == name
              and isinstance(node.value, ast.Name) and node.value.id == module):
            found += 1
    return found


def test_the_checker_sees_every_use_of_a_name():
    assert uses_of("from math import comb, lcm", "math", "lcm") == 1
    assert uses_of("import math\nm = math.lcm(2, 3)", "math", "lcm") == 1
    assert uses_of("from math import gcd\nlcm = 1", "math", "lcm") == 0
    assert uses_of("import json\njson.dumps(x)\njson.loads(s)", "json", "dumps") == 1
    assert uses_of("from json import dumps, loads", "json", "dumps") == 1
    assert uses_of("from .exactset import canonical_json\ncanonical_json(x)",
                   "json", "dumps") == 0


#: each exact-arithmetic primitive is written in one module: the joint scaling
#: of sets and the canonical JSON in `exactset`, exponent denominators in `_approx`
PRIMITIVE_OWNERS = {("math", "lcm"): {"exactset.py", "_approx.py"},
                    ("json", "dumps"): {"exactset.py"}}


@pytest.mark.parametrize("module, name", sorted(PRIMITIVE_OWNERS), ids=".".join)
def test_each_primitive_lives_in_its_own_module(module, name):
    owners = PRIMITIVE_OWNERS[(module, name)]
    users = {p.name for p in SRC.glob("*.py")
             if uses_of(p.read_text(encoding="utf-8"), module, name)}
    assert users <= owners, f"{sorted(users - owners)} use {module}.{name}"


SIGMA_KERNELS = ("_line_candidates", "_sigma_lines", "_sigma_incidences")


def fraction_builders(source: str, *names: str) -> set[str]:
    """The named top-level functions that call `Fraction` outside a return statement."""
    found = set()
    for fn in ast.parse(source).body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name in names):
            continue
        returned = {id(n) for r in ast.walk(fn) if isinstance(r, ast.Return) for n in ast.walk(r)}
        if any(isinstance(n, ast.Call) and id(n) not in returned and "Fraction" in (
                getattr(n.func, "id", None), getattr(n.func, "attr", None)) for n in ast.walk(fn)):
            found.add(fn.name)
    return found


def test_the_checker_sees_every_fraction_built_before_the_return():
    assert fraction_builders("def f(b, d):\n    return 1, Fraction(b, d)", "f") == set()
    assert fraction_builders("def f(b, d):\n    x = Fraction(b, d)\n    return x", "f") == {"f"}
    assert fraction_builders("def f(p):\n    out = [fractions.Fraction(p)]\n    return out",
                             "f") == {"f"}
    assert fraction_builders("def f(xs):\n    return min(xs)\n"
                             "def g(b):\n    return [Fraction(b)]\n"
                             "def h(b):\n    if b:\n        b = Fraction(b)\n    return b",
                             "f", "g") == set()


def test_sigma_counts_in_integers():
    found = fraction_builders((SRC / "counting.py").read_text(encoding="utf-8"), *SIGMA_KERNELS)
    assert not found, f"{sorted(found)} build a Fraction before their result"
