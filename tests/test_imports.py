"""Every module in src/hankellab/ and tests/ reads each name it imports,
every module-level name src/hankellab/ assigns is read somewhere, every
parameter default of its functions and static methods is both overridden
and relied on, the package binds every name in its __all__, no package
module imports scipy, a CLI run loads no scipy module, and every suite
runs with scipy unimportable.

Stdlib ast only.  Package __init__.py files are exempt (their imports are
re-exports), and so is any import statement marked ``# noqa``.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import hankellab

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src/hankellab", "tests")
                 for p in (ROOT / d).glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_unused_and_honours_noqa():
    src = ("import os\nimport sys  # noqa: F401\n"
           "from a.b import (c,\n    d)\nimport e.f\n\nprint(c, e.f)\n")
    assert sorted(unused_imports(src)) == [(1, "os"), (3, "d")]


def assigned_names(source):
    """(line, name) of each non-dunder name a module assigns at top level."""
    out = []
    for node in ast.parse(source).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not (
                        name.id.startswith("__") and name.id.endswith("__")):
                    out.append((node.lineno, name.id))
    return out


def names_read(source):
    """Names a module reads: bare names, attributes and imported names."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_module_level_name_is_read():
    read = set()
    for d in ("src", "tests", "perfbench"):
        for path in (ROOT / d).rglob("*.py"):
            read |= names_read(path.read_text())
    unread = [(path.name, line, name)
              for path in sorted((ROOT / "src/hankellab").glob("*.py"))
              for line, name in assigned_names(path.read_text())
              if name not in read]
    assert unread == []


def test_assigned_name_detector():
    src = ("A = 1\nB: int = 2\n__all__ = []\nC, (D, E) = 3, (4, 5)\n"
           "def f():\n    G = 6\n    return A, G\n")
    assert assigned_names(src) == [(1, "A"), (2, "B"), (4, "C"), (4, "D"),
                                   (4, "E")]
    assert {"A", "G"} <= names_read(src)
    assert "B" not in names_read(src)


def _defaults(fn):
    """(positional parameter names, {parameter: default node}) of fn."""
    a = fn.args
    positional = [arg.arg for arg in a.posonlyargs + a.args]
    defaults = dict(zip(positional[len(positional) - len(a.defaults):],
                        a.defaults))
    defaults.update((arg.arg, d) for arg, d in zip(a.kwonlyargs,
                                                   a.kw_defaults) if d)
    return positional, defaults


def defaulted_parameters(sources):
    """{name: (positional parameter names, {parameter: default node})} of
    each function in sources that has a default: each module-level function
    whose name no other function definition in sources shares, and each
    static method of a module-level class, named Class.method."""
    trees = [ast.parse(source) for source in sources]
    defined = Counter(node.name for tree in trees for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)))
    found = []
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, ast.FunctionDef) and defined[node.name] == 1:
            found.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{fn.name}", fn) for fn in node.body
                      if isinstance(fn, ast.FunctionDef) and any(
                          getattr(d, "id", None) == "staticmethod"
                          for d in fn.decorator_list)]
    out = {}
    for name, fn in found:
        positional, defaults = _defaults(fn)
        if defaults:
            out[name] = (positional, defaults)
    return out


def call_arguments(source, functions):
    """(name, {parameter: argument node}) for each call in source of a
    function in functions: a module-level function by bare name or
    attribute, a static method as Class.method; the dict is None when a
    *args or **kwargs argument hides which parameters the call sets."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if isinstance(node.func, ast.Attribute) and isinstance(
                node.func.value, ast.Name):
            qualified = f"{node.func.value.id}.{name}"
            name = qualified if qualified in functions else name
        if name not in functions:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                kw.arg is None for kw in node.keywords):
            yield name, None
            continue
        given = dict(zip(functions[name][0], node.args))
        given.update((kw.arg, kw.value) for kw in node.keywords)
        yield name, given


def _is_default(arg, default):
    try:
        return ast.literal_eval(arg) == ast.literal_eval(default)
    except ValueError:
        return ast.dump(arg) == ast.dump(default)


def unearned_parameters(functions, setting_sources, relying_sources):
    """(never set, never relied on): the (function, parameter) pairs of
    functions that no call in setting_sources sets to a value other than
    the default, and those that every call in relying_sources passes."""
    never_set = {(f, p) for f, (_, defaults) in functions.items()
                 for p in defaults}
    never_relied = set(never_set)
    for source in setting_sources:
        for f, given in call_arguments(source, functions):
            never_set -= {(f, p) for p, d in functions[f][1].items()
                          if given is None or (p in given and
                                               not _is_default(given[p], d))}
    for source in relying_sources:
        for f, given in call_arguments(source, functions):
            if given is not None:
                never_relied -= {(f, p) for p in functions[f][1]
                                 if p not in given}
    return never_set, never_relied


# set from outside the package: the benchmark tracer reads
# local_sobolev_norm's samples, and the console script calls main()
PARAMETER_EXEMPT = {("local_sobolev_norm", "samples"), ("main", "argv")}


def test_every_parameter_default_is_overridden_and_relied_on():
    src = [p.read_text() for p in sorted((ROOT / "src/hankellab").glob("*.py"))]
    tests = [p.read_text() for p in sorted((ROOT / "tests").glob("*.py"))]
    # the acceptance criteria and the lemma checks behind them set
    # parameters too: norm's weight and local_sobolev_norm's eta only there
    checks = [(ROOT / "tests" / name).read_text()
              for name in ("test_acceptance.py", "paper_checks.py")]
    never_set, never_relied = unearned_parameters(
        defaulted_parameters(src), src + checks, src + tests)
    assert never_set - PARAMETER_EXEMPT == set()
    assert never_relied - PARAMETER_EXEMPT == set()


def test_parameter_detector():
    src = ("def f(a, b=1, c=None, *, d=K):\n    return a\n"
           "def g(x=0):\n    return x\n"
           "class C:\n    def g(self):\n        pass\n"
           "f(1, 2, d=K)\nm.f(0, b=1, c=[], d=K)\ng()\n")
    functions = defaulted_parameters([src])
    assert {name: list(d) for name, (_, d) in functions.items()} == \
        {"f": ["b", "c", "d"]}
    assert unearned_parameters(functions, [src], [src]) == (
        {("f", "d")}, {("f", "b"), ("f", "d")})
    # a starred argument may set any parameter, and relies on none
    assert unearned_parameters(functions, ["f(*a)"], ["f(**k)"]) == (
        set(), {("f", "b"), ("f", "c"), ("f", "d")})



def test_parameter_detector_reads_static_methods_by_class():
    src = ("class C:\n    @staticmethod\n    def h(a, b=1):\n"
           "        return a\n    def k(self, c=2):\n        return c\n"
           "C.h(1)\nx.h(1, 3)\nh(1, b=3)\n")
    functions = defaulted_parameters([src])
    assert {name: list(d) for name, (_, d) in functions.items()} == \
        {"C.h": ["b"]}
    # only C.h(...) calls it: x.h and a bare h set nothing
    assert unearned_parameters(functions, [src], [src]) == (
        {("C.h", "b")}, set())
    assert unearned_parameters(functions, ["C.h(0, b=2)"], ["C.h(0, 2)"]) == (
        set(), {("C.h", "b")})


def test_every_exported_name_is_bound():
    assert [name for name in hankellab.__all__
            if not hasattr(hankellab, name)] == []


def imported_packages(source):
    """Top-level package names that a module imports, at any scope."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_import_detector_reads_every_scope():
    src = ("import numpy as np\nfrom . import x\nclass C:\n"
           "    import json\ntry:\n    from scipy.special import jv\n"
           "except ImportError:\n    pass\ndef f():\n    import os.path\n")
    assert imported_packages(src) == {"json", "numpy", "os", "scipy"}


def test_no_package_module_imports_scipy():
    # numpy is the one runtime dependency; scipy serves the tests only
    assert [path.name for path in sorted((ROOT / "src/hankellab").glob("*.py"))
            if "scipy" in imported_packages(path.read_text())] == []


def test_cli_run_loads_no_scipy_module(tmp_path):
    # in a fresh interpreter: the import builds no kernel table, and a run
    # of the four grid suites loads no scipy module
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "import hankellab.cli\n"
            "from hankellab import specfun\n"
            "print(len(specfun._TABLES))\n"
            "hankellab.cli.main(['suite', 'transform-selftest,heat-selftest,"
            "lp-probe,multiplier-check', '--n', '64', '--R', '13', "
            f"'--output', {str(tmp_path)!r}])\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert (out[0], out[-1]) == ("0", "[]")
    assert sorted(p.name for p in tmp_path.glob("report-*.json")) == [
        f"report-{suite}.json" for suite in ("heat-selftest", "lp-probe",
                                             "multiplier-check",
                                             "transform-selftest")]


def test_every_suite_runs_with_scipy_unimportable(tmp_path):
    # in a fresh interpreter that cannot import scipy: the six suites at
    # small sizes, and multiplier-check on the two symbol families that
    # interpolate a table, each reach a verdict
    table = tmp_path / "table.csv"
    table.write_text("u1,re_n,im_n\n" + "".join(
        f"{u / 4},{1.0 / (1.0 + u * u / 16)},{u / 40}\n"
        for u in range(-12, 13)))
    runs = [["suite", "all", "--n", "64", "--R", "13"],
            ["multiplier-check", "--symbol", "potential{s=1,h=bump}"],
            ["multiplier-check", "--symbol", f"tabulated{{path={table}}}"]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "import hankellab.cli\n"
            f"for i, argv in enumerate({runs!r}):\n"
            f"    out = {str(tmp_path)!r} + f'/run{{i}}'\n"
            "    print('exit', hankellab.cli.main(argv + ['--output', out]))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert "suite error" not in proc.stderr
    exits = [line for line in proc.stdout.splitlines()
             if line.startswith("exit")]
    assert len(exits) == 3 and set(exits) <= {"exit 0", "exit 1", "exit 2"}
    reports = [line.split()[:2] for i in range(3) for line in
               (tmp_path / f"run{i}" / "summary.txt").read_text()
               .splitlines()[1:]]
    assert [name for _, name in reports] == [
        "transform_selftest", "heat_selftest", "heat_gaussian_bound",
        "multiplier_check", "cz_hormander_condition",
        "h1_atom_maximal_bound", "lp_norm_probe", "weak_11_probe",
        "multiplier_check", "multiplier_check"]
    assert {verdict for verdict, _ in reports} <= {"PASS", "FAIL",
                                                    "INCONCLUSIVE"}
