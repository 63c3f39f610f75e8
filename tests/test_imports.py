"""Every module in src/hankellab/ and tests/ reads each name it imports,
every module-level name src/hankellab/ assigns is read somewhere, the
package binds every name in its __all__, and the CLI loads no scipy
submodule that only a library call needs.

Stdlib ast only.  Package __init__.py files are exempt (their imports are
re-exports), and so is any import statement marked ``# noqa``.
"""

import ast
import os
import subprocess
import sys
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


def test_every_exported_name_is_bound():
    assert [name for name in hankellab.__all__
            if not hasattr(hankellab, name)] == []


def test_cli_import_leaves_scipy_interpolate_unloaded():
    # only grid.dilate and the tabulated symbols interpolate, and they
    # import scipy.interpolate themselves; the CLI start-up pays for none
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = ("import sys, hankellab.cli; "
            "print('scipy.interpolate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
