"""Every module-level import in the package is used.

No linter ships with the project, so this reads each module with `ast`: a
name bound by a module-level import (also under `if TYPE_CHECKING:`) must
appear in the module as a name, the base of an attribute, or inside a string
annotation.  `__init__.py` re-exports and `from __future__` are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "planecurves"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of each module-level import."""
    out = {}
    body = list(tree.body)
    for node in body:
        if isinstance(node, ast.If):
            body += node.body + node.orelse
        elif isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            args += [a for a in (node.args.vararg, node.args.kwarg) if a]
            annotations += [a.annotation for a in args] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used]


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_each_kind_of_use():
    source = '''
from __future__ import annotations
import os.path
import json
from typing import TYPE_CHECKING, Optional, Sequence
if TYPE_CHECKING:
    from .geometry import Profile, Unused

def f(x: "Profile") -> Optional[int]:
    return os.path.join(x)
'''
    assert unused_imports(source) == ["json (line 4)", "Sequence (line 5)", "Unused (line 7)"]


# The eliminations of `linalg` and the readings of them (rank profiles,
# kernels) stay in `linalg` and in its numpy half, `linalg_numpy`, which
# only `linalg` imports: another module asks `linalg` for a rank, a profile
# or a kernel and never runs an elimination itself.
ELIMINATIONS = {"echelon", "factor", "_eliminate", "_mod", "rref_fraction"}
LINALG = {"linalg.py", "linalg_numpy.py"}
ENGINE = "linalg_numpy"


def elimination_calls(source: str) -> list[str]:
    """The calls of an elimination routine, by name or as an attribute, and
    its imports (which would let an alias call it)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [f"{a.name} (line {node.lineno})" for a in node.names if a.name in ELIMINATIONS]
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ELIMINATIONS:
                found.append(f"{name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in LINALG], ids=lambda p: p.name)
def test_only_linalg_eliminates(path):
    assert elimination_calls(path.read_text()) == []


def engine_imports(source: str) -> list[int]:
    """The lines that import `linalg_numpy`, at any depth: as a module, from
    its package, or names from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(m.rpartition(".")[2] == ENGINE for m in modules):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "linalg.py"), ids=lambda p: p.name)
def test_only_linalg_imports_its_numpy_engine(path):
    assert engine_imports(path.read_text()) == []


def test_the_engine_check_sees_each_kind_of_import():
    source = '''
from .linalg_numpy import PLU
from . import linalg_numpy
import planecurves.linalg_numpy as engine
from planecurves.linalg_numpy import factor
def f():
    from .linalg_numpy import lift_kernel
from .linalg import rank, numpy_rank
import numpy
'''
    assert engine_imports(source) == [2, 3, 4, 5, 7]


def test_the_elimination_check_sees_each_kind_of_call():
    source = '''
from . import linalg
from .linalg import echelon as reduce
a = linalg.factor(b, p)
e = echelon(rows, p)
linalg._mod(b, p).copy()
parse_factor()
factor.genus
'''
    assert elimination_calls(source) == [
        "echelon (line 3)", "factor (line 4)", "echelon (line 5)", "_mod (line 6)"]
