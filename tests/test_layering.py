"""Only ``core`` knows the distance kernel's storage format.

That format is ints over the common denominator ``_scale``, ``None`` for
+infinity, and table and envelope rows in ``_index`` order (``_at`` reads
one label's index).  Every other module reads distances through the public
API or the metric's own reads ``_hat``, ``_envelope``, ``_dd``,
``_denominator``, ``_step_pairs`` and ``_gaps``, so a change of format edits
``core`` alone.  This test parses each other module and fails on any
attribute of the format and on any import of a private kernel function.
``_copy`` and ``_adjoin`` stay allowed: they are the running-metric API.

Imports run one way down the layers: each module imports only modules
earlier in ``LAYERS``, and no function or method imports anything, so every
import is at the module's top.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "floppymetrics"
FORMAT_ATTRIBUTES = {"_table", "_dist", "_rows", "_index", "_scale", "_at"}
KERNEL_FUNCTIONS = {"_check", "_sweep", "_envelope_rows", "_lifted", "_relax_through", "_all_pairs_shortest"}
OTHER_MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "core.py")
LAYERS = ["errors", "core", "extension", "generators", "glue", "game", "serialize", "cli"]
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_core_still_defines_every_guarded_name():
    """The guarded names are core's own and the other modules are found, so the check below cannot pass vacuously."""
    names = {node.attr for node in ast.walk(_tree(PACKAGE / "core.py")) if isinstance(node, ast.Attribute)}
    names |= {node.name for node in ast.walk(_tree(PACKAGE / "core.py")) if isinstance(node, ast.FunctionDef)}
    assert FORMAT_ATTRIBUTES | KERNEL_FUNCTIONS <= names
    assert OTHER_MODULES


@pytest.mark.parametrize("path", OTHER_MODULES, ids=lambda p: p.name)
def test_reads_no_kernel_format(path):
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Attribute) and node.attr in FORMAT_ATTRIBUTES:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            found += [f"line {node.lineno}: imports {a.name}" for a in node.names if a.name in KERNEL_FUNCTIONS]
    assert not found, f"{path.name} reads the kernel format outside core: {found}"


def _package_imports(statement):
    """The package modules an import statement names: ``from .x import ...``, ``from . import x`` or absolute."""
    if isinstance(statement, ast.ImportFrom) and statement.level == 1:
        return [statement.module] if statement.module else [a.name for a in statement.names]
    if isinstance(statement, ast.ImportFrom) and (statement.module or "").startswith("floppymetrics"):
        return [statement.module.split(".")[1]] if "." in statement.module else [a.name for a in statement.names]
    if isinstance(statement, ast.Import):
        return [a.name.split(".")[1] for a in statement.names if a.name.startswith("floppymetrics.")]
    return []


def test_layers_name_every_module():
    assert sorted(LAYERS) == sorted(p.stem for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    found = [f"line {node.lineno}: {fn.name}"
             for fn in ast.walk(_tree(path)) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, f"{path.name} imports inside a function: {found}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_earlier_layers(path):
    rank = LAYERS.index(path.stem)
    found = [f"line {node.lineno}: {name}" for node in ast.walk(_tree(path)) for name in _package_imports(node)
             if name not in LAYERS[:rank]]
    assert not found, f"{path.name} imports a module that is not in an earlier layer: {found}"
