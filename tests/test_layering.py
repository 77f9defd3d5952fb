"""Only ``core`` knows the distance kernel's storage format.

That format is ints over the common denominator ``_scale``, ``None`` for
+infinity, and table and envelope rows in ``_index`` order.  Every other
module reads distances through the public API or core's readers ``_gaps``,
``_step_reads``, ``_hat_check`` and ``_doubleton_reader``, so a change of
format edits ``core`` alone.  This test parses each other module and fails
on any attribute of the format and on any import of a private kernel
function.  ``_copy`` and ``_adjoin`` stay allowed: they are the
running-metric API.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "floppymetrics"
FORMAT_ATTRIBUTES = {"_table", "_dist", "_rows", "_index", "_scale"}
KERNEL_FUNCTIONS = {"_check", "_sweep", "_envelope_rows", "_lifted", "_relax_through", "_all_pairs_shortest",
                    "_index_of"}
OTHER_MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "core.py")


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
