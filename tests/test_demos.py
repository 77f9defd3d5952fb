"""Every demo script, and README's library tour, runs against the in-tree package."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour():
    """The tour runs, and each expression line gives the value in its comment."""
    readme = (ROOT / "README.md").read_text()
    code = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    checked = []
    for line in code.splitlines():
        expr, hash_sign, comment = line.partition("#")
        try:
            ast.parse(expr.strip(), mode="eval")
        except SyntaxError:  # a statement, such as an assignment
            continue
        if hash_sign:
            expected = eval(comment, namespace)
            assert eval(expr.strip(), namespace) == expected, line
            checked.append(expected)
    assert checked == [Fraction(12), Fraction(8), True, "PLAYER_I_WINS"]
