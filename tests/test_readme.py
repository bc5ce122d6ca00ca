"""The README's library quick tour runs as written, and the values its
comments quote are the ones it prints."""

import ast
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"

#: A comment quoting a scalar result, e.g. "# 0.43507... at ...".
QUOTED_SCALAR = re.compile(r"#\s*(-?\d+\.\d+)\.\.\.")


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_tour_runs_and_matches_its_comments():
    source = _quick_tour()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        quoted = QUOTED_SCALAR.search(lines[node.end_lineno - 1])
        if quoted and isinstance(value, float):
            assert repr(value).startswith(quoted.group(1)), (lines[node.end_lineno - 1], value)
            checked += 1
    assert checked >= 4
