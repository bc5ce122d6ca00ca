"""The README's library quick tour runs as written, and the values its
comments quote are the ones it prints."""

import ast
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"

#: A comment quoting a scalar result, e.g. "# 0.43507... at ...".
QUOTED_SCALAR = re.compile(r"#\s*(-?\d+\.\d+)\.\.\.")

#: A comment quoting a batch's column, e.g. "# [0.019806..., 0.017229...]".
QUOTED_COLUMN = re.compile(r"#\s*\[((?:-?\d+\.\d+\.\.\.(?:, )?)+)\]")


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_tour_runs_and_matches_its_comments():
    source = _quick_tour()
    lines = source.splitlines()
    namespace: dict = {}
    checked = columns = 0
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        line = lines[node.end_lineno - 1]
        quoted = QUOTED_SCALAR.search(line)
        if quoted and isinstance(value, float):
            assert repr(value).startswith(quoted.group(1)), (line, value)
            checked += 1
        quoted = QUOTED_COLUMN.search(line)
        if quoted:
            prefixes = [q.removesuffix("...") for q in quoted.group(1).split(", ")]
            assert isinstance(value, list) and len(value) == len(prefixes), (line, value)
            for prefix, v in zip(prefixes, value):
                assert repr(v).startswith(prefix), (line, value)
            columns += 1
    assert checked >= 4
    assert columns >= 3
