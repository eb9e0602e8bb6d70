"""Code outside the package that uses it: README's Library block and the
benchmark's imports."""

import ast
import importlib.util
import re
from pathlib import Path

import agkit

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_block_runs_and_its_values_hold():
    # Each statement of the block runs in order.  A comment after an
    # expression that parses as Python states the expression's value, as
    # its repr; other comments are prose.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.M | re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    checked = {}
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        _, hash_, comment = lines[stmt.end_lineno - 1].partition("#")
        comment = comment.strip()
        if not (hash_ and isinstance(stmt, ast.Expr)):
            exec(compile(ast.Module([stmt], []), "<README>", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "<README>", "eval"), namespace)
        try:
            ast.parse(comment, mode="eval")
        except SyntaxError:
            continue
        assert repr(value) == comment, source
        checked[source] = comment
    assert checked == {
        'check_property(m, "ag").holds': "True",
        'check_property(m, "cyclic_associative")': "CheckResult(holds=False, witness=(2, 1, 2))",
        "report.verdict, report.first_mismatch": "(False, (1, 2, 2))",
        'classify_census(4)["CA"]': "64",
    }


def test_benchmark_imports_only_public_names():
    # perfbench/ may import from agkit what __all__ lists, and submodules.
    imported = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "agkit":
                imported.update((path.name, alias.name) for alias in node.names)
    assert {name for _, name in imported} >= {"classify", "verify_claims", "cli"}
    for filename, name in sorted(imported):
        public = name in agkit.__all__ or importlib.util.find_spec(f"agkit.{name}") is not None
        assert public, f"perfbench/{filename} imports {name}, which agkit does not export"
