"""Count the lines of the package sources: raw lines and code lines.

A code line holds a token other than a comment, a newline, an indent or
a dedent, and is not part of the docstring of a module, class or
function; a string token spanning several lines holds each of them.

    python tools/src_lines.py [DIR]

DIR defaults to src/ beside this script's directory.  Prints one row per
module and a total; uses only the standard library.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(text: str) -> tuple[int, int]:
    """(raw lines, code lines) of one Python source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            code.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(text.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    rows = [(p.relative_to(root).as_posix(), *count(p.read_text(encoding="utf-8")))
            for p in sorted(root.rglob("*.py"))]
    width = max([len(name) for name, _, _ in rows] + [5])
    print(f"{'module':<{width}}  {'raw':>6}  {'code':>6}")
    for name, raw, code in rows:
        print(f"{name:<{width}}  {raw:>6,}  {code:>6,}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>6,}  {sum(r[2] for r in rows):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
