"""Finite magmas as Cayley tables: value type, parsing, rendering."""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

_INLINE = re.compile(r"^\s*[0-9]+\s*:")


class ParseError(ValueError):
    """Raised when a magma encoding cannot be parsed."""


@dataclass(frozen=True)
class Magma:
    """A finite magma on elements 0..order-1 with a row-major Cayley table.

    table[a * order + b] is the product a*b; the left operand is the row.
    Immutable after construction, so instances are safe to share between
    worker processes and to use as dict keys.
    """

    order: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.order
        if n < 1:
            raise ValueError(f"order must be >= 1, got {n}")
        if not isinstance(self.table, tuple):
            object.__setattr__(self, "table", tuple(self.table))
        if len(self.table) != n * n:
            raise ValueError(
                f"table has {len(self.table)} entries, expected {n * n} for order {n}"
            )
        for i, e in enumerate(self.table):
            # type(), not isinstance(), which would admit bool entries.
            if type(e) is not int or not 0 <= e < n:
                raise ValueError(f"table entry {e!r} at position {i + 1} not in 0..{n - 1}")


def mul(m: Magma, a: int, b: int) -> int:
    """Product a*b by table lookup."""
    n = m.order
    if not (0 <= a < n and 0 <= b < n):
        raise IndexError(f"pair ({a},{b}) out of range for order {n}")
    return m.table[a * n + b]


def parse_magma(text: str) -> Magma:
    """Parse the compact encoding "n:e1,e2,...,e(n^2)" with 0-based entries.

    The order and the entries are written in the ASCII digits 0-9 only;
    spaces around tokens are tolerated.  Raises ParseError naming the
    offending token position (1-based) on malformed input.
    """
    head, sep, body = text.partition(":")
    if not sep:
        raise ParseError("expected 'n:e1,e2,...', missing ':'")
    head = head.strip()
    if not (head.isascii() and head.isdigit()):
        raise ParseError(f"order {head!r} is not written in the digits 0-9")
    n = int(head)
    if n < 1:
        raise ParseError(f"order must be >= 1, got {n}")
    tokens = body.split(",")
    if len(tokens) != n * n:
        raise ParseError(f"expected {n * n} entries for order {n}, got {len(tokens)}")
    entries = []
    for i, tok in enumerate(tokens):
        s = tok.strip()
        if not (s.isascii() and s.isdigit()):
            raise ParseError(f"entry {i + 1} ({s!r}) is not written in the digits 0-9")
        e = int(s)
        if e >= n:
            raise ParseError(f"entry {i + 1} ({e}) not in 0..{n - 1}")
        entries.append(e)
    return Magma(n, tuple(entries))


def render_magma(m: Magma) -> str:
    """The compact encoding "n:e1,...", the exact inverse of parse_magma.

    The one grid the program prints is ca-test --render's extended table.
    """
    return f"{m.order}:" + ",".join(str(e) for e in m.table)


def read_magmas(source: str | Path | Iterable[str]) -> list[Magma]:
    """Read magmas, one compact encoding per line, from any table source.

    A str is "-" for standard input, an inline "n:e1,..." encoding or a
    file path, once one leading UTF-8 byte-order mark (U+FEFF) is dropped;
    an empty one is refused.  A Path is a file, Path("-") too; any other
    iterable is the lines.  Blank lines, lines starting with '#' and one
    mark before the first line are skipped; errors in files and lines
    carry the 1-based line number.
    """
    if isinstance(source, str):
        source = source.removeprefix("\ufeff")
        if not source:
            raise ParseError("empty table argument ''; give n:e1,..., a file path or -")
        if _INLINE.match(source):
            return [parse_magma(source)]
    if source == "-":
        lines = sys.stdin.read().splitlines()
    elif isinstance(source, (str, Path)):
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    else:
        lines = list(source)
    if lines:
        lines[0] = lines[0].removeprefix("\ufeff")
    out = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(parse_magma(line))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return out
