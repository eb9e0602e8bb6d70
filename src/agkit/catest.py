"""The star/circle test for cyclic associativity.

For each fixed x the star table holds a*b = a(bx) and the circle table
holds a*b = x(ab); the magma satisfies a(bc) = c(ab) exactly when the two
tables coincide for every x, because fixing c = x ranges over all of S.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Magma


@dataclass(frozen=True)
class CaTestReport:
    """Per-x star and circle tables with the coincidence verdict.

    star_tables[x] and circle_tables[x] are flat row-major n*n tuples.
    first_mismatch is the lexicographically first (x, a, b) where they
    differ, or None when the verdict is true.
    """

    order: int
    star_tables: tuple[tuple[int, ...], ...]
    circle_tables: tuple[tuple[int, ...], ...]
    verdict: bool
    first_mismatch: tuple[int, int, int] | None


def star_index_row(m: Magma, x: int) -> tuple[int, ...]:
    """Column x of the base table; heads the star block for x."""
    n, t = m.order, m.table
    return tuple(t[b * n + x] for b in range(n))


def ca_test(m: Magma) -> CaTestReport:
    """Build all star/circle tables and compare them.

    The input need not satisfy the left invertive law; the verdict always
    equals the direct triple scan of a(bc) = c(ab).
    """
    n, t = m.order, m.table
    stars = []
    circles = []
    first = None
    for x in range(n):
        star = []
        circle = []
        for a in range(n):
            an = a * n
            for b in range(n):
                s = t[an + t[b * n + x]]
                c = t[x * n + t[an + b]]
                star.append(s)
                circle.append(c)
                if first is None and s != c:
                    first = (x, a, b)
        stars.append(tuple(star))
        circles.append(tuple(circle))
    return CaTestReport(n, tuple(stars), tuple(circles), first is None, first)


def render_extended_table(m: Magma, report: CaTestReport) -> str:
    """Text rendering of the extended table, 1-based.

    The base table sits top left; the star blocks for x = 1..n follow on
    the same band, each headed by the x-column of the base table; the
    circle blocks sit beneath, labeled by x.  Cells where the bands
    disagree are bracketed in both bands.
    """
    if report.order != m.order:
        raise ValueError("report does not belong to this magma")
    n, t = m.order, m.table
    star, circle = report.star_tables, report.circle_tables
    w = len(str(n))
    cw = w if report.verdict else w + 2
    blockw = n * cw + (n - 1)
    gut = w

    def cell(v: int, mark: bool = False) -> str:
        s = f"[{v + 1}]" if mark else str(v + 1)
        return s.rjust(cw)

    def block(values) -> str:
        return " ".join(cell(v) for v in values)

    def row_of(values, a: int):
        return values[a * n:(a + 1) * n]

    def band_row(values, other, a: int) -> str:
        """Row a of one band, bracketing the cells that differ in the other."""
        return " ".join(cell(v, v != o) for v, o in zip(row_of(values, a), row_of(other, a)))

    rule = "-+-".join(["-" * gut] + ["-" * blockw] * (n + 1))
    blank_gut = " " * gut
    blank_block = " " * blockw

    lines = []
    header = [("·").rjust(gut), block(range(n))]
    header += [block(star_index_row(m, x)) for x in range(n)]
    lines.append(" | ".join(header))
    lines.append(rule)
    for a in range(n):
        parts = [str(a + 1).rjust(gut), block(row_of(t, a))]
        parts += [band_row(star[x], circle[x], a) for x in range(n)]
        lines.append(" | ".join(parts))
    lines.append(rule)
    labels = [blank_gut, blank_block] + [str(x + 1).center(blockw) for x in range(n)]
    lines.append(" | ".join(labels))
    for a in range(n):
        parts = [blank_gut, blank_block]
        parts += [band_row(circle[x], star[x], a) for x in range(n)]
        lines.append(" | ".join(parts))
    lines.append(rule)
    return "\n".join(line.rstrip() for line in lines)
