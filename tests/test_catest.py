"""The extended-table cyclic associativity test and its rendering."""

import hashlib
import random

import pytest
from hypothesis import given

from agkit import (
    Magma,
    ca_test,
    check_property,
    mul,
    parse_magma,
    render_extended_table,
    star_index_row,
)

from conftest import magmas


def _cells(segment: str) -> list[int]:
    return [int(tok.strip("[]")) for tok in segment.split()]


def _parse_render(text: str, n: int):
    """Split a rendered extended table into header/star/circle number blocks."""
    lines = text.splitlines()
    header = [_cells(seg) for seg in lines[0].split("|")[1:]]
    star_rows = [
        [_cells(seg) for seg in lines[2 + a].split("|")[1:]] for a in range(n)
    ]
    label_line = lines[3 + n]
    circle_rows = [
        [_cells(seg) for seg in lines[4 + n + a].split("|")[2:]] for a in range(n)
    ]
    return header, star_rows, label_line, circle_rows


def test_star_and_circle_definitions():
    m = parse_magma("3:0,1,2,2,0,1,1,2,0")
    report = ca_test(m)
    n = m.order
    for x in range(n):
        for a in range(n):
            for b in range(n):
                assert report.star_tables[x][a * n + b] == mul(m, a, mul(m, b, x))
                assert report.circle_tables[x][a * n + b] == mul(m, x, mul(m, a, b))


@given(magmas(max_order=4))
def test_verdict_equals_direct_triple_scan(m):
    report = ca_test(m)
    n = m.order
    direct = all(
        mul(m, a, mul(m, b, c)) == mul(m, c, mul(m, a, b))
        for a in range(n) for b in range(n) for c in range(n)
    )
    assert report.verdict == direct
    assert report.verdict == check_property(m, "cyclic_associative").holds


def test_verdict_on_fixtures(fixture_map):
    for m in fixture_map.values():
        report = ca_test(m)
        assert report.verdict == check_property(m, "cyclic_associative").holds
        if report.verdict:
            assert report.first_mismatch is None
            assert report.star_tables == report.circle_tables
        else:
            x, a, b = report.first_mismatch
            assert report.star_tables[x][a * m.order + b] != report.circle_tables[x][a * m.order + b]


def test_first_mismatch_is_lex_first(fixture_map):
    report = ca_test(fixture_map["table4"])
    assert not report.verdict
    assert report.first_mismatch == (1, 2, 2)


def test_star_index_row_is_base_column():
    m = parse_magma("3:0,1,2,2,0,1,1,2,0")
    for x in range(3):
        assert star_index_row(m, x) == tuple(mul(m, a, x) for a in range(3))


def test_report_order_mismatch_rejected():
    m3 = parse_magma("3:0,0,0,0,0,0,0,1,0")
    m2 = parse_magma("2:0,0,0,0")
    report = ca_test(m3)
    with pytest.raises(ValueError):
        render_extended_table(m2, report)


def test_render_structure_coincides_when_ca(fixture_map):
    m = fixture_map["table3"]
    n = m.order
    report = ca_test(m)
    text = render_extended_table(m, report)
    assert "[" not in text
    header, star_rows, label_line, circle_rows = _parse_render(text, n)
    # header: base column labels then one star index row per x
    assert header[0] == list(range(1, n + 1))
    for x in range(n):
        assert header[1 + x] == [v + 1 for v in star_index_row(m, x)]
    # star body equals the star tables, circle body the circle tables
    for a in range(n):
        assert star_rows[a][0] == [m.table[a * n + b] + 1 for b in range(n)]
        for x in range(n):
            assert star_rows[a][1 + x] == [
                report.star_tables[x][a * n + b] + 1 for b in range(n)
            ]
            assert circle_rows[a][x] == [
                report.circle_tables[x][a * n + b] + 1 for b in range(n)
            ]
    # the two bands coincide for a cyclic associative magma
    for a in range(n):
        assert star_rows[a][1:] == circle_rows[a]
    # circle band is headed by the x labels
    labels = [seg.strip() for seg in label_line.split("|")[2:]]
    assert labels == [str(x + 1) for x in range(n)]


def test_render_marks_mismatch_cells(fixture_map):
    m = fixture_map["table4"]
    n = m.order
    report = ca_test(m)
    text = render_extended_table(m, report)
    header, star_rows, label_line, circle_rows = _parse_render(text, n)
    # marked cells appear bracketed in both bands at the same positions
    for x in range(n):
        for a in range(n):
            for b in range(n):
                differs = (
                    report.star_tables[x][a * n + b]
                    != report.circle_tables[x][a * n + b]
                )
                star_line = text.splitlines()[2 + a]
                star_seg = star_line.split("|")[2 + x]
                has_mark = "[" in star_seg.split()[b]
                assert has_mark == differs
    # numeric content still matches the report
    for a in range(n):
        for x in range(n):
            assert star_rows[a][1 + x] == [
                report.star_tables[x][a * n + b] + 1 for b in range(n)
            ]
            assert circle_rows[a][x] == [
                report.circle_tables[x][a * n + b] + 1 for b in range(n)
            ]


def test_render_order_one():
    m = parse_magma("1:0")
    report = ca_test(m)
    assert report.verdict
    text = render_extended_table(m, report)
    assert text.splitlines()[0].startswith("·")


def _render_corpus(fixture_map) -> list[str]:
    rng = random.Random(27)
    tables = list(fixture_map.values())
    for _ in range(200):
        n = rng.randint(1, 5)
        tables.append(Magma(n, tuple(rng.randrange(n) for _ in range(n * n))))
    return [render_extended_table(m, ca_test(m)) for m in tables]


def test_render_is_pinned(fixture_map):
    """The extended tables of the bundled tables and 200 random tables of
    orders 1-5, CA and not, byte for byte."""
    text = "\n\n".join(_render_corpus(fixture_map))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "4a061cd031515798373e183429764178fe9d4111d3f24a89f4251e7297ef2900"
    )
