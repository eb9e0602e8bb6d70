"""Magma construction, parsing, and rendering."""

import io
from pathlib import Path

import pytest
from hypothesis import given

from agkit import Magma, ParseError, mul, parse_magma, read_magmas, render_magma

from conftest import magmas


def test_magma_construction():
    m = Magma(2, (0, 1, 1, 0))
    assert m.order == 2
    assert m.table == (0, 1, 1, 0)


def test_magma_accepts_list_table():
    m = Magma(2, [0, 1, 1, 0])
    assert m.table == (0, 1, 1, 0)


def test_magma_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Magma(0, ())
    with pytest.raises(ValueError):
        Magma(2, (0, 1, 1))
    with pytest.raises(ValueError):
        Magma(2, (0, 1, 1, 2))
    with pytest.raises(ValueError):
        Magma(2, (0, 1, 1, -1))
    with pytest.raises(ValueError, match="True"):
        Magma(2, (True, False, False, True))


def test_mul_matches_table_and_bounds():
    m = parse_magma("3:0,0,0,0,1,0,0,0,2")
    assert mul(m, 1, 1) == 1
    assert mul(m, 2, 2) == 2
    assert mul(m, 2, 1) == 0
    with pytest.raises(IndexError):
        mul(m, 3, 0)
    with pytest.raises(IndexError):
        mul(m, 0, -1)


def test_parse_magma_basic_and_spaces():
    assert parse_magma("2:0,1,1,0").table == (0, 1, 1, 0)
    assert parse_magma(" 2 : 0 , 1 , 1 , 0 ").table == (0, 1, 1, 0)


def test_parse_magma_errors_carry_position():
    with pytest.raises(ParseError):
        parse_magma("banana")
    with pytest.raises(ParseError, match="entry 3"):
        parse_magma("2:0,1,7,0")
    with pytest.raises(ParseError, match="entry 2"):
        parse_magma("2:0,x,1,0")
    with pytest.raises(ParseError, match="4"):
        parse_magma("2:0,1,1")
    with pytest.raises(ParseError):
        parse_magma("0:")
    # Only the ASCII digits 0-9: no sign, no underscore, no other digits.
    for bad in ("0_1", "+1", "-0", "\u0661", ""):
        with pytest.raises(ParseError, match="entry 4"):
            parse_magma(f"2:0,1,1,{bad}")
        with pytest.raises(ParseError, match="order"):
            parse_magma(f"{bad}:0")
    assert parse_magma("02:0,1,1,00").table == (0, 1, 1, 0)


def test_compact_render_round_trips():
    text = "3:0,0,0,0,1,0,0,0,2"
    assert render_magma(parse_magma(text)) == text


@given(magmas(max_order=5))
def test_render_parse_round_trip(m):
    assert parse_magma(render_magma(m)) == m


def test_read_magmas_from_lines_and_comments():
    lines = [
        "# a comment",
        "",
        "2:0,0,0,0",
        "   # another",
        "2:0,1,1,0",
    ]
    ms = read_magmas(lines)
    assert [m.table for m in ms] == [(0, 0, 0, 0), (0, 1, 1, 0)]


def test_read_magmas_from_file(tmp_path):
    path = tmp_path / "tables.txt"
    path.write_text("# header\n2:0,0,0,0\n3:0,0,0,0,1,0,0,0,2\n")
    ms = read_magmas(str(path))
    assert [m.order for m in ms] == [2, 3]


def test_read_magmas_drops_one_leading_byte_order_mark():
    assert read_magmas(["\ufeff# header", "2:0,0,0,0"]) == [parse_magma("2:0,0,0,0")]
    assert read_magmas(["\ufeff2:0,0,0,0"]) == [parse_magma("2:0,0,0,0")]
    # Only before the first line, and only one.
    with pytest.raises(ParseError, match="line 2"):
        read_magmas(["2:0,0,0,0", "\ufeff2:0,0,0,0"])
    with pytest.raises(ParseError, match="line 1"):
        read_magmas(["\ufeff\ufeff2:0,0,0,0"])


def test_read_magmas_drops_the_mark_before_an_inline_encoding():
    text = "3:0,0,0,0,0,0,0,1,0"
    assert read_magmas("\ufeff" + text) == [parse_magma(text)]


def test_read_magmas_refuses_an_empty_string():
    # Path("") is the current directory; an empty argument names no table.
    for source in ("", "\ufeff"):
        with pytest.raises(ParseError, match="empty table argument"):
            read_magmas(source)


def test_read_magmas_dash_is_standard_input(monkeypatch, tmp_path):
    monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff# header\n2:0,0,0,0\n2:0,1,1,0\n"))
    assert read_magmas("-") == [parse_magma("2:0,0,0,0"), parse_magma("2:0,1,1,0")]
    # A Path names a file, even one called "-".
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-").write_text("1:0\n")
    assert read_magmas(Path("-")) == [parse_magma("1:0")]


def test_read_magmas_error_names_line():
    with pytest.raises(ParseError, match="line 2"):
        read_magmas(["2:0,0,0,0", "2:9,0,0,0"])


def test_read_magmas_inline_encoding():
    assert read_magmas(" 3 : 0,0,0,0,1,0,0,0,2") == [parse_magma("3:0,0,0,0,1,0,0,0,2")]
    with pytest.raises(ParseError, match="expected 4 entries"):
        read_magmas("2:0,0,0")
    # A non-ASCII digit does not make an inline encoding, so it is a path.
    with pytest.raises(FileNotFoundError):
        read_magmas("\u0662:0,0,0,0")
