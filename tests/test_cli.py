"""End-to-end command-line behavior via in-process invocation."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from agkit import cli, parse_magma
from agkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_single_property_true(capsys):
    code, out, _ = run(capsys, "check", "3:0,0,0,0,1,0,0,0,2", "--props", "cyclic_associative")
    assert code == 0
    assert out.strip() == "true"


def test_check_single_property_false_exits_one(capsys):
    code, out, _ = run(capsys, "check", "3:0,0,0,0,0,0,0,1,0", "--props", "cyclic_associative")
    assert code == 1
    assert out.strip() == "false"


def test_check_order_one_trivial(capsys):
    code, out, _ = run(capsys, "check", "1:0", "--props", "ag")
    assert code == 0
    assert out.strip() == "true"


def test_check_repeated_property_is_checked_once(capsys, monkeypatch):
    # A repeated --props name keeps its first place only, as --claims does.
    calls = []
    real = cli.check_property
    monkeypatch.setattr(cli, "check_property", lambda m, p: calls.append(p) or real(m, p))
    code, out, _ = run(capsys, "check", "1:0", "--props", "ag,ag, ag")
    assert (code, out, calls) == (0, "true\n", ["ag"])
    code, out, _ = run(capsys, "check", "3:0,0,0,0,0,0,0,1,0", "--props", "band,ag,band")
    assert out.splitlines() == ["band: false  fails at (2) (1-based)", "ag: true"]


def test_check_expr_false_exits_one(capsys):
    code, out, _ = run(capsys, "check", "3:0,0,0,0,0,0,0,1,0", "--expr", "cyclic_associative")
    assert code == 1
    assert out == "false\n"


def test_check_file_props_and_expr_false_exits_one(tmp_path, capsys):
    path = tmp_path / "in.txt"
    path.write_text("3:0,0,0,0,1,0,0,0,2\n3:0,0,0,0,0,0,0,1,0\n")
    code, out, _ = run(
        capsys, "check", str(path), "--props", "band", "--expr", "cyclic_associative",
    )
    assert code == 1
    assert out.splitlines() == [
        "magma 1: band: true",
        "magma 1: cyclic_associative: true",
        "magma 2: band: false  fails at (2) (1-based)",
        "magma 2: cyclic_associative: false",
    ]


def test_check_expr_unclosed_group_exits_two(capsys):
    code, out, err = run(capsys, "check", "1:0", "--expr", "(band band)")
    assert (code, out) == (2, "")
    assert err == "error: expected ')' at token 3 in '(band band)'\n"


def test_check_multiple_props_and_witness(capsys):
    code, out, _ = run(
        capsys, "check", "3:0,0,0,0,0,0,0,1,0",
        "--props", "ag,cyclic_associative",
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "ag: true"
    assert lines[1].startswith("cyclic_associative: false")
    assert "(3, 2, 3)" in lines[1]


def test_check_expr(capsys):
    code, out, _ = run(
        capsys, "check", "4:1,2,2,2,3,2,2,2,2,2,2,2,2,2,2,2",
        "--expr", "cyclic_associative & !associative",
    )
    assert code == 0
    assert out.strip() == "true"


def test_check_no_flags_dumps_classification(capsys):
    code, out, _ = run(capsys, "check", "1:0")
    assert code == 0
    assert "cyclic_associative: true" in out
    assert "band: true" in out


def test_check_json(capsys):
    code, out, _ = run(
        capsys, "check", "3:0,0,0,0,0,0,0,1,0",
        "--props", "cyclic_associative", "--json",
    )
    assert code == 1
    data = json.loads(out)
    assert data[0]["props"] == {"cyclic_associative": False}
    assert data[0]["witnesses"]["cyclic_associative"] == [2, 1, 2]


def test_check_unknown_property_exits_two(capsys):
    # Expression atoms outside the catalog are not --props names either.
    for name in ("assoc", "has_cancellative_element", "idempotent_identity_on_cosets"):
        code, _, err = run(capsys, "check", "1:0", "--props", name)
        assert code == 2, name
        assert "unknown property" in err, name


@pytest.mark.parametrize("option,value", [
    ("--expr", ""), ("--expr", " "), ("--props", ""), ("--props", ","), ("--props", " "),
])
def test_check_empty_selection_exits_two(capsys, option, value):
    code, out, err = run(capsys, "check", "2:0,0,0,0", option, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_enumerate_empty_class_exits_two(capsys):
    code, out, err = run(capsys, "enumerate", "--order", "3", "--count-only", "--class", "")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "expr", ["(" * 400 + "band" + ")" * 400, "!" * 2000 + "band"], ids=["parens", "negations"],
)
@pytest.mark.parametrize("argv", [
    ("check", "1:0", "--expr"),
    ("enumerate", "--order", "3", "--count-only", "--class"),
], ids=["check", "enumerate"])
def test_deeply_nested_expression_exits_two(capsys, argv, expr):
    code, out, err = run(capsys, *argv, expr)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_expression_at_the_nesting_limit_evaluates(capsys):
    code, out, _ = run(
        capsys, "check", "3:0,0,0,0,1,0,0,0,2", "--expr", "!(" * 50 + "band" + ")" * 50,
    )
    assert code == 0
    assert out.strip() == "true"


def test_check_parse_error_position(capsys):
    code, _, err = run(capsys, "check", "2:0,9,0,0", "--props", "ag")
    assert code == 2
    assert "entry 2" in err


def test_check_rejects_underscored_entry(capsys):
    # int() would read "0_1" as 1 and make the table commutative.
    code, out, err = run(capsys, "check", "2:0,1,1,0_1", "--props", "commutative")
    assert code == 2
    assert out == ""
    assert "entry 4" in err


def test_check_file_input(tmp_path, capsys):
    path = tmp_path / "in.txt"
    path.write_text("# both CA\n3:0,0,0,0,1,0,0,0,2\n4:1,2,2,2,3,2,2,2,2,2,2,2,2,2,2,2\n")
    code, out, _ = run(capsys, "check", str(path), "--props", "cyclic_associative")
    assert code == 0
    assert out.splitlines() == [
        "magma 1: cyclic_associative: true",
        "magma 2: cyclic_associative: true",
    ]


def test_check_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("3:0,0,0,0,1,0,0,0,2\n"))
    code, out, _ = run(capsys, "check", "-", "--props", "cyclic_associative")
    assert code == 0
    assert out.strip() == "true"


_BOM_TABLE = "\ufeff3:0,0,0,0,0,0,0,1,0\n"


def test_check_file_with_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "tables.txt"
    path.write_bytes(_BOM_TABLE.encode("utf-8"))
    assert path.read_bytes().startswith(b"\xef\xbb\xbf3:")
    assert run(capsys, "check", str(path), "--props", "ag") == (0, "true\n", "")


def test_check_stdin_with_byte_order_mark(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(_BOM_TABLE))
    assert run(capsys, "check", "-", "--props", "ag") == (0, "true\n", "")


def test_check_inline_argument_with_byte_order_mark(capsys):
    assert run(capsys, "check", _BOM_TABLE.strip("\n"), "--props", "ag") == (0, "true\n", "")


def test_check_empty_table_argument_exits_two(capsys):
    code, out, err = run(capsys, "check", "")
    assert code == 2
    assert out == ""
    assert err.startswith("error: empty table argument ''") and err.count("\n") == 1


def test_check_refuses_unknown_property_before_reading(capsys, monkeypatch):
    # No magma reaches check_property here, so the names are checked first.
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, out, err = run(capsys, "check", "-", "--props", "ag,bogus")
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown property 'bogus'; valid names: ")
    # Nor is a missing file reached before a bad --props or --expr.
    missing = "no such tables.txt"
    assert run(capsys, "check", missing, "--props", "bogus")[2].startswith(
        "error: unknown property 'bogus'")
    assert run(capsys, "check", missing, "--expr", "ag &")[2].startswith(
        "error: property expression ended early")


def test_ca_test_verdicts_and_exit(capsys):
    code, out, _ = run(capsys, "ca-test", "3:0,0,0,0,1,0,0,0,2")
    assert code == 0
    assert "true" in out
    code, out, _ = run(capsys, "ca-test", "3:0,0,0,0,0,0,0,1,0")
    assert code == 1
    assert "x=2, row=3, col=3" in out


def test_ca_test_render_contains_marks(capsys):
    code, out, _ = run(capsys, "ca-test", "3:0,0,0,0,0,0,0,1,0", "--render")
    assert code == 1
    assert "[2]" in out and "[1]" in out


def test_ca_test_warns_on_non_ag_input(capsys):
    code, out, err = run(capsys, "ca-test", "2:0,1,0,0")
    assert code == 1
    assert "left invertive" in err


def test_ca_test_warns_once_for_many_non_ag_inputs(capsys, tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text("3:0,0,0,0,1,0,0,0,2\n2:0,1,0,0\n1:0\n2:0,1,0,0\n")
    code, out, err = run(capsys, "ca-test", str(path))
    assert code == 1
    assert len(out.splitlines()) == 4
    assert err.splitlines() == [
        "warning: 2 of 4 inputs fail the left invertive law (first: input 2); "
        "reporting verdicts anyway"
    ]


def test_ca_test_json(capsys):
    code, out, _ = run(capsys, "ca-test", "3:0,0,0,0,0,0,0,1,0", "--json")
    assert code == 1
    data = json.loads(out)
    assert data[0]["verdict"] is False
    assert data[0]["first_mismatch"] == [1, 2, 2]
    assert len(data[0]["star_tables"]) == 3


def test_canon_prints_canonical_compact(capsys):
    code, out, _ = run(capsys, "canon", "3:2,2,2,2,2,2,1,1,0")
    assert code == 0
    line = out.strip()
    m = parse_magma(line)
    from agkit import canonical_form
    assert canonical_form(m) == m


def test_canon_refuses_orders_above_ten(capsys):
    # Order 12 would need 12! - 1 cached relabelings; it is refused first.
    code, out, err = run(capsys, "canon", "12:" + ",".join(["0"] * 144))
    assert code == 2
    assert out == ""
    assert err.startswith("error: canonical form of order 12") and err.count("\n") == 1


def test_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "--order", "3", "--count-only")
    assert code == 0
    assert out.strip() == "20"


def test_enumerate_class_filter(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--order", "3",
        "--class", "cyclic_associative", "--count-only",
    )
    assert code == 0
    assert out.strip() == "12"


def test_enumerate_emits_parseable_sorted_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "--order", "2")
    assert code == 0
    tables = [parse_magma(line).table for line in out.splitlines()]
    assert tables == sorted(tables)
    assert len(tables) == 3


def test_enumerate_out_file(tmp_path, capsys):
    path = tmp_path / "order3.txt"
    code, out, _ = run(capsys, "enumerate", "--order", "3", "--out", str(path))
    assert code == 0
    assert out == ""
    lines = path.read_text().splitlines()
    assert len(lines) == 20
    for line in lines:
        parse_magma(line)


def test_enumerate_jobs_two_same_output(capsys):
    code1, out1, _ = run(capsys, "enumerate", "--order", "3")
    code2, out2, _ = run(capsys, "enumerate", "--order", "3", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_enumerate_partition_counts_sum(capsys):
    total = 0
    for i in (1, 2):
        code, out, _ = run(
            capsys, "enumerate", "--order", "3",
            "--count-only", "--partition", f"{i}/2",
        )
        assert code == 0
        total += int(out.strip())
    assert total == 20


def test_enumerate_bad_partition(capsys):
    code, _, err = run(capsys, "enumerate", "--order", "3", "--partition", "nope")
    assert code == 2
    assert "partition" in err


@pytest.mark.parametrize("i, count", [(1, 2), (2, 1), (10 ** 20, 0)])
def test_enumerate_partition_numbers_past_machine_size(capsys, i, count):
    argv = ("enumerate", "--order", "2", "--count-only", "--partition", f"{i}/{10 ** 20}")
    assert run(capsys, *argv) == (0, f"{count}\n", "")


def test_enumerate_budget_exit_three(capsys):
    code, _, err = run(
        capsys, "enumerate", "--order", "5", "--count-only", "--budget", "0.2",
    )
    assert code == 3
    assert "partial" in err


def test_enumerate_order_six_needs_allow_large(capsys):
    code, _, err = run(capsys, "enumerate", "--order", "6", "--count-only")
    assert code == 2
    assert "--allow-large" in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("verify", "--max-order", "-3"), "--max-order"),
        (("enumerate", "--order", "3", "--jobs", "0"), "--jobs"),
        (("classify", "--order", "3", "--budget", "-1"), "--budget"),
        # Integers are written in the ASCII digits 0-9 only.
        (("enumerate", "--order", "٣", "--count-only"), "--order"),
        (("classify", "--order", "1_0"), "--order"),
        (("verify", "--max-order", "٢"), "--max-order"),
        (("enumerate", "--order", "3", "--jobs", "1_0"), "--jobs"),
        (("enumerate", "--order", "3", "--count-only", "--partition", "١/١"), "--partition"),
        # Seconds are ASCII digits with at most one '.'.
        (("enumerate", "--order", "3", "--count-only", "--budget", "١"), "--budget"),
        (("classify", "--order", "3", "--budget", "1_0"), "--budget"),
        (("verify", "--max-order", "3", "--budget", "inf"), "--budget"),
        (("enumerate", "--order", "3", "--count-only", "--budget", "1e3"), "--budget"),
    ],
)
def test_bad_numeric_argument_exits_two(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and flag in err


def test_every_number_goes_through_check_bounds():
    # argparse's type= would accept what int() and float() accept.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
            assert "type" not in {kw.arg for kw in node.keywords}, ast.unparse(node)


def test_enumerate_progress(capsys):
    code, out, err = run(
        capsys, "enumerate", "--order", "3", "--count-only", "--progress",
    )
    assert code == 0
    assert "partition" in err


def test_classify_passes_and_inconsistent_note(capsys):
    code, out, _ = run(capsys, "classify", "--order", "2")
    assert code == 0
    assert out.count("PASS") == 8
    assert "FAIL" not in out
    assert "inconsistent" in out
    assert "derived value 3" in out


def test_classify_order_three(capsys):
    code, out, _ = run(capsys, "classify", "--order", "3")
    assert code == 0
    assert "AG: 20  (reference 20)  PASS" in out


def test_classify_json_roundtrip(capsys):
    code, out, _ = run(capsys, "classify", "--order", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 2
    rows = {r["class"]: r for r in data["rows"]}
    assert rows["AG"]["count"] == 3
    assert rows["AG"]["pass"] is True
    assert rows["CA ∧ associative"]["count"] == 3
    assert rows["CA ∧ associative"]["reference"] == 0
    assert "note" in rows["CA ∧ associative"]


def test_classify_budget_exit_three(capsys):
    code, _, err = run(capsys, "classify", "--order", "5", "--budget", "0.3")
    assert code == 3
    assert "partial" in err


def test_classify_order_six_needs_allow_large(capsys):
    code, _, err = run(capsys, "classify", "--order", "6")
    assert code == 2
    assert "--allow-large" in err


def test_verify_subset(capsys):
    code, out, _ = run(capsys, "verify", "--claims", "C1,C2", "--max-order", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("C1 implication: verified")
    assert lines[1].startswith("C2 witness-exists: witness-found")
    assert "2/2 claims ok" in out


def test_verify_all_at_order_three(capsys):
    code, out, _ = run(capsys, "verify", "--max-order", "3")
    assert code == 0
    assert "35/35 claims ok" in out


def test_verify_external_premise_tagged(capsys):
    code, out, _ = run(capsys, "verify", "--claims", "C33", "--max-order", "3")
    assert code == 0
    assert "[external premise]" in out


def test_verify_budget_zero_exits_three(capsys):
    code, out, err = run(capsys, "verify", "--max-order", "3", "--budget", "0")
    assert code == 3
    assert out == ""
    assert err.startswith("partial: claim C1:")


@pytest.mark.parametrize("argv, size", [
    (("--max-order", "6"), "order 6 has 40,104,513"),
    # table13, one of C13's witnesses, has order 8.
    (("--claims", "C13", "--max-order", "8"), "order 8 has more than 40,104,513"),
])
def test_verify_refuses_universes_from_order_six(capsys, argv, size):
    # The budget only bounds the run if the refusal is missing.
    code, out, err = run(capsys, "verify", *argv, "--budget", "5")
    assert code == 2
    assert out == ""
    assert err == (
        f"error: the AG universe of {size} classes, too many to hold in memory; "
        "use a max order below 6\n"
    )


def test_verify_refuses_a_huge_max_order_at_once(capsys):
    # No order up to --max-order is listed: 10**18 is refused like 6.
    code, out, err = run(capsys, "verify", "--max-order", str(10**18))
    assert code == 2
    assert out == ""
    assert err.startswith("error: the AG universe of order 6 has 40,104,513 classes")
    assert err.count("\n") == 1 and err.count("error:") == 1


def test_verify_witness_claim_at_order_six(capsys):
    # C2's witness table has order 3, so no order-6 universe is built.
    code, out, _ = run(capsys, "verify", "--claims", "C2", "--max-order", "6")
    assert code == 0
    assert out.splitlines()[-1] == "1/1 claims ok (max_order=6)"


def test_verify_refuses_before_enumerating_any_order(capsys, monkeypatch):
    # C1 needs orders 1-6, so the order-6 refusal comes before any claim runs.
    from agkit import theorems

    calls = []
    monkeypatch.setattr(theorems, "_UNIVERSE_CACHE", {})
    monkeypatch.setattr(theorems, "_run", lambda n, *a, **kw: calls.append(n))
    code, out, err = run(capsys, "verify", "--max-order", "6")
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error: the AG universe of order 6 has") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["enumerate", "classify"])
@pytest.mark.parametrize("order", ["11", "12"])
def test_search_refuses_orders_above_ten(capsys, command, order):
    # The search would hold all n! relabelings: about 50 GB at order 11.
    code, out, err = run(capsys, command, "--order", order, "--allow-large")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: the search at order {order}") and err.count("\n") == 1


class _ClaimClock:
    """time.monotonic reads 0.0 for its first 4 calls and 1e9 after that:
    with warm universes, the deadline and the checks before C1-C3 pass."""

    def __init__(self):
        self.calls = 0

    def monotonic(self):
        self.calls += 1
        return 0.0 if self.calls <= 4 else 1e9


@pytest.mark.parametrize("json_out", [False, True])
def test_verify_budget_prints_the_finished_claims(capsys, monkeypatch, json_out):
    from agkit import theorems

    theorems.verify_claims(max_order=3)
    monkeypatch.setattr(theorems, "time", _ClaimClock())
    argv = ["verify", "--max-order", "3", "--budget", "100"] + ["--json"] * json_out
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err == "partial: claim C4: budget exceeded after 3 of 35 claims\n"
    if json_out:
        assert [r["id"] for r in json.loads(out)] == ["C1", "C2", "C3"]
    else:
        lines = out.splitlines()
        assert [line.split()[0] for line in lines] == ["C1", "C2", "C3"]
        assert lines[0].startswith("C1 implication: verified  every cyclic")


class _UniverseClock:
    """time.monotonic reads 0.0 for its first 2 calls and 1e9 after that:
    the deadline and the check before C1 pass, and the order-1 universe
    is then enumerated with a spent budget."""

    def __init__(self):
        self.calls = 0

    def monotonic(self):
        self.calls += 1
        return 0.0 if self.calls <= 2 else 1e9


_UNIVERSE_STOP = (
    "claim C1: budget exceeded at order 1: 0 classes counted, 0/1 partitions complete"
)


def test_verify_budget_stops_inside_a_universe_enumeration(monkeypatch):
    from agkit import theorems

    monkeypatch.setattr(theorems, "_UNIVERSE_CACHE", {})
    monkeypatch.setattr(theorems, "time", _UniverseClock())
    with pytest.raises(theorems.ClaimBudgetError) as info:
        theorems.verify_claims(5, ["C1"], budget=100)
    assert (info.value.claim_id, info.value.results) == ("C1", [])
    assert str(info.value) == _UNIVERSE_STOP


def test_verify_budget_inside_a_universe_enumeration_exits_three(capsys, monkeypatch):
    from agkit import theorems

    monkeypatch.setattr(theorems, "_UNIVERSE_CACHE", {})
    monkeypatch.setattr(theorems, "time", _UniverseClock())
    code, out, err = run(capsys, "verify", "--claims", "C1", "--max-order", "5", "--budget", "100")
    assert (code, out) == (3, "")
    assert err == f"partial: {_UNIVERSE_STOP}\n"


def test_verify_unknown_claim(capsys):
    code, _, err = run(capsys, "verify", "--claims", "C99")
    assert code == 2
    assert "unknown claim" in err


@pytest.mark.parametrize("claims", ["", ",", " ", " , "])
def test_verify_claims_naming_no_id_exits_two(capsys, claims):
    code, out, err = run(capsys, "verify", "--claims", claims)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--claims", "C9", "--max-order", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["id"] == "C9"
    assert data[0]["status"] == "witness-found"
    assert data[0]["evidence"]["parts"][3]["falsifying"]["middle_nuclear_square"] == [4, 4, 4]


def test_missing_file_reports_error(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/tables.txt", "--props", "ag")
    assert code == 2
    assert "error" in err


def test_text_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, err = run(capsys, "classify", "--order", "3")
        assert code == 0
        runs.append((out, err))
    assert runs[0] == runs[1]


def test_agkit_reads_no_environment_variable():
    # A run is set by its arguments alone: the job count comes from --jobs,
    # and the stop from --budget on the monotonic clock, never time.time.
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                continue
            assert not names & {"environ", "getenv", "time"}, f"{path.name}:{node.lineno}"


@pytest.mark.parametrize("argv", [
    ("enumerate", "--order", "5"),
    ("classify", "--order", "5"),
    ("verify", "--max-order", "3"),
], ids=["enumerate", "classify", "verify"])
def test_partial_line_comes_last(argv):
    # A stopped command writes its partial output first; the one budget
    # exit in main writes the partial: line after it.
    both = io.StringIO()
    with contextlib.redirect_stdout(both), contextlib.redirect_stderr(both):
        code = main([*argv, "--budget", "0"])
    lines = both.getvalue().splitlines()
    assert code == 3
    assert sum(line.startswith("partial: ") for line in lines) == 1, lines
    assert lines[-1].startswith("partial: "), lines


def test_closed_stdout_exits_141_quietly():
    # The order-5 stream is about 2 MB, far past a 64 KiB pipe buffer, so
    # the writer meets the closed pipe while the classes are still coming.
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "agkit", "enumerate", "--order", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"5:")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")
