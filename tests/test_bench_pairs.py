"""The summary of tools/bench_pairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _line(run_s, rate, failed=0, correct=True):
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": {
        "run_s": {"value": run_s, "unit": "s"},
        "classes_per_s": {"value": rate, "unit": "classes/s"},
    }}


def test_summary_of_fixed_pairs():
    specs = [
        {"name": "run_s", "better": "lower", "bound": 0.25},
        {"name": "classes_per_s", "better": "higher", "bound": 0.1},
    ]
    # run_s: the change is better in pairs 1 and 4, ties in pair 2.
    # classes_per_s: better only in pair 3.
    parent = [(1.0, 100.0), (2.0, 100.0), (3.0, 100.0), (4.0, 100.0)]
    change = [(0.5, 90.0), (2.0, 80.0), (5.0, 110.0), (3.0, 100.0)]
    pairs = [{"parent": _line(*p), "change": _line(*c, failed=k == 3, correct=k != 1)}
             for k, (p, c) in enumerate(zip(parent, change))]
    got = bench_pairs.summarize(pairs, specs)
    assert got["all_correct"] is False
    assert got["failed_ops"] == {"parent": 0, "change": 1}
    assert got["attempted_ops"] == {"parent": 40, "change": 40}
    run = got["summary"]["run_s"]
    # statistics.quantiles(n=4), exclusive method, of 1, 2, 3, 4 and of
    # 0.5, 2, 3, 5.
    assert run["parent"] == pytest.approx({"q1": 1.25, "median": 2.5, "q3": 3.75})
    assert run["change"] == pytest.approx({"q1": 0.875, "median": 2.5, "q3": 4.5})
    assert run["parent_runs"] == [1.0, 2.0, 3.0, 4.0]
    assert run["change_runs"] == [0.5, 2.0, 5.0, 3.0]
    assert run["change_wins"] == "2/4"
    assert run["median_change"] == 0.0
    assert run["parent_iqr"] == pytest.approx(2.5)
    assert run["bound"] == 0.25 and run["within_bound"] is True
    rate = got["summary"]["classes_per_s"]
    assert rate["change"]["median"] == pytest.approx(95.0)
    assert rate["change_wins"] == "1/4"
    assert rate["median_change"] == pytest.approx(-0.05)
    assert rate["within_bound"] is True
    # A fall of more than the bound in a higher-is-better metric is outside it.
    slow = [{"parent": _line(1.0, 100.0), "change": _line(1.0, 80.0)}] * 2
    assert bench_pairs.summarize(slow, specs[1:])["summary"]["classes_per_s"]["within_bound"] is False


def test_compare_names_each_differing_output():
    parent = {
        "same": (b"1\n", b"", 0),
        "out": (b"1\n", b"", 0),
        "err and code": (b"", b"usage\n", 2),
    }
    change = {
        "same": (b"1\n", b"", 0),
        "out": (b"2\n", b"", 0),
        "err and code": (b"", b"", 0),
    }
    assert bench_pairs.compare(parent, change) == {
        "identical": 1,
        "differ": {"out": ["stdout"], "err and code": ["stderr", "exit_code"]},
    }
    assert bench_pairs.compare(parent, parent) == {"identical": 3, "differ": {}}
    assert len(bench_pairs.CMP_COMMANDS) == 49


def test_rss_summary_of_fixed_rounds():
    def probe(verify, count):
        return {"verify_mib": verify, "count_mib": count, "gap_mib": verify - count}

    rounds = [
        {"parent": probe(25.0, 19.0), "change": probe(25.5, 19.0)},
        {"parent": probe(26.0, 19.5), "change": probe(28.0, 19.0)},
        {"parent": probe(25.5, 19.0), "change": probe(25.0, 19.5)},
    ]
    got = bench_pairs.summarize_rss(rounds, 8)
    assert got["parent"]["verify_mib"] == {
        "runs": [25.0, 26.0, 25.5], "median": 25.5, "min": 25.0, "max": 26.0,
    }
    assert got["parent"]["gap_mib"]["runs"] == [6.0, 6.5, 6.5]
    assert got["parent"]["within_bound"] is True
    # One gap of 9 MiB in three rounds puts the change outside the bound.
    assert got["change"]["gap_mib"] == {
        "runs": [6.5, 9.0, 5.5], "median": 6.5, "min": 5.5, "max": 9.0,
    }
    assert got["change"]["count_mib"]["median"] == 19.0
    assert got["change"]["within_bound"] is False
