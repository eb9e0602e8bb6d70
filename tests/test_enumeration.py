"""Enumeration counts, determinism, partitions, budgets, and the census."""

import ast
import hashlib
import itertools
import math
import os
import time
import tracemalloc
from functools import lru_cache
from pathlib import Path

import pytest

from agkit import (
    PUBLISHED_INCONSISTENT_CELLS,
    PUBLISHED_CENSUS,
    ROW_ORDER,
    BudgetExceeded,
    canonical_form,
    check_property,
    classify,
    classify_census,
    enumerate_ag,
    enumeration,
    iso,
)

from conftest import ag_universe, brute_enumeration, count_labelled_ag, naive_relabel

KNOWN_COUNTS = {1: 1, 2: 3, 3: 20, 4: 331}

# AG-groupoids on the labelled set {0..n-1}, isomorphic ones counted apart.
LABELLED_COUNTS = {1: 1, 2: 6, 3: 105, 4: 7336, 5: 3756645}

large = pytest.mark.skipif(
    not os.environ.get("AGKIT_ALLOW_LARGE"),
    reason="seconds-scale check; set AGKIT_ALLOW_LARGE=1 to run",
)

# SHA-256 of the canonical stream, one comma-joined table per line.
STREAM_DIGESTS = {
    4: "99ca2bcb6abbbf1a0e22bcf57ee0e4333a01eba4345657af0f083ab055502813",
    5: "6b7c8a40bd32dd2045952b3ac304ff7edcbd6e1f10201d875e806c982e647277",
}

# The order-6 unit with first row (0,0,0,0,1,1), of lexicographic rank 7, is
# slice 8 of 6**6: its class count and the SHA-256 of its stream.
ORDER6_UNIT = (2422, "ad836f56c2f80f83bfd1d77dfba24a3b1a3af88b335a57ddac2a3354e96d550a")

# Class counts of the non-empty order-5 first-row partitions (0-based index).
ORDER5_PARTITION_COUNTS = {
    0: 31141, 1: 128, 4: 290, 6: 2, 7: 3, 18: 91, 19: 30, 62: 177, 64: 15,
    69: 8, 97: 2, 156: 3, 159: 4, 168: 6, 169: 7, 194: 2, 298: 2, 698: 1,
    879: 1,
}


@lru_cache(maxsize=None)
def _sequential_run(n: int):
    """The stream and the per-partition class counts of one jobs=1 run."""
    stream = []
    totals = []
    enumerate_ag(n, stream.append, progress=lambda done, total, count: totals.append(count))
    counts = [b - a for a, b in zip([0] + totals, totals)]
    return stream, counts


@pytest.mark.parametrize("n,count", sorted(KNOWN_COUNTS.items()))
def test_class_counts(n, count):
    assert enumerate_ag(n) == count


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_emissions_are_canonical_ag_and_sorted(n):
    seen = list(ag_universe(n))
    assert len(seen) == KNOWN_COUNTS[n]
    tables = [m.table for m in seen]
    assert tables == sorted(tables)
    assert len(set(tables)) == len(tables)
    for m in seen:
        assert check_property(m, "ag").holds
        assert canonical_form(m) == m


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matches_brute_force_oracle(n, monkeypatch):
    # A fresh run of the cursor search.  Its root alive list is the cached
    # permutation table that canonical_form also uses; moving a cursor must
    # leave that shared table as it was.
    root = iso._perm_data(n)
    before = [(p, src, cursor) for p, src, cursor in root]
    handed_out = []

    def spy(order):
        handed_out.append(iso._perm_data(order))
        return handed_out[-1]

    monkeypatch.setattr(enumeration, "_perm_data", spy)
    stream = []
    enumerate_ag(n, stream.append)
    assert tuple(m.table for m in stream) == brute_enumeration(n)
    assert handed_out and all(r is root for r in handed_out)
    assert [(p, src, cursor) for p, src, cursor in root] == before
    assert all(cursor == 0 for _, _, cursor in before)


def _automorphism_count(m) -> int:
    n = m.order
    return sum(
        naive_relabel(m.table, n, p) == m.table for p in itertools.permutations(range(n))
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, pytest.param(5, marks=large)])
def test_orbit_sum_counts_every_labelled_table(n):
    # Each class stands for n!/|Aut| labelled tables; a missed or a
    # duplicated class changes the sum even where the class count is right.
    orbit_sum = sum(math.factorial(n) // _automorphism_count(m) for m in ag_universe(n))
    assert orbit_sum == LABELLED_COUNTS[n]


@pytest.mark.parametrize("n", [1, 2, 3, pytest.param(4, marks=large)])
def test_labelled_counts_match_an_independent_counter(n):
    assert count_labelled_ag(n) == LABELLED_COUNTS[n]


@pytest.mark.parametrize("n", sorted(STREAM_DIGESTS))
def test_stream_digest(n):
    stream, _ = _sequential_run(n)
    text = "".join(",".join(map(str, m.table)) + "\n" for m in stream)
    assert hashlib.sha256(text.encode()).hexdigest() == STREAM_DIGESTS[n]


def test_order6_unit_digest():
    # Order 6 is where the watch map has most to do: 719 relabelings.
    stream = []
    enumerate_ag(6, stream.append, partition=(8, 6 ** 6))
    text = "".join(",".join(map(str, m.table)) + "\n" for m in stream)
    assert (len(stream), hashlib.sha256(text.encode()).hexdigest()) == ORDER6_UNIT


def test_order5_partition_counts():
    _, counts = _sequential_run(5)
    assert len(counts) == 3125
    assert {i: c for i, c in enumerate(counts) if c} == ORDER5_PARTITION_COUNTS


def test_multiprocess_run_is_identical_to_sequential():
    seq, par = [], []
    enumerate_ag(4, seq.append, jobs=1)
    enumerate_ag(4, par.append, jobs=2)
    assert seq == par


def test_partition_slices_cover_exactly():
    full = list(ag_universe(4))
    got = []
    total = 0
    for i in (1, 2, 3):
        part: list = []
        total += enumerate_ag(4, part.append, partition=(i, 3))
        got.extend(part)
    assert total == len(full)
    assert sorted(m.table for m in got) == [m.table for m in full]


def test_partition_slice_is_one_first_row():
    # With k = n**n slices, slice i holds exactly the classes whose first
    # row has lexicographic rank i - 1 among the n**n possible rows.
    n = 3

    def rank(t):
        return sum(v * n ** (n - 1 - j) for j, v in enumerate(t[:n]))

    for i in range(1, n ** n + 1):
        got: list = []
        enumerate_ag(n, got.append, partition=(i, n ** n))
        want = tuple(t for t in brute_enumeration(n) if rank(t) == i - 1)
        assert tuple(m.table for m in got) == want, i


def test_partition_validation():
    with pytest.raises(ValueError):
        enumerate_ag(3, partition=(0, 3))
    with pytest.raises(ValueError):
        enumerate_ag(3, partition=(4, 3))
    with pytest.raises(ValueError):
        enumerate_ag(3, partition=(1, 0))


@pytest.mark.parametrize("i, count", [(1, 2), (2, 1), (10 ** 20, 0)])
def test_partition_numbers_past_machine_size(i, count):
    # Slice i of 10**20 at order 2 is unit i - 1 of four, or none past them.
    got: list = []
    assert enumerate_ag(2, got.append, partition=(i, 10 ** 20)) == count
    assert len(got) == count
    assert enumerate_ag(2, partition=(i, 10 ** 20)) == count


def test_budget_exceeded_sequential():
    with pytest.raises(BudgetExceeded) as info:
        enumerate_ag(5, budget=0.2)
    exc = info.value
    assert exc.order == 5
    assert exc.partitions_done <= exc.partitions_total
    assert exc.partial_count >= 0


def test_budget_zero_stops_in_the_first_unit():
    # Listing the n**n units takes no search, so no budget runs out before
    # the first unit starts, and a census always carries partial counts.
    with pytest.raises(BudgetExceeded) as info:
        enumerate_ag(5, budget=0)
    assert (info.value.partitions_done, info.value.partitions_total) == (0, 3125)
    with pytest.raises(BudgetExceeded) as info:
        classify_census(5, budget=0)
    assert (info.value.partitions_done, info.value.partitions_total) == (0, 3125)
    assert list(info.value.partial_counts) == list(ROW_ORDER)


def test_spent_budget_builds_no_relabelings(monkeypatch):
    # Building the 8! - 1 relabelings takes most of a second; a run whose
    # budget is already spent must stop before it starts.
    built = []
    monkeypatch.setattr(enumeration, "_perm_data", built.append)
    with pytest.raises(BudgetExceeded) as info:
        enumerate_ag(8, budget=0)
    assert (info.value.partitions_done, info.value.partitions_total) == (0, 8 ** 8)
    assert built == []


# The units of slice 2/5 at order 7 are the first rows of rank 1, 6, 11, ...
@pytest.mark.parametrize("partition, total", [(None, 7 ** 7), ((2, 5), len(range(1, 7 ** 7, 5)))])
def test_units_are_counted_not_listed(partition, total):
    # At order 7 a list of the 823,543 first rows would take about 150 MiB;
    # the rows are generated as the units run, so only the first is made.
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as info:
            enumerate_ag(7, budget=0, partition=partition)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (info.value.partitions_done, info.value.partitions_total) == (0, total)
    assert peak < 16 * 2 ** 20, peak


def test_census_budget_zero_with_workers_carries_zero_rows():
    # The tallies are merged in the parent process, so a pool run stopped
    # before its first class still carries every row, each at zero.
    with pytest.raises(BudgetExceeded) as info:
        classify_census(5, jobs=2, budget=0)
    exc = info.value
    assert (exc.partitions_done, exc.partitions_total) == (0, 3125)
    assert exc.partial_count == 0
    assert exc.partial_counts == dict.fromkeys(ROW_ORDER, 0)


def test_budget_exceeded_parallel():
    with pytest.raises(BudgetExceeded):
        enumerate_ag(5, jobs=2, budget=0.2)


def test_budget_beyond_any_timeout_runs_to_completion():
    assert enumerate_ag(3, jobs=2, budget=1e10) == 20


class _StepClock:
    """time.monotonic reads 0.0 for its first 3 calls and 1e9 after that."""

    def __init__(self):
        self.calls = 0

    def monotonic(self):
        self.calls += 1
        return 0.0 if self.calls <= 3 else 1e9


class _SteppingWallClock:
    """time.monotonic is the real clock; time.time steps one day back, then
    one day forward, at alternate reads, as a system clock being set."""

    monotonic = staticmethod(time.monotonic)

    def __init__(self):
        self.reads = 0

    def time(self):
        self.reads += 1
        return time.time() + (-86400 if self.reads % 2 else 86400)


def test_a_wall_clock_step_does_not_move_the_stop(monkeypatch):
    # The budget is measured on the monotonic clock alone, so setting the
    # system clock during a run neither spends nor stretches it.  Forked
    # pool workers inherit the patched clock.
    monkeypatch.setattr(enumeration, "time", _SteppingWallClock())
    assert enumerate_ag(4, budget=100) == 331
    assert classify_census(4, budget=100)["CA"] == 64
    assert enumerate_ag(3, jobs=2, budget=100) == 20


def test_partial_count_is_the_same_in_every_mode(monkeypatch):
    # The deadline passes at the same search node in every mode, so every
    # mode counts the same classes: those the interrupted unit had emitted.
    partial = {}
    tables = []
    for mode, run in (
        ("count", lambda: enumerate_ag(5, budget=100)),
        ("tables", lambda: enumerate_ag(5, tables.append, budget=100)),
        ("census", lambda: classify_census(5, budget=100)),
    ):
        monkeypatch.setattr(enumeration, "time", _StepClock())
        with pytest.raises(BudgetExceeded) as info:
            run()
        partial[mode] = info.value
    counts = {mode: exc.partial_count for mode, exc in partial.items()}
    assert len(set(counts.values())) == 1 and counts["count"] > 0, counts
    assert len(tables) == counts["count"]
    assert partial["census"].partial_counts["AG"] == counts["count"]


def test_search_kernel_knows_only_ag_tables():
    # What a unit keeps of its classes belongs to its collector: the unit
    # search and the unit runner name no checker, build no Magma and test
    # no mode.
    tree = ast.parse(Path(enumeration.__file__).read_text(encoding="utf-8"))
    kernel = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in {"_search", "_run"}
    ]
    assert len(kernel) == 2
    for fn in kernel:
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                assert node.id not in {"CHECKERS", "Magma"}, f"{fn.name}:{node.lineno}"
            elif isinstance(node, ast.Compare):
                values = {c.value for c in ast.walk(node) if isinstance(c, ast.Constant)}
                assert not values & {"count", "tables", "census"}, f"{fn.name}:{node.lineno}"


def test_search_emits_bytes():
    # A collector receives each class's table as bytes, one byte a cell.
    got = []

    def collect(n):
        return got.append, None

    units = [(n, r) for n in (1, 2, 3) for r in range(n ** n)] + [(4, 0)]
    for n, rank in units:
        del got[:]
        status, count, _ = enumeration._search(n, collect, math.inf, rank)
        assert status == "ok" and len(got) == count
        assert all(type(t) is bytes and len(t) == n * n for t in got), (n, rank)
    assert got


def test_worker_processes_are_capped(monkeypatch):
    # A fork pool starts every worker it is given; never run this for real.
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def map(self, fn, items, timeout=None):
            return map(fn, items)

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", RecordingPool)
    assert enumerate_ag(3, jobs=10**6) == 20
    assert all(w <= min(27, os.cpu_count() or 1) for w in asked), asked


def test_progress_callback_reports_partitions():
    calls = []
    enumerate_ag(3, progress=lambda done, total, count: calls.append((done, total, count)))
    assert calls
    done, total, count = calls[-1]
    assert done == total
    assert count == 20
    assert [c[0] for c in calls] == sorted(c[0] for c in calls)


def test_invalid_order():
    with pytest.raises(ValueError):
        enumerate_ag(0)


def test_census_order_three_values():
    assert classify_census(3) == {
        "AG": 20,
        "CA": 12,
        "associative": 12,
        "non-associative": 8,
        "CA ∧ non-associative": 0,
        "associative ∧ ¬CA": 0,
        "CA ∧ associative": 12,
        "associative ∧ ¬commutative ∧ CA": 0,
    }


@pytest.mark.parametrize("n", [2, 3, 4])
def test_census_row_arithmetic(n):
    c = classify_census(n)
    assert set(c) == set(ROW_ORDER)
    assert c["non-associative"] == c["AG"] - c["associative"]
    assert c["CA ∧ non-associative"] == c["CA"] - c["CA ∧ associative"]
    assert c["associative ∧ ¬CA"] == c["associative"] - c["CA ∧ associative"]
    assert 0 <= c["associative ∧ ¬commutative ∧ CA"] <= c["CA ∧ associative"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_census_against_direct_recount(n):
    c = classify_census(n)
    direct = {name: 0 for name in ROW_ORDER}
    for m in ag_universe(n):
        vec = classify(m)
        ca, assoc, comm = vec["cyclic_associative"], vec["associative"], vec["commutative"]
        direct["AG"] += 1
        direct["CA"] += ca
        direct["associative"] += assoc
        direct["non-associative"] += not assoc
        direct["CA ∧ non-associative"] += ca and not assoc
        direct["associative ∧ ¬CA"] += assoc and not ca
        direct["CA ∧ associative"] += ca and assoc
        direct["associative ∧ ¬commutative ∧ CA"] += assoc and not comm and ca
    assert c == direct


def test_census_multiprocess_matches_sequential():
    assert classify_census(4, jobs=2) == classify_census(4)


def test_census_budget_carries_partial_counts():
    with pytest.raises(BudgetExceeded) as info:
        classify_census(5, budget=0.3)
    exc = info.value
    assert exc.partial_counts is not None
    assert set(exc.partial_counts) == set(ROW_ORDER)


def test_published_reference_values_match_derived_counts():
    for n in (2, 3, 4):
        counts = classify_census(n)
        for name in ROW_ORDER:
            expected = PUBLISHED_INCONSISTENT_CELLS.get(
                (n, name), PUBLISHED_CENSUS[n][name]
            )
            assert counts[name] == expected, (n, name)


def test_inconsistent_cell_registry():
    # the one flagged cell: its published value disagrees with the row
    # arithmetic of its own table, the derived value restores it
    assert PUBLISHED_INCONSISTENT_CELLS == {(2, "CA ∧ associative"): 3}
    pub = PUBLISHED_CENSUS[2]
    assert pub["CA ∧ associative"] == 0
    assert pub["CA"] - pub["CA ∧ non-associative"] == 3
