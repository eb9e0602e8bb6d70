"""Isomorph-free enumeration of AG-groupoids and the classification census.

The search assigns table cells in row-major order under constraint
propagation for the left invertive law, and accepts a completed table only
when it equals its own minimal-image canonical form, so each isomorphism
class is emitted exactly once, in canonical form, in increasing
lexicographic order.  Canonicity is filtered at every node through a watch
map that rechecks only the relabelings waiting on a cell the node decided;
at a completed table the relabelings left are its automorphisms.  The
tree is split into n**n independent work units, one per first table row,
for parallel and resumable runs; totals are deterministic for any job
count.  A unit is its rank r, 0 <= r < n**n: its first row is the n
base-n digits of r, so ranks follow the lexicographic order of first
rows.  A run is a range of ranks, never listed, so a one-job run starts
at once at every order.  One function, _search, runs a unit and knows
only AG tables: what a unit keeps of its classes is a collector's,
_tables (the table list) or _census (the census tally, which tests its
laws on each class relabeled by the reversal, where failing instances
come first), and _run merges the units' payloads in unit order.  The
search keeps all n! relabelings, so orders above iso.MAX_CANON_ORDER are
refused.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .core import Magma
from .iso import _perm_data, _refuse_order
from .props import CHECKERS

# Orders at and above this are hours-scale; the CLI demands --allow-large.
LARGE_ORDER_THRESHOLD = 6

ROW_ORDER: tuple[str, ...] = (
    "AG",
    "CA",
    "associative",
    "non-associative",
    "CA ∧ non-associative",
    "associative ∧ ¬CA",
    "CA ∧ associative",
    "associative ∧ ¬commutative ∧ CA",
)

# Published census values by order.  The order-2 "CA ∧ associative" cell is
# inconsistent with its own row arithmetic; PUBLISHED_INCONSISTENT_CELLS maps
# such cells to the arithmetic-consistent derived value, which acceptance
# uses.  Do not silently correct the published number.
PUBLISHED_CENSUS: dict[int, dict[str, int]] = {
    2: dict(zip(ROW_ORDER, (3, 3, 3, 0, 0, 0, 0, 0))),
    3: dict(zip(ROW_ORDER, (20, 12, 12, 8, 0, 0, 12, 0))),
    4: dict(zip(ROW_ORDER, (331, 64, 62, 269, 2, 0, 62, 4))),
    5: dict(zip(ROW_ORDER, (31913, 491, 446, 31467, 45, 0, 446, 121))),
    6: dict(zip(ROW_ORDER, (40104513, 9068, 7510, 40097003, 1565, 7, 7503, 5360))),
}

PUBLISHED_INCONSISTENT_CELLS: dict[tuple[int, str], int] = {
    (2, "CA ∧ associative"): 3,
}


@dataclass(frozen=True)
class EnumerationReport:
    """Census counts for one order, keyed by the ROW_ORDER class names."""

    order: int
    counts: dict[str, int]


class BudgetExceeded(RuntimeError):
    """The budget ran out; partial progress is attached.

    The budget is seconds of elapsed time on the monotonic clock, so a
    step of the system clock does not move the stop.

    A partition is one work unit, a rank of the n**n first table rows in
    lexicographic order, and a run is a range of ranks: range(0, n**n),
    or range(i - 1, n**n, k) for the slice partition=(i, k).
    partitions_total is the length of that range.  The run ends at the
    first interrupted unit in range order, for any collector and job
    count, so partitions_done counts the finished units at the start of
    the range, and a resume would run ranks[partitions_done:]; no API
    starts a run there yet.  partial_count includes the classes the
    interrupted unit had emitted, which such a resume counts again.
    partial_counts is None here; classify_census sets it to the census
    rows of the same classes.
    """

    def __init__(self, order: int, partial_count: int, partitions_done: int, partitions_total: int):
        super().__init__(
            f"budget exceeded at order {order}: {partial_count} classes counted, "
            f"{partitions_done}/{partitions_total} partitions complete"
        )
        self.order = order
        self.partial_count = partial_count
        self.partitions_done = partitions_done
        self.partitions_total = partitions_total
        self.partial_counts: dict[str, int] | None = None


class _DeadlineHit(Exception):
    """Raised inside _search when its deadline has passed."""


def _search(n: int, collect: Callable | None, deadline: float, rank: int) -> tuple:
    """Run one work unit: the depth-first completion of the tables whose
    row 0 is the n base-n digits of rank, most significant first, so
    ranks follow the lexicographic order of first rows (rank 7 at order 6
    is the row (0, 0, 0, 0, 1, 1)).  Top-level, so process pools can
    pickle it.

    collect, a top-level function or None, is called once as collect(n)
    and returns (emit, payload): emit(t) receives each class's table tuple
    t, and payload is what the unit returns for the run to merge.  With no
    collect the unit only counts.  deadline is a time.monotonic() value,
    or math.inf for none; a pool worker runs on the parent's host, where
    the monotonic clock is system-wide, so the parent's deadline holds in
    the worker.  Returns
    ("ok"|"partial", class_count, payload): "partial" when the deadline
    passed, class_count the classes emitted until then.  The deadline is
    tested once before the n! - 1 relabelings are built (most of a second
    at order 8), so a spent budget builds none; a build already under way
    is not interrupted.

    State: flat table with -1 for undecided cells, occ[v] listing the cells
    holding v, and an assignment trail for undo.  assign() enforces every
    instance of (ab)c = (cb)a that the new cell closes, recursing on cells
    whose value it forces.  Every node filters the non-identity
    permutations: one whose relabeled image is lexicographically larger on
    the decided prefix can never beat any completion (dropped); one that
    is smaller beats every completion (subtree pruned).

    An entry (p, src, cursor) has every cell before the cursor decided and
    equal to its image.  Its scan stops at an undecided cell, the cursor
    cell or its preimage src[cursor], and the watch map files the entry
    under that cell, or under -1 once the scan passes the last cell.  Cells
    are decided only by assign(), onto the trail, so a node rescans only
    the buckets of trail[mark:], each entry exactly when its watched cell is
    decided (watched literals, Moskewicz et al., DAC 2001).  A firing bucket
    copies the dict, so a parent's map is never mutated; the root map is
    {0: _perm_data(n)}.  Filtering earlier than on row entry prunes only
    subtrees without a canonical leaf, so the stream is unchanged (orderly
    generation, McKay, J. Algorithms 1998).  At a full table only the -1
    bucket is left: the non-identity automorphisms, so
    |Aut| = len(watch.get(-1, ())) + 1, and the table is canonical.

    Every first row is consistent, so it is replayed unchecked.  While
    only row 0 is decided, assign() of (0, q) = v meets one decided cell
    in its first loop, (0, q) itself, and both sides of that instance are
    the cell (v, 0); its second loop reads row q, which is empty for
    q >= 1 and holds only (0, 0), the first cell replayed, for q = 0.

    assign() relies on one invariant: the cell it is given is undecided.
    The replay forces no cell, so each cell of row 0 is still undecided
    when its turn comes.  dfs() assigns only the first undecided cell,
    and undo() clears it again before the next value.  Both propagation
    loops call assign() only on a cell they have just read as undecided.
    """
    emit, payload = collect(n) if collect is not None else (None, None)
    if time.monotonic() >= deadline:
        return ("partial", 0, payload)

    size = n * n
    T = [-1] * size
    occ: list[list[int]] = [[] for _ in range(n)]
    trail: list[int] = []
    rng = range(n)
    count = 0
    nodes = 0

    def assign(idx: int, v: int) -> bool:
        T[idx] = v
        trail.append(idx)
        occ[v].append(idx)
        p0, q0 = divmod(idx, n)
        t = T
        vbase = v * n
        # New cell as a product p0*q0 = v: instances (p0,q0,x) and
        # (x,q0,p0) coincide and need t[x*n+q0] decided.
        for x in rng:
            u = t[x * n + q0]
            if u < 0:
                continue
            i1 = vbase + x
            i2 = u * n + p0
            a = t[i1]
            b = t[i2]
            if a >= 0:
                if b >= 0:
                    if a != b:
                        return False
                elif not assign(i2, a):
                    return False
            elif b >= 0:
                if not assign(i1, b):
                    return False
        # New cell as outer lookup (xy)*q0 with xy = p0: forces
        # (q0*y)*x = v whenever q0*y is decided.  occ[p0] may grow while
        # iterating; appended cells are handled by their own assign calls,
        # re-checking them here is sound.
        qbase = q0 * n
        for cell in occ[p0]:
            x, y = divmod(cell, n)
            u = t[qbase + y]
            if u < 0:
                continue
            i2 = u * n + x
            r = t[i2]
            if r < 0:
                if not assign(i2, v):
                    return False
            elif r != v:
                return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            i = trail.pop()
            occ[T[i]].pop()
            T[i] = -1

    def filter_perms(watch: dict, mark: int) -> dict | None:
        """None when the decided prefix is beaten; else the watch map after
        the cells in trail[mark:] were decided.

        Each scan of a firing bucket resumes at its entry's cursor and ends
        at an undecided cell or past the last one (filed there), at a
        larger image cell (dropped) or at a smaller one (prefix beaten).
        """
        new = None
        moved: dict[int, list] = {}
        t = T
        for cell in trail[mark:]:
            bucket = watch.get(cell)
            if bucket is None:
                continue
            if new is None:
                new = dict(watch)
            del new[cell]
            for perm in bucket:
                p, src, pos = perm
                start = pos
                while pos < size:
                    tv = t[pos]
                    if tv < 0:
                        at = pos
                        break
                    at = src[pos]
                    sv = t[at]
                    if sv < 0:
                        break
                    iv = p[sv]
                    if iv != tv:
                        if iv < tv:
                            return None
                        at = None
                        break
                    pos += 1
                else:
                    at = -1
                if at is not None:
                    moved.setdefault(at, []).append(perm if pos == start else (p, src, pos))
        if new is None:
            return watch
        for at, entries in moved.items():
            new[at] = new.get(at, ()) + tuple(entries)
        return new

    def dfs(idx: int, watch: dict, mark: int) -> None:
        nonlocal count, nodes
        nodes += 1
        if (nodes & 2047) == 1 and time.monotonic() >= deadline:
            raise _DeadlineHit
        watch = filter_perms(watch, mark)
        if watch is None:
            return
        while idx < size and T[idx] >= 0:
            idx += 1
        if idx == size:
            count += 1
            if emit is not None:
                emit(tuple(T))
            return
        for v in rng:
            mark = len(trail)
            if assign(idx, v):
                dfs(idx + 1, watch, mark)
            undo(mark)

    for idx in range(n):
        assign(idx, rank // n ** (n - 1 - idx) % n)
    try:
        dfs(0, {0: _perm_data(n)}, 0)
    except _DeadlineHit:
        return ("partial", count, payload)
    return ("ok", count, payload)


def _run(
    n: int,
    collect: Callable | None,
    merge: Callable | None,
    *,
    jobs: int = 1,
    budget: float | None = None,
    partition: tuple[int, int] | None = None,
    progress: Callable[[int, int, int], None] | None = None,
) -> int:
    """Run the units of order n and return the class count.

    The run is the range of unit ranks of its slice, range(i - 1, n**n, k)
    for partition=(i, k); its length is the unit count, and the ranks are
    mapped through _search with collect and one time.monotonic() deadline,
    budget seconds from the start (math.inf with no budget).  merge, when
    given, receives each unit's payload once, in rank order, the
    interrupted unit's included, before BudgetExceeded is raised.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    _refuse_order(n, f"the search at order {n}")
    i, k = partition or (1, 1)
    if k < 1 or not 1 <= i <= k:
        raise ValueError(f"partition slice {i}/{k} is not valid")
    deadline = time.monotonic() + budget if budget is not None else math.inf
    ranks = range(i - 1, n ** n, k)
    units = len(ranks)
    run_unit = partial(_search, n, collect, deadline)

    total = 0
    done = 0
    # A fork pool starts every worker it may use at the first submit.
    workers = min(jobs, units, os.cpu_count() or 1)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        results = pool.map(run_unit, ranks) if pool else map(run_unit, ranks)
        for status, cnt, payload in results:
            total += cnt
            if merge is not None:
                merge(payload)
            if status == "partial":
                raise BudgetExceeded(n, total, done, units)
            done += 1
            if progress is not None:
                progress(done, units, total)
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
    return total


def _tables(n: int) -> tuple[Callable, list]:
    """Collector that keeps each class's table tuple, in emission order."""
    tables: list[tuple[int, ...]] = []
    return tables.append, tables


def _census(n: int) -> tuple[Callable, list[int]]:
    """Collector that keeps the census tally of the unit's classes: how
    many are CA, associative, both, and both but not commutative.

    The census laws do not depend on the labels.  A canonical table's first
    rows are mostly 0 and seldom break a law, so the tally checks the copy
    relabeled by the reversal (n-1, ..., 0), whose scans from row 0 meet
    the failing instances first.  The reversal is its own inverse, so it
    maps cell pos to size - 1 - pos and value v to n - 1 - v, and the copy
    is [n - 1 - v for v in reversed(t)]; at order 1 that is t itself.
    """
    acc = [0, 0, 0, 0]  # ca, associative, ca∧assoc, assoc∧¬comm∧ca
    is_ca = CHECKERS["cyclic_associative"]
    is_assoc = CHECKERS["associative"]
    is_comm = CHECKERS["commutative"]
    top = n - 1

    def emit(t: tuple[int, ...]) -> None:
        t = [top - v for v in reversed(t)]
        ca = is_ca(n, t) is None
        if ca:
            acc[0] += 1
        if is_assoc(n, t) is None:
            acc[1] += 1
            if ca:
                acc[2] += 1
                if is_comm(n, t) is not None:
                    acc[3] += 1

    return emit, acc


def _census_counts(total: int, acc: list[int]) -> dict[str, int]:
    ca, assoc, ca_assoc, anc = acc
    return dict(zip(ROW_ORDER, (
        total, ca, assoc, total - assoc, ca - ca_assoc, assoc - ca_assoc, ca_assoc, anc,
    )))


def enumerate_ag(
    n: int,
    sink: Callable[[Magma], None] | None = None,
    *,
    jobs: int = 1,
    budget: float | None = None,
    partition: tuple[int, int] | None = None,
    progress: Callable[[int, int, int], None] | None = None,
) -> int:
    """Enumerate the isomorphism classes of AG-groupoids of order n.

    sink, when given, receives each class exactly once as a canonical Magma,
    in a deterministic order independent of the job count (capped at the CPU
    count); each unit's tables reach it when the unit is done.  budget is
    one deadline in seconds for the whole run, measured on the monotonic
    clock, so setting the system clock does not move it; on overrun
    BudgetExceeded carries the partial count, the classes the sink has
    received.  The search runs in n**n work units, one per first table row,
    in lexicographic order of that row.  partition=(i, k) restricts the run
    to the i-th of k round-robin slices of the units (1-based): the first
    rows of lexicographic rank i-1, i-1+k, i-1+2k, ...; slice counts sum to
    the full count.
    """
    def to_sink(tables: list[tuple[int, ...]]) -> None:
        for t in tables:
            sink(Magma(n, t))

    collect, merge = (_tables, to_sink) if sink is not None else (None, None)
    return _run(
        n, collect, merge, jobs=jobs, budget=budget, partition=partition, progress=progress,
    )


def classify_census(
    n: int, *, jobs: int = 1, budget: float | None = None,
) -> EnumerationReport:
    """Count the census classes among AG-groupoids of order n.

    Each unit's _census tally is summed.  Class predicates are the props
    checkers; the counts satisfy the arithmetic identities relating the
    eight ROW_ORDER rows.  On overrun the BudgetExceeded carries, in
    partial_counts, the rows of the classes counted so far.
    """
    acc = [0, 0, 0, 0]

    def merge(tally: list[int]) -> None:
        for j, v in enumerate(tally):
            acc[j] += v

    try:
        total = _run(n, _census, merge, jobs=jobs, budget=budget)
    except BudgetExceeded as exc:
        exc.partial_counts = _census_counts(exc.partial_count, acc)
        raise
    return EnumerationReport(n, _census_counts(total, acc))
