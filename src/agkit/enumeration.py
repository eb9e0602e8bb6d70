"""Isomorph-free enumeration of AG-groupoids and the classification census.

The search assigns table cells in row-major order under constraint
propagation for the left invertive law, and accepts a completed table only
when it equals its own minimal-image canonical form, so each isomorphism
class is emitted exactly once, in canonical form, in increasing
lexicographic order.  The tree is split into independent partitions at the
first table row for parallel and resumable runs; totals are deterministic
for any job count.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import Magma
from .iso import _perm_data
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
    """Wall-clock budget ran out; partial progress is attached.

    partial_count includes classes from the interrupted partition, so a
    resume that re-runs partitions from partitions_done onward re-counts
    that partition from scratch.
    """

    def __init__(
        self,
        order: int,
        partial_count: int,
        partitions_done: int,
        partitions_total: int,
        partial_counts: dict[str, int] | None = None,
    ):
        super().__init__(
            f"budget exceeded at order {order}: {partial_count} classes counted, "
            f"{partitions_done}/{partitions_total} partitions complete"
        )
        self.order = order
        self.partial_count = partial_count
        self.partitions_done = partitions_done
        self.partitions_total = partitions_total
        self.partial_counts = partial_counts


class _DeadlineHit(Exception):
    pass


def _search(
    n: int,
    emit: Optional[Callable[[tuple[int, ...]], None]],
    *,
    forced: Sequence[tuple[int, int]] = (),
    deadline: float | None = None,
    collect_partitions: list | None = None,
) -> int:
    """Depth-first table completion; returns the number of classes emitted.

    State: flat table with -1 for undecided cells, occ[v] listing the cells
    holding v, and an assignment trail for undo.  assign() enforces every
    instance of (ab)c = (cb)a that the new cell closes, recursing on cells
    whose value it forces.  A list of still-alive permutations is filtered
    on entering each new row: a permutation whose relabeled image is
    lexicographically larger on the decided prefix can never beat any
    completion (dropped); one that is smaller beats every completion
    (subtree pruned).  At a full table the survivors are automorphisms and
    the table is its own canonical form.

    Each alive entry (p, src, cursor) carries the first cell its comparison
    has not passed: every cell before the cursor is decided and equal to its
    image, and stays so below the node that set it, so the next filter
    resumes there instead of at cell 0.  A survivor whose cursor moved is
    replaced by a new tuple; a parent's list is never mutated, and the root
    list is the cached _perm_data(n) tuple itself.

    forced replays a choice sequence to re-enter a partition.  With
    collect_partitions, the search instead stops whenever row 0 is fully
    decided, records the choice sequence, and backtracks.
    """
    size = n * n
    T = [-1] * size
    occ: list[list[int]] = [[] for _ in range(n)]
    trail: list[int] = []
    rng = range(n)
    count = 0
    nodes = 0
    choices: list[tuple[int, int]] = []
    track = collect_partitions is not None

    def assign(idx: int, v: int) -> bool:
        w = T[idx]
        if w >= 0:
            return w == v
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

    def filter_perms(alive):
        """None when the decided prefix is beaten; else the still-alive perms.

        Each scan resumes at its entry's cursor and ends at an undecided
        cell or past the last one (kept), at a larger image cell (dropped,
        pos = -1) or at a smaller one (prefix beaten).
        """
        survivors = []
        t = T
        for perm in alive:
            p, src, pos = perm
            start = pos
            while pos < size:
                tv = t[pos]
                if tv < 0:
                    break
                sv = t[src[pos]]
                if sv < 0:
                    break
                iv = p[sv]
                if iv != tv:
                    if iv < tv:
                        return None
                    pos = -1
                    break
                pos += 1
            if pos == start:
                survivors.append(perm)
            elif pos >= 0:
                survivors.append((p, src, pos))
        return survivors

    def dfs(idx: int, alive, filter_row: int) -> None:
        nonlocal count, nodes
        nodes += 1
        if deadline is not None and (nodes & 2047) == 0 and time.monotonic() > deadline:
            raise _DeadlineHit()
        while idx < size and T[idx] >= 0:
            idx += 1
        if track and idx >= n:
            collect_partitions.append(tuple(choices))
            return
        if idx == size:
            final = filter_perms(alive)
            if final is None:
                return
            count += 1
            if emit is not None:
                emit(tuple(T))
            return
        row = idx // n
        if row >= filter_row:
            if deadline is not None and time.monotonic() > deadline:
                raise _DeadlineHit()
            alive = filter_perms(alive)
            if alive is None:
                return
            filter_row = row + 1
        for v in rng:
            mark = len(trail)
            if assign(idx, v):
                if track:
                    choices.append((idx, v))
                    dfs(idx + 1, alive, filter_row)
                    choices.pop()
                else:
                    dfs(idx + 1, alive, filter_row)
            undo(mark)

    for idx, v in forced:
        if not assign(idx, v):
            return 0
    dfs(0, _perm_data(n), 1)
    return count


def _partitions(n: int, deadline: float | None = None) -> list[tuple[tuple[int, int], ...]]:
    """Choice sequences deciding row 0; each roots an independent subtree."""
    parts: list[tuple[tuple[int, int], ...]] = []
    _search(n, None, deadline=deadline, collect_partitions=parts)
    return parts


def _work_unit(args) -> tuple:
    """Run one partition; picklable for process pools.

    Returns ("ok"|"partial", class_count, payload) with payload the table
    list in "tables" mode, the census accumulator in "census" mode, else
    None.
    """
    n, forced, mode, wall_deadline = args
    deadline = None
    if wall_deadline is not None:
        deadline = time.monotonic() + max(0.0, wall_deadline - time.time())

    tables: list[tuple[int, ...]] = []
    acc = [0, 0, 0, 0, 0]  # total, ca, associative, ca∧assoc, assoc∧¬comm∧ca
    if mode == "tables":
        emit = tables.append
    elif mode == "census":
        is_ca = CHECKERS["cyclic_associative"]
        is_assoc = CHECKERS["associative"]
        is_comm = CHECKERS["commutative"]

        def emit(t: tuple[int, ...]) -> None:
            acc[0] += 1
            ca = is_ca(n, t) is None
            assoc = is_assoc(n, t) is None
            if ca:
                acc[1] += 1
            if assoc:
                acc[2] += 1
                if ca:
                    acc[3] += 1
                    if is_comm(n, t) is not None:
                        acc[4] += 1
    else:
        emit = None

    payload = tables if mode == "tables" else acc if mode == "census" else None
    try:
        cnt = _search(n, emit, forced=forced, deadline=deadline)
    except _DeadlineHit:
        done = acc[0] if mode == "census" else len(tables)
        return ("partial", done, payload)
    return ("ok", cnt, payload)


def _parse_slice(partition: tuple[int, int] | None) -> slice:
    if partition is None:
        return slice(None)
    i, k = partition
    if k < 1 or not 1 <= i <= k:
        raise ValueError(f"partition slice {i}/{k} is not valid")
    return slice(i - 1, None, k)


def _run(
    n: int,
    mode: str,
    *,
    jobs: int = 1,
    budget: float | None = None,
    partition: tuple[int, int] | None = None,
    progress: Callable[[int, int, int], None] | None = None,
    sink: Callable[[Magma], None] | None = None,
) -> tuple[int, list[int]]:
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    wall_deadline = time.time() + budget if budget is not None else None
    mono_deadline = time.monotonic() + budget if budget is not None else None
    try:
        parts = _partitions(n, deadline=mono_deadline)
    except _DeadlineHit:
        raise BudgetExceeded(n, 0, 0, 0) from None
    units = [(n, forced, mode, wall_deadline) for forced in parts[_parse_slice(partition)]]

    total = 0
    agg = [0, 0, 0, 0, 0]
    done = 0
    pool = None
    try:
        if jobs > 1 and len(units) > 1:
            pool = ProcessPoolExecutor(max_workers=jobs)
            results = pool.map(_work_unit, units, timeout=budget)
        else:
            results = map(_work_unit, units)
        for status, cnt, payload in results:
            total += cnt
            if mode == "census":
                for i, v in enumerate(payload):
                    agg[i] += v
            elif mode == "tables" and sink is not None:
                for t in payload:
                    sink(Magma(n, t))
            if status == "partial":
                raise BudgetExceeded(
                    n, total, done, len(units),
                    _census_counts(agg) if mode == "census" else None,
                )
            done += 1
            if progress is not None:
                progress(done, len(units), total)
    except _FutureTimeout:
        raise BudgetExceeded(
            n, total, done, len(units),
            _census_counts(agg) if mode == "census" else None,
        ) from None
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
    return total, agg


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

    sink, when given, receives each class exactly once as a canonical
    Magma, in a deterministic order independent of the job count.  budget
    is wall-clock seconds; on overrun BudgetExceeded carries the partial
    count.  partition=(i, k) restricts the run to the i-th of k round-robin
    slices of the first-row partitions (1-based); slice counts sum to the
    full count.
    """
    mode = "tables" if sink is not None else "count"
    total, _ = _run(
        n, mode, jobs=jobs, budget=budget, partition=partition,
        progress=progress, sink=sink,
    )
    return total


def _census_counts(acc: list[int]) -> dict[str, int]:
    total, ca, assoc, ca_assoc, anc = acc
    return {
        "AG": total,
        "CA": ca,
        "associative": assoc,
        "non-associative": total - assoc,
        "CA ∧ non-associative": ca - ca_assoc,
        "associative ∧ ¬CA": assoc - ca_assoc,
        "CA ∧ associative": ca_assoc,
        "associative ∧ ¬commutative ∧ CA": anc,
    }


def classify_census(
    n: int,
    *,
    jobs: int = 1,
    budget: float | None = None,
    progress: Callable[[int, int, int], None] | None = None,
) -> EnumerationReport:
    """Count the census classes among AG-groupoids of order n.

    Class predicates are the props checkers; the counts satisfy the
    arithmetic identities relating the eight ROW_ORDER rows.
    """
    _, acc = _run(n, "census", jobs=jobs, budget=budget, progress=progress)
    return EnumerationReport(n, _census_counts(acc))
