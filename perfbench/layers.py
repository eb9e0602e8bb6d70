"""Per-layer measurements for the traced run.

Every number comes from timing calls into a module's public functions
from here; nothing inside agkit is instrumented.  measure() returns the
metrics named in BENCHMARK.json's per_layer list except cli.overhead_s.*
and trace.overhead_s, which run.py takes from the spans of a "cli-pass"
round (class Spans).
"""

from __future__ import annotations

import statistics
import time
from types import FunctionType

from agkit import (
    CATALOG,
    CLAIM_IDS,
    Magma,
    ca_test,
    canonical_form,
    check_property,
    classify,
    enumerate_ag,
    magma_satisfies,
    parse_magma,
    parse_property_expr,
    render_magma,
    verify_claims,
)

import workloads as wl

REPEATS = 2


class Spans:
    """Spans around the calls agkit.cli makes into the library modules.

    Each span is keyed "<module>.<function>" and aggregated into calls,
    total and self seconds (total minus the spans opened inside it).
    Functions that the CLI passes into the library, such as the
    enumerate sink, run under "cli.callback" spans, so their time counts
    as the CLI's own.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self._open: list[float] = []

    def wrap(self, key: str, fn):
        def span(*args, **kwargs):
            args = tuple(self.wrap("cli.callback", a) if isinstance(a, FunctionType) else a for a in args)
            kwargs = {k: self.wrap("cli.callback", v) if isinstance(v, FunctionType) else v
                      for k, v in kwargs.items()}
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = time.perf_counter() - t0
                inner = self._open.pop()
                if self._open:
                    self._open[-1] += d
                s = self.stats.setdefault(key, [0, 0.0, 0.0])
                s[0] += 1
                s[1] += d
                s[2] += d - inner

        return span

    def summary(self, wall: float) -> dict:
        library = sum(s[2] for k, s in self.stats.items() if not k.startswith("cli."))
        return {
            "library_self_s": library,
            "cli_self_s": wall - library,
            "spans": {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in self.stats.items()},
        }

    @staticmethod
    def installer(cli):
        """A function that puts fresh spans around cli's library calls."""
        originals = {
            name: fn for name, fn in vars(cli).items()
            if isinstance(fn, FunctionType) and fn.__module__.startswith("agkit.")
            and fn.__module__ != cli.__name__
        }

        def install() -> Spans:
            spans = Spans()
            for name, fn in originals.items():
                setattr(cli, name, spans.wrap(f"{fn.__module__.rsplit('.', 1)[-1]}.{name}", fn))
            return spans

        return install


def _per_call_us(fn, items) -> float:
    """Median over REPEATS passes of the mean microseconds per call."""
    passes = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for x in items:
            fn(x)
        passes.append((time.perf_counter() - t0) / len(items) * 1e6)
    return statistics.median(passes)


def _progress_run(n: int, sink=None, partition=None) -> dict:
    """Sequential enumerate_ag with the gaps between progress callbacks."""
    marks: list[tuple[float, int]] = []
    t0 = time.perf_counter()
    enumerate_ag(n, sink, partition=partition, progress=lambda d, t, c: marks.append((time.perf_counter(), c)))
    total = time.perf_counter() - t0
    gaps, empty = [], 0.0
    prev_t, prev_c = t0, 0
    for t, c in marks:
        gaps.append(t - prev_t)
        if c == prev_c:
            empty += t - prev_t
        prev_t, prev_c = t, c
    return {"total_s": total, "partitions": len(gaps), "partition_max_s": max(gaps), "empty_s": empty}


def measure(seed: int) -> dict:
    out: dict = {}
    # Stream layers: the table-stream inputs, call by call.
    entries = wl.stream_entries(seed)
    lines = [wl.encode(e.order, e.table) for e in entries]
    magmas = [parse_magma(s) for s in lines]
    by_kind = {k: [m for m, e in zip(magmas, entries) if e.kind == k] for k in ("ag5", "random5", "ag6")}
    expr = parse_property_expr(wl.CA_NOT_ASSOC)
    out["core.parse_us"] = _per_call_us(parse_magma, lines)
    out["core.render_us"] = _per_call_us(render_magma, magmas)
    out["core.magma_us"] = _per_call_us(lambda m: Magma(m.order, m.table), magmas)
    out["props.classify_us.ag"] = _per_call_us(classify, by_kind["ag5"])
    out["props.classify_us.random"] = _per_call_us(classify, by_kind["random5"])
    out["props.expr_us"] = _per_call_us(lambda m: magma_satisfies(m, expr), magmas)
    out["iso.canonical_form_us.o5"] = _per_call_us(canonical_form, by_kind["ag5"] + by_kind["random5"])
    out["iso.canonical_form_us.o6"] = _per_call_us(canonical_form, by_kind["ag6"])
    out["catest.ca_test_us"] = _per_call_us(ca_test, magmas)

    # Enumeration at order 5, and the check of every property over its classes.
    run = _progress_run(5)
    out["enumeration.o5.count_s"] = run["total_s"]
    out["enumeration.o5.partitions"] = run["partitions"]
    out["enumeration.o5.partition_max_s"] = run["partition_max_s"]
    universe: list[Magma] = []
    t0 = time.perf_counter()
    enumerate_ag(5, universe.append)
    out["enumeration.o5.tables_s"] = time.perf_counter() - t0
    for name in CATALOG:
        t0 = time.perf_counter()
        for m in universe:
            check_property(m, name)
        out[f"props.check.{name}_s"] = time.perf_counter() - t0
    del universe

    # Claims: the call that builds the universes, then each claim alone.
    t0 = time.perf_counter()
    verify_claims(5, ids=["C29"])
    out["theorems.universe_s"] = time.perf_counter() - t0
    for cid in CLAIM_IDS:
        t0 = time.perf_counter()
        verify_claims(5, ids=[cid])
        out[f"theorems.claim.{cid}_s"] = time.perf_counter() - t0

    # The order-6 slice: sequential with partition gaps, then two workers.
    tables: list[Magma] = []
    run = _progress_run(6, tables.append, partition=(6, 6))
    out["enumeration.o6.seq_s"] = run["total_s"]
    out["enumeration.o6.empty_s"] = run["empty_s"]
    out["enumeration.o6.partition_max_s"] = run["partition_max_s"]
    out["enumeration.o6.partitions"] = run["partitions"]
    tables.clear()
    t0 = time.perf_counter()
    enumerate_ag(6, tables.append, partition=(6, 6), jobs=2)
    out["enumeration.o6.parallel_eff"] = out["enumeration.o6.seq_s"] / (2 * (time.perf_counter() - t0))
    return out
