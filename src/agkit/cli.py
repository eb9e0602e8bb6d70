"""Command-line entry point.

Subcommands: check, ca-test, canon, enumerate, classify, verify.  Table
arguments accept an inline "n:e1,...", a file path, or "-" for standard
input.  Human-readable text labels elements 1-based; JSON output uses the
0-based encoding throughout.  Exit codes: 0 success / verdict true, 1
verdict false or reference mismatch, 2 usage or input error, 3 budget
exceeded (partial output is labeled), 141 standard output closed by its
reader (128 + SIGPIPE; nothing is printed).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import re
import sys
from typing import Sequence

from .catest import ca_test, render_extended_table
from .core import Magma, read_magmas, render_magma
from .enumeration import (
    LARGE_ORDER_THRESHOLD,
    PUBLISHED_INCONSISTENT_CELLS,
    PUBLISHED_CENSUS,
    ROW_ORDER,
    BudgetExceeded,
    classify_census,
    enumerate_ag,
)
from .iso import canonical_form
from .props import (
    AtomColumns,
    check_property,
    classify,
    magma_satisfies,
    parse_property_expr,
    require_property,
)
from .theorems import ClaimBudgetError, verify_claims


def _one_based(witness: tuple[int, ...]) -> str:
    return "(" + ", ".join(str(v + 1) for v in witness) + ")"


def _ascii_int(raw: str) -> int | None:
    """The value of raw when it is written in the digits 0-9, else None.

    int() also takes underscores and the digits of other scripts.
    """
    raw = raw.strip()
    return int(raw) if raw.isascii() and raw.isdigit() else None


def _ascii_seconds(raw: str) -> float | None:
    """As _ascii_int, with at most one '.'; float() also takes 1e3 and inf."""
    raw = raw.strip()
    return float(raw) if re.fullmatch(r"[0-9]+\.?[0-9]*|\.[0-9]+", raw) else None


def _name_list(flag: str, raw: str, what: str) -> list[str]:
    """The comma-separated names of raw, stripped, each kept at its first
    place only; refuses a list of none."""
    names = list(dict.fromkeys(s.strip() for s in raw.split(",") if s.strip()))
    if not names:
        raise ValueError(f"{flag} {raw!r} names no {what}")
    return names


def _require_allow_large(order: int, allow_large: bool) -> None:
    if order >= LARGE_ORDER_THRESHOLD and not allow_large:
        raise ValueError(
            f"order {order} is an hours-scale run; pass --allow-large to confirm"
        )


# (flag, namespace attribute, converter, least accepted value) of the
# numeric options.  argparse passes them on as text; the defaults are numbers.
_LOWER_BOUNDS = (
    ("--order", "order", _ascii_int, 1),
    ("--max-order", "max_order", _ascii_int, 1),
    ("--jobs", "jobs", _ascii_int, 1),
    ("--budget", "budget", _ascii_seconds, 0),
)
_BUDGET_HELP = "wall-clock seconds for the whole command (digits 0-9, at most one '.')"


def _check_bounds(args: argparse.Namespace) -> None:
    """Convert the numeric options from text and check every bound."""
    for flag, dest, convert, low in _LOWER_BOUNDS:
        value = getattr(args, dest, None)
        if isinstance(value, str):
            raw, value = value, convert(value)
            if value is None:
                raise ValueError(f"{flag} {raw!r} is not written in the digits 0-9")
            setattr(args, dest, value)
        if value is not None and not value >= low:
            raise ValueError(f"{flag} must be >= {low}, got {value}")


def _cmd_check(args: argparse.Namespace) -> int:
    props = _name_list("--props", args.props, "property") if args.props is not None else []
    for name in props:
        require_property(name)
    expr = parse_property_expr(args.expr) if args.expr is not None else None
    magmas = read_magmas(args.table)
    predicate_mode = bool(props) or expr is not None
    if expr is not None:
        columns = AtomColumns(m.table for m in magmas)
        holding = set(columns.select(expr, range(len(magmas))))

    records = []
    all_true = True
    for k, m in enumerate(magmas):
        rec: dict = {"magma": render_magma(m), "props": {}, "witnesses": {}}
        if predicate_mode:
            for name in props:
                res = check_property(m, name)
                rec["props"][name] = res.holds
                if not res.holds:
                    all_true = False
                    if res.witness is not None:
                        rec["witnesses"][name] = list(res.witness)
            if expr is not None:
                value = k in holding
                rec["expr"] = {"text": args.expr, "holds": value}
                if not value:
                    all_true = False
        else:
            rec["props"] = classify(m)
        records.append(rec)

    if args.json:
        print(json.dumps(records, ensure_ascii=False))
    else:
        single = len(magmas) == 1
        for k, rec in enumerate(records):
            prefix = "" if single else f"magma {k + 1}: "
            if predicate_mode and single and len(props) + (expr is not None) == 1:
                # One magma and one check: all_true is that check's value.
                print("true" if all_true else "false")
                continue
            for name, value in rec["props"].items():
                line = f"{prefix}{name}: {'true' if value else 'false'}"
                if name in rec["witnesses"]:
                    line += f"  fails at {_one_based(tuple(rec['witnesses'][name]))} (1-based)"
                print(line)
            if expr is not None:
                print(f"{prefix}{args.expr}: {'true' if rec['expr']['holds'] else 'false'}")
    return 0 if (all_true or not predicate_mode) else 1


def _cmd_ca_test(args: argparse.Namespace) -> int:
    magmas = read_magmas(args.table)
    out = []
    all_ca = True
    non_ag = [k for k, m in enumerate(magmas, 1) if not check_property(m, "ag").holds]
    if non_ag:
        print(
            f"warning: {len(non_ag)} of {len(magmas)} inputs fail the left "
            f"invertive law (first: input {non_ag[0]}); reporting verdicts anyway",
            file=sys.stderr,
        )
    for m in magmas:
        report = ca_test(m)
        all_ca = all_ca and report.verdict
        out.append((m, report))

    if args.json:
        payload = [
            {
                "magma": render_magma(m),
                "verdict": r.verdict,
                "first_mismatch": list(r.first_mismatch) if r.first_mismatch else None,
                "star_tables": r.star_tables,
                "circle_tables": r.circle_tables,
            }
            for m, r in out
        ]
        print(json.dumps(payload, ensure_ascii=False))
    else:
        single = len(out) == 1
        for k, (m, r) in enumerate(out):
            prefix = "" if single else f"magma {k + 1}: "
            if r.verdict:
                print(f"{prefix}cyclic associative: true")
            else:
                x, a, b = r.first_mismatch
                print(
                    f"{prefix}cyclic associative: false  "
                    f"first mismatch at x={x + 1}, row={a + 1}, col={b + 1} (1-based)"
                )
            if args.render:
                print(render_extended_table(m, r))
    return 0 if all_ca else 1


def _cmd_canon(args: argparse.Namespace) -> int:
    for m in read_magmas(args.table):
        print(render_magma(canonical_form(m)))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    _require_allow_large(args.order, args.allow_large)
    expr = parse_property_expr(args.cls) if args.cls is not None else None
    partition = _parse_partition(args.partition)
    matched = 0

    def progress(done: int, total: int, count: int) -> None:
        print(f"partition {done}/{total} done, {count} classes so far", file=sys.stderr)

    need_tables = expr is not None or not args.count_only
    # Opened only now, so bad input above leaves no truncated file.
    if args.out and args.out != "-":
        out = open(args.out, "w", encoding="utf-8")
    else:
        out = contextlib.nullcontext(sys.stdout)
    with out as out_stream:

        def sink(m: Magma) -> None:
            nonlocal matched
            if expr is not None and not magma_satisfies(m, expr):
                return
            matched += 1
            if not args.count_only:
                print(render_magma(m), file=out_stream)

        total = enumerate_ag(
            args.order,
            sink if need_tables else None,
            jobs=args.jobs,
            budget=args.budget,
            partition=partition,
            progress=progress if args.progress else None,
        )

    count = matched if expr is not None else total
    if args.count_only:
        print(count)
    else:
        print(f"{count} classes of order {args.order}", file=sys.stderr)
    return 0


def _parse_partition(raw: str | None) -> tuple[int, int] | None:
    if raw is None:
        return None
    m = re.fullmatch(r"([0-9]+)/([0-9]+)", raw.strip())
    if not m:
        raise ValueError(f"--partition expects i/k, got {raw!r}")
    return int(m.group(1)), int(m.group(2))


def _cmd_classify(args: argparse.Namespace) -> int:
    _require_allow_large(args.order, args.allow_large)
    stop = None
    try:
        counts = classify_census(args.order, jobs=args.jobs, budget=args.budget)
    except BudgetExceeded as exc:
        counts, stop = exc.partial_counts, exc
    partial = stop is not None

    reference = PUBLISHED_CENSUS.get(args.order)
    rows = []
    any_fail = False
    for name in ROW_ORDER:
        count = counts[name]
        row: dict = {"class": name, "count": count}
        if reference is not None and not partial:
            published = reference[name]
            derived = PUBLISHED_INCONSISTENT_CELLS.get((args.order, name))
            expected = derived if derived is not None else published
            ok = count == expected
            any_fail = any_fail or not ok
            row["reference"] = published
            row["pass"] = ok
            if derived is not None:
                row["note"] = (
                    f"published {published} is inconsistent with its own row "
                    f"arithmetic; derived value {derived}"
                )
        rows.append(row)

    if args.json:
        print(
            json.dumps(
                {"order": args.order, "partial": partial, "rows": rows},
                ensure_ascii=False,
            )
        )
    else:
        label = "partial counts" if partial else "counts"
        print(f"order {args.order} census ({label}):")
        for row in rows:
            line = f"  {row['class']}: {row['count']}"
            if "reference" in row:
                line += f"  (reference {row['reference']})"
                line += "  PASS" if row["pass"] else "  FAIL"
            if "note" in row:
                line += f"  [{row['note']}]"
            print(line)
    if partial:
        raise stop
    return 1 if any_fail else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    ids = _name_list("--claims", args.claims, "claim id") if args.claims is not None else None
    stop = None
    try:
        results = verify_claims(args.max_order, ids, budget=args.budget)
    except ClaimBudgetError as exc:
        results, stop = exc.results, exc
    if args.json:
        print(json.dumps([dataclasses.asdict(r) for r in results], ensure_ascii=False))
    else:
        for r in results:
            tag = " [external premise]" if r.external_premise else ""
            print(f"{r.id} {r.kind}: {r.status}{tag}  {r.statement}")
        if stop is None:
            ok = sum(1 for r in results if r.ok)
            print(f"{ok}/{len(results)} claims ok (max_order={args.max_order})")
    if stop is not None:
        raise stop
    return 0 if all(r.ok for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agkit",
        description="Classify, test, enumerate and verify finite AG-groupoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_table(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "table",
            help='inline "n:e1,...", a file of such lines, or - for stdin',
        )

    p = sub.add_parser("check", help="check properties of magmas")
    add_table(p)
    p.add_argument("--props", help="comma-separated property names")
    p.add_argument("--expr", help="property expression with & | ! and parentheses")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("ca-test", help="run the extended-table cyclic associativity test")
    add_table(p)
    p.add_argument("--render", action="store_true", help="print the extended table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ca_test)

    p = sub.add_parser("canon", help="print canonical forms")
    add_table(p)
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("enumerate", help="enumerate AG-groupoid classes of one order")
    p.add_argument("--order", required=True)
    p.add_argument("--class", dest="cls", help="keep only classes satisfying this expression")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--out", help="write magma lines to this file instead of stdout")
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--jobs", default=1)
    p.add_argument("--budget", help=_BUDGET_HELP)
    p.add_argument("--partition", help="i/k: run the i-th of k round-robin slices")
    p.add_argument("--progress", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("classify", help="census of one order against the reference table")
    p.add_argument("--order", required=True)
    p.add_argument("--jobs", default=1)
    p.add_argument("--budget", help=_BUDGET_HELP)
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="verify the theorem and counterexample claims")
    p.add_argument("--claims", help="comma-separated claim ids (default: all)")
    p.add_argument("--max-order", default=4)
    p.add_argument("--budget", help=_BUDGET_HELP + ", checked before each claim")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_bounds(args)
        return args.func(args)
    except BrokenPipeError:
        # The reader of stdout has gone: the shutdown flush goes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (BudgetExceeded, ClaimBudgetError) as exc:
        # The one budget exit: a command prints its partial output first.
        print(f"partial: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
