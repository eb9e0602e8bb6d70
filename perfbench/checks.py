"""Checks of one round's outputs against the computations in reference.py.

Each check returns the exit code every command should have had and a
list of errors; an empty list means the outputs are right.  This module
does not import agkit.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import reference as ref
import workloads as wl


def check_round(workload: str, seed: int, workdir: Path, outputs: list[Path]) -> tuple[list[int], list[str]]:
    """outputs[i] is the captured standard output of the round's i-th command."""
    texts = [p.read_text(encoding="utf-8") for p in outputs]
    if workload == "census-o5":
        return [0] * 4, _check_census(texts, (2, 3, 4, 5))
    if workload == "o6-slice":
        return [0], _check_last_slice(seed, workdir / wl.O6_OUT_FILE, 6, ref.O6_SLICE_CLASSES, texts[0])
    if workload == "verify-o5":
        return [0], _check_verify(texts[0], 5)
    expected_rc, errors = _check_table_stream(workload, seed, workdir, texts[:4])
    if workload == "cli-pass":
        expected_rc += [0, 0, 0]
        errors += _check_census(texts[4:5], (4,))
        errors += _check_verify(texts[5], 4)
        # The class list that _check_ag5_data has checked.
        o5_lines = (workdir / wl.O5_OUT_FILE).read_text(encoding="utf-8").splitlines()
        if texts[6].strip() or o5_lines != ref.ag5_class_lines():
            errors.append(f"enumerate --order 5 differs from {ref.AG5_CLASSES_FILE.name}")
    return expected_rc, errors


def _check_census(texts: list[str], orders: tuple[int, ...]) -> list[str]:
    errors = []
    for order, text in zip(orders, texts):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            errors.append(f"classify --order {order}: output is not JSON ({exc})")
            continue
        if doc.get("order") != order or doc.get("partial") is not False:
            errors.append(f"classify --order {order}: wrong order or partial flag")
        rows = doc.get("rows", [])
        if [r.get("class") for r in rows] != list(ref.CENSUS_ROWS):
            errors.append(f"classify --order {order}: rows differ from the paper's table")
            continue
        expected = ref.census_expected(order)
        counts = {}
        for r in rows:
            want, printed = expected[r["class"]]
            counts[r["class"]] = r["count"]
            if (r["count"], r.get("reference"), r.get("pass")) != (want, printed, True):
                errors.append(
                    f"order {order} {r['class']}: count {r['count']} reference "
                    f"{r.get('reference')} pass {r.get('pass')}, expected {want} "
                    f"against printed {printed}"
                )
        errors += [f"order {order}: {e}" for e in ref.census_arithmetic_errors(counts)]
    # The transcription itself, where brute force is cheap.
    for order in (2, 3):
        classes = ref.brute_force_classes(order)
        row = dict(zip(ref.CENSUS_ROWS, ref.PAPER_CENSUS[order]))
        derived = {name: ref.census_expected(order)[name][0] for name in ref.CENSUS_ROWS}
        found = (
            len(classes),
            sum(ref.CYCLIC_ASSOCIATIVE.holds(order, t) for t in classes),
            sum(ref.ASSOCIATIVE.holds(order, t) for t in classes),
        )
        if found != (row["AG"], row["CA"], row["associative"]) or ref.census_arithmetic_errors(derived):
            errors.append(f"transcribed order-{order} census row disagrees with brute force {found}")
    return errors


def _check_last_slice(seed: int, path: Path, order: int, expected: int, stdout: str) -> list[str]:
    """An enumerate --partition k/k --out file (k the order): AG tables,
    increasing, minimal on a sample.  Slice k/k of the k**k first rows
    taken in increasing order holds the rows that end in k - 1."""
    errors = []
    if stdout.strip():
        errors.append("enumerate --out wrote tables to standard output")
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != expected:
        errors.append(f"{path.name} has {len(lines)} classes, expected {expected}")
    tables = []
    for k, line in enumerate(lines):
        n, t = wl.parse_line(line)
        if n != order or len(t) != order * order:
            errors.append(f"line {k + 1} is not an order-{order} table")
            return errors
        tables.append(t)
    for k, t in enumerate(tables):
        if t[order - 1] != order - 1:
            errors.append(f"line {k + 1}: 0*{order - 1} = {t[order - 1]}, outside the last slice")
        if not ref.AG.holds(order, t):
            errors.append(f"line {k + 1}: not left invertive at {ref.AG.first_failure(order, t)}")
        if k and not tables[k - 1] < t:
            errors.append(f"line {k + 1} does not follow line {k} in increasing order")
        if len(errors) > 10:
            return errors
    rng = random.Random(seed)
    for k in sorted(rng.sample(range(len(tables)), min(32, len(tables)))):
        if not ref.is_min_image(order, tables[k]):
            errors.append(f"line {k + 1} is not minimal over all relabellings")
    return errors


def _check_verify(stdout: str, max_order: int) -> list[str]:
    try:
        results = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"verify output is not JSON ({exc})"]
    errors = []
    if [r["id"] for r in results] != [f"C{i}" for i in range(1, 36)]:
        errors.append("verify did not report claims C1..C35 in order")
    ag_pool = ref.classes_up_to(max_order, "AG") + wl.BUNDLED_TABLES
    ca_low = ref.classes_up_to(max_order, "CA")
    ca_scopes = set()
    for r in results:
        if r["status"] not in ("verified", "witness-found"):
            errors.append(f"{r['id']}: {r['status']}")
            continue
        ev = r["evidence"]
        if r["kind"] == "implication":
            pool = ag_pool + (wl.ALL_MAGMAS_LE3 if r["scope"].startswith("all magmas") else 0)
            parts, rest = divmod(ev["scope_size"], pool)
            if rest or not parts:
                errors.append(f"{r['id']}: scope_size {ev['scope_size']} is not a whole number of scopes of {pool}")
        elif r["kind"] in ("equivalence", "substructure"):
            # Cyclic associative classes up to max_order plus the bundled
            # tables among them.
            ca_scopes.add(ev["scope_size"])
            if not ca_low <= ev["scope_size"] <= ca_low + wl.BUNDLED_TABLES:
                errors.append(f"{r['id']}: scope_size {ev['scope_size']} outside the CA scope")
        else:
            for part in ev["parts"]:
                if not part["satisfied"] or part["universe_matches"] == 0:
                    errors.append(f"{r['id']}: witness {part['fixture']} does not separate")
    if len(ca_scopes) > 1:
        errors.append(f"cyclic associative scopes differ between claims: {sorted(ca_scopes)}")
    return errors


_EXPR_LINE = re.compile(r"^magma (\d+): (.*): (true|false)$")


def _check_ag5_data() -> list[str]:
    """The class list the ag5 inputs are drawn from, against the paper's
    count and the evaluator.  _check_table_stream checks that each line
    it draws is minimal."""
    lines = ref.ag5_class_lines()
    if len(lines) != ref.PAPER_CENSUS[5][0]:
        return [f"{ref.AG5_CLASSES_FILE.name} has {len(lines)} classes, the paper {ref.PAPER_CENSUS[5][0]}"]
    tables = [wl.parse_line(line) for line in lines]
    if any(n != 5 or len(t) != 25 for n, t in tables):
        return [f"{ref.AG5_CLASSES_FILE.name} holds a line that is not an order-5 table"]
    if any(not a < b for a, b in zip(tables, tables[1:])):
        return [f"{ref.AG5_CLASSES_FILE.name} is not strictly increasing"]
    if not all(ref.AG.holds(5, t) for _, t in tables):
        return [f"{ref.AG5_CLASSES_FILE.name} holds a table that is not AG"]
    return []


def _check_table_stream(workload: str, seed: int, workdir: Path, texts: list[str]) -> tuple[list[int], list[str]]:
    entries = wl.stream_entries(seed, workload)
    lines = [wl.encode(e.order, e.table) for e in entries]
    errors = _check_ag5_data()
    if (workdir / wl.STREAM_FILE).read_text(encoding="utf-8").splitlines() != lines:
        errors.append("the stream file differs from its seed")
    ca = [ref.CYCLIC_ASSOCIATIVE.holds(e.order, e.table) for e in entries]
    assoc = [ref.ASSOCIATIVE.holds(e.order, e.table) for e in entries]
    expr_values = [c and not a for c, a in zip(ca, assoc)]
    expected_rc = [0, 0 if all(expr_values) else 1, 0, 0 if all(ca) else 1]

    def report(message: str) -> None:
        if len(errors) < 20:
            errors.append(message)

    try:
        records = json.loads(texts[0])
    except json.JSONDecodeError as exc:
        records = []
        report(f"check --json output is not JSON ({exc})")
    if len(records) != len(entries):
        report(f"check --json reported {len(records)} of {len(entries)} tables")
    for k, (e, rec) in enumerate(zip(entries, records)):
        if rec["magma"] != lines[k]:
            report(f"check record {k + 1} names another table")
        for name, identity in ref.FLAG_IDENTITIES.items():
            if rec["props"].get(name) != identity.holds(e.order, e.table):
                report(f"check: table {k + 1} {name} is {rec['props'].get(name)}")

    expr_lines = texts[1].splitlines()
    if len(expr_lines) != len(entries):
        report(f"check --expr printed {len(expr_lines)} lines for {len(entries)} tables")
    for k, (line, want) in enumerate(zip(expr_lines, expr_values)):
        m = _EXPR_LINE.match(line)
        if not m or int(m.group(1)) != k + 1 or m.group(2) != wl.CA_NOT_ASSOC:
            report(f"check --expr line {k + 1} is malformed: {line!r}")
        elif (m.group(3) == "true") != want:
            report(f"check --expr: table {k + 1} is {m.group(3)}, expected {want}")

    canon_lines = texts[2].splitlines()
    if len(canon_lines) != len(entries):
        report(f"canon printed {len(canon_lines)} lines for {len(entries)} tables")
    reps: dict[tuple, tuple[int, ...]] = {}
    for k, (e, line) in enumerate(zip(entries, canon_lines)):
        key = (e.order, e.base)
        if key not in reps:
            reps[key] = ref.min_image(e.order, e.base)
            if e.kind == "ag5" and reps[key] != e.base:
                report(f"{ref.AG5_CLASSES_FILE.name}: {wl.encode(5, e.base)} is not minimal")
        if line != wl.encode(e.order, reps[key]):
            report(f"canon: table {k + 1} gave {line}, its class representative is "
                   f"{wl.encode(e.order, reps[key])}")

    try:
        reports = json.loads(texts[3])
    except json.JSONDecodeError as exc:
        reports = []
        report(f"ca-test --json output is not JSON ({exc})")
    if len(reports) != len(entries):
        report(f"ca-test reported {len(reports)} of {len(entries)} tables")
    for k, (e, r) in enumerate(zip(entries, reports)):
        first = ref.STAR_CIRCLE.first_failure(e.order, e.table)
        got = tuple(r["first_mismatch"]) if r["first_mismatch"] is not None else None
        if r["verdict"] != ca[k] or got != first:
            report(f"ca-test: table {k + 1} verdict {r['verdict']} mismatch {got}, "
                   f"expected {ca[k]} {first}")
    return expected_rc, errors
