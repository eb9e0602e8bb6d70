"""The benchmark workloads: the agkit commands each round runs.

A round is one fresh interpreter that runs a workload's commands in
order through agkit.cli.main.  Inputs come from the seed alone.  This
module does not import agkit.
"""

from __future__ import annotations

import random
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import reference as ref

STREAM_FILE = "stream.txt"
O6_OUT_FILE = "o6-slice.txt"
O5_OUT_FILE = "o5.txt"
CA_NOT_ASSOC = "cyclic_associative & !associative"

# Make-up of the table-stream file (README.md describes it).
STREAM_AG5 = 1200
STREAM_RANDOM5 = 1600
STREAM_AG6 = 400
# The traced run's cli-pass gives the table-stream commands only the first
# this many tables of the stream, so that a traced run stays short.
CLI_PASS_TABLES = 1600

# AG classes of order 1..5 that verify --max-order 5 scans, plus its
# bundled tables and the all-magma tables of order <= 3.
AG_CLASSES_LE5 = ref.classes_up_to(5, "AG")
BUNDLED_TABLES = 21
ALL_MAGMAS_LE3 = 1 + 2 ** 4 + 3 ** 9


# The job count of every command, and AGKIT_JOBS.  With two worker
# processes on a shared 2-core host, o6-slice's wall time spread 0.27
# (interquartile range over median) across ten runs while its CPU time
# spread 0.09.  The traced run still measures the two-worker split
# (enumeration.o6.parallel_eff).
JOBS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    # Per round: isomorphism classes the commands produce or scan, and
    # Cayley tables they process (the numerators of classes_per_s and
    # tables_per_s).
    classes: int
    tables: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("census-o5", AG_CLASSES_LE5 - 1, AG_CLASSES_LE5 - 1),  # orders 2..5
        Workload("o6-slice", ref.O6_SLICE_CLASSES, ref.O6_SLICE_CLASSES),
        Workload("verify-o5", AG_CLASSES_LE5, AG_CLASSES_LE5 + BUNDLED_TABLES + ALL_MAGMAS_LE3),
        Workload("table-stream", STREAM_AG5 + STREAM_RANDOM5 + STREAM_AG6,
                 STREAM_AG5 + STREAM_RANDOM5 + STREAM_AG6),
    )
}


def commands(name: str, workdir: Path) -> list[list[str]]:
    """The argv lists one round passes to agkit.cli.main, in order.

    "cli-pass" is not a workload: it is the traced run's set of every
    command on small inputs, from which cli.overhead_s is taken.
    """
    if name == "census-o5":
        return [["classify", "--order", str(n), "--json", "--jobs", str(JOBS)] for n in (2, 3, 4, 5)]
    if name == "o6-slice":
        return [["enumerate", "--order", "6", "--allow-large", "--partition", "6/6",
                 "--jobs", str(JOBS), "--out", str(workdir / O6_OUT_FILE)]]
    if name == "verify-o5":
        return [["verify", "--max-order", "5", "--json"]]
    stream = str(workdir / STREAM_FILE)
    table_stream = [
        ["check", stream, "--json"],
        ["check", stream, "--expr", CA_NOT_ASSOC],
        ["canon", stream],
        ["ca-test", stream, "--json"],
    ]
    if name == "table-stream":
        return table_stream
    return table_stream + [
        ["classify", "--order", "4", "--json", "--jobs", str(JOBS)],
        ["verify", "--max-order", "4", "--json"],
        ["enumerate", "--order", "5", "--jobs", str(JOBS), "--out", str(workdir / O5_OUT_FILE)],
    ]


@dataclass(frozen=True)
class StreamEntry:
    kind: str  # "ag5", "random5" or "ag6"
    order: int
    table: tuple[int, ...]
    base: tuple[int, ...]  # the table before relabelling


def stream_entries(seed: int, workload: str = "table-stream") -> list[StreamEntry]:
    """The seeded table-stream inputs, shuffled together."""
    rng = random.Random(seed)
    out = []
    # A uniform sample of the enumerated order-5 classes.
    for line in rng.sample(ref.ag5_class_lines(), STREAM_AG5):
        _, base = parse_line(line)
        out.append(StreamEntry("ag5", 5, ref.relabel(5, base, ref.random_perm(5, rng)), base))
    for _ in range(STREAM_RANDOM5):
        t = tuple(rng.randrange(5) for _ in range(25))
        out.append(StreamEntry("random5", 5, t, t))
    small = [(2, u, 3, v) for u in ref.brute_force_classes(2) for v in ref.brute_force_classes(3)]
    for _ in range(STREAM_AG6):
        base = ref.direct_product(*rng.choice(small))
        out.append(StreamEntry("ag6", 6, ref.relabel(6, base, ref.random_perm(6, rng)), base))
    rng.shuffle(out)
    return out[:CLI_PASS_TABLES] if workload == "cli-pass" else out


def encode(n: int, t: tuple[int, ...]) -> str:
    return f"{n}:" + ",".join(map(str, t))


def parse_line(line: str) -> tuple[int, tuple[int, ...]]:
    head, _, body = line.partition(":")
    return int(head), tuple(int(x) for x in body.split(","))


def write_stream(workload: str, seed: int, workdir: Path) -> None:
    text = "".join(encode(e.order, e.table) + "\n" for e in stream_entries(seed, workload))
    (workdir / STREAM_FILE).write_text(text, encoding="utf-8")


def run_commands(cli, argvs: list[list[str]], workdir: Path, tag: str, spans_factory=None) -> list[dict]:
    """Run each argv through cli.main with its output captured in workdir."""
    records = []
    for i, argv in enumerate(argvs):
        out, err = workdir / f"{tag}-{i}.out", workdir / f"{tag}-{i}.err"
        spans = spans_factory() if spans_factory else None
        with open(out, "w", encoding="utf-8") as fo, open(err, "w", encoding="utf-8") as fe:
            with redirect_stdout(fo), redirect_stderr(fe):
                t0 = time.perf_counter()
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception:
                    traceback.print_exc()
                    rc = None
                wall = time.perf_counter() - t0
        rec = {"argv": argv, "rc": rc, "wall_s": wall, "stdout": str(out)}
        if spans is not None:
            rec.update(spans.summary(wall))
        records.append(rec)
    return records
