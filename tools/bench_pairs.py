"""Run the benchmark on two revisions in alternating pairs and summarise it.

    python tools/bench_pairs.py PARENT CHANGE [--pairs 10]

PARENT and CHANGE are git revisions of this repository.  Each is
extracted with git archive into its own temporary directory.  For every
seed i = 1..pairs and every workload of CHANGE's BENCHMARK.json, the
unmodified

    python3 perfbench/run.py --workload W --seed i --seconds S --trace 0

with S the run_seconds of that BENCHMARK.json runs once in each tree:
the parent first on odd seeds, the change first on even ones, so that
drift of the host falls on both sides alike.

Prints one JSON object.  Its "workloads" maps each workload to its pairs
(each side's correct, attempted, failed and metrics, as run.py prints
them), to all_correct, failed_ops and attempted_ops, and to a summary
per end-to-end metric: every value on each side, each side's quartiles
and median from statistics.quantiles(n=4), median_change (the change
median minus the parent median, over the parent median), the parent's
interquartile range, the bound of BENCHMARK.json and whether the change
stays within it, and change_wins, the pairs in which the change was
better, ties counting for neither side.  Progress goes to stderr.  Uses
only the standard library.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """The summary of one workload: pairs is a list of {"parent": line,
    "change": line} with each line as run.py prints it, and end_to_end the
    metric specs of BENCHMARK.json (name, better, bound)."""
    out = {
        "all_correct": all(p[s]["correct"] for p in pairs for s in SIDES),
        "failed_ops": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
        "attempted_ops": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
        "summary": {},
    }
    for spec in end_to_end:
        name = spec["name"]
        # Positive where the change is worse than the parent.
        sign = 1 if spec["better"] == "lower" else -1
        runs = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        quartiles = {s: statistics.quantiles(runs[s], n=4) for s in SIDES}
        parent_median, change_median = quartiles["parent"][1], quartiles["change"][1]
        median_change = (change_median - parent_median) / parent_median
        wins = sum(sign * (c - p) < 0 for p, c in zip(runs["parent"], runs["change"]))
        out["summary"][name] = {
            **{s: dict(zip(("q1", "median", "q3"), quartiles[s])) for s in SIDES},
            "parent_runs": runs["parent"],
            "change_runs": runs["change"],
            "change_wins": f"{wins}/{len(pairs)}",
            "median_change": median_change,
            "parent_iqr": quartiles["parent"][2] - quartiles["parent"][0],
            "bound": spec["bound"],
            "within_bound": sign * median_change <= spec["bound"],
        }
    return out


def extract(rev: str, dest: Path) -> None:
    """Write the files of revision rev, as git archive gives them, to dest."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """run.py's result line for one end-to-end run in tree."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv[1:])} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {s: Path(tmp) / s for s in SIDES}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            extract(rev, trees[side])
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [w["name"] for w in spec["workloads"]]
        seconds = spec["run_seconds"]
        pairs: dict[str, list[dict]] = {name: [] for name in names}
        for seed in range(1, args.pairs + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            for name in names:
                pair: dict = {"seed": seed, "first": order[0]}
                for side in order:
                    print(f"seed {seed} {name} {side}", file=sys.stderr, flush=True)
                    pair[side] = run_once(trees[side], name, seed, seconds)
                pairs[name].append(pair)
    workloads = {name: {"pairs": pairs[name], **summarize(pairs[name], spec["end_to_end"])}
                 for name in names}
    print(json.dumps({
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds} --trace 0",
        "parent": args.parent,
        "change": args.change,
        "workloads": workloads,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
