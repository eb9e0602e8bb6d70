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

Before the pairs, each of the CMP_COMMANDS runs once in each tree as
python -m agkit, with that tree's src on PYTHONPATH, in one shared
directory of inputs: sN/stream.txt is CHANGE's
perfbench/workloads.write_stream("table-stream", N, ...) for N = 1, 2, 3,
and random.txt holds 150 random tables of each order 1-7 from
random.Random(4).  The commands whose stdout, stderr or exit code differ
between the trees are printed to stderr.

Then, pairs times, CHANGE's tools/rss_gap.py probe runs once against
each tree's src, each time in a fresh interpreter, in the same
alternating order: the peak RSS of verify
--max-order 5 --json and of enumerate --order 5 --count-only, and their
gap, which a CI step bounds by rss_gap.BOUND_MIB.

Prints one JSON object.  Its "cmp" lists the commands, counts the
identical ones and maps each differing one to the outputs that differ.
Its "peak_rss_probe" lists each round of the probe and summarises each
side: every value, its median and its range, and whether every gap
stayed within the bound.  Its "workloads" maps each workload to its
pairs (each side's correct, attempted, failed and metrics, as run.py
prints them), to all_correct, failed_ops and attempted_ops, and to a
summary per end-to-end metric: every value on each side, each side's
quartiles and median from statistics.quantiles(n=4), median_change (the
change median minus the parent median, over the parent median), the
parent's interquartile range, the bound of BENCHMARK.json and whether
the change stays within it, and change_wins, the pairs in which the
change was better, ties counting for neither side.  Progress goes to
stderr.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import random
import shlex
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

# The --props selection of the check commands: the guarded laws, a law
# with a hypothesis, every composite and an existential.
PROPS = ("left_commutative,medial,paramedial,bol_star,T1,T3,has_left_identity,"
         "semilattice,nuclear_square,alternative,bicommutative")
CA_NOT_ASSOC = "cyclic_associative & !associative"
CMP_COMMANDS: list[list[str]] = [
    *(argv for k in (3, 4, 5) for argv in (
        ["verify", "--max-order", str(k)], ["verify", "--max-order", str(k), "--json"])),
    ["verify", "--claims", "C13,C28", "--max-order", "5", "--json"],
    *(["classify", "--order", str(k), "--json"] for k in (2, 3, 4, 5)),
    *(argv for k in ("4", "5") for argv in (
        ["enumerate", "--order", k],
        ["enumerate", "--order", k, "--count-only"],
        ["enumerate", "--order", k, "--jobs", "2"],
        ["enumerate", "--order", k, "--class", CA_NOT_ASSOC],
        ["enumerate", "--order", k, "--class", "nuclear_square & !semilattice"])),
    *(argv for f in ("s1/stream.txt", "s2/stream.txt", "s3/stream.txt", "random.txt")
      for argv in (
          ["check", f, "--json"],
          ["check", f, "--expr", CA_NOT_ASSOC],
          ["check", f, "--props", PROPS],
          ["check", f, "--props", PROPS, "--json"],
          ["canon", f],
          ["ca-test", f, "--json"],
          ["ca-test", f, "--render"])),
]
CMP_FIELDS = ("stdout", "stderr", "exit_code")


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


def summarize_rss(rounds: list[dict], bound: float) -> dict:
    """The summary of the peak-RSS probe: rounds is a list of {"parent":
    probe, "change": probe} with each probe as rss_gap.probe returns it."""
    out = {}
    for side in SIDES:
        out[side] = {}
        for field in rounds[0][side]:
            runs = [r[side][field] for r in rounds]
            out[side][field] = {"runs": runs, "median": statistics.median(runs),
                                "min": min(runs), "max": max(runs)}
        out[side]["within_bound"] = out[side]["gap_mib"]["max"] <= bound
    return out


def compare(parent: dict[str, tuple], change: dict[str, tuple]) -> dict:
    """The cmp section: parent and change map each command to its
    (stdout, stderr, exit_code), and each differing command maps to the
    names of the fields that differ."""
    differ = {}
    for command, got in parent.items():
        fields = [f for f, p, c in zip(CMP_FIELDS, got, change[command]) if p != c]
        if fields:
            differ[command] = fields
    return {"identical": len(parent) - len(differ), "differ": differ}


def write_cmp_inputs(tree: Path, dest: Path) -> None:
    """The input files of CMP_COMMANDS, written to dest."""
    sys.path.insert(0, str(tree / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    for seed in (1, 2, 3):
        (dest / f"s{seed}").mkdir(parents=True)
        workloads.write_stream("table-stream", seed, dest / f"s{seed}")
    rng = random.Random(4)
    lines = [workloads.encode(n, [rng.randrange(n) for _ in range(n * n)])
             for n in range(1, 8) for _ in range(150)]
    (dest / "random.txt").write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def run_cmp(tree: Path, inputs: Path) -> dict[str, tuple]:
    """Each of CMP_COMMANDS run in inputs with tree's agkit: its
    (stdout, stderr, exit_code), keyed by the command as a shell line."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    out = {}
    for argv in CMP_COMMANDS:
        print(f"cmp {tree.name}: {shlex.join(argv)}", file=sys.stderr, flush=True)
        proc = subprocess.run([sys.executable, "-m", "agkit", *argv], cwd=inputs, env=env,
                              capture_output=True)
        out[shlex.join(argv)] = (proc.stdout, proc.stderr, proc.returncode)
    return out


def extract(rev: str, dest: Path) -> None:
    """Write the files of revision rev, as git archive gives them, to dest."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def run_rss_probe(trees: dict[str, Path], rounds: int) -> dict:
    """The peak_rss_probe section: CHANGE's rss_gap.probe against each
    tree's src, rounds times, the parent first in odd rounds.

    Each probe runs in a fresh interpreter, as in CI: Linux carries the
    peak RSS of the spawning process over to the child across exec, so a
    probe run from this process, which holds the cmp outputs, would read
    this process's peak for both commands.
    """
    tools = trees["change"] / "tools"
    spec = importlib.util.spec_from_file_location("rss_gap", tools / "rss_gap.py")
    rss_gap = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rss_gap)
    code = "import json, rss_gap; print(json.dumps(rss_gap.probe()))"
    probes = []
    for k in range(1, rounds + 1):
        order = SIDES if k % 2 else SIDES[::-1]
        probe: dict = {"round": k, "first": order[0]}
        for side in order:
            print(f"rss probe {k} {side}", file=sys.stderr, flush=True)
            env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(trees[side] / "src"), str(tools)))}
            proc = subprocess.run([sys.executable, "-c", code], cwd=trees[side], env=env,
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"rss probe in {trees[side]} exited {proc.returncode}:\n{proc.stderr}")
            probe[side] = json.loads(proc.stdout)
        probes.append(probe)
    return {
        "command": "tools/rss_gap.py of CHANGE, in a fresh interpreter with each tree's src on PYTHONPATH",
        "bound_mib": rss_gap.BOUND_MIB,
        "rounds": probes,
        "summary": summarize_rss(probes, rss_gap.BOUND_MIB),
    }


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
        inputs = Path(tmp) / "inputs"
        write_cmp_inputs(trees["change"], inputs)
        cmp = compare(*(run_cmp(trees[s], inputs) for s in SIDES))
        for command, fields in cmp["differ"].items():
            print(f"cmp: {', '.join(fields)} differ: {command}", file=sys.stderr, flush=True)
        rss = run_rss_probe(trees, args.pairs)
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
        "cmp": {"commands": [shlex.join(argv) for argv in CMP_COMMANDS], **cmp},
        "peak_rss_probe": rss,
        "workloads": workloads,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
