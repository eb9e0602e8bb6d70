"""The agkit benchmark: one workload per run, results as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it builds nothing and imports agkit
from ./src.  Each round of a workload starts a fresh interpreter
(child.py) with AGKIT_JOBS fixed, so no in-process cache of agkit turns
a round into a warm run that a CLI user never gets.  CPU time and peak
memory are read here with wait4 after the round's process has exited, so
they include the pool workers it reaped.

With --trace 0 the run measures whole rounds until at least S seconds
are spent in them and prints the end-to-end metrics of BENCHMARK.json.
With --trace 1 it prints the per-layer metrics instead (traced_run).  After the last
round, its outputs are checked against reference.py (checks.py); every
round must have made the same outputs byte for byte.  A JSON file of the
results is left in bench_results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
RESULTS = ROOT / "bench_results"
SETUP_SAMPLES = 9
# Plain and traced cli-passes in the traced run.
TRACE_PAIRS = 3
# A round that outlives this is killed with its workers.
ROUND_TIMEOUT_S = 150.0

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402


class Round:
    """One finished child process: its report plus what wait4 returned."""

    def __init__(self, doc: dict, started: float, rusage):
        self.doc = doc
        self.setup_s = doc["setup_end"] - started
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.peak_rss_mib = rusage.ru_maxrss / 1024.0

    @property
    def run_s(self) -> float:
        return self.doc["run_s"]


def spawn(mode: str, workload: str, seed: int, workdir: Path) -> Round:
    """Start child.py in a fresh interpreter and wait for it and its workers.

    Linux starts a child's ru_maxrss at this process's own peak, so a
    round's peak_rss_mib never reads below it; Tally keeps it small.
    """
    result = workdir / f"result-{mode}.json"
    result.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "AGKIT_JOBS")}
    env.update(PYTHONPATH=str(ROOT / "src"), AGKIT_JOBS=str(wl.JOBS), PYTHONHASHSEED="0")
    argv = [sys.executable, str(CHILD), mode, workload, str(seed), str(workdir), str(result)]
    started = time.monotonic()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    deadline = started + ROUND_TIMEOUT_S
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, rusage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process for {workload} exited with {proc.returncode}")
    doc = json.loads(result.read_text(encoding="utf-8"))
    agkit_file = Path(doc["agkit"]).resolve()
    if ROOT / "src" not in agkit_file.parents:
        raise RuntimeError(f"agkit was imported from {agkit_file}, not from this checkout")
    return Round(doc, started, rusage)


def stdout_files(rnd: Round) -> list[Path]:
    return [Path(c["stdout"]) for c in rnd.doc["commands"]]


def digest(rnd: Round) -> tuple[int, ...]:
    """Lengths and CRC-32s of a round's outputs (standard output and --out
    files) and its exit codes.  zlib, not hashlib: hashlib's OpenSSL
    would add megabytes to this process (spawn says why that matters)."""
    out: list[int] = []
    for c in rnd.doc["commands"]:
        paths = [Path(c["stdout"])]
        if "--out" in c["argv"]:
            paths.append(Path(c["argv"][c["argv"].index("--out") + 1]))
        for path in paths:
            crc = size = 0
            with open(path, "rb") as f:
                for block in iter(lambda: f.read(1 << 16), b""):
                    crc, size = zlib.crc32(block, crc), size + len(block)
            out += [size, crc]
        out.append(c["rc"])
    return tuple(out)


class Tally:
    """Operations attempted and failed, and the output errors found.

    The outputs are checked once, after the last round, from the files
    that round left in workdir; every round must have made the same
    outputs.  Checking between rounds would raise this process's peak
    memory, which a child started from it inherits as the floor of its
    ru_maxrss.
    """

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.exit_codes: list[list] = []
        self.digests: set[tuple[int, ...]] = set()
        self.last: Round | None = None

    def add(self, rnd: Round) -> None:
        self.exit_codes.append([c["rc"] for c in rnd.doc["commands"]])
        self.digests.add(digest(rnd))
        self.last = rnd

    def finish(self) -> None:
        """Check the outputs and count each round's operations."""
        import checks

        expected_rc, self.errors = checks.check_round(
            self.workload, self.seed, self.workdir, stdout_files(self.last))
        if len(self.digests) > 1:
            self.errors.append("the rounds' outputs differ")
        for codes in self.exit_codes:
            bad = sum(rc != want for rc, want in zip(codes, expected_rc))
            self.attempted += len(codes)
            self.failed += bad
            if self.workload == "table-stream":
                # Each table is an operation; it fails with any command over it.
                n = wl.WORKLOADS[self.workload].tables
                self.attempted += n
                self.failed += n if bad else 0


def timed_run(workload: str, seed: int, seconds: int, workdir: Path) -> tuple[Tally, dict, dict]:
    tally = Tally(workload, seed, workdir)
    rounds: list[Round] = []
    measured = 0.0
    # Whole rounds until S seconds are measured.  A verify-o5 round takes
    # 13-17 s, so it always gets at least two rounds at S = 25.
    while measured < seconds:
        rnd = spawn("round", workload, seed, workdir)
        rounds.append(rnd)
        measured += rnd.run_s + rnd.setup_s
        tally.add(rnd)
    setups = [r.setup_s for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn("setup", workload, seed, workdir).setup_s)
    launcher_peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally.finish()
    w = wl.WORKLOADS[workload]
    # Means over the rounds, not medians: the host's speed flips between a
    # fast and a slow state every few seconds, so round times are bimodal,
    # and a median of a few rounds jumps from one mode to the other.
    run_s = statistics.fmean(r.run_s for r in rounds)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "cpu_s": statistics.fmean(r.cpu_s for r in rounds),
        "peak_rss_mib": statistics.median(r.peak_rss_mib for r in rounds),
        "classes_per_s": w.classes / run_s,
        "tables_per_s": w.tables / run_s,
    }
    detail = {
        "rounds": [
            {"setup_s": r.setup_s, "run_s": r.run_s, "cpu_s": r.cpu_s, "peak_rss_mib": r.peak_rss_mib,
             "commands": [{k: c[k] for k in ("argv", "rc", "wall_s")} for c in r.doc["commands"]]}
            for r in rounds
        ],
        "setup_samples_s": setups,
        "launcher_peak_rss_mib": launcher_peak_rss_mib,
    }
    return tally, metrics, detail


def traced_run(seed: int, workdir: Path) -> tuple[Tally, dict, dict]:
    """The per-layer measurements, the same for every workload.

    A "cli-pass" round runs every command on small inputs, each pass in
    a fresh interpreter.  TRACE_PAIRS plain passes alternate with as many
    passes with spans.  cli.overhead_s.<command> is the median over the
    traced passes of the command's time outside its library calls, and
    trace.overhead_s the median traced pass minus the median plain one.
    """
    tally = Tally("cli-pass", seed, workdir)
    plain: list[Round] = []
    traced: list[Round] = []
    for _ in range(TRACE_PAIRS):
        for mode, passes in (("round", plain), ("traced", traced)):
            rnd = spawn(mode, "cli-pass", seed, workdir)
            tally.add(rnd)
            passes.append(rnd)
    metrics = spawn("layers", "cli-pass", seed, workdir).doc["layers"]
    tally.finish()
    for command in dict.fromkeys(c["argv"][0] for c in traced[0].doc["commands"]):
        metrics[f"cli.overhead_s.{command}"] = statistics.median(
            sum(c["cli_self_s"] for c in rnd.doc["commands"] if c["argv"][0] == command)
            for rnd in traced)
    metrics["trace.overhead_s"] = (statistics.median(r.run_s for r in traced)
                                   - statistics.median(r.run_s for r in plain))
    detail = {
        "plain_run_s": [r.run_s for r in plain],
        "traced_run_s": [r.run_s for r in traced],
        "traced_commands": [r.doc["commands"] for r in traced],
    }
    return tally, metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "agkit" / "cli.py").is_file():
        print(f"error: no agkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            tally, metrics, detail = traced_run(args.seed, workdir)
        else:
            tally, metrics, detail = timed_run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if metrics.keys() != units.keys():
        missing = sorted(units.keys() - metrics.keys())
        extra = sorted(metrics.keys() - units.keys())
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}", file=sys.stderr)
        return 2
    for e in tally.errors:
        print(f"check failed: {e}", file=sys.stderr)
    line = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "e2e"
    (RESULTS / f"BENCH_{args.workload}_seed{args.seed}_{kind}.json").write_text(
        json.dumps({**line, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "errors": tally.errors, "detail": detail}, indent=1),
        encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
