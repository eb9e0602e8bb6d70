"""One benchmark process, started in a fresh interpreter by run.py.

    python3 perfbench/child.py MODE WORKLOAD SEED WORKDIR RESULT

MODE is "setup" (set up and stop), "round" (set up, then run the
workload's commands through agkit.cli.main), "traced" (a round with spans
around the calls from agkit.cli into the library) or "layers" (the
per-layer measurements of layers.py).  WORKLOAD is one of the four
workloads, or "cli-pass" for the traced run's pass over every command.
The timings go to RESULT as JSON.  Set-up ends at the first timed call;
it includes importing agkit and generating the workload's inputs.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import workloads as wl


def main() -> int:
    mode, workload, seed, workdir, result = sys.argv[1:]
    seed_n, workdir_p = int(seed), Path(workdir)

    from agkit import cli  # part of set-up: a CLI user pays for the import

    if workload in ("table-stream", "cli-pass"):
        wl.write_stream(workload, seed_n, workdir_p)
    setup_end = time.monotonic()

    doc: dict = {"setup_end": setup_end, "agkit": cli.__file__}
    if mode in ("round", "traced"):
        factory = None
        if mode == "traced":
            import layers

            factory = layers.Spans.installer(cli)
        t0 = time.perf_counter()
        doc["commands"] = wl.run_commands(cli, wl.commands(workload, workdir_p), workdir_p, mode, factory)
        doc["run_s"] = time.perf_counter() - t0
    elif mode == "layers":
        import layers

        doc["layers"] = layers.measure(seed_n)
    Path(result).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
