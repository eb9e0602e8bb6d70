"""Peak RSS of verify against a count-only enumeration, at order 5.

    PYTHONPATH=src python tools/rss_gap.py

Runs `python -m agkit verify --max-order 5 --json` and then
`python -m agkit enumerate --order 5 --count-only`, reads the peak RSS
of each from os.wait4, and prints one line with both and their gap.
Exits 1 when verify's peak passes the enumeration's by more than
BOUND_MIB, or when either command fails.  The verify pool holds the
32,268 AG classes of orders 1-5 as bare bytes, about 6.6 MiB above the
enumeration; with an (order, table) pair per table it took about
9.7 MiB, and a pool of Magma objects about 18 MiB.  The agkit that runs
is the one the environment's PYTHONPATH finds.  Run it from a small
process: Linux carries the peak RSS of the spawning process over to the
child across exec, so a large caller would read its own peak for both.
Uses only the standard library.
"""

from __future__ import annotations

import os
import subprocess
import sys

BOUND_MIB = 8
VERIFY = ("verify", "--max-order", "5", "--json")
COUNT = ("enumerate", "--order", "5", "--count-only")


def peak_mib(args: tuple[str, ...]) -> float:
    """The peak RSS in MiB of python -m agkit args; exits on failure."""
    proc = subprocess.Popen([sys.executable, "-m", "agkit", *args], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"agkit {' '.join(args)} failed")
    return usage.ru_maxrss / 1024


def probe() -> dict[str, float]:
    """The peak RSS of each command, verify first, and the gap, in MiB."""
    verify = peak_mib(VERIFY)
    count = peak_mib(COUNT)
    return {"verify_mib": verify, "count_mib": count, "gap_mib": verify - count}


def main() -> int:
    p = probe()
    print(f"peak RSS: verify {p['verify_mib']:.1f} MiB, enumerate --count-only "
          f"{p['count_mib']:.1f} MiB, gap {p['gap_mib']:.1f} MiB")
    return int(p["gap_mib"] > BOUND_MIB)


if __name__ == "__main__":
    sys.exit(main())
