"""The machine's speed while a run measures, from a fixed piece of work.

    python3 perfbench/sampler.py OUT

Every :data:`PERIOD_S` it times one round of :func:`work` (about a
millisecond of interpreted Python over a dict and a NumPy sort; nothing
from the program) and appends ``<time.monotonic()> <seconds>`` to OUT,
until it gets SIGTERM.  That is about 2% of one CPU.

The machine the benchmark was sized on is a shared virtual machine whose
speed swings by tens of percent over minutes, and every workload speeds
up and slows down with it (see "Stability" in ``NOTES.md``).  ``run.py``
runs this sampler for the whole run and divides each repetition's median
round, over the repetition's own window, by :data:`REFERENCE_S`: that is
the repetition's ``slowness``, by which its timings are scaled to the
reference speed.  The program cannot move the sampler, so a change to the
program still moves the scaled figures by the same share as the raw ones.
"""

from __future__ import annotations

import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, List, Optional, Tuple

import numpy as np

#: Seconds between the starts of two rounds.
PERIOD_S = 0.05

#: Seconds one round takes at the reference speed: the median round on
#: the 2-vCPU machine of ``NOTES.md`` over five seeds of a set of runs.
REFERENCE_S = 0.00205

#: Fewest rounds a window needs; a shorter window takes the whole run's.
MIN_ROUNDS = 20

_VALUES = np.random.default_rng(1).random(60_000)


def work() -> float:
    """One round of the fixed work."""
    table: dict = {}
    for i in range(2000):
        table[i % 37] = table.get(i % 37, 0) + i
    return float(np.cumsum(np.sort(_VALUES))[-1]) + len(table)


def read(path: Path) -> List[Tuple[float, float]]:
    """(monotonic time, seconds) of every complete round in ``path``."""
    rounds = []
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split()
        if len(fields) == 2:
            rounds.append((float(fields[0]), float(fields[1])))
    return rounds


def slowness(rounds: List[Tuple[float, float]], start: float, end: float) -> Optional[float]:
    """Median round between ``start`` and ``end`` over the reference (None without rounds)."""
    window = [seconds for at, seconds in rounds if start <= at <= end]
    if len(window) < MIN_ROUNDS:
        window = [seconds for _, seconds in rounds]
    return statistics.median(window) / REFERENCE_S if window else None


def main(argv: List[str]) -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    with open(argv[0], "a", encoding="utf-8", buffering=1) as out:
        while not stop:
            began = time.monotonic()
            work()
            out.write(f"{began:.6f} {time.monotonic() - began:.7f}\n")
            time.sleep(max(0.0, PERIOD_S - (time.monotonic() - began)))
    return 0


def start(path: Path) -> Any:
    """Start the sampler writing to ``path``; stop it with SIGTERM and wait."""
    import subprocess

    path.unlink(missing_ok=True)
    return subprocess.Popen([sys.executable, str(Path(__file__)), str(path)])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
