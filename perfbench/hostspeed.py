"""The host's speed, sampled while a measured interval runs.

    python3 perfbench/hostspeed.py      # footprint check, a few seconds

The benchmark was defined on a shared 2-vCPU Linux VM where a fixed
pure-Python loop ran up to 60 % slower from one minute to the next, and
the package's operations slowed down with it. A ``Sampler`` runs a short
fixed loop (a tick) every ``PERIOD_S`` on SIGALRM while an interval is
measured. Each stretch between two ticks is rescaled by its own tick,
``REFERENCE_TICK_S / tick``, so the interval's time net of its ticks, times
the mean of those factors, is its time at the reference speed.

The loop never calls multishelf, but it runs in the same process, right
after package code, so a package that fills the caches could slow the tick
and make itself look faster. So the tick warms up before it is timed.
Running this file checks that: it alternates a tick after a small working
set with a tick after random reads from a 24 MB list and prints the median
ratio of the two ticks. On the VM above it read 1.004 to 1.006 (1.005 to
1.014 without the warm-up).
"""
from __future__ import annotations

import random
import signal
import statistics
import time

PERIOD_S = 0.05
# Median tick on the reference host (the VM above, Python 3.11.7) when quiet.
REFERENCE_TICK_S = 0.0008

_TABLE = tuple(tuple((7 * a + 3 * b + 1) % 10 for b in range(10)) for a in range(10))


def tick() -> float:
    """Seconds for a fixed pure-Python table loop (about 1 ms).

    The first of the eleven passes is not timed: it brings the loop back into
    the caches, whatever the code before it did to them.
    """
    e = _TABLE
    hits = 0
    for rep in range(11):
        if rep == 1:
            t0 = time.perf_counter()
        for a in range(10):
            ra = e[a]
            for b in range(10):
                eab = e[ra[b]]
                rb = e[b]
                for c in range(10):
                    hits += eab[c] == e[ra[c]][rb[c]]
    return time.perf_counter() - t0


class Sampler:
    """Ticks every PERIOD_S inside a ``with`` block; ``spent`` is their total time."""

    def __init__(self) -> None:
        self.ticks: list[float] = []
        self.spent = 0.0

    def _on_alarm(self, signum, frame) -> None:
        seconds = tick()
        self.ticks.append(seconds)
        self.spent += seconds

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _ticks(self) -> list[float]:
        """Ticks of the block; one taken now if the block was too short for any."""
        return self.ticks or [tick()]

    def median_tick(self) -> float:
        return statistics.median(self._ticks())

    def scale(self) -> float:
        """Factor from this block's seconds to seconds at the reference speed."""
        return REFERENCE_TICK_S * statistics.fmean(1 / t for t in self._ticks())


def footprint_check(pairs: int = 300) -> float:
    """Median of tick-after-large-working-set over tick-after-small-working-set."""
    big = list(range(3_000_000))
    rng = random.Random(0)
    far = [rng.randrange(len(big)) for _ in range(20_000)]
    near = [i % 1000 for i in range(20_000)]

    def read(table, index) -> int:
        return sum(table[i] for i in index)

    ratios = []
    for _ in range(pairs):
        read(big, near)
        small = tick()
        read(big, far)
        ratios.append(tick() / small)
    return statistics.median(ratios)


if __name__ == "__main__":
    print(f"tick after 24 MB of random reads / tick after a small working set: "
          f"{footprint_check():.4f} (median of 300 pairs)")
