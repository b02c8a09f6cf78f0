"""Timing at a nominal machine speed.

The machine this benchmark was built on is a shared virtual machine
whose speed changes by up to 2x between spells lasting from about a
second to many minutes.  Raw wall-clock figures of the same code then
differ by that much between runs.  So every timing is scaled to a
nominal speed: a fixed probe computation runs at least every
``PROBE_EVERY_S`` during a run, and a span of work is multiplied by
``PROBE_NOMINAL_S`` over the median time of the probes just before and
just after it.  The probe does the library's kind of work (exact
rational updates over a sparse dict of cells) without calling the
library, so a change to the library cannot change the probe.
"""

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

PROBE_NOMINAL_S = 0.010     # the probe's time on the nominal machine
PROBE_EVERY_S = 0.25
NEIGHBOURS = 2              # probes used on each side of a span


def probe():
    cells = {}
    acc = Fraction(0)
    quarter = Fraction(1, 4)
    t0 = perf_counter()
    for i in range(1500):
        acc = acc * quarter + Fraction(i % 7, 3)
        j = i % 101
        cells[j] = cells.get(j, 0) + (1 if acc > 1 else 0)
        if acc > 1:
            acc -= 1
    return perf_counter() - t0


class NominalClock:
    """Probe samples of one run, and the scale factor they give."""

    def __init__(self):
        self.starts, self.ends, self.times = [], [], []
        self._due = 0.0

    def sample(self):
        start = perf_counter()
        took = probe()
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.times.append(took)
        self._due = end + PROBE_EVERY_S

    def tick(self):
        """Probe if the last probe is older than PROBE_EVERY_S."""
        if perf_counter() >= self._due:
            self.sample()

    def scale(self, start, end):
        """Factor from this machine's seconds during [start, end] to
        nominal seconds."""
        before = bisect.bisect_right(self.ends, start)
        after = bisect.bisect_left(self.starts, end)
        near = self.times[max(0, before - NEIGHBOURS):before] \
            + self.times[after:after + NEIGHBOURS]
        return PROBE_NOMINAL_S / statistics.median(near)
