"""A wall clock corrected for the sandbox's time dilation.

The benchmark runs on a shared 2-vCPU microVM whose host slows the guest
down without telling it: for seconds at a time (and, more slowly, over tens
of minutes) *everything* — a pure arithmetic loop included, in CPU time as
much as in wall time — runs 15-50 % slower, while steal time reads zero.
Ten identical 15 s runs then spread by 15-25 %, wider than any bound worth
having, and no amount of repetition inside a run averages a slow quarter of
an hour away.

``PacedClock`` measures that dilation while the benchmark runs and takes it
out.  A ``SIGALRM`` timer interrupts the main thread every ``INTERVAL_S``;
the handler times a fixed arithmetic loop (the *probe*, ~1.7 ms) and
records when it ran.  The running median of the probe's duration over
``WINDOW`` probes either side (about +-1 s), divided by ``REFERENCE_NS`` — the
probe's duration on this sandbox when it is left alone — is the local
dilation factor.  The paced clock advances by wall time divided by that
factor, and stands still while a probe runs, so the probes' own cost is
excluded.  On an undisturbed machine paced and wall time agree.

What it does not remove: slow-downs that hit memory-bound code but not the
probe (a neighbour thrashing the shared cache).  Those remain as run-to-run
spread.  ``REFERENCE_NS`` is a unit, not a tunable: changing it rescales
every paced number ever reported, so it is never edited.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_right
from time import perf_counter_ns

PROBE_ITERATIONS = 40_000
INTERVAL_S = 0.04
WINDOW = 25
REFERENCE_NS = 1_700_000


class PacedClock:
    """Records dilation probes while active; converts stamps afterwards."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._probes: list[tuple[int, int]] = []
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._factor: list[float] = []
        self._paced: list[float] = []     # paced ns at each probe's start

    def __enter__(self):
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._freeze()
        return False

    def _probe(self, _signum, _frame):
        start = perf_counter_ns()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i
        self._probes.append((start, perf_counter_ns()))

    def _freeze(self):
        probes = self._probes
        durations = [end - start for start, end in probes]
        self._starts = [start for start, _end in probes]
        self._ends = [end for _start, end in probes]
        self._factor = [
            statistics.median(durations[max(0, k - WINDOW):k + WINDOW + 1])
            / REFERENCE_NS
            for k in range(len(probes))]
        paced = [0.0]
        for k in range(1, len(probes)):
            paced.append(paced[-1] + (self._starts[k] - self._ends[k - 1])
                         / self._factor[k - 1])
        self._paced = paced

    @property
    def dilation(self) -> float:
        """Median dilation factor over the clock's life (1.0 = reference)."""
        return statistics.median(self._factor) if self._factor else 1.0

    def _at(self, stamp_ns: int) -> float:
        """Paced nanoseconds at a ``perf_counter_ns`` stamp."""
        if not self._starts:
            return float(stamp_ns)
        k = bisect_right(self._starts, stamp_ns) - 1
        if k < 0:
            return (stamp_ns - self._starts[0]) / self._factor[0]
        # while probe k runs the paced clock stands still
        return self._paced[k] \
            + max(0, stamp_ns - self._ends[k]) / self._factor[k]

    def elapsed_ns(self, start_ns: int, end_ns: int) -> float:
        """Paced time between two ``perf_counter_ns`` stamps."""
        return self._at(end_ns) - self._at(start_ns)

    def probe_ns(self, start_ns: int, end_ns: int) -> int:
        """Wall time the probes themselves took between two stamps."""
        return sum(end - start for start, end in self._probes
                   if start_ns <= start < end_ns)
