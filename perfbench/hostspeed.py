"""Host speed: a fixed probe, timed again and again while the program runs.

The benchmark runs on shared hosts whose CPU throughput drifts: other
tenants' cache and memory traffic can halve it for minutes at a time, and
CPU time moves with it.  :class:`HostSpeed` measures that drift where the
program feels it.  A real-time interval timer interrupts the run every
``INTERVAL_S``; the handler times ``PROBE_KEYS`` lookups, in a shuffled
order, into a dictionary of ``TABLE_KEYS`` integers, which is the kind of
pointer-chasing work the program does.  The probe touches nothing of
``repro``, so a change to the program moves the program's CPU time and not
the probe's.

Dividing a measured CPU time by ``factor()`` scales it to the reference
speed: what the work costs while one probe takes ``REFERENCE_S``.  The
contention changes within a run, so ``factor(start, end)`` takes only the
probes that ran inside one span of the program's own CPU clock
(``clock()``), and each span is scaled by the probes of its own stretch.
"""

from __future__ import annotations

import math
import random
import signal
import statistics
import time
from array import array
from typing import Any

TABLE_KEYS = 131072
PROBE_KEYS = 2000
INTERVAL_S = 0.025
# Probe CPU seconds on the reference host (2-vCPU Xeon VM, CPython 3.11.7)
# in a quiet stretch.
REFERENCE_S = 0.0010


class HostSpeed:
    """Context manager: samples the probe while it is entered.

    ``spent`` is the CPU time the probes took so far, so ``clock()`` reads
    the program's own CPU time.  Each sample is stamped with that clock.
    """

    def __init__(self) -> None:
        rng = random.Random(20101)
        keys = [rng.getrandbits(48) for _ in range(TABLE_KEYS)]
        self._table = dict.fromkeys(keys, 1)
        rng.shuffle(keys)
        self._order = keys
        self._next = 0
        self.samples = array("d")
        self.stamps = array("d")
        self.spent = 0.0
        self._previous: Any = None

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """CPU seconds of this process, less the probes'."""
        return time.process_time() - self.spent

    def _probe(self, _signum: int, _frame: Any) -> None:
        started = time.process_time()
        self.stamps.append(started - self.spent)
        table = self._table
        start = self._next
        hits = 0
        for key in self._order[start:start + PROBE_KEYS]:
            hits += table[key]
        self._next = (start + PROBE_KEYS) % (TABLE_KEYS - PROBE_KEYS)
        took = time.process_time() - started
        self.samples.append(took)
        self.spent += took

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Mean probe time over the reference, of the probes stamped in
        ``[start, end)``, or of all if none was: above 1 on a slow host."""
        inside = [
            took for stamp, took in zip(self.stamps, self.samples) if start <= stamp < end
        ]
        samples = inside or self.samples
        return statistics.fmean(samples) / REFERENCE_S if samples else 1.0
