"""Machine-speed reference for the benchmark's times.

A shared 2-vCPU machine runs the same Python code at two speeds about
1.7x apart, and switches between them within a fraction of a second as
well as for minutes at a time.  The benchmark's times are therefore
scaled to a reference speed.  A fixed pure-Python task
(``reference_task``, benchmark code that never calls ``cubereps``) is
timed every ``PROBE_EVERY_S`` from a timer signal, in the process doing
the work, including inside long items.  Each item's time, less the
probes that ran inside it, is multiplied by ``REFERENCE_S`` over the mean
time of the probes that ran from just before the item to just after it.
A reported second is thus a second on a machine that runs the reference
task in ``REFERENCE_S``.  ``run.py`` prints the median probe time of each
run, so the raw times can be recovered.

The task mixes what the program does: tuple permutation composition by
index, dict and frozenset lookups, small-object allocation, method calls
and integer arithmetic.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from time import perf_counter

# seconds the reference task takes on a 2-vCPU Xeon VM under Python 3.11.7
# at its usual speed
REFERENCE_S = 0.0016
# timer period of the probes; each costs about REFERENCE_S
PROBE_EVERY_S = 0.05

_rng = random.Random(20250801)
_PERMS = [tuple(_rng.sample(range(48), 48)) for _ in range(32)]
_KEYS = [frozenset(_rng.sample(range(24), 3)) for _ in range(64)]


class _Cell:
    __slots__ = ("value", "weight")

    def __init__(self, value: int, weight: int):
        self.value = value
        self.weight = weight

    def merged(self, other: "_Cell") -> "_Cell":
        return _Cell((self.value + other.value) % 97, self.weight ^ other.weight)


def reference_task() -> int:
    acc = _PERMS[0]
    table: dict[frozenset, int] = {}
    cell = _Cell(1, 0)
    total = 0
    for k in range(270):
        p = _PERMS[k & 31]
        acc = tuple(acc[i] for i in p)
        key = _KEYS[k & 63]
        table[key] = table.get(key, 0) + acc[k % 48]
        cell = cell.merged(_Cell(acc[0], k))
        total += sum(acc[:8]) * 3 % 11
        if k % 60 == 0:
            total += len(sorted(acc[:24]))
    return total + cell.value + len(table)


def probe() -> float:
    t0 = perf_counter()
    reference_task()
    return perf_counter() - t0


class Pace:
    """Probes the machine's speed through one unit of work and scales the
    unit's item times to the reference speed.

    Time an item with ``mark = pace.mark()`` before it and
    ``pace.item(label, mark)`` after it; ``close()`` stops the probes and
    returns the scaled ``(label, seconds)`` list.  A signal handler runs
    between two bytecodes, never inside a ``perf_counter`` call, so a probe
    lies either wholly inside an item's interval or wholly outside it.
    """

    def __init__(self) -> None:
        reference_task()  # warm the interpreter's specialisation up
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.probes: list[float] = []  # durations
        self.spent = 0.0  # seconds spent in probes so far
        self._items: list[tuple[str, float, float]] = []
        self._busy = False
        self._probe()
        signal.signal(signal.SIGALRM, lambda *_: self._probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def _probe(self) -> None:
        if self._busy:  # a timer signal that fell inside a probe
            return
        self._busy = True
        start = perf_counter()
        reference_task()
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.probes.append(end - start)
        self.spent += end - start
        self._busy = False

    def clock(self) -> float:
        """Seconds so far without the probes, for the tracer's spans."""
        return perf_counter() - self.spent

    @staticmethod
    def mark() -> float:
        return perf_counter()

    def item(self, label: str, mark: float) -> None:
        self._items.append((label, mark, perf_counter()))

    def _scaled(self, t0: float, t1: float) -> float:
        # the probes from the last one before the item to the first after it
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        inside = sum(self.probes[lo:hi])
        around = self.probes[max(lo - 1, 0):hi + 1]
        return (t1 - t0 - inside) * REFERENCE_S / statistics.fmean(around)

    def last(self) -> float:
        """The last item's time, scaled by the probes taken so far."""
        return self._scaled(*self._items[-1][1:])

    def close(self) -> list[tuple[str, float]]:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()
        return [(label, self._scaled(t0, t1)) for label, t0, t1 in self._items]

    @property
    def factor(self) -> float:
        """The unit's scale, for times not bracketed by probes of their own."""
        return REFERENCE_S / statistics.median(self.probes)
