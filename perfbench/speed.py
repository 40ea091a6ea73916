"""Wall-clock times with the machine's speed divided out.

A small shared VM does not run at one speed.  On the 2-vCPU host the
baseline was measured on, each vCPU flips every few seconds between a fast
state and one almost twice as slow (the same ``copy.deepcopy`` loop takes 10
ms, then 19 ms), independently of the other vCPU and of what the process
does.  Raw wall times of a 30-second run then spread by more than any useful
regression bound: replaying one fixed trace 24 times spread its wall time by
0.35 (interquartile range over median).

:class:`Timeline` meters the machine while the benchmark runs.  A timer
signal interrupts the process every ``every`` seconds, wherever it is, and
the handler times :func:`reference_work`: a fixed piece of the benchmark's
own code that does what the program's hot path does (deep copies of nested
storage and canonical JSON).  After the run, :meth:`Timeline.mapping` turns
raw ``perf_counter`` readings into *reference seconds*: each stretch between
two probes is scaled by ``REFERENCE_S`` over the median probe time around it,
and the probes' own time is left out.  On that 24-fold replay the program's
wall time tracked the probe time with a correlation of 0.98 and a log-log
slope of 1.0, and the spread of the rescaled times was 0.04.

A stretch the program spends twice as long on at the same machine speed
still reads twice as long; a stretch that took longer only because the
machine slowed does not.  The reference work is part of the benchmark, not
of the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import copy
import gc
import json
import signal
import statistics
from bisect import bisect_right
from time import perf_counter
from typing import Callable, List, Tuple

#: What one call of :func:`reference_work` takes at the reference speed:
#: about its median inside a run on the 2-vCPU VM the baseline was measured
#: on (0.5 ms alone in a fast state, 1.0 ms in a slow one; a probe that
#: interrupts the program finds colder caches).
REFERENCE_S = 0.0008
#: Probes on each side of a stretch whose median sets its scale.
WINDOW = 2

_STORAGE = {
    f"slice-{index}": {
        "owner": f"peer-{index % 7}",
        "version": index,
        "members": [f"patient-{member}" for member in range(index % 5 + 2)],
        "history": [{"version": step, "digest": f"{step * 7919:064x}",
                     "approvals": {"a": True, "b": step % 2 == 0}}
                    for step in range(6)],
    }
    for index in range(14)
}


def reference_work() -> str:
    """The fixed work a probe times; keeps nothing it allocates."""
    return json.dumps(copy.deepcopy(_STORAGE), sort_keys=True)


class Timeline:
    """Speed probes taken on a timer signal, and the clock they define.

    Use as a context manager: the timer runs, and the handler is installed,
    only inside the ``with`` block, which starts and ends with a probe.
    """

    def __init__(self, every: float = 0.1) -> None:
        self.every = every
        self.probes: List[Tuple[float, float]] = []
        self._previous = None

    def __enter__(self) -> "Timeline":
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()

    def _on_timer(self, _signum, _frame) -> None:
        self.probe()

    def probe(self) -> None:
        """Time one call of :func:`reference_work` now.  The collector is
        paused so that the probe times the machine, not the program's heap."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            reference_work()
            end = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.probes.append((start, end))

    def mapping(self) -> Callable[[float], float]:
        """Map a raw ``perf_counter`` reading to reference seconds.

        Differences of mapped readings are durations at the reference speed,
        without the time spent in probes.
        """
        starts = [start for start, _end in self.probes]
        ends = [end for _start, end in self.probes]
        took = [end - start for start, end in self.probes]
        # Scale of the stretch after probe k, from the probes around it.
        scales = [REFERENCE_S / statistics.median(took[max(0, k - WINDOW + 1):k + WINDOW + 1])
                  for k in range(len(took))]
        cumulative = [0.0]
        for k in range(len(ends) - 1):
            cumulative.append(cumulative[k] + (starts[k + 1] - ends[k]) * scales[k])

        def to_reference(moment: float) -> float:
            k = bisect_right(ends, moment) - 1
            if k < 0:
                return (moment - ends[0]) * scales[0]
            if k + 1 < len(starts) and moment > starts[k + 1]:
                return cumulative[k + 1]  # inside probe k + 1
            return cumulative[k] + (moment - ends[k]) * scales[k]

        return to_reference

    def speed(self) -> float:
        """Median machine speed over the run, relative to the reference."""
        return REFERENCE_S / statistics.median(end - start for start, end in self.probes)
