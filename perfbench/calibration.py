"""Speed calibration: a fixed pure-Python task timed next to the workload.

The machines this benchmark runs on are shared.  Within seconds every
instruction of a run can become 1.5-2x slower and fast again, and whole
runs can sit in either state.  The in-process workloads therefore run this
task, which does not depend on the code under test, right before every
request, and a request's time is taken relative to the task's: the two run
within microseconds of each other, so they share the machine's state of the
moment.  Figures are reported at a reference speed at which the task takes
exactly ``REFERENCE_NS``.  A change to the program moves the request and not
the task, so it shows in full.  (The CLI workload pairs each process with a
bare interpreter start in the same way; see ``clibench.closed_loop``.)
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

#: The task's time at the reference speed.
REFERENCE_NS = 30_000


@dataclass(frozen=True)
class _Record:
    x: float
    y: float


_XS = [0.05 + 0.03 * i for i in range(50)]


def task() -> float:
    # The kinds of work the library does: calls, float math through the
    # math module, small frozen records and dictionary traffic.
    acc = 0.0
    seen = {}
    for i, x in enumerate(_XS):
        record = _Record(x, math.erf(x))
        acc += record.y * math.exp(-x * x) + math.sqrt(record.x)
        seen[i & 63] = record
    return acc


def task_ns(times: int = 1) -> float:
    """Median wall ns of ``times`` runs of the task."""
    clock = time.perf_counter_ns
    samples = []
    for _ in range(times):
        start = clock()
        task()
        samples.append(clock() - start)
    return statistics.median(samples)
