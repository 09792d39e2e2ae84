"""Host speed, measured next to the work it is used to scale.

The shared 2-core boxes this benchmark runs on change speed by up to
1.6x for seconds to tens of seconds at a time (other tenants on the same
hardware), so the same check-batch inputs ran at 220 to 350 sources/s
depending on when they ran.  A fixed pure-Python loop timed in the
program's own process at the boundaries of the measured parts tracks
that speed.  check-batch and repair-campaign, whose work is pure-Python
compilation and analysis like the loop, report each part's unit times
divided by ``mean(loop before, loop after) / REFERENCE_S``: times at the
reference speed.  That cut their run-to-run spread of throughput from
0.36 to 0.04 (check-batch, quartile distance over median, 5-10 seeds).
gnn-train (numpy) and serve-mixed (a fixed 10 ms batch window) report
raw times.  Every run prints its raw figures and the host factor.
"""

from __future__ import annotations

import time

#: The loop's time on the reference box (2-core x86, Python 3.11).
REFERENCE_S = 0.010
#: Loop runs per measurement; their median is the measurement.
REPEATS = 3


def loop_seconds() -> float:
    """Median time of a fixed integer loop (no I/O, little allocation)."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        x = 0
        for i in range(100_000):
            x += i * i % 7
        times.append(time.perf_counter() - start)
    return sorted(times)[REPEATS // 2]
