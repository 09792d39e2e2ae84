"""Order statistics and ratios the benchmark reports.

Pure functions over plain lists, so the arithmetic is tested on its own
(``perfbench/test_perfbench.py``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

#: Equal parts the measured phase is cut into: throughput is the median
#: of their rates, and the host speed is sampled at their boundaries.
CHUNKS = 10

#: Tail percentiles the chooser considers, in tenths of a percent, highest
#: first (999 is p99.9).
TAIL_CANDIDATES_TENTHS = (999, 990, 950, 900, 750, 500)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation between
    the two nearest ranks, as numpy's default method computes it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, tenths: int) -> int:
    """How many of ``n`` samples lie above the percentile given in tenths
    of a percent (integer arithmetic, so p99 of 1000 has exactly 10)."""
    return n * (1000 - tenths) // 1000


def tail_tenths(n: int, beyond: int = 10) -> Optional[int]:
    """The highest candidate percentile (in tenths) with at least
    ``beyond`` samples above it, or ``None`` when the sample is too small
    for even the median."""
    for tenths in TAIL_CANDIDATES_TENTHS:
        if samples_beyond(n, tenths) >= beyond:
            return tenths
    return None


def tail_label(tenths: int) -> str:
    """``990`` → ``"p99"``, ``999`` → ``"p99.9"``."""
    whole, frac = divmod(tenths, 10)
    return f"p{whole}" if frac == 0 else f"p{whole}.{frac}"


def latency_summary(seconds: Sequence[float]) -> Dict[str, object]:
    """Median and chosen tail of per-unit latencies, in milliseconds,
    with the sample count and which percentile the tail is."""
    n = len(seconds)
    tenths = tail_tenths(n)
    if tenths is None:
        raise ValueError(f"{n} latency samples are too few for a tail "
                         "with 10 samples beyond it")
    ms = [s * 1000.0 for s in seconds]
    return {"p50_ms": percentile(ms, 50.0),
            "tail_ms": percentile(ms, tenths / 10.0),
            "tail": tail_label(tenths), "n": n}


def share(part: float, base: float) -> Tuple[float, float, float]:
    """``(part / base, part, base)``; an empty base gives a share of 0
    rather than a division error, and the base travels with the value
    so a reader can tell 0 of 0 from 0 of 1000."""
    return (part / base if base else 0.0, part, base)


def share_detail(part: float, base: float, unit_of_base: str) -> str:
    """How a share is printed next to its value: ``3 of 4 lookups``."""
    return f"{part:g} of {base:g} {unit_of_base}"


def chunk_bounds(n: int, chunks: int = CHUNKS) -> List[int]:
    """Start index of each of ``chunks`` equal parts of ``n`` units, and
    ``n`` itself."""
    return [round(i * n / chunks) for i in range(chunks + 1)]


def chunk_rates(unit_seconds: Sequence[float]) -> List[float]:
    """Units per second of each part of a sequence of per-unit times."""
    bounds = chunk_bounds(len(unit_seconds))
    return [(b - a) / sum(unit_seconds[a:b])
            for a, b in zip(bounds, bounds[1:]) if b > a]


def at_reference_speed(unit_seconds: Sequence[float],
                       loop_seconds: Sequence[float], reference_s: float
                       ) -> List[float]:
    """Per-unit times rescaled to the reference host speed.

    ``loop_seconds[i]`` is the host-speed loop timed before part ``i``
    (and the last one after the last part); each part's times are
    divided by ``mean(loop before, loop after) / reference_s``."""
    bounds = chunk_bounds(len(unit_seconds))
    if len(loop_seconds) != len(bounds):
        raise ValueError(f"{len(loop_seconds)} host-speed samples for "
                         f"{len(bounds) - 1} parts")
    out: List[float] = []
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        factor = (loop_seconds[i] + loop_seconds[i + 1]) / 2 / reference_s
        out += [t / factor for t in unit_seconds[a:b]]
    return out
