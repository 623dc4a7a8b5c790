"""Statistics helpers and the host-speed sampler shared by every workload.

Percentiles use :func:`repro.telemetry.percentile` (the program's own
interpolated percentile), so benchmark and server report numbers from the
same math.  :func:`tail_percentile` adds the reporting rule of the
benchmark: a tail percentile is only quoted when at least ``min_beyond``
samples lie beyond it.

Shared hosts change speed by tens of percent within seconds as neighbours
come and go.  :class:`SpeedSampler` therefore runs a short fixed
pure-Python loop on a 50 ms interval timer while a measurement is under
way, subtracts the time those samples took, and scales the rest by
``REFERENCE_LOOP_S / loop time``: reported times are seconds of a host
that runs the loop in ``REFERENCE_LOOP_S``.  The loop is benchmark code on
fresh small containers and runs with the garbage collector off, so a
collection of the program's heap is never charged to a sample (it stays in
the program's time).

The loop time is the mean of the fastest 90% of the samples.  A mean,
because a neighbour that time-slices the CPU lengthens only the samples it
preempts while the program pays for every slice; a median ignores that.
Leaving out the slowest tenth keeps one stalled sample from moving the
factor.  Over 37 qft_gate compiles on a busy shared 2-CPU host the spread
of compile times was 32% raw, 11% scaled by the median, 5.3% by the mean
and 4.0% by this trimmed mean.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence

from repro.telemetry import percentile

try:  # POSIX only
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX hosts
    _resource = None

__all__ = ["TooFewSamples", "tail_percentile", "median", "ratio",
           "peak_rss_mb", "summarise", "trimmed_mean", "Span", "SpeedSampler",
           "REFERENCE_LOOP_S"]

#: Time of one calibration loop on an unloaded 2-CPU x86-64 host, Python 3.11.
REFERENCE_LOOP_S = 0.0007
#: Interval between speed samples while a measurement is armed.
SAMPLE_INTERVAL_S = 0.05
#: Share of the slowest speed samples left out of the speed factor.
TRIMMED_SHARE = 0.1
_LOOP_ITERATIONS = 1000


def _calibration_loop() -> int:
    """Fixed interpreter work: dict, set and heap traffic on small ints."""
    table: Dict[int, int] = {}
    seen = set()
    heap: List = []
    total = 0
    for index in range(_LOOP_ITERATIONS):
        key = (index * 7919) % 1009
        table[key] = table.get(key, 0) + 1
        if key in seen:
            total += 1
        else:
            seen.add(key)
        heapq.heappush(heap, (key, index))
        if len(heap) > 64:
            heapq.heappop(heap)
    return total


def trimmed_mean(samples: Sequence[float]) -> float:
    """Mean of ``samples`` without the slowest ``TRIMMED_SHARE`` of them."""
    ordered = sorted(samples)
    return statistics.fmean(
        ordered[:len(ordered) - int(len(ordered) * TRIMMED_SHARE)])


@dataclass
class Span:
    """One measured interval: raw wall time, sampling cost and speed factor."""

    raw_s: float = 0.0
    sampling_s: float = 0.0
    factor: float = 1.0

    @property
    def seconds(self) -> float:
        """Wall time without the sampling, at the reference host speed."""
        return (self.raw_s - self.sampling_s) * self.factor


class SpeedSampler:
    """Samples host speed with the calibration loop during timed intervals.

    Uses ``SIGALRM``, so :meth:`timed` must run in the main thread; the
    handler runs between bytecodes of whatever the main thread executes,
    including while it waits to join other threads.
    """

    def __init__(self) -> None:
        #: Every loop time sampled so far, for the report.
        self.readings: List[float] = []
        self._samples: List[float] = []
        self._spent = 0.0
        self._sampling = False

    def _sample(self, *_signal_args) -> None:
        if self._sampling:  # a timer tick while a sample runs: skip it
            return
        self._sampling = True
        # The loop's allocations must not start a collection of the
        # program's heap: that is program work, not host speed.
        collecting = gc.isenabled()
        gc.disable()
        tick = time.perf_counter()
        _calibration_loop()
        elapsed = time.perf_counter() - tick
        if collecting:
            gc.enable()
        self._sampling = False
        self._samples.append(elapsed)
        self._spent += elapsed

    @contextlib.contextmanager
    def timed(self) -> Iterator[Span]:
        """Time the body; the yielded :class:`Span` is filled in on exit.

        One sample is always taken just before the body starts, so even a
        body shorter than the sampling interval gets a speed factor.
        """
        span = Span()
        self._samples = []
        self._sample()
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        tick = time.perf_counter()
        try:
            yield span
        finally:
            span.raw_s = time.perf_counter() - tick
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            span.sampling_s = self._spent
            span.factor = REFERENCE_LOOP_S / trimmed_mean(self._samples)
            self.readings.extend(self._samples)


class TooFewSamples(ValueError):
    """A percentile would have fewer samples beyond it than required."""


def tail_percentile(samples: Sequence[float], fraction: float, *,
                    min_beyond: int = 10) -> float:
    """The ``fraction`` percentile of ``samples``, refusing thin tails.

    Raises :class:`TooFewSamples` unless at least ``min_beyond`` samples are
    strictly greater than the returned value.  ``min_beyond=0`` accepts any
    non-empty sample.
    """
    if not samples:
        raise TooFewSamples("no samples")
    value = percentile(samples, fraction)
    beyond = sum(1 for sample in samples if sample > value)
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{fraction * 100:g} of {len(samples)} samples has {beyond} "
            f"beyond it; need at least {min_beyond}")
    return value


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise TooFewSamples("no samples")
    return statistics.median(samples)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 for an empty base."""
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Process peak resident set size in MiB (``ru_maxrss`` high-water mark)."""
    if _resource is None:  # pragma: no cover - non-POSIX hosts
        return 0.0
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def summarise(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count, for the human-readable report."""
    ordered = sorted(samples)
    if len(ordered) >= 2:
        low, _, high = statistics.quantiles(ordered, n=4)
    else:
        low = high = ordered[0]
    return {"n": len(ordered), "median": statistics.median(ordered),
            "q1": low, "q3": high}
