"""Process-global metrics registry: counters, gauges, histograms.

Every layer of the system used to invent its own counter scheme — dataclass
field bumps in the gateway and TCP server, ``setattr`` loops in the store
and pool, ad-hoc timing dicts in the benchmarks.  This module replaces them
with one registry of named instruments:

* **Counter** — monotonic event count (``inc``).
* **Gauge** — last-written value (``set``).
* **Histogram** — fixed bucket boundaries, count and sum; supports
  percentile estimates by linear interpolation over the cumulative bucket
  counts.

Instruments are get-or-create by ``(name, labels)`` and thread-safe.  The
registry is **near-zero-cost when disabled**: each record call is one
attribute load and a branch.  The clock is injectable so tests step time
instead of sleeping.  Two exporters render the same state:
:meth:`MetricsRegistry.snapshot` (deterministic JSON dict, served by the
gateway's ``metrics`` protocol verb) and
:meth:`MetricsRegistry.render_prometheus` (text exposition format, the
``format: "prometheus"`` variant of the same verb).

Telemetry never influences routing: instruments only *read* clocks and
count events, so goldens and the differential suites are byte-identical
with the registry enabled, disabled, and under either exporter —
``tests/telemetry`` asserts the cheap half of that and the golden suite the
rest.
"""

from __future__ import annotations

import itertools
import math
import re
import time
from bisect import bisect_left
from threading import Lock
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "CounterSet",
    "REGISTRY",
    "get_registry",
    "percentile",
    "validate_prometheus_text",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Seconds-scale latency buckets: sub-millisecond store touches up to
#: minute-scale full compiles, roughly geometric.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

_LabelItems = Tuple[Tuple[str, str], ...]


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of raw samples.

    Matches ``statistics.quantiles(..., method="inclusive")``: the value at
    position ``(len - 1) * fraction`` of the sorted data, interpolating
    between neighbours.  This is the one percentile implementation shared
    by the serving benchmark and the gateway's latency summary, so bench
    and server report numbers from identical math.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * fraction
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def _normalise_labels(labels: Optional[Dict[str, str]]) -> _LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(key), str(value))
                        for key, value in labels.items()))


def _series_name(name: str, label_items: _LabelItems) -> str:
    if not label_items:
        return name
    rendered = ",".join(f'{key}="{_escape_label(value)}"'
                        for key, value in label_items)
    return f"{name}{{{rendered}}}"


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


class Counter:
    """Monotonic counter.  ``value`` reads are lock-free (int loads are
    atomic in CPython); increments take the instrument lock."""

    kind = "counter"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 label_items: _LabelItems) -> None:
        self._registry = registry
        self.name = name
        self.label_items = label_items
        self._lock = Lock()
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError("counters are monotonic; inc must be >= 0")
        with self._lock:
            self.value += amount


class Gauge:
    """Last-written value (e.g. breaker state, live worker count)."""

    kind = "gauge"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 label_items: _LabelItems) -> None:
        self._registry = registry
        self.name = name
        self.label_items = label_items
        self.value = 0.0

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        self.value = value


class Histogram:
    """Fixed-boundary histogram with count, sum and an implicit +Inf bucket.

    ``quantile`` estimates percentiles by linear interpolation over the
    cumulative bucket counts — coarse but dependency-free, and the bucket
    boundaries are part of the export so a scraper recomputes identically.
    """

    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 label_items: _LabelItems,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        self._registry = registry
        self.name = name
        self.label_items = label_items
        self.bounds = bounds
        self._lock = Lock()
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.bucket_counts[index] += 1
            self.count += 1
            self.sum += value

    def quantile(self, fraction: float) -> float:
        """Estimated value at ``fraction`` (0..1) of the observations."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        with self._lock:
            total = self.count
            counts = list(self.bucket_counts)
        if total == 0:
            return 0.0
        target = fraction * total
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target and bucket_count > 0:
                upper = (self.bounds[index] if index < len(self.bounds)
                         else self.bounds[-1])
                lower = self.bounds[index - 1] if index > 0 else 0.0
                if index >= len(self.bounds):
                    return upper  # open-ended bucket: clamp to last bound
                within = (target - previous) / bucket_count
                return lower + (upper - lower) * min(1.0, max(0.0, within))
        return self.bounds[-1]


class MetricsRegistry:
    """Get-or-create registry of named, optionally labelled instruments.

    One process-global instance (:data:`REGISTRY`) backs the whole system;
    tests build private registries.  Re-registering a name with a different
    instrument kind (or different histogram buckets) is an error — silent
    kind drift is exactly the counter-rot this module exists to end.
    """

    def __init__(self, clock: Callable[[], float] = time.time) -> None:
        self.enabled = True
        self.clock = clock
        self._lock = Lock()
        self._instruments: Dict[Tuple[str, _LabelItems], object] = {}
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Instrument creation
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "",
                labels: Optional[Dict[str, str]] = None) -> Counter:
        return self._get_or_create(name, labels, "counter", help,
                                   lambda items: Counter(self, name, items))

    def gauge(self, name: str, help: str = "",
              labels: Optional[Dict[str, str]] = None) -> Gauge:
        return self._get_or_create(name, labels, "gauge", help,
                                   lambda items: Gauge(self, name, items))

    def histogram(self, name: str, help: str = "",
                  labels: Optional[Dict[str, str]] = None,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                  ) -> Histogram:
        instrument = self._get_or_create(
            name, labels, "histogram", help,
            lambda items: Histogram(self, name, items, buckets))
        if instrument.bounds != tuple(sorted(float(b) for b in buckets)):
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{instrument.bounds}")
        return instrument

    def _get_or_create(self, name: str, labels, kind: str, help: str,
                       factory):
        items = _normalise_labels(labels)
        with self._lock:
            existing_kind = self._kinds.get(name)
            if existing_kind is not None and existing_kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {existing_kind}, not a {kind}")
            instrument = self._instruments.get((name, items))
            if instrument is None:
                instrument = factory(items)
                self._instruments[(name, items)] = instrument
                self._kinds[name] = kind
                if help and name not in self._help:
                    self._help[name] = help
            return instrument

    def reset(self) -> None:
        """Drop every instrument (test isolation)."""
        with self._lock:
            self._instruments.clear()
            self._kinds.clear()
            self._help.clear()

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Deterministic JSON-safe view of every series.

        Counters and gauges map series name (labels rendered inline) to
        value; histograms to ``{count, sum, buckets}`` where ``buckets``
        maps each upper bound (and ``"+Inf"``) to its cumulative count.
        """
        with self._lock:
            instruments = sorted(
                self._instruments.items(),
                key=lambda entry: (entry[0][0], entry[0][1]))
        payload: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "histograms": {}}
        for (name, items), instrument in instruments:
            series = _series_name(name, items)
            if instrument.kind == "counter":
                payload["counters"][series] = instrument.value
            elif instrument.kind == "gauge":
                payload["gauges"][series] = instrument.value
            else:
                cumulative = 0
                buckets: Dict[str, int] = {}
                for bound, bucket_count in zip(
                        instrument.bounds, instrument.bucket_counts):
                    cumulative += bucket_count
                    buckets[repr(bound)] = cumulative
                cumulative += instrument.bucket_counts[-1]
                buckets["+Inf"] = cumulative
                payload["histograms"][series] = {
                    "count": instrument.count,
                    "sum": instrument.sum,
                    "buckets": buckets,
                }
        return payload

    def render_prometheus(self) -> str:
        """Text exposition format (``# HELP`` / ``# TYPE`` + sample lines)."""
        with self._lock:
            instruments = sorted(
                self._instruments.items(),
                key=lambda entry: (entry[0][0], entry[0][1]))
            helps = dict(self._help)
            kinds = dict(self._kinds)
        lines: List[str] = []
        emitted_header = set()
        for (name, items), instrument in instruments:
            if name not in emitted_header:
                emitted_header.add(name)
                if helps.get(name):
                    lines.append(f"# HELP {name} {helps[name]}")
                lines.append(f"# TYPE {name} {kinds[name]}")
            if instrument.kind in ("counter", "gauge"):
                lines.append(f"{_series_name(name, items)} "
                             f"{_format_value(instrument.value)}")
                continue
            cumulative = 0
            for bound, bucket_count in zip(instrument.bounds,
                                           instrument.bucket_counts):
                cumulative += bucket_count
                bucket_items = items + (("le", repr(bound)),)
                lines.append(f"{_series_name(name + '_bucket', bucket_items)} "
                             f"{cumulative}")
            cumulative += instrument.bucket_counts[-1]
            lines.append(f"{_series_name(name + '_bucket', items + (('le', '+Inf'),))} "
                         f"{cumulative}")
            lines.append(f"{_series_name(name + '_sum', items)} "
                         f"{_format_value(instrument.sum)}")
            lines.append(f"{_series_name(name + '_count', items)} "
                         f"{instrument.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _format_value(value) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


# ----------------------------------------------------------------------
# Prometheus line-format validation (CI metrics-smoke + self-test check)
# ----------------------------------------------------------------------
_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABEL_PAIR = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
_SAMPLE_RE = re.compile(
    rf"^{_METRIC_NAME}(?:\{{{_LABEL_PAIR}(?:,{_LABEL_PAIR})*\}})?"
    r" [-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN)(?: [0-9]+)?$")
_COMMENT_RE = re.compile(
    rf"^# (?:HELP {_METRIC_NAME} .*|TYPE {_METRIC_NAME} "
    r"(?:counter|gauge|histogram|summary|untyped))$")


def validate_prometheus_text(text: str) -> List[str]:
    """Line-format check of a text exposition payload.

    Returns a list of ``"line N: ..."`` problems — empty means every line
    parses as a comment, a blank line, or a well-formed sample.  Used by
    the serving self-test and the CI metrics-smoke job so a formatting
    regression fails loudly instead of breaking a scraper downstream.
    """
    problems: List[str] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if not _COMMENT_RE.match(line):
                problems.append(f"line {number}: malformed comment {line!r}")
            continue
        if not _SAMPLE_RE.match(line):
            problems.append(f"line {number}: malformed sample {line!r}")
    return problems


# ----------------------------------------------------------------------
# CounterSet: registry-backed stats objects with attribute semantics
# ----------------------------------------------------------------------
_INSTANCE_IDS = itertools.count(1)


class CounterSet:
    """Registry-backed counter bundle preserving attribute semantics.

    The pre-telemetry stats objects (``GatewayStats``, ``ServerStats``,
    ``PoolStats``, ``StoreStats``) are read as attributes and bumped with
    ``stats.field += 1`` all over the serving path and its tests.  This
    base class keeps both spellings working while the actual state lives
    in registry counters: attribute reads return the counter value,
    attribute assignment increments by the delta.

    Each instance gets a unique ``instance`` label so concurrent gateways,
    pools and store handles in one process stay independent series in the
    shared registry.  Subclasses set ``FIELDS`` (counter attribute names)
    and ``PREFIX`` (metric name prefix, e.g. ``repro_gateway``).
    """

    FIELDS: Tuple[str, ...] = ()
    PREFIX = "repro"
    HELP: Dict[str, str] = {}

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 instance: Optional[str] = None) -> None:
        registry = registry or get_registry()
        instance = instance or f"{self.PREFIX.rsplit('_', 1)[-1]}-{next(_INSTANCE_IDS)}"
        counters = {
            name: registry.counter(
                f"{self.PREFIX}_{name}_total",
                help=self.HELP.get(name, ""),
                labels={"instance": instance})
            for name in self.FIELDS
        }
        # Bypass __setattr__ for the bookkeeping attributes themselves.
        object.__setattr__(self, "_counters", counters)
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "registry", registry)

    def __getattr__(self, name: str):
        counters = self.__dict__.get("_counters")
        if counters is not None and name in counters:
            return counters[name].value
        raise AttributeError(
            f"{type(self).__name__} has no attribute {name!r}")

    def __setattr__(self, name: str, value) -> None:
        counters = self.__dict__.get("_counters")
        if counters is not None and name in counters:
            delta = int(value) - counters[name].value
            if delta < 0:
                raise ValueError(
                    f"{type(self).__name__}.{name} is monotonic; cannot "
                    f"go from {counters[name].value} to {value}")
            counters[name].inc(delta)
            return
        object.__setattr__(self, name, value)

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` under the counter's own lock.

        ``stats.name += 1`` reads the value and then writes it back, so two
        threads bumping one series through different objects can lose an
        update; shared series are bumped through this instead.
        """
        self._counters[name].inc(amount)

    def as_dict(self) -> Dict[str, int]:
        return {name: counter.value
                for name, counter in self._counters.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rendered = ", ".join(f"{name}={counter.value}"
                             for name, counter in self._counters.items())
        return f"{type(self).__name__}({rendered})"


#: The process-global registry every production component records into.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY
