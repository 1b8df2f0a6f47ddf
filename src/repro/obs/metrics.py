"""Thread-safe metrics registry: counters, gauges, and histograms.

One process-wide registry (``get_registry()``) collects everything the
deployment knows about itself: datastore opcounters, wire-protocol traffic,
firework launches, API query latency.  The registry renders in a
Prometheus-style text exposition format so ``GET /metrics`` on the
Materials API server is scrapeable::

    # TYPE repro_docstore_ops_total counter
    repro_docstore_ops_total{db="mp",op="query"} 42
    # TYPE repro_api_query_millis histogram
    repro_api_query_millis_count 10
    repro_api_query_millis{quantile="0.5"} 1.2

Histograms keep a bounded sample reservoir and report p50/p95/p99 with
linearly interpolated percentile math (empty series → 0.0; a single sample
is every percentile of itself).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..errors import ReproError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MAX_LABEL_SETS",
    "OVERFLOW_LABEL_VALUE",
    "get_registry",
    "set_registry",
    "labels_key",
    "percentile",
]

#: Samples kept per histogram series (oldest evicted first).
HISTOGRAM_RESERVOIR = 10_000

#: Distinct label-value sets kept per metric.  Past the cap, new label
#: combinations collapse into one ``__other__`` series and
#: ``repro_obs_label_overflow_total{metric=...}`` counts the collisions —
#: a warehouse-stamped label (user id, endpoint path) can skew the tail
#: but can no longer grow memory without bound.
MAX_LABEL_SETS = 512

#: Label value absorbing over-cap series.
OVERFLOW_LABEL_VALUE = "__other__"

_OVERFLOW_METRIC = "repro_obs_label_overflow_total"

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(key)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + body + "}"


def labels_key(labels: Dict[str, Any]) -> str:
    """Canonical string form of a label set (stable grouping key)."""
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def percentile(values: List[float], p: float) -> float:
    """Linearly interpolated percentile; 0.0 for an empty sample.

    Uses the inclusive (numpy ``"linear"``) method: the rank
    ``p/100 * (n-1)`` interpolates between its two neighbouring order
    statistics.  Unlike nearest-rank math, small samples stay honest —
    p99 of two samples is *near* the max, not equal to it, and the p50
    of an even-sized sample is the true median.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = max(0.0, min(100.0, p)) / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class _Metric:
    """Common bookkeeping for one named metric and its labeled series."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()
        #: Cardinality bound, fixed at creation; the registry that created
        #: this metric (for overflow accounting) is attached afterwards.
        self.max_label_sets = MAX_LABEL_SETS
        self._registry: Optional["MetricsRegistry"] = None

    def _bounded_key(self, key: LabelKey) -> Tuple[LabelKey, bool]:
        """Clamp a new series key once the cardinality cap is hit.

        Must be called with ``self._lock`` held.  Existing series keep
        updating; a *new* over-cap combination is rewritten to the
        ``__other__`` bucket (which is always admitted).
        """
        series = self._series  # type: ignore[attr-defined]
        if not key or key in series or len(series) < self.max_label_sets:
            return key, False
        overflow = tuple((k, OVERFLOW_LABEL_VALUE) for k, _ in key)
        return overflow, True

    def _note_overflow(self) -> None:
        """Count one clamped series (outside ``self._lock``)."""
        registry = self._registry
        if registry is None or self.name == _OVERFLOW_METRIC:
            return
        registry.counter(
            _OVERFLOW_METRIC,
            "label-value sets collapsed into __other__ by the "
            "per-metric cardinality cap",
        ).inc(1, metric=self.name)

    def render(self) -> List[str]:  # pragma: no cover - overridden
        raise NotImplementedError

    def collect(self) -> dict:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing counter with optional labels."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = ""):
        super().__init__(name, help_text)
        self._series: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ReproError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        with self._lock:
            key, overflowed = self._bounded_key(key)
            self._series[key] = self._series.get(key, 0.0) + amount
        if overflowed:
            self._note_overflow()

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every labeled series."""
        with self._lock:
            return sum(self._series.values())

    def series(self) -> Dict[LabelKey, float]:
        with self._lock:
            return dict(self._series)

    def values(self, label: str) -> Dict[str, float]:
        """Totals broken down by one label's values.

        ``plan_cache.values("event")`` -> ``{"hit": 40, "miss": 3, ...}``;
        series missing the label are ignored.
        """
        out: Dict[str, float] = {}
        with self._lock:
            for key, count in self._series.items():
                for k, v in key:
                    if k == label:
                        out[v] = out.get(v, 0.0) + count
                        break
        return out

    def render(self) -> List[str]:
        lines = [f"# TYPE {self.name} counter"]
        with self._lock:
            for key in sorted(self._series):
                lines.append(
                    f"{self.name}{_render_labels(key)} {self._series[key]:g}"
                )
        return lines

    def collect(self) -> dict:
        with self._lock:
            items = sorted(self._series.items())
        return {
            "name": self.name,
            "kind": self.kind,
            "series": [
                {"labels": dict(k), "value": v} for k, v in items
            ],
        }


class Gauge(_Metric):
    """A value that can go up and down (queue depth, active sessions)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = ""):
        super().__init__(name, help_text)
        self._series: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            key, overflowed = self._bounded_key(key)
            self._series[key] = float(value)
        if overflowed:
            self._note_overflow()

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            key, overflowed = self._bounded_key(key)
            self._series[key] = self._series.get(key, 0.0) + amount
        if overflowed:
            self._note_overflow()

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def render(self) -> List[str]:
        lines = [f"# TYPE {self.name} gauge"]
        with self._lock:
            for key in sorted(self._series):
                lines.append(
                    f"{self.name}{_render_labels(key)} {self._series[key]:g}"
                )
        return lines

    def collect(self) -> dict:
        with self._lock:
            items = sorted(self._series.items())
        return {
            "name": self.name,
            "kind": self.kind,
            "series": [
                {"labels": dict(k), "value": v} for k, v in items
            ],
        }


class _HistogramSeries:
    __slots__ = ("count", "sum", "samples")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.samples: Deque[float] = deque(maxlen=HISTOGRAM_RESERVOIR)


class Histogram(_Metric):
    """Latency/size distribution with p50/p95/p99 summary quantiles."""

    kind = "histogram"
    quantiles = (50.0, 95.0, 99.0)

    def __init__(self, name: str, help_text: str = ""):
        super().__init__(name, help_text)
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            key, overflowed = self._bounded_key(key)
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries()
            series.count += 1
            series.sum += float(value)
            series.samples.append(float(value))
        if overflowed:
            self._note_overflow()

    def count(self, **labels: Any) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.count if series else 0

    def sum(self, **labels: Any) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.sum if series else 0.0

    def percentile(self, p: float, **labels: Any) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            samples = list(series.samples) if series else []
        return percentile(samples, p)

    def summary(self, **labels: Any) -> dict:
        with self._lock:
            series = self._series.get(_label_key(labels))
            samples = list(series.samples) if series else []
            count = series.count if series else 0
            total = series.sum if series else 0.0
        return {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else 0.0,
            "p50": percentile(samples, 50),
            "p95": percentile(samples, 95),
            "p99": percentile(samples, 99),
            "max": max(samples) if samples else 0.0,
        }

    def collect(self) -> dict:
        with self._lock:
            items = [
                (key, series.count, series.sum, list(series.samples))
                for key, series in sorted(self._series.items())
            ]
        series_out = []
        for key, count, total, samples in items:
            series_out.append({
                "labels": dict(key),
                "value": (total / count) if count else 0.0,  # mean
                "count": count,
                "sum": total,
                "p50": percentile(samples, 50),
                "p95": percentile(samples, 95),
                "p99": percentile(samples, 99),
                "max": max(samples) if samples else 0.0,
            })
        return {"name": self.name, "kind": self.kind, "series": series_out}

    def render(self) -> List[str]:
        lines = [f"# TYPE {self.name} histogram"]
        with self._lock:
            items = [
                (key, series.count, series.sum, list(series.samples))
                for key, series in sorted(self._series.items())
            ]
        for key, count, total, samples in items:
            lines.append(f"{self.name}_count{_render_labels(key)} {count:g}")
            lines.append(f"{self.name}_sum{_render_labels(key)} {total:g}")
            for q in self.quantiles:
                lines.append(
                    f"{self.name}{_render_labels(key, ('quantile', f'{q / 100:g}'))}"
                    f" {percentile(samples, q):g}"
                )
        return lines


class MetricsRegistry:
    """A named family of metrics, rendered together.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call fixes the metric's type, and a later call under a different type
    raises, so two subsystems cannot silently fight over one name.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls: type, name: str, help_text: str) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help_text)
                metric._registry = self
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ReproError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text)

    def histogram(self, name: str, help_text: str = "") -> Histogram:
        return self._get_or_create(Histogram, name, help_text)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def render_text(self) -> str:
        """The /metrics exposition document."""
        with self._lock:
            metrics = [self._metrics[n] for n in sorted(self._metrics)]
        lines: List[str] = []
        for metric in metrics:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def collect(self) -> List[dict]:
        """Structured dump for the flight recorder's metrics section.

        One dict per metric — ``{"name", "kind", "series": [{"labels",
        "value", ...}]}`` — with labels as plain dicts (not rendered
        strings).  Histogram series carry their summary stats alongside
        the mean ``value``.
        """
        with self._lock:
            metrics = [self._metrics[n] for n in sorted(self._metrics)]
        return [m.collect() for m in metrics]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready view (histograms reduced to their summaries)."""
        with self._lock:
            metrics = list(self._metrics.values())
        out: Dict[str, Any] = {}
        for metric in metrics:
            if isinstance(metric, Histogram):
                with metric._lock:
                    keys = list(metric._series)
                out[metric.name] = {
                    "type": metric.kind,
                    "series": {
                        _render_labels(k) or "{}": metric.summary(**dict(k))
                        for k in keys
                    },
                }
            else:
                out[metric.name] = {
                    "type": metric.kind,
                    "series": {
                        _render_labels(k) or "{}": v
                        for k, v in metric._series.items()  # type: ignore[attr-defined]
                    },
                }
        return out

    def reset(self) -> None:
        """Drop every metric (test isolation)."""
        with self._lock:
            self._metrics.clear()


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry (returns the previous one)."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
