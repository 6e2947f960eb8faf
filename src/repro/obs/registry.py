"""Labelled metrics: counters, gauges, fixed-bucket histograms.

Deliberately small and allocation-light — the hot-path cost of an
``inc()``/``observe()`` is one dict lookup plus a float add under a
registry lock, with label tuples interned at first use.  Snapshots are
plain JSON-able dicts so they travel over the ``metrics`` RPC unchanged,
and :func:`merge_snapshots` folds per-shard snapshots label-wise into
one fleet view (counters sum, gauges sum or max per their declared
aggregation, histogram buckets add element-wise).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

METRICS_FORMAT = "repro-metrics"
METRICS_VERSION = 1

#: Seconds-scale latency buckets (request path: sub-ms cache hits up to
#: cold searches of tens of seconds).  Service percentiles are read off
#: these bounds, so they must span every latency worth telling apart.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Bytes-scale buckets for frame sizes.
DEFAULT_SIZE_BUCKETS = (
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576,
)

VALID_GAUGE_AGGS = ("sum", "max")


class MetricError(ValueError):
    """A metric was re-registered with a conflicting shape, or used with
    labels that don't match its declaration."""


def _label_key(label_names: Tuple[str, ...], labels: Dict[str, object],
               metric: str) -> Tuple[str, ...]:
    if set(labels) != set(label_names):
        raise MetricError(
            f"{metric}: got labels {sorted(labels)}, declared "
            f"{sorted(label_names)}"
        )
    return tuple(str(labels[name]) for name in label_names)


class _Metric:
    """Shared shape bookkeeping; subclasses own the series storage."""

    type: str = ""

    def __init__(self, name: str, help: str,
                 label_names: Sequence[str], lock: threading.Lock) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = lock

    def _series_dicts(self) -> List[Dict]:
        raise NotImplementedError

    def snapshot(self) -> Dict:
        entry: Dict[str, object] = {
            "name": self.name,
            "type": self.type,
            "help": self.help,
            "label_names": list(self.label_names),
            "series": self._series_dicts(),
        }
        return entry


class Counter(_Metric):
    """Monotonically increasing count, optionally labelled.

    Integer increments stay integers, so counts remain exact through
    ``snapshot`` -> JSON -> :func:`merge_snapshots`.  Counters are only
    ever incremented where the event happens; a subsystem that wants a
    series to exist before its first event seeds it with ``inc(0)``.
    """

    type = "counter"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, value: float = 1, **labels: object) -> None:
        if value < 0:
            raise MetricError(f"{self.name}: counters only go up")
        key = _label_key(self.label_names, labels, self.name)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + value

    def value(self, **labels: object) -> float:
        key = _label_key(self.label_names, labels, self.name)
        with self._lock:
            return self._values.get(key, 0)

    def _series_dicts(self) -> List[Dict]:
        with self._lock:
            return [
                {"labels": dict(zip(self.label_names, key)), "value": value}
                for key, value in sorted(self._values.items())
            ]


class Gauge(_Metric):
    """A value that can go either way; ``agg`` declares how per-shard
    values combine in a fleet merge (queue depths sum, high-water marks
    take the max)."""

    type = "gauge"

    def __init__(self, name: str, help: str, label_names: Sequence[str],
                 lock: threading.Lock, agg: str = "sum") -> None:
        super().__init__(name, help, label_names, lock)
        if agg not in VALID_GAUGE_AGGS:
            raise MetricError(f"{name}: unknown gauge agg {agg!r}")
        self.agg = agg
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: object) -> None:
        key = _label_key(self.label_names, labels, self.name)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, value: float = 1.0, **labels: object) -> None:
        key = _label_key(self.label_names, labels, self.name)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels: object) -> float:
        key = _label_key(self.label_names, labels, self.name)
        with self._lock:
            return self._values.get(key, 0.0)

    def snapshot(self) -> Dict:
        entry = super().snapshot()
        entry["agg"] = self.agg
        return entry

    def _series_dicts(self) -> List[Dict]:
        with self._lock:
            return [
                {"labels": dict(zip(self.label_names, key)), "value": value}
                for key, value in sorted(self._values.items())
            ]


class Histogram(_Metric):
    """Fixed-bucket histogram: per labelset, one int array of
    ``len(buckets) + 1`` non-cumulative counts plus sum and count.
    Cumulative ``le`` form is produced only at exposition time.  Values
    are observed live (e.g. every served request's latency), so merged
    snapshots aggregate whole distributions, not percentiles."""

    type = "histogram"

    def __init__(self, name: str, help: str, label_names: Sequence[str],
                 lock: threading.Lock,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        super().__init__(name, help, label_names, lock)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise MetricError(f"{name}: buckets must be sorted and unique")
        self.buckets = bounds
        self._series: Dict[Tuple[str, ...], List] = {}

    def _slot(self, key: Tuple[str, ...]) -> List:
        slot = self._series.get(key)
        if slot is None:
            slot = [[0] * (len(self.buckets) + 1), 0.0, 0]
            self._series[key] = slot
        return slot

    def _bucket_index(self, value: float) -> int:
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                return i
        return len(self.buckets)

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(self.label_names, labels, self.name)
        index = self._bucket_index(value)
        with self._lock:
            slot = self._slot(key)
            slot[0][index] += 1
            slot[1] += value
            slot[2] += 1

    def snapshot(self) -> Dict:
        entry = super().snapshot()
        entry["buckets"] = list(self.buckets)
        return entry

    def _series_dicts(self) -> List[Dict]:
        with self._lock:
            return [
                {
                    "labels": dict(zip(self.label_names, key)),
                    "counts": list(slot[0]),
                    "sum": slot[1],
                    "count": slot[2],
                }
                for key, slot in sorted(self._series.items())
            ]


class MetricsRegistry:
    """Get-or-create home for every metric in one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _register(self, name: str, factory, expected_type: str) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.type != expected_type:
                    raise MetricError(
                        f"{name}: registered as {existing.type}, "
                        f"requested {expected_type}"
                    )
                return existing
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._register(
            name, lambda: Counter(name, help, labels, self._lock), "counter")

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = (),
              agg: str = "sum") -> Gauge:
        return self._register(
            name, lambda: Gauge(name, help, labels, self._lock, agg),
            "gauge")

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  ) -> Histogram:
        return self._register(
            name,
            lambda: Histogram(name, help, labels, self._lock, buckets),
            "histogram")

    def snapshot(self) -> Dict:
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        return {
            "format": METRICS_FORMAT,
            "version": METRICS_VERSION,
            "metrics": [metric.snapshot() for metric in metrics],
        }


# -- snapshot algebra (no live registry required) ----------------------------


def _check_snapshot(snapshot: Dict) -> List[Dict]:
    if (not isinstance(snapshot, dict)
            or snapshot.get("format") != METRICS_FORMAT):
        raise MetricError("not a repro-metrics snapshot")
    return snapshot.get("metrics", [])


def _relabel(series: Dict, extra: Dict[str, str]) -> Dict:
    merged = dict(series)
    merged["labels"] = {**series.get("labels", {}),
                       **{k: str(v) for k, v in extra.items()}}
    return merged


def merge_snapshots(snapshots: Sequence[Dict],
                    extra_labels: Optional[Sequence[Dict[str, str]]] = None,
                    ) -> Dict:
    """Fold per-process snapshots into one, label-wise.

    ``extra_labels`` (one dict per snapshot, e.g. ``{"shard": "0"}``)
    is stamped onto every series of the corresponding snapshot before
    merging — the usual way to keep per-shard series distinguishable
    while still summing any that collide.
    """
    if extra_labels is not None and len(extra_labels) != len(snapshots):
        raise MetricError("extra_labels must match snapshots 1:1")
    merged: Dict[str, Dict] = {}
    for i, snapshot in enumerate(snapshots):
        extra = extra_labels[i] if extra_labels is not None else {}
        extra_names = sorted(str(k) for k in extra)
        for metric in _check_snapshot(snapshot):
            name = metric["name"]
            out = merged.get(name)
            if out is None:
                out = {k: v for k, v in metric.items() if k != "series"}
                out["label_names"] = sorted(
                    set(metric.get("label_names", [])) | set(extra_names))
                out["series"] = {}
                merged[name] = out
            elif out["type"] != metric["type"]:
                raise MetricError(
                    f"{name}: type mismatch across snapshots "
                    f"({out['type']} vs {metric['type']})"
                )
            for series in metric.get("series", []):
                series = _relabel(series, extra)
                key = tuple(sorted(series["labels"].items()))
                slot = out["series"].get(key)
                if slot is None:
                    out["series"][key] = dict(series)
                elif metric["type"] == "histogram":
                    slot["counts"] = [a + b for a, b in
                                      zip(slot["counts"], series["counts"])]
                    slot["sum"] += series["sum"]
                    slot["count"] += series["count"]
                elif (metric["type"] == "gauge"
                        and metric.get("agg") == "max"):
                    slot["value"] = max(slot["value"], series["value"])
                else:
                    slot["value"] += series["value"]
    return {
        "format": METRICS_FORMAT,
        "version": METRICS_VERSION,
        "metrics": [
            {**meta, "series": [meta["series"][k]
                                for k in sorted(meta["series"])]}
            for name, meta in sorted(merged.items())
        ],
    }


def sample_value(snapshot: Dict, name: str,
                 labels: Optional[Dict[str, str]] = None,
                 default: Optional[float] = None) -> Optional[float]:
    """Read one counter/gauge sample out of a snapshot; ``labels=None``
    sums every series of the metric (handy for 'total regardless of
    label' checks)."""
    for metric in _check_snapshot(snapshot):
        if metric["name"] != name:
            continue
        if labels is None:
            return sum(s.get("value", 0.0) for s in metric["series"])
        want = {k: str(v) for k, v in labels.items()}
        for series in metric["series"]:
            if series["labels"] == want:
                return series["value"]
    return default


def histogram_quantile(metric: Dict, q: float,
                       labels: Optional[Dict[str, str]] = None,
                       ) -> Optional[float]:
    """Nearest-bound quantile estimate from one histogram metric entry
    (a ``snapshot()['metrics']`` element).  Series are summed when
    ``labels`` is ``None``.  Returns ``None`` on an empty histogram."""
    buckets = metric.get("buckets", [])
    counts = [0] * (len(buckets) + 1)
    want = ({k: str(v) for k, v in labels.items()}
            if labels is not None else None)
    for series in metric.get("series", []):
        if want is not None and series["labels"] != want:
            continue
        for i, c in enumerate(series["counts"]):
            counts[i] += c
    total = sum(counts)
    if total == 0:
        return None
    target = max(1, int(round(q * total)))
    seen = 0
    for i, c in enumerate(counts):
        seen += c
        if seen >= target:
            return buckets[i] if i < len(buckets) else float("inf")
    return float("inf")
