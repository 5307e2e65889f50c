"""Lightweight metrics: labelled counters, gauges and histograms.

The simulator's hot paths (event dispatch, batch coalescing, retry
bookkeeping) want to *count things* without paying for a metrics
framework.  This module provides the three classic instrument kinds
with an explicit cost model:

* instruments are created once (registry lookups are get-or-create and
  idempotent) and **bound children** (:meth:`Counter.labels`) are
  cached, so a hot loop holds a direct reference whose ``inc`` is one
  dict store;
* with observability disabled (``REPRO_OBS=0`` or
  :func:`set_obs_enabled`), :func:`default_registry` returns the
  process-wide :data:`NULL_REGISTRY` whose instruments are a single
  shared no-op object — components constructed while disabled carry
  null instruments forever, which is the "compiled to the null sink"
  contract ``benchmarks/perfbench.py --obs-overhead`` enforces;
* a registry :meth:`~MetricsRegistry.snapshot` is plain JSON data, and
  :meth:`~MetricsRegistry.merge` folds another snapshot in — this is
  how campaign workers ship their metrics back to the parent without
  touching any seeded state (see ``repro.raidsim.campaign``).

Nothing here imports the rest of ``repro``; the observability layer
sits below every other subsystem.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from contextlib import contextmanager

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_INSTRUMENT",
    "NULL_REGISTRY",
    "obs_enabled",
    "set_obs_enabled",
    "default_registry",
    "scoped_registry",
    "DEFAULT_BUCKETS",
]

#: generic latency-ish buckets (seconds); callers pass their own for
#: dimensionless ratios or byte counts
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(labels: dict) -> tuple:
    """Canonical hashable form of a label set."""
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


class _Instrument:
    """Shared naming/labelling machinery of the three instrument kinds."""

    kind = "abstract"
    __slots__ = ("name", "help", "_values", "_children")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: dict = {}
        self._children: dict = {}

    def labels(self, **labels):
        """A bound child for one label set — cache it on hot paths."""
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child(key)
        return child

    def _make_child(self, key):  # pragma: no cover - abstract
        raise NotImplementedError


class _BoundCounter:
    __slots__ = ("_values", "_key")

    def __init__(self, values: dict, key: tuple) -> None:
        self._values = values
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        values = self._values
        key = self._key
        values[key] = values.get(key, 0.0) + amount


class Counter(_Instrument):
    """A monotonically increasing count, optionally per label set."""

    kind = "counter"
    __slots__ = ()

    def _make_child(self, key) -> _BoundCounter:
        return _BoundCounter(self._values, key)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set."""
        return sum(self._values.values())


class _BoundGauge:
    __slots__ = ("_values", "_key")

    def __init__(self, values: dict, key: tuple) -> None:
        self._values = values
        self._key = key

    def set(self, value: float) -> None:
        self._values[self._key] = value

    def add(self, amount: float) -> None:
        values = self._values
        key = self._key
        values[key] = values.get(key, 0.0) + amount


class Gauge(_Instrument):
    """A point-in-time value (queue depth, worker count, high-water)."""

    kind = "gauge"
    __slots__ = ()

    def _make_child(self, key) -> _BoundGauge:
        return _BoundGauge(self._values, key)

    def set(self, value: float, **labels) -> None:
        self._values[_label_key(labels)] = value

    def add(self, amount: float, **labels) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0.0)


class _HistState:
    """Bucket counts plus running aggregates for one label set."""

    __slots__ = ("counts", "sum", "count", "min", "max")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * (n_buckets + 1)  # +1 for the +inf bucket
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")


class _BoundHistogram:
    __slots__ = ("_bounds", "_state")

    def __init__(self, bounds: tuple, state: _HistState) -> None:
        self._bounds = bounds
        self._state = state

    def observe(self, value: float) -> None:
        state = self._state
        state.counts[bisect_left(self._bounds, value)] += 1
        state.sum += value
        state.count += 1
        if value < state.min:
            state.min = value
        if value > state.max:
            state.max = value


class Histogram(_Instrument):
    """A distribution over fixed buckets (upper bounds, +inf implicit)."""

    kind = "histogram"
    __slots__ = ("buckets",)

    def __init__(
        self, name: str, help: str = "", buckets: tuple = DEFAULT_BUCKETS
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram buckets must be strictly increasing: {buckets}")
        self.buckets = bounds

    def _make_child(self, key) -> _BoundHistogram:
        state = self._values.get(key)
        if state is None:
            state = self._values[key] = _HistState(len(self.buckets))
        return _BoundHistogram(self.buckets, state)

    def observe(self, value: float, **labels) -> None:
        self.labels(**labels).observe(value)

    def state(self, **labels) -> _HistState | None:
        return self._values.get(_label_key(labels))


class _NullInstrument:
    """One shared do-nothing stand-in for every instrument kind."""

    __slots__ = ()

    def labels(self, **labels) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0, **labels) -> None:
        pass

    def set(self, value: float, **labels) -> None:
        pass

    def add(self, amount: float, **labels) -> None:
        pass

    def observe(self, value: float, **labels) -> None:
        pass

    def value(self, **labels) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0


NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Process-wide (or scoped) home of named instruments.

    Lookups are get-or-create: asking twice for the same name returns
    the same object, and asking with a conflicting kind raises — names
    are a global contract, not a per-module convenience.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}

    def _get(self, cls, name: str, help: str, **kwargs):
        inst = self._instruments.get(name)
        if inst is not None:
            if not isinstance(inst, cls):
                raise ValueError(
                    f"metric {name!r} already registered as a {inst.kind}"
                )
            return inst
        inst = self._instruments[name] = cls(name, help, **kwargs)
        return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data (JSON-able) view of every instrument's state."""
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, inst in sorted(self._instruments.items()):
            if isinstance(inst, Counter):
                out["counters"][name] = {
                    "help": inst.help,
                    "values": [
                        {"labels": dict(k), "value": v}
                        for k, v in sorted(inst._values.items())
                    ],
                }
            elif isinstance(inst, Gauge):
                out["gauges"][name] = {
                    "help": inst.help,
                    "values": [
                        {"labels": dict(k), "value": v}
                        for k, v in sorted(inst._values.items())
                    ],
                }
            elif isinstance(inst, Histogram):
                out["histograms"][name] = {
                    "help": inst.help,
                    "buckets": list(inst.buckets),
                    "values": [
                        {
                            "labels": dict(k),
                            "counts": list(s.counts),
                            "sum": s.sum,
                            "count": s.count,
                            "min": s.min if s.count else None,
                            "max": s.max if s.count else None,
                        }
                        for k, s in sorted(inst._values.items())
                    ],
                }
        return out

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and histogram states add; gauges take the snapshot's
        value (last write wins).  Histogram bucket layouts must match —
        a mismatch means two code versions disagree about a metric and
        deserves a loud error, not silent skew.
        """
        if not snapshot:
            return
        for name, data in snapshot.get("counters", {}).items():
            counter = self.counter(name, data.get("help", ""))
            for entry in data["values"]:
                counter.inc(entry["value"], **entry["labels"])
        for name, data in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name, data.get("help", ""))
            for entry in data["values"]:
                gauge.set(entry["value"], **entry["labels"])
        for name, data in snapshot.get("histograms", {}).items():
            hist = self.histogram(
                name, data.get("help", ""), buckets=tuple(data["buckets"])
            )
            if list(hist.buckets) != list(data["buckets"]):
                raise ValueError(
                    f"histogram {name!r}: bucket layout mismatch on merge"
                )
            for entry in data["values"]:
                key = _label_key(entry["labels"])
                state = hist._values.get(key)
                if state is None:
                    state = hist._values[key] = _HistState(len(hist.buckets))
                for i, c in enumerate(entry["counts"]):
                    state.counts[i] += c
                state.sum += entry["sum"]
                state.count += entry["count"]
                if entry["min"] is not None and entry["min"] < state.min:
                    state.min = entry["min"]
                if entry["max"] is not None and entry["max"] > state.max:
                    state.max = entry["max"]

    def reset(self) -> None:
        self._instruments.clear()


class NullRegistry:
    """The zero-overhead sink: every instrument is :data:`NULL_INSTRUMENT`."""

    enabled = False

    def counter(self, name: str, help: str = "") -> _NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "") -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(
        self, name: str, help: str = "", buckets: tuple = DEFAULT_BUCKETS
    ) -> _NullInstrument:
        return NULL_INSTRUMENT

    def snapshot(self) -> dict:
        return {}

    def merge(self, snapshot: dict) -> None:
        pass

    def reset(self) -> None:
        pass

    def __contains__(self, name: str) -> bool:
        return False

    def __len__(self) -> int:
        return 0


NULL_REGISTRY = NullRegistry()

_enabled = os.environ.get("REPRO_OBS", "1") != "0"
_default = MetricsRegistry()


def obs_enabled() -> bool:
    """Whether observability is globally on (``REPRO_OBS`` env toggle)."""
    return _enabled


def set_obs_enabled(enabled: bool) -> bool:
    """Flip the global observability switch; returns the old value.

    Components read the switch **at construction time** (they capture
    instruments, or skip creating hooks entirely), so flipping it
    affects objects built afterwards, not live ones.
    """
    global _enabled
    old = _enabled
    _enabled = bool(enabled)
    return old


def default_registry():
    """The process default registry — :data:`NULL_REGISTRY` when disabled."""
    return _default if _enabled else NULL_REGISTRY


@contextmanager
def scoped_registry():
    """Swap in a fresh default registry for the duration of a block.

    Campaign workers run each sweep point under a scope so the point's
    metrics can be snapshotted in isolation and merged by the parent in
    deterministic seed order.  With observability disabled the scope
    yields the null registry and records nothing.
    """
    global _default
    if not _enabled:
        yield NULL_REGISTRY
        return
    saved = _default
    _default = MetricsRegistry()
    try:
        yield _default
    finally:
        _default = saved
