"""Cache-counter metrics registry and serving-layer instruments.

Before this layer existed, every cache's hit/miss counters were
hand-threaded through ``stats.py -> harness.py -> export.py ->
tables.py`` — each new cache meant touching four files and each reader
risked double-counting (summing a cache's own counters *and* a copy
taken elsewhere).  The registry inverts the flow: a cache registers
itself once, at construction, under a hierarchical name
(``"forward_run"``, ``"wp_memo.typestate"``, ``"dispatch.escape"``,
...), and keeps sole ownership of its counters.  Readers *pull*: a
snapshot reads every live source exactly once, so there is a single
source of truth by construction.

Registration is weak — the registry never keeps a cache alive — and
scoped: the evaluation harness installs a fresh registry per run
(:func:`scoped_registry`) so one evaluation's totals never bleed into
the next, while ad-hoc usage (tests, the CLI solvers) lands in the
process-wide default registry.

The serving layer adds *instruments* on the same pull model:
:class:`Counter`, :class:`Gauge`, and fixed-bucket :class:`Histogram`
objects with optional label dimensions.  An instrument registers
weakly (:meth:`MetricsRegistry.register_instrument`) and is scraped by
the Prometheus exporter (:mod:`repro.obs.export`); its owner holds the
only strong reference, so a collected owner's metrics drop out of
scrapes exactly like a collected cache's counters do.
"""

from __future__ import annotations

import bisect
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.stats import CacheCounters

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "current_registry",
    "quantile_from_buckets",
    "register_cache",
    "register_instrument",
    "scoped_registry",
]

#: Reads one source object into counters.
Reader = Callable[[object], CacheCounters]

#: Per-source counters at one moment (:meth:`MetricsRegistry.readings`),
#: keyed by the id of the source's registration, whose weak reference
#: the entry keeps alive so the id is not reused.
Readings = Dict[int, Tuple[weakref.ref, CacheCounters]]


def _hits_misses(source: object) -> CacheCounters:
    return CacheCounters(hits=source.hits, misses=source.misses)


#: Default latency buckets (seconds).  The low end is finer than the
#: Prometheus client defaults because warm replay-tier solves finish in
#: well under a millisecond.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(labelnames: Tuple[str, ...], labels: Dict[str, object]):
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {list(labelnames)}, got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class Counter:
    """A monotonically increasing count, optionally split by labels."""

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(self.labelnames, labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_label_key(self.labelnames, labels), 0)

    def samples(self) -> List[Tuple[Dict[str, str], float]]:
        """``(labels, value)`` pairs in deterministic label order."""
        return [
            (dict(zip(self.labelnames, key)), value)
            for key, value in sorted(self._values.items())
        ]


class Gauge:
    """A settable value; may also read through a callback at scrape
    time (e.g. a store hit rate computed from live counters)."""

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}
        self._functions: Dict[Tuple[str, ...], Callable[[], float]] = {}

    def set(self, value: float, **labels) -> None:
        self._values[_label_key(self.labelnames, labels)] = value

    def inc(self, amount: float = 1, **labels) -> None:
        key = _label_key(self.labelnames, labels)
        self._values[key] = self._values.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels) -> None:
        self.inc(-amount, **labels)

    def set_function(self, fn: Callable[[], float], **labels) -> None:
        """Read ``fn()`` at scrape time instead of a stored value."""
        self._functions[_label_key(self.labelnames, labels)] = fn

    def value(self, **labels) -> float:
        key = _label_key(self.labelnames, labels)
        if key in self._functions:
            return float(self._functions[key]())
        return self._values.get(key, 0)

    def samples(self) -> List[Tuple[Dict[str, str], float]]:
        keys = sorted(set(self._values) | set(self._functions))
        out = []
        for key in keys:
            if key in self._functions:
                value = float(self._functions[key]())
            else:
                value = self._values[key]
            out.append((dict(zip(self.labelnames, key)), value))
        return out


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.counts = [0] * n_buckets
        self.sum = 0.0
        self.count = 0


class Histogram:
    """Fixed-bucket distribution (Prometheus ``histogram`` semantics:
    cumulative ``le`` buckets plus ``_sum`` and ``_count``)."""

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labelnames: Sequence[str] = (),
    ):
        self.name = name
        self.help = help
        self.bounds = tuple(sorted(buckets))
        if not self.bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.labelnames = tuple(labelnames)
        self._series: Dict[Tuple[str, ...], _HistogramSeries] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(self.labelnames, labels)
        series = self._series.get(key)
        if series is None:
            # one extra bucket catches values above the last bound (+Inf)
            series = self._series[key] = _HistogramSeries(len(self.bounds) + 1)
        series.counts[bisect.bisect_left(self.bounds, value)] += 1
        series.sum += value
        series.count += 1

    def samples(self) -> List[Tuple[Dict[str, str], _HistogramSeries]]:
        return [
            (dict(zip(self.labelnames, key)), series)
            for key, series in sorted(self._series.items())
        ]

    def merged(self) -> _HistogramSeries:
        """One series summing every label combination."""
        total = _HistogramSeries(len(self.bounds) + 1)
        for series in self._series.values():
            for i, c in enumerate(series.counts):
                total.counts[i] += c
            total.sum += series.sum
            total.count += series.count
        return total

    def quantile(self, q: float, **labels) -> Optional[float]:
        """Estimated ``q``-quantile (across all labels when none are
        given) by linear interpolation within the containing bucket."""
        if labels:
            series = self._series.get(_label_key(self.labelnames, labels))
            if series is None:
                return None
        else:
            series = self.merged()
        return quantile_from_buckets(self.bounds, series.counts, q)


def quantile_from_buckets(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> Optional[float]:
    """Estimate the ``q``-quantile from per-bucket counts (the bucket
    list has one more entry than ``bounds``: the overflow bucket).
    Linear interpolation inside the containing bucket, matching what
    ``histogram_quantile`` does in PromQL; values in the overflow
    bucket clamp to the largest finite bound."""
    if not 0 <= q <= 1:
        raise ValueError(f"quantile out of range: {q}")
    total = sum(counts)
    if total == 0:
        return None
    rank = q * total
    cumulative = 0
    for i, count in enumerate(counts):
        if count == 0:
            continue
        if cumulative + count >= rank:
            if i >= len(bounds):
                return float(bounds[-1])
            lower = bounds[i - 1] if i > 0 else 0.0
            upper = bounds[i]
            within = max(0.0, rank - cumulative) / count
            return lower + (upper - lower) * within
        cumulative += count
    return float(bounds[-1])


class MetricsRegistry:
    """Named collection of weakly-referenced counter sources."""

    def __init__(self):
        self._sources: Dict[str, List[Tuple[weakref.ref, Reader]]] = {}
        self._instruments: List[weakref.ref] = []

    def register(
        self, name: str, source: object, reader: Reader = _hits_misses
    ) -> None:
        """Register ``source`` under ``name``.  ``reader`` extracts a
        :class:`CacheCounters` from the live object (default: its
        ``hits``/``misses`` attributes)."""
        self._sources.setdefault(name, []).append((weakref.ref(source), reader))

    def counters(self, prefix: str) -> CacheCounters:
        """Summed counters of every live source whose name is
        ``prefix`` or starts with ``prefix + "."``."""
        total = CacheCounters()
        dotted = prefix + "."
        for name, entries in self._sources.items():
            if name == prefix or name.startswith(dotted):
                for ref, reader in entries:
                    source = ref()
                    if source is not None:
                        total += reader(source)
        return total

    def snapshot(
        self, since: Optional[Readings] = None
    ) -> Dict[str, CacheCounters]:
        """Per-name totals over live sources (dead entries pruned).

        With ``since`` (an earlier :meth:`readings`), a source read then
        counts only its traffic after that reading: what one task did
        on caches that outlive it."""
        out: Dict[str, CacheCounters] = {}
        for name, entries in sorted(self._sources.items()):
            live = [(ref, reader) for ref, reader in entries if ref() is not None]
            self._sources[name] = live
            if live:
                total = CacheCounters()
                for ref, reader in live:
                    source = ref()
                    if source is None:
                        continue
                    counters = reader(source)
                    earlier = since.get(id(ref)) if since else None
                    if earlier is not None:
                        counters = CacheCounters(
                            hits=counters.hits - earlier[1].hits,
                            misses=counters.misses - earlier[1].misses,
                        )
                    total += counters
                out[name] = total
        return out

    def readings(self) -> Readings:
        """Every live source's counters now, for :meth:`snapshot`."""
        out: Readings = {}
        for entries in self._sources.values():
            for ref, reader in entries:
                source = ref()
                if source is not None:
                    out[id(ref)] = (ref, reader(source))
        return out

    def register_instrument(self, instrument):
        """Weakly register a :class:`Counter` / :class:`Gauge` /
        :class:`Histogram` for scraping.  The caller keeps the only
        strong reference; a collected owner's instruments silently
        drop out of :meth:`instruments`."""
        self._instruments.append(weakref.ref(instrument))
        return instrument

    def instruments(self) -> List[object]:
        """Live instruments in registration order (dead refs pruned)."""
        live = []
        refs = []
        for ref in self._instruments:
            obj = ref()
            if obj is not None:
                live.append(obj)
                refs.append(ref)
        self._instruments = refs
        return live

    def source_count(self, prefix: str) -> int:
        """How many live sources match ``prefix`` (diagnostics)."""
        count = 0
        dotted = prefix + "."
        for name, entries in self._sources.items():
            if name == prefix or name.startswith(dotted):
                count += sum(1 for ref, _ in entries if ref() is not None)
        return count


#: The process-wide fallback registry.
_DEFAULT = MetricsRegistry()

#: The installed registry (module-level; the evaluation parallelises
#: across processes, so no thread-local is needed).
_CURRENT: MetricsRegistry = _DEFAULT


def current_registry() -> MetricsRegistry:
    """The registry new caches register with."""
    return _CURRENT


def register_cache(
    name: str, source: object, reader: Reader = _hits_misses
) -> None:
    """Register ``source`` with the current registry (the call every
    cache constructor makes)."""
    _CURRENT.register(name, source, reader)


def register_instrument(instrument):
    """Register an instrument with the current registry (weakly — the
    caller must keep the instrument alive)."""
    return _CURRENT.register_instrument(instrument)


class scoped_registry:
    """Install a fresh (or given) registry for a ``with`` block.

    The evaluation harness wraps each run in one of these so the
    counters it reports cover exactly the caches constructed during
    that run."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        global _CURRENT
        self._previous = _CURRENT
        _CURRENT = self.registry
        return self.registry

    def __exit__(self, *exc) -> bool:
        global _CURRENT
        _CURRENT = self._previous
        return False
