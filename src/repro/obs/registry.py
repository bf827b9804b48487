"""The process-wide metrics registry.

One namespace for every counter, timer, histogram and component stats
group the library maintains about *itself*.  Each measured quantity has
one recorder:

* :class:`StatGroup` — a component's ``stats`` dict of **counts**
  (``ForceLayout.stats``, ``AggregationEngine.stats``...), registered
  here so one :meth:`MetricsRegistry.snapshot` call sees the whole
  pipeline (a ``StatGroup`` *is* a ``dict`` — increments stay native C
  speed).  For a fixed seed the counts repeat exactly;
* :class:`Counter` — a monotonically increasing total (``add``);
* :class:`Timer` — a duration summary (``observe``) fed by
  :func:`repro.obs.spans.span`: every pipeline duration is a span;
* :class:`Histogram` — fixed log-spaced buckets with exact count/sum
  and p50/p95/p99 estimation, the server's per-op request latency.

:func:`latency_summary` turns two histogram states into the per-op
count / mean / p50 / p95 / p99 row every report prints, and
:func:`sample_quantile` is the one linear-interpolated quantile of raw
samples (load reports, benchmark statistics).

All of them are plain always-on objects; the *enabled* switch of
:mod:`repro.obs.spans` only gates the span instrumentation, which is
the only part that sits on hot paths.
"""

from __future__ import annotations

import math
import threading
import weakref
from bisect import bisect_left
from typing import Iterator, Mapping, Sequence

__all__ = [
    "Counter",
    "Histogram",
    "Timer",
    "StatGroup",
    "MetricsRegistry",
    "bucket_quantile",
    "latency_summary",
    "log_buckets",
    "registry",
    "sample_quantile",
]


def log_buckets(
    lo: float = 1e-6, hi: float = 100.0, per_decade: int = 5
) -> tuple[float, ...]:
    """Log-spaced histogram bucket upper bounds covering ``[lo, hi]``.

    Returns ``per_decade`` bounds per decade from *lo* up to the first
    bound at or above *hi* (an implicit ``+inf`` overflow bucket always
    follows).  The default — 1 µs to 100 s at 5 per decade, 41 bounds —
    spans every request latency the server can plausibly serve while
    keeping the relative quantile-estimation error under one bucket
    ratio (``10**(1/per_decade)`` ≈ 1.58x).
    """
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got lo={lo!r} hi={hi!r}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade!r}")
    bounds: list[float] = []
    exponent = 0
    while True:
        bound = lo * 10.0 ** (exponent / per_decade)
        bounds.append(bound)
        if bound >= hi:
            return tuple(bounds)
        exponent += 1


def bucket_quantile(
    bounds: Sequence[float],
    counts: Sequence[float],
    q: float,
    lo: float | None = None,
    hi: float | None = None,
) -> float:
    """Estimate the *q*-quantile from per-bucket observation *counts*.

    *bounds* are the inclusive bucket upper bounds; ``counts[i]`` holds
    the observations with ``value <= bounds[i]`` (exclusive of earlier
    buckets), and ``counts[len(bounds)]`` is the overflow bucket.  The
    estimate interpolates linearly inside the bucket containing the
    target rank, clamped to the observed *lo*/*hi* extremes when given.
    Shared by :meth:`Histogram.quantile` and :func:`latency_summary`,
    which both sides of the wire (in-process breakdowns and ``/metrics``
    scrapes) call, so they agree on the estimator.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    total = sum(counts)
    if total <= 0:
        return 0.0
    target = q * total
    cumulative = 0.0
    for index, count in enumerate(counts):
        if count <= 0:
            continue
        if cumulative + count >= target:
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index] if index < len(bounds) else (
                hi if hi is not None else bounds[-1]
            )
            if lo is not None:
                lower = max(lower, min(lo, upper))
            if hi is not None:
                upper = min(upper, hi)
            if upper <= lower:
                return upper
            fraction = (target - cumulative) / count
            return lower + fraction * (upper - lower)
        cumulative += count
    return hi if hi is not None else bounds[-1]


def latency_summary(
    bounds: Sequence[float],
    state: tuple[Sequence[float], float, float],
    since: tuple[Sequence[float], float, float] | None = None,
) -> dict[str, float]:
    """Count, mean and p50/p95/p99 of the observations between two states.

    *state* and *since* are ``(bucket_counts, count, sum)`` snapshots of
    one histogram with upper bounds *bounds* — :meth:`Histogram.state`
    in-process, or a ``/metrics`` scrape
    (:func:`repro.server.client.scrape_breakdown`); *since* ``None``
    counts from empty.  Bucket counts subtract, so the interval is a
    histogram of its own.  Returns ``{count, mean_s, p50_s, p95_s,
    p99_s}``; an empty interval has count and mean 0.
    """
    counts, count, total = state
    if since is not None:
        counts = [now - then for now, then in zip(counts, since[0])]
        count -= since[1]
        total -= since[2]
    return {
        "count": float(count),
        "mean_s": total / count if count > 0 else 0.0,
        "p50_s": bucket_quantile(bounds, counts, 0.5),
        "p95_s": bucket_quantile(bounds, counts, 0.95),
        "p99_s": bucket_quantile(bounds, counts, 0.99),
    }


def sample_quantile(samples: Sequence[float], q: float) -> float:
    """The *q*-quantile (``q`` in [0, 1]) of raw *samples*.

    Interpolates linearly between the two nearest ranks (numpy's default
    ``linear`` method).  The one estimator over raw samples: the load
    report's percentiles and :func:`repro.obs.bench.robust_stats` (its
    median, quartiles and MAD) all call it.
    """
    if not samples:
        raise ValueError("no samples to take a quantile of")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


class Counter:
    """A named monotonically increasing value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def add(self, delta: float = 1.0) -> None:
        """Increase the counter by *delta* (must be >= 0).

        Raises :class:`ValueError` on a negative delta — a counter is
        monotonic by contract, and silently accepting decrements would
        corrupt every rate/total derived from it.
        """
        if delta < 0:
            raise ValueError(
                f"Counter {self.name!r} is monotonic: add() requires "
                f"delta >= 0, got {delta!r}"
            )
        self.value += delta

    def reset(self) -> None:
        """Zero the counter (testing/benchmark hygiene)."""
        self.value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Timer:
    """A duration histogram summary: count / total / min / max seconds.

    Deliberately tiny — no buckets, no reservoir — because the profiler
    (:class:`repro.obs.profiler.Profiler`) keeps the full interval list
    when one is attached; the registry only needs enough to price a
    stage after the fact.
    """

    __slots__ = ("name", "labels", "count", "total_s", "min_s", "max_s")

    def __init__(self, name: str, labels: tuple = ()) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total_s = 0.0
        self.min_s = math.inf
        self.max_s = 0.0

    def observe(self, seconds: float) -> None:
        """Record one duration in seconds."""
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    @property
    def mean_s(self) -> float:
        """Average observed duration (0 when never observed)."""
        return self.total_s / self.count if self.count else 0.0

    def reset(self) -> None:
        """Forget every observation (testing/benchmark hygiene)."""
        self.count = 0
        self.total_s = 0.0
        self.min_s = math.inf
        self.max_s = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timer({self.name}: n={self.count}, total={self.total_s:.6f}s)"


class Histogram:
    """A bounded latency histogram: fixed log-spaced buckets + exacts.

    ``observe`` drops each value into one of the fixed buckets (upper
    bounds from :func:`log_buckets`, plus an implicit overflow bucket)
    while also tracking the exact count, sum, min and max.  Memory is
    constant — ~40 ints — regardless of how many observations arrive,
    so it is safe to leave one attached to every per-op request timer
    of a long-running server.  ``quantile`` interpolates p50/p95/p99
    estimates out of the buckets, clamped to the exact extremes, with
    relative error bounded by the bucket ratio.

    All mutation happens under a lock: unlike the single-threaded
    pipeline timers, request accounting crosses threads (the server
    loop vs. benchmark storms), and a torn ``count``/``sum`` pair would
    corrupt every mean derived from it.
    """

    __slots__ = (
        "name",
        "labels",
        "bounds",
        "bucket_counts",
        "count",
        "sum",
        "min",
        "max",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        labels: tuple = (),
        bounds: Sequence[float] | None = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds: tuple[float, ...] = (
            tuple(bounds) if bounds is not None else log_buckets()
        )
        if list(self.bounds) != sorted(self.bounds) or len(
            set(self.bounds)
        ) != len(self.bounds):
            raise ValueError(
                f"Histogram {name!r} bounds must be strictly increasing"
            )
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (thread-safe)."""
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.bucket_counts[index] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        """Exact average of every observation (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated *q*-quantile (``q`` in [0, 1]) from the buckets.

        Exact at the extremes (min/max are tracked exactly); in between
        the estimate is off by at most one bucket width.
        """
        with self._lock:
            counts = list(self.bucket_counts)
            lo, hi = self.min, self.max
        if not counts or sum(counts) == 0:
            return 0.0
        return bucket_quantile(
            self.bounds,
            counts,
            q,
            lo=lo if lo != math.inf else None,
            hi=hi if hi != -math.inf else None,
        )

    def state(self) -> tuple[tuple[int, ...], int, float]:
        """Atomic ``(bucket_counts, count, sum)`` snapshot.

        :func:`latency_summary` subtracts two such snapshots into the
        latency summary of the interval between them.
        """
        with self._lock:
            return tuple(self.bucket_counts), self.count, self.sum

    def reset(self) -> None:
        """Forget every observation (testing/benchmark hygiene)."""
        with self._lock:
            self.bucket_counts = [0] * (len(self.bounds) + 1)
            self.count = 0
            self.sum = 0.0
            self.min = math.inf
            self.max = -math.inf

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}: n={self.count}, sum={self.sum:.6f})"


class StatGroup(dict):
    """A component's stats dict, registered under a namespace.

    Subclasses ``dict`` so the owning hot loops keep doing plain
    ``stats["key"] += 1`` at native speed; the registry holds a weak
    reference and folds live groups into :meth:`MetricsRegistry.snapshot`
    under ``<namespace>.<key>`` names.  This is how the pre-existing
    ``ForceLayout.stats`` / ``AggregationEngine.stats`` dicts were
    migrated onto the registry without changing their public behavior.
    """

    __slots__ = ("name", "__weakref__")

    def __init__(self, name: str, initial: Mapping | None = None) -> None:
        super().__init__(initial or {})
        self.name = name

    # dict is unhashable; groups are identities, not values, so the
    # registry's WeakSet tracks them by id while ``==`` keeps comparing
    # contents like any other dict.
    __hash__ = object.__hash__


class MetricsRegistry:
    """Process-wide registry of named counters, timers, histograms, groups.

    ``counter``/``timer``/``histogram`` are get-or-create: the same
    ``(name, labels)`` pair always returns the same object, so call
    sites do not need to hold references.  ``group`` creates a fresh
    :class:`StatGroup` per call (components own their instance counters)
    and remembers it weakly for aggregation.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple, Counter] = {}
        self._timers: dict[tuple, Timer] = {}
        self._histograms: dict[tuple, Histogram] = {}
        self._groups: dict[str, weakref.WeakSet] = {}

    # ------------------------------------------------------------------
    # Creation / lookup
    # ------------------------------------------------------------------
    @staticmethod
    def _key(name: str, labels: dict) -> tuple:
        return (name, tuple(sorted(labels.items())))

    def counter(self, name: str, **labels) -> Counter:
        """Get or create the counter *name* (+ optional labels)."""
        key = self._key(name, labels)
        found = self._counters.get(key)
        if found is None:
            found = self._counters[key] = Counter(name, key[1])
        return found

    def timer(self, name: str, **labels) -> Timer:
        """Get or create the timer *name* (+ optional labels)."""
        key = self._key(name, labels)
        found = self._timers.get(key)
        if found is None:
            found = self._timers[key] = Timer(name, key[1])
        return found

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] | None = None,
        **labels,
    ) -> Histogram:
        """Get or create the histogram *name* (+ optional labels).

        *bounds* only applies on creation; same-name histograms must
        share bucket bounds so snapshots can merge them bucketwise.
        """
        key = self._key(name, labels)
        found = self._histograms.get(key)
        if found is None:
            found = self._histograms[key] = Histogram(name, key[1], bounds)
        return found

    def group(self, name: str, initial: Mapping | None = None) -> StatGroup:
        """A new per-instance stats dict registered under *name*."""
        group = StatGroup(name, initial)
        self._groups.setdefault(name, weakref.WeakSet()).add(group)
        return group

    def groups(self, name: str) -> list[StatGroup]:
        """The live (not yet garbage-collected) groups named *name*."""
        return list(self._groups.get(name, ()))

    def group_names(self) -> list[str]:
        """Every namespace a stat group was ever registered under."""
        return list(self._groups)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator["Counter | Timer | Histogram"]:
        yield from self._counters.values()
        yield from self._timers.values()
        yield from self._histograms.values()

    def histograms(self) -> list[Histogram]:
        """Every registered histogram (exposition order)."""
        return list(self._histograms.values())

    @staticmethod
    def _merge_histograms(
        histos: Sequence[Histogram],
    ) -> tuple[list[int], int, float, float, float]:
        """Fold same-name labeled histograms into one bucket series."""
        bounds = histos[0].bounds
        merged = [0] * (len(bounds) + 1)
        count, total = 0, 0.0
        lo, hi = math.inf, -math.inf
        for histogram in histos:
            counts, n, s = histogram.state()
            for index, value in enumerate(counts):
                merged[index] += value
            count += n
            total += s
            lo = min(lo, histogram.min)
            hi = max(hi, histogram.max)
        return merged, count, total, lo, hi

    def snapshot(self, prefix: str = "") -> dict[str, float]:
        """One flat ``name -> number`` view of everything registered.

        Counters appear under their name, timers flatten to
        ``<name>.count`` / ``.total_s`` / ``.mean_s`` / ``.max_s``, and
        live stat groups sum across instances under
        ``<namespace>.<key>``.  *prefix* filters by name prefix.
        """
        out: dict[str, float] = {}
        for counter in self._counters.values():
            out[counter.name] = out.get(counter.name, 0.0) + counter.value
        # Same-name timers (distinct label sets) aggregate: counts and
        # totals sum, the mean derives from those sums, and the max is
        # the max over instances — not last-write-wins.
        timer_names = set()
        for timer in self._timers.values():
            timer_names.add(timer.name)
            out[f"{timer.name}.count"] = (
                out.get(f"{timer.name}.count", 0.0) + timer.count
            )
            out[f"{timer.name}.total_s"] = (
                out.get(f"{timer.name}.total_s", 0.0) + timer.total_s
            )
            out[f"{timer.name}.max_s"] = max(
                out.get(f"{timer.name}.max_s", 0.0),
                timer.max_s if timer.count else 0.0,
            )
        for name in timer_names:
            count = out[f"{name}.count"]
            out[f"{name}.mean_s"] = (
                out[f"{name}.total_s"] / count if count else 0.0
            )
        # Histograms flatten to count/sum/quantiles; same-name
        # instances merge bucketwise first.
        by_name: dict[str, list[Histogram]] = {}
        for histogram in self._histograms.values():
            by_name.setdefault(histogram.name, []).append(histogram)
        for name, histos in by_name.items():
            merged, count, total, lo, hi = self._merge_histograms(histos)
            out[f"{name}.count"] = float(count)
            out[f"{name}.sum"] = total
            for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
                out[f"{name}.{label}"] = (
                    bucket_quantile(histos[0].bounds, merged, q, lo, hi)
                    if count
                    else 0.0
                )
        for name, groups in self._groups.items():
            for group in groups:
                for key, value in group.items():
                    if isinstance(value, (int, float)):
                        full = f"{name}.{key}"
                        out[full] = out.get(full, 0.0) + value
        if prefix:
            out = {k: v for k, v in out.items() if k.startswith(prefix)}
        return out

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every counter/timer/histogram, keeping registrations.

        Stat groups belong to their components and are left untouched.
        """
        for metric in self:
            metric.reset()

    def clear(self) -> None:
        """Forget every registration (test isolation)."""
        self._counters.clear()
        self._timers.clear()
        self._histograms.clear()
        self._groups.clear()


#: The process-wide registry every subsystem records into.
registry = MetricsRegistry()
