"""Prometheus text exposition of the metrics registry.

The registry already aggregates everything the library knows about
itself — counters, timers, histograms, and per-component
:class:`StatGroup` dicts of counts.
This module renders that whole surface in the Prometheus *text
exposition format* (version 0.0.4), the lingua franca every scraper
speaks, so ``GET /metrics`` on the analysis server plugs straight into
an existing monitoring stack:

* counters → ``# TYPE repro_x counter`` samples;
* stat-group keys → gauges;
* timers → summaries (``_count`` / ``_sum`` with a ``_seconds`` unit
  suffix);
* histograms → full ``_bucket{le="..."}`` series with cumulative
  counts, a mandatory ``+Inf`` bucket, ``_sum`` and ``_count``.

:func:`parse_exposition` is the inverse for the consuming side
(:func:`repro.server.client.scrape_breakdown`, behind ``repro top`` and
``repro loadtest --url``): it parses an exposition body back to
samples, and :func:`histogram_series` reassembles per-label bucket
series so :func:`repro.obs.registry.latency_summary` can estimate
p50/p95/p99 from a scrape — the same function the in-process breakdown
calls, so both sides of the wire agree.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.obs.registry import MetricsRegistry, registry as default_registry

__all__ = [
    "PROM_CONTENT_TYPE",
    "Sample",
    "prom_name",
    "render_prometheus",
    "parse_exposition",
    "histogram_series",
]

#: The Content-Type a compliant text-format exposition is served with.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def prom_name(name: str, prefix: str = "repro") -> str:
    """The registry metric *name* as a valid Prometheus metric name.

    Dots (the registry's namespace separator) become underscores, any
    other invalid character collapses to ``_``, and everything is
    prefixed (``server.requests`` → ``repro_server_requests``) so the
    exposition cannot collide with other exporters on the same scrape.
    """
    sanitized = _INVALID_CHARS.sub("_", name.replace(".", "_"))
    if not sanitized:
        sanitized = "unnamed"
    if sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"{prefix}_{sanitized}" if prefix else sanitized


def _escape_label(value: str) -> str:
    """A label value escaped per the text-format rules."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels_text(labels: Iterable[tuple[str, object]]) -> str:
    """``{k="v",...}`` rendering of a label tuple ('' when empty)."""
    items = list(labels)
    if not items:
        return ""
    body = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in items
    )
    return "{" + body + "}"


def _number(value: float) -> str:
    """A sample value in exposition syntax (+Inf/-Inf/NaN aware)."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value)) if value != int(value) else str(int(value))


def render_prometheus(
    reg: MetricsRegistry | None = None, prefix: str = "repro"
) -> str:
    """The whole registry as a Prometheus text exposition body.

    Every registered metric appears exactly once: counters under their
    sanitized name, timers as ``<name>_seconds`` summaries, histograms
    with their full bucket series, and every live stat-group key as a
    gauge summed across instances.  The body ends with a newline as the
    format requires.
    """
    reg = default_registry if reg is None else reg
    lines: list[str] = []

    counters: dict[str, list] = {}
    timers: dict[str, list] = {}
    histograms: dict[str, list] = {}
    for metric in reg:
        kind = type(metric).__name__
        if kind == "Counter":
            counters.setdefault(metric.name, []).append(metric)
        elif kind == "Timer":
            timers.setdefault(metric.name, []).append(metric)
        else:
            histograms.setdefault(metric.name, []).append(metric)

    for name in sorted(counters):
        family = prom_name(name, prefix)
        lines.append(f"# HELP {family} Counter {name} from the repro registry.")
        lines.append(f"# TYPE {family} counter")
        for counter in counters[name]:
            lines.append(
                f"{family}{_labels_text(counter.labels)} "
                f"{_number(counter.value)}"
            )

    for name in sorted(timers):
        family = prom_name(name, prefix) + "_seconds"
        lines.append(f"# HELP {family} Timer {name} duration summary.")
        lines.append(f"# TYPE {family} summary")
        for timer in timers[name]:
            labels = _labels_text(timer.labels)
            lines.append(f"{family}_sum{labels} {_number(timer.total_s)}")
            lines.append(f"{family}_count{labels} {timer.count}")

    for name in sorted(histograms):
        family = prom_name(name, prefix)
        lines.append(
            f"# HELP {family} Histogram {name} from the repro registry."
        )
        lines.append(f"# TYPE {family} histogram")
        for histogram in histograms[name]:
            labels = histogram.labels
            counts, count, total = histogram.state()
            cumulative = 0
            for bound, bucket in zip(histogram.bounds, counts):
                cumulative += bucket
                # The shortest text that parses back to the same bound,
                # so quantiles from a scrape equal the in-process ones.
                le = _labels_text(list(labels) + [("le", _number(bound))])
                lines.append(f"{family}_bucket{le} {cumulative}")
            le = _labels_text(list(labels) + [("le", "+Inf")])
            lines.append(f"{family}_bucket{le} {count}")
            lines.append(f"{family}_sum{_labels_text(labels)} {_number(total)}")
            lines.append(f"{family}_count{_labels_text(labels)} {count}")

    group_values: dict[str, dict[tuple, float]] = {}
    for group_name in sorted(reg.group_names()):
        for group in reg.groups(group_name):
            for key, value in sorted(group.items()):
                if not isinstance(value, (int, float)):
                    continue
                family = prom_name(f"{group_name}.{key}", prefix)
                slot = group_values.setdefault(family, {})
                slot[()] = slot.get((), 0.0) + value
    for family in sorted(group_values):
        lines.append(f"# HELP {family} Component stat-group value.")
        lines.append(f"# TYPE {family} gauge")
        for labels, value in group_values[family].items():
            lines.append(f"{family}{_labels_text(labels)} {_number(value)}")

    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Sample:
    """One parsed exposition sample: name, labels, numeric value."""

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float

    def label(self, key: str, default: str = "") -> str:
        """The value of label *key* ('' / *default* when absent)."""
        for name, value in self.labels:
            if name == key:
                return value
        return default


def _parse_value(text: str) -> float:
    """A sample value string as a float (text-format spellings)."""
    lowered = text.lower()
    if lowered in ("+inf", "inf"):
        return math.inf
    if lowered == "-inf":
        return -math.inf
    if lowered == "nan":
        return math.nan
    return float(text)


def parse_exposition(text: str) -> list[Sample]:
    """Parse a Prometheus text exposition body into :class:`Sample`\\ s.

    Comment (``#``) and blank lines are skipped; malformed sample lines
    raise :class:`ValueError` with the offending line, because a scrape
    that half-parses silently is worse than one that fails loudly.
    """
    samples: list[Sample] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _LINE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line: {raw!r}")
        labels: list[tuple[str, str]] = []
        body = match.group("labels")
        if body:
            for key, value in _LABEL.findall(body):
                labels.append(
                    (
                        key,
                        value.replace("\\n", "\n")
                        .replace('\\"', '"')
                        .replace("\\\\", "\\"),
                    )
                )
        samples.append(
            Sample(
                match.group("name"),
                tuple(labels),
                _parse_value(match.group("value")),
            )
        )
    return samples


def histogram_series(
    samples: Iterable[Sample], family: str, by: str = ""
) -> dict[str, tuple[list[float], list[float]]]:
    """Reassemble *family*'s bucket series from parsed samples.

    Returns ``{group_key: (bounds, per_bucket_counts)}`` where
    *group_key* is the value of the *by* label ('' when ungrouped),
    *bounds* are the finite bucket upper bounds in ascending order and
    *per_bucket_counts* are **de-cumulated** counts (overflow last) —
    exactly the shape :func:`repro.obs.registry.bucket_quantile`
    consumes.
    """
    buckets: dict[str, dict[float, float]] = {}
    for sample in samples:
        if sample.name != f"{family}_bucket":
            continue
        le = sample.label("le")
        if not le:
            continue
        key = sample.label(by) if by else ""
        buckets.setdefault(key, {})[_parse_value(le)] = sample.value
    out: dict[str, tuple[list[float], list[float]]] = {}
    for key, series in buckets.items():
        bounds = sorted(b for b in series if math.isfinite(b))
        total = series.get(math.inf, series[max(series)] if series else 0.0)
        counts: list[float] = []
        previous = 0.0
        for bound in bounds:
            counts.append(max(series[bound] - previous, 0.0))
            previous = series[bound]
        counts.append(max(total - previous, 0.0))
        out[key] = (bounds, counts)
    return out
