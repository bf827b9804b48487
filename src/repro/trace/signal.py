"""Piecewise-constant signals: the numerical substrate of Equation 1.

The paper aggregates a quantity ``rho(r, t)`` over temporal neighbourhoods
(time slices).  Monitoring data from discrete-event systems is naturally
*piecewise constant*: a resource keeps a utilization level until the next
event changes it.  :class:`Signal` stores such step functions exactly and
supports the exact time integration used by temporal aggregation
(Section 3.2.1): ``integrate(a, b)`` returns the exact value of
``\\int_a^b rho(t) dt`` and ``mean(a, b)`` the time-weighted average over
the slice ``[a, b]``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import SignalError

__all__ = ["Signal", "SignalBuilder", "combine", "constant"]


class Signal:
    """An immutable right-continuous step function of time.

    The signal holds breakpoints ``times`` (strictly increasing) and the
    value taken *from* each breakpoint until the next one.  Before the
    first breakpoint the signal evaluates to ``initial`` (0.0 by default).

    Parameters
    ----------
    times:
        Strictly increasing breakpoint timestamps.
    values:
        Value taken on ``[times[i], times[i+1])``; same length as *times*.
    initial:
        Value taken on ``(-inf, times[0])``.
    """

    __slots__ = ("_times", "_values", "_initial", "_np")

    def __init__(
        self,
        times: Sequence[float] = (),
        values: Sequence[float] = (),
        initial: float = 0.0,
    ) -> None:
        times = [float(t) for t in times]
        values = [float(v) for v in values]
        if len(times) != len(values):
            raise SignalError(
                f"times ({len(times)}) and values ({len(values)}) differ in length"
            )
        for earlier, later in zip(times, times[1:]):
            if later <= earlier:
                raise SignalError(
                    f"breakpoints must be strictly increasing, got {earlier} then {later}"
                )
        for t in times:
            if not math.isfinite(t):
                raise SignalError(f"non-finite breakpoint {t!r}")
        self._times = times
        self._values = values
        self._initial = float(initial)
        self._np: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @classmethod
    def _from_columns(
        cls,
        times: np.ndarray,
        values: np.ndarray,
        prefix: np.ndarray,
        initial: float,
    ) -> "Signal":
        """Materialize a signal from pre-built float64 column arrays.

        Fast path for :class:`repro.trace.store.TraceStore` and the
        text parser: both already hold the ``arrays()`` representation,
        so this seeds the cache directly and re-checks only monotonicity
        (vectorized) instead of re-validating element by element.
        """
        times = np.ascontiguousarray(times, dtype=float)
        values = np.ascontiguousarray(values, dtype=float)
        prefix = np.ascontiguousarray(prefix, dtype=float)
        listed = times.tolist()
        # Strictly increasing times are all finite when both ends are (a
        # NaN anywhere fails its comparison).
        if listed and not (
            math.isfinite(listed[0])
            and math.isfinite(listed[-1])
            and (times[1:] > times[:-1]).all()
        ):
            raise SignalError(
                "stored breakpoints are not strictly increasing finite times"
            )
        signal = cls.__new__(cls)
        signal._times = listed
        signal._values = values.tolist()
        signal._initial = float(initial)
        signal._np = (times, values, prefix)
        return signal

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def times(self) -> tuple[float, ...]:
        """The breakpoint timestamps, strictly increasing."""
        return tuple(self._times)

    @property
    def values(self) -> tuple[float, ...]:
        """The value taken from each breakpoint (right-continuous)."""
        return tuple(self._values)

    @property
    def initial(self) -> float:
        """Value of the signal before the first breakpoint."""
        return self._initial

    def __len__(self) -> int:
        return len(self._times)

    def __bool__(self) -> bool:
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signal):
            return NotImplemented
        return (
            self._times == other._times
            and self._values == other._values
            and self._initial == other._initial
        )

    def __hash__(self) -> int:
        return hash((tuple(self._times), tuple(self._values), self._initial))

    def __repr__(self) -> str:
        if not self._times:
            return f"Signal(constant {self._initial})"
        lo, hi = self._times[0], self._times[-1]
        return f"Signal({len(self._times)} steps on [{lo}, {hi}])"

    def steps(self) -> Iterator[tuple[float, float]]:
        """Iterate over ``(time, value)`` breakpoints."""
        return zip(self._times, self._values)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def __call__(self, t: float) -> float:
        return self.value_at(t)

    def value_at(self, t: float) -> float:
        """Value of the signal at time *t* (right-continuous)."""
        idx = bisect_right(self._times, t)
        if idx == 0:
            return self._initial
        return self._values[idx - 1]

    def span(self) -> tuple[float, float]:
        """``(first, last)`` breakpoint times; raises if the signal is empty."""
        if not self._times:
            raise SignalError("constant signal has no breakpoints")
        return self._times[0], self._times[-1]

    # ------------------------------------------------------------------
    # Integration — the temporal half of Equation 1
    #
    # Window semantics (shared by the scalar and batch forms, and by the
    # fast aggregation engine built on top):
    #
    # * a **reversed** window (``end < start``) raises :class:`SignalError`;
    # * a **zero-width** window degenerates gracefully — ``integrate``
    #   returns 0, ``mean`` the instantaneous (right-continuous) value at
    #   *start*, ``variance`` 0;
    # * **non-finite** bounds raise :class:`SignalError` (they would
    #   otherwise silently produce NaN).
    # ------------------------------------------------------------------
    def _check_window(self, start: float, end: float) -> None:
        if not (math.isfinite(start) and math.isfinite(end)):
            raise SignalError(f"non-finite window [{start!r}, {end!r}]")
        if end < start:
            raise SignalError(f"reversed window [{start}, {end}]")

    def integrate(self, start: float, end: float) -> float:
        """Exact integral of the signal over ``[start, end]``."""
        self._check_window(start, end)
        if end == start:
            return 0.0
        total = 0.0
        cursor = start
        idx = bisect_right(self._times, start)
        current = self._initial if idx == 0 else self._values[idx - 1]
        while idx < len(self._times) and self._times[idx] < end:
            total += current * (self._times[idx] - cursor)
            cursor = self._times[idx]
            current = self._values[idx]
            idx += 1
        total += current * (end - cursor)
        return total

    def mean(self, start: float, end: float) -> float:
        """Time-weighted average over the slice ``[start, end]``.

        This is the value a time slice of width ``Delta = end - start``
        maps onto a node property (Section 3.2.1).  A zero-width slice
        degenerates to the instantaneous value at *start* (the paper's
        point cursors); a reversed or non-finite window raises
        :class:`SignalError`.
        """
        self._check_window(start, end)
        if end == start:
            return self.value_at(start)
        return self.integrate(start, end) / (end - start)

    def minimum(self, start: float, end: float) -> float:
        """Smallest value taken on ``[start, end)``."""
        return self._extremum(start, end, min)

    def maximum(self, start: float, end: float) -> float:
        """Largest value taken on ``[start, end)``."""
        return self._extremum(start, end, max)

    def _extremum(
        self, start: float, end: float, pick: Callable[[float, float], float]
    ) -> float:
        self._check_window(start, end)
        idx = bisect_right(self._times, start)
        best = self._initial if idx == 0 else self._values[idx - 1]
        while idx < len(self._times) and self._times[idx] < end:
            best = pick(best, self._values[idx])
            idx += 1
        return best

    def variance(self, start: float, end: float) -> float:
        """Time-weighted variance over ``[start, end]``.

        Supports the paper's future-work item of attaching statistical
        indicators to aggregated values (Section 6, second bullet).
        """
        self._check_window(start, end)
        if end == start:
            return 0.0
        mu = self.mean(start, end)
        total = 0.0
        cursor = start
        idx = bisect_right(self._times, start)
        current = self._initial if idx == 0 else self._values[idx - 1]
        while idx < len(self._times) and self._times[idx] < end:
            total += (current - mu) ** 2 * (self._times[idx] - cursor)
            cursor = self._times[idx]
            current = self._values[idx]
            idx += 1
        total += (current - mu) ** 2 * (end - cursor)
        return total / (end - start)

    # ------------------------------------------------------------------
    # Batch (NumPy) form — many windows at once
    # ------------------------------------------------------------------
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(times, values, prefix)`` as float64 arrays, lazily cached.

        ``prefix[i]`` is the cumulative integral from ``times[0]`` to
        ``times[i]``; together with two :func:`numpy.searchsorted`
        calls it turns any ``integrate(a, b)`` into O(log n) arithmetic
        instead of a walk over the breakpoints — the substrate of the
        batch methods below and of
        :class:`~repro.trace.signalbank.SignalBank`.
        """
        if self._np is None:
            times = np.asarray(self._times, dtype=float)
            values = np.asarray(self._values, dtype=float)
            prefix = np.zeros(len(times), dtype=float)
            if len(times) > 1:
                np.cumsum(values[:-1] * np.diff(times), out=prefix[1:])
            self._np = (times, values, prefix)
        return self._np

    def _as_windows(
        self, starts: Sequence[float], ends: Sequence[float]
    ) -> tuple[np.ndarray, np.ndarray]:
        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        if starts.shape != ends.shape:
            raise SignalError(
                f"window arrays differ in shape: {starts.shape} vs {ends.shape}"
            )
        if not (np.isfinite(starts).all() and np.isfinite(ends).all()):
            raise SignalError("non-finite window bound in batch integration")
        if (ends < starts).any():
            raise SignalError("reversed window in batch integration")
        return starts, ends

    def integrate_many(
        self, starts: Sequence[float], ends: Sequence[float]
    ) -> np.ndarray:
        """Exact integrals over many windows: two searchsorted calls.

        Equivalent to ``[self.integrate(a, b) for a, b in zip(...)]``
        (same window semantics) but vectorized via the cached
        prefix-sum arrays.  Each window is decomposed into boundary
        partials plus a prefix-sum difference over the interior
        breakpoints — NOT the antiderivative difference ``F(b) - F(a)``,
        which cancels catastrophically when the window is tiny relative
        to its distance from a breakpoint.  A window inside one segment
        is literally ``value * width``.
        """
        starts, ends = self._as_windows(starts, ends)
        times, values, prefix = self.arrays()
        if not len(times):
            return self._initial * (ends - starts)
        idx_s = np.searchsorted(times, starts, side="right")
        idx_e = np.searchsorted(times, ends, side="right")
        v_start = np.where(
            idx_s > 0, values[np.maximum(idx_s - 1, 0)], self._initial
        )
        out = v_start * (ends - starts)  # same-segment windows: exact
        cross = idx_s < idx_e
        if cross.any():
            s, e = idx_s[cross], idx_e[cross]
            out[cross] = (
                v_start[cross] * (times[s] - starts[cross])
                + (prefix[e - 1] - prefix[s])
                + values[e - 1] * (ends[cross] - times[e - 1])
            )
        return out

    def values_at_many(self, at: Sequence[float]) -> np.ndarray:
        """Vectorized :meth:`value_at` (right-continuous)."""
        at = np.asarray(at, dtype=float)
        times, values, _ = self.arrays()
        if not len(times):
            return np.full(at.shape, self._initial, dtype=float)
        idx = np.searchsorted(times, at, side="right")
        out = np.full(at.shape, self._initial, dtype=float)
        inside = idx > 0
        out[inside] = values[idx[inside] - 1]
        return out

    def mean_many(
        self, starts: Sequence[float], ends: Sequence[float]
    ) -> np.ndarray:
        """Vectorized :meth:`mean`; zero-width windows degenerate to the
        instantaneous value, exactly like the scalar form."""
        starts, ends = self._as_windows(starts, ends)
        widths = ends - starts
        zero = widths == 0
        integrals = self.integrate_many(starts, ends)
        means = integrals / np.where(zero, 1.0, widths)
        if zero.any():
            means = np.where(zero, self.values_at_many(starts), means)
        return means

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def shift(self, delta: float) -> "Signal":
        """Translate the signal in time by *delta*."""
        return Signal([t + delta for t in self._times], self._values, self._initial)

    def scale(self, factor: float) -> "Signal":
        """Multiply all values by *factor*."""
        return Signal(
            self._times, [v * factor for v in self._values], self._initial * factor
        )

    def map(self, fn: Callable[[float], float]) -> "Signal":
        """Apply *fn* to every value (and to the initial value)."""
        return Signal(self._times, [fn(v) for v in self._values], fn(self._initial))

    def clip(self, lo: float, hi: float) -> "Signal":
        """Clamp all values into ``[lo, hi]``."""
        if hi < lo:
            raise SignalError(f"clip bounds reversed: [{lo}, {hi}]")
        return self.map(lambda v: min(hi, max(lo, v)))

    def compact(self) -> "Signal":
        """Drop breakpoints that do not change the value."""
        times: list[float] = []
        values: list[float] = []
        current = self._initial
        for t, v in zip(self._times, self._values):
            if v != current:
                times.append(t)
                values.append(v)
                current = v
        return Signal(times, values, self._initial)

    def slice(self, start: float, end: float) -> "Signal":
        """Restrict the signal to ``[start, end)``.

        The result has a breakpoint at *start* carrying the value there,
        and keeps interior breakpoints.  Values outside the window keep
        the boundary value (step functions have no natural "undefined").
        """
        if end <= start:
            raise SignalError(f"empty slice [{start}, {end}]")
        times = [start]
        values = [self.value_at(start)]
        idx = bisect_right(self._times, start)
        while idx < len(self._times) and self._times[idx] < end:
            times.append(self._times[idx])
            values.append(self._values[idx])
            idx += 1
        return Signal(times, values, self._initial)

    def resample(self, start: float, end: float, n_bins: int) -> list[float]:
        """Average the signal over *n_bins* equal bins of ``[start, end]``.

        Useful to animate a view through time with a fixed slice width
        (Fig. 9): each bin is one animation frame.
        """
        if n_bins <= 0:
            raise SignalError(f"n_bins must be positive, got {n_bins}")
        if end <= start:
            raise SignalError(f"empty resample window [{start}, {end}]")
        edges = np.linspace(float(start), float(end), n_bins + 1)
        return self.mean_many(edges[:-1], edges[1:]).tolist()


def constant(value: float) -> Signal:
    """A signal equal to *value* everywhere."""
    return Signal((), (), initial=value)


def combine(
    signals: Iterable[Signal],
    op: Callable[[Sequence[float]], float] = sum,
) -> Signal:
    """Pointwise combination of several signals.

    The result has a breakpoint wherever any input does, and its value is
    ``op`` applied to the tuple of input values there.  ``op`` defaults to
    :func:`sum`, the combination used when spatially aggregating resource
    capacities and usages (Section 3.2.2).
    """
    signals = list(signals)
    if not signals:
        return constant(0.0)
    breakpoints = sorted({t for s in signals for t in s.times})
    initial = op([s.initial for s in signals])
    # Sample every input at every breakpoint with the vectorized
    # evaluation; op itself still sees plain python floats, so custom
    # ops (and summation order) behave exactly as the scalar form did.
    sampled = [s.values_at_many(breakpoints).tolist() for s in signals]
    values = [op([column[i] for column in sampled]) for i in range(len(breakpoints))]
    return Signal(breakpoints, values, initial=initial)


class SignalBuilder:
    """Incrementally record a step function, then freeze it to a Signal.

    Used by the simulation monitors: every time the allocated rate of a
    resource changes, the monitor calls :meth:`set`.  Repeated sets at the
    same timestamp keep the last value; sets with an unchanged value are
    dropped.
    """

    __slots__ = ("_times", "_values", "_initial")

    def __init__(self, initial: float = 0.0) -> None:
        self._times: list[float] = []
        self._values: list[float] = []
        self._initial = float(initial)

    def set(self, time: float, value: float) -> None:
        """Record that the signal takes *value* from *time* on."""
        time = float(time)
        value = float(value)
        if self._times:
            last = self._times[-1]
            if time < last:
                raise SignalError(
                    f"out-of-order sample: t={time} after t={last}"
                )
            if time == last:
                self._values[-1] = value
                self._normalize_tail()
                return
        previous = self._values[-1] if self._values else self._initial
        if value == previous:
            return
        self._times.append(time)
        self._values.append(value)

    def _normalize_tail(self) -> None:
        previous = self._values[-2] if len(self._values) > 1 else self._initial
        if self._values[-1] == previous:
            self._times.pop()
            self._values.pop()

    def add(self, time: float, delta: float) -> None:
        """Add *delta* to the current value from *time* on."""
        current = self._values[-1] if self._values else self._initial
        self.set(time, current + delta)

    @property
    def current(self) -> float:
        """The value the signal currently holds."""
        return self._values[-1] if self._values else self._initial

    def build(self) -> Signal:
        """Freeze the recorded samples into an immutable :class:`Signal`."""
        return Signal(self._times, self._values, self._initial)
