"""A flat NumPy bank of many signals: batch temporal aggregation.

Recomputing Equation 1 for every entity each time the analyst drags the
time slice is the hot path of the whole view loop (PCLVis calls
slice-scrubbing the dominant query).  :class:`SignalBank` concatenates
the breakpoint/value/prefix-sum arrays of many
:class:`~repro.trace.signal.Signal` objects into flat structure-of-arrays
storage so the temporal aggregation of *all* entities over one window
``[a, b]`` is a handful of vectorized operations instead of a Python
loop — the same array-kernel treatment PR 1 gave the Barnes-Hut layout.

Two evaluation strategies are exposed:

* :meth:`locate` — a **full** vectorized bisect of one timestamp into
  every signal at once (O(total breakpoints), all in NumPy);
* :meth:`advance` — an **incremental** cursor move whose cost is
  proportional to the number of breakpoints actually *crossed* by the
  slice endpoint, which is what makes small scrub steps nearly free.

Both produce per-signal breakpoint indexes with exact ``bisect_right``
semantics; :meth:`integrals_between` then evaluates every per-row
window integral from the prefix sums, decomposed into boundary partials
plus an interior prefix-sum difference (never the antiderivative
difference ``F(b) - F(a)``, which cancels catastrophically on windows
tiny relative to their distance from a breakpoint).

A bank also need not be resident: :meth:`SignalBank.from_arrays` wraps
pre-built column arrays — typically :func:`numpy.memmap` views handed
out by :class:`repro.trace.store.TraceStore` — without copying them.
Such a bank reports ``backing == "mmap"`` and switches :meth:`locate`
from the full cumulative-count sweep (which would fault in every page
of the file) to a vectorized per-row binary search that touches only
O(log n) pages per signal; :meth:`advance` is already incremental, so
a scrub step reads only the byte ranges its delta windows cross.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import SignalError
from repro.trace.signal import Signal

__all__ = ["SignalBank"]


class SignalBank:
    """Flat arrays over many signals, indexed by row.

    Row *i* corresponds to ``signals[i]``; all per-row results come back
    as float64 arrays of length ``len(bank)``.

    :attr:`backing` names where the column arrays live: ``"resident"``
    (built in memory from :class:`~repro.trace.signal.Signal` objects)
    or ``"mmap"`` (zero-copy views over an on-disk columnar store).
    The query API is identical for both.
    """

    __slots__ = (
        "times",
        "values",
        "prefix",
        "offsets",
        "lengths",
        "initials",
        "backing",
    )

    def __init__(self, signals: Sequence[Signal]) -> None:
        signals = list(signals)
        self.backing = "resident"
        n = len(signals)
        self.offsets = np.zeros(n + 1, dtype=np.intp)
        self.initials = np.empty(n, dtype=float)
        times_parts: list[np.ndarray] = []
        values_parts: list[np.ndarray] = []
        prefix_parts: list[np.ndarray] = []
        total = 0
        for i, signal in enumerate(signals):
            times, values, prefix = signal.arrays()
            total += len(times)
            self.offsets[i + 1] = total
            self.initials[i] = signal.initial
            if len(times):
                times_parts.append(times)
                values_parts.append(values)
                prefix_parts.append(prefix)
        if times_parts:
            self.times = np.concatenate(times_parts)
            self.values = np.concatenate(values_parts)
            self.prefix = np.concatenate(prefix_parts)
        else:
            self.times = np.zeros(0, dtype=float)
            self.values = np.zeros(0, dtype=float)
            self.prefix = np.zeros(0, dtype=float)
        self.lengths = np.diff(self.offsets)

    @classmethod
    def from_arrays(
        cls,
        times: np.ndarray,
        values: np.ndarray,
        prefix: np.ndarray,
        offsets: np.ndarray,
        initials: np.ndarray,
        backing: str = "mmap",
    ) -> "SignalBank":
        """Wrap pre-built column arrays without copying them.

        *times* / *values* / *prefix* are the flat float64 columns (row
        *i* spanning ``[offsets[i], offsets[i+1])``), typically
        :func:`numpy.memmap` views from a
        :class:`~repro.trace.store.TraceStore`; *offsets* (length
        rows+1) and *initials* (length rows) are small and converted to
        resident arrays so cursor arithmetic never faults a page.  The
        flat columns are kept as given — reads stay lazy.
        """
        bank = object.__new__(cls)
        bank.times = times
        bank.values = values
        bank.prefix = prefix
        bank.offsets = np.ascontiguousarray(offsets, dtype=np.intp)
        bank.initials = np.ascontiguousarray(initials, dtype=float)
        bank.lengths = np.diff(bank.offsets)
        bank.backing = backing
        if (bank.lengths < 0).any():
            raise SignalError("bank offsets must be non-decreasing")
        if len(bank.offsets) and (
            bank.offsets[0] != 0 or bank.offsets[-1] != len(bank.times)
        ):
            raise SignalError(
                f"bank offsets [{bank.offsets[0]}..{bank.offsets[-1]}] do "
                f"not tile the {len(bank.times)}-breakpoint column"
            )
        if len(bank.initials) != len(bank.lengths):
            raise SignalError(
                f"{len(bank.initials)} initial values for "
                f"{len(bank.lengths)} rows"
            )
        if not (len(bank.times) == len(bank.values) == len(bank.prefix)):
            raise SignalError(
                f"column lengths differ: {len(bank.times)} times, "
                f"{len(bank.values)} values, {len(bank.prefix)} prefix"
            )
        return bank

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def total_breakpoints(self) -> int:
        """Total number of stored (time, value) breakpoints."""
        return len(self.times)

    # ------------------------------------------------------------------
    # Cursor computation
    # ------------------------------------------------------------------
    def _check_time(self, t: float) -> float:
        t = float(t)
        if not math.isfinite(t):
            raise SignalError(f"non-finite bank timestamp {t!r}")
        return t

    def locate(self, t: float) -> np.ndarray:
        """Per-row ``bisect_right(times, t)``, fully vectorized.

        For a resident bank: one comparison sweep over the flat
        breakpoint array plus a cumulative-count rank per row; exact
        (no float tricks), cost O(total breakpoints).  For an
        ``"mmap"``-backed bank the sweep would fault in every page of
        the stored file, so every row is instead bisected at once: each
        round halves the ``[lo, hi)`` range of every row still open,
        so at most ``log2(longest row) + 1`` rounds run and each row
        touches O(log n) pages — identical ``bisect_right`` semantics.
        """
        t = self._check_time(t)
        if self.backing == "mmap":
            times, starts = self.times, self.offsets[:-1]
            lo = starts.copy()
            hi = self.offsets[1:].copy()
            live = np.flatnonzero(lo < hi)
            while live.size:
                mid = (lo[live] + hi[live]) >> 1
                right = times[mid] <= t
                lo[live[right]] = mid[right] + 1
                hi[live[~right]] = mid[~right]
                live = live[lo[live] < hi[live]]
            return lo - starts
        counts = np.zeros(len(self.times) + 1, dtype=np.intp)
        np.cumsum(self.times <= t, out=counts[1:])
        return counts[self.offsets[1:]] - counts[self.offsets[:-1]]

    def advance(
        self, idx: np.ndarray, t: float, max_rounds: int = 64
    ) -> int | None:
        """Move per-row cursors *idx* (in place) to timestamp *t*.

        Each vectorized round advances every lagging cursor by one
        breakpoint, so the total cost is proportional to the largest
        number of breakpoints any single signal crosses — tiny for
        typical scrub steps.  Returns the number of rounds taken, or
        ``None`` when *max_rounds* was exceeded (the caller should fall
        back to :meth:`locate`; *idx* is then half-moved but still a
        valid cursor array).
        """
        t = self._check_time(t)
        times, starts, lengths = self.times, self.offsets[:-1], self.lengths
        rounds = 0
        if not times.size:  # no breakpoints: every cursor sits at 0
            return rounds
        # Forward: cursor index counts breakpoints <= t.  Rows that
        # cannot move read breakpoint 0, which exists, and stay put.
        while True:
            can = idx < lengths
            j = np.where(can, starts + idx, 0)
            np.logical_and(can, times[j] <= t, out=can)
            if not np.count_nonzero(can):
                break
            idx[can] += 1
            rounds += 1
            if rounds >= max_rounds:
                return None
        # Backward (a single move only ever goes one way, but the
        # cursor API does not assume that).
        while True:
            can = idx > 0
            j = np.where(can, starts + idx - 1, 0)
            np.logical_and(can, times[j] > t, out=can)
            if not np.count_nonzero(can):
                break
            idx[can] -= 1
            rounds += 1
            if rounds >= max_rounds:
                return None
        return rounds

    # ------------------------------------------------------------------
    # Evaluation from a cursor
    # ------------------------------------------------------------------
    def integrals_between(
        self,
        start: float,
        end: float,
        idx_start: np.ndarray,
        idx_end: np.ndarray,
    ) -> np.ndarray:
        """Exact per-row integral over ``[start, end]`` from two cursors.

        *idx_start* / *idx_end* must be the cursor arrays for the two
        bounds (from :meth:`locate` or :meth:`advance`).  Each row is
        decomposed into boundary partials plus a prefix-sum difference
        over the interior breakpoints, so a window inside one segment is
        literally ``value * width`` — no catastrophic cancellation when
        the window is tiny relative to its distance from a breakpoint.
        """
        v_start = self.values_at(start, idx_start)
        out = v_start * (end - start)  # same-segment rows: exact
        cross = idx_start < idx_end
        if np.count_nonzero(cross):
            starts = self.offsets[:-1]
            j_first = (starts + idx_start)[cross]  # first breakpoint > start
            j_last = (starts + idx_end - 1)[cross]  # last breakpoint <= end
            out[cross] = (
                v_start[cross] * (self.times[j_first] - start)
                + (self.prefix[j_last] - self.prefix[j_first])
                + self.values[j_last] * (end - self.times[j_last])
            )
        return out

    def values_at(self, t: float, idx: np.ndarray | None = None) -> np.ndarray:
        """Right-continuous value per row at *t* (vectorized value_at)."""
        if idx is None:
            idx = self.locate(t)
        out = self.initials.copy()
        inside = idx > 0
        j = (self.offsets[:-1] + idx - 1)[inside]
        out[inside] = self.values[j]
        return out

    # ------------------------------------------------------------------
    # Whole-window conveniences (full path, no cursor reuse)
    # ------------------------------------------------------------------
    def window_integrals(self, start: float, end: float) -> np.ndarray:
        """Exact per-row integral over ``[start, end]``."""
        if end < start:
            raise SignalError(f"reversed window [{start}, {end}]")
        if end == start:
            return np.zeros(len(self), dtype=float)
        return self.integrals_between(
            start, end, self.locate(start), self.locate(end)
        )

    def window_means(self, start: float, end: float) -> np.ndarray:
        """Per-row time-weighted mean over ``[start, end]``; a zero-width
        window degenerates to the instantaneous values (same semantics
        as :meth:`Signal.mean`)."""
        if end < start:
            raise SignalError(f"reversed window [{start}, {end}]")
        if end == start:
            return self.values_at(start)
        return self.window_integrals(start, end) / (end - start)
