"""Time slices: the temporal neighbourhood of Equation 1.

A :class:`TimeSlice` is the interval ``[start, end]`` the analyst picks
with the two cursors of Fig. 2; every metric signal is averaged over it
before being mapped to the representation.  Sliding the slice
(:meth:`TimeSlice.shift`) or splitting an observation window into
consecutive frames (:func:`animation_frames`) gives the temporal
animation of Fig. 9.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AggregationError
from repro.trace.signal import Signal

__all__ = ["TimeSlice", "animation_frames"]


@dataclass(frozen=True)
class TimeSlice:
    """The closed interval ``[start, end]`` used for temporal aggregation.

    A zero-width slice is allowed and degenerates to instantaneous
    values (the cursors of Fig. 1).
    """

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise AggregationError(
                f"time slice reversed: [{self.start}, {self.end}]"
            )

    @property
    def width(self) -> float:
        """Slice duration (the paper's Delta)."""
        return self.end - self.start

    @property
    def mid(self) -> float:
        """Middle of the slice."""
        return (self.start + self.end) / 2.0

    def shift(self, delta: float) -> "TimeSlice":
        """The same-width slice translated by *delta* seconds."""
        return TimeSlice(self.start + delta, self.end + delta)

    def scaled(self, factor: float) -> "TimeSlice":
        """A slice with width multiplied by *factor*, same midpoint."""
        if factor < 0:
            raise AggregationError(f"negative scale factor {factor}")
        half = self.width * factor / 2.0
        return TimeSlice(self.mid - half, self.mid + half)

    def contains(self, time: float) -> bool:
        """Whether *time* falls inside the slice."""
        return self.start <= time <= self.end

    def as_tuple(self) -> tuple[float, float]:
        """``(start, end)`` — the cache key used by the aggregation engine."""
        return (self.start, self.end)

    def value_of(self, signal: Signal) -> float:
        """Temporal aggregation of *signal* over this slice (Eq. 1).

        The time-weighted mean — or the instantaneous value for a
        zero-width slice.
        """
        return signal.mean(self.start, self.end)

    def split(self, n_frames: int) -> list["TimeSlice"]:
        """Cut the slice into *n_frames* consecutive equal sub-slices."""
        if n_frames <= 0:
            raise AggregationError(f"n_frames must be positive, got {n_frames}")
        width = self.width / n_frames
        return [
            TimeSlice(self.start + i * width, self.start + (i + 1) * width)
            for i in range(n_frames)
        ]

    def __str__(self) -> str:
        return f"[{self.start:g}, {self.end:g}]"


def animation_frames(
    start: float, end: float, width: float, step: float | None = None
) -> list[TimeSlice]:
    """Sliding slices covering ``[start, end]`` (the animation of Fig. 9).

    Parameters
    ----------
    width:
        Width of every frame's slice.
    step:
        Distance between consecutive frame starts; defaults to *width*
        (non-overlapping frames).  A smaller step gives a smoother
        animation with overlapping slices.
    """
    if width <= 0:
        raise AggregationError(f"frame width must be positive, got {width}")
    if end <= start:
        raise AggregationError(f"empty animation window [{start}, {end}]")
    if step is None:
        step = width
    if step <= 0:
        raise AggregationError(f"frame step must be positive, got {step}")
    frames: list[TimeSlice] = []
    cursor = start
    while cursor < end - 1e-12:
        frames.append(TimeSlice(cursor, min(cursor + width, end)))
        cursor += step
    return frames
