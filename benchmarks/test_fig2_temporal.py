"""Fig. 2 — temporal aggregation: a time slice maps the time-integrated
metrics of HostA onto its node (size = integrated capacity, fill =
integrated utilization).
"""

import pytest

from repro.core import AnalysisSession, TimeSlice
from repro.trace import CAPACITY, USAGE, Signal
from repro.trace.synthetic import figure1_trace


def test_fig2_slice_values(report):
    trace = figure1_trace()
    session = AnalysisSession(trace, seed=1)
    slice_a1a2 = TimeSlice(2.0, 8.0)  # the [A1, A2] slice of the figure
    session.set_time_slice(slice_a1a2.start, slice_a1a2.end)
    view = session.view(settle=False)
    node = view.node("HostA")
    capacity = trace.entity("HostA").signal(CAPACITY)
    usage = trace.entity("HostA").signal(USAGE)
    expected_size = capacity.mean(2.0, 8.0)
    expected_fill = usage.mean(2.0, 8.0) / expected_size
    assert node.size_value == pytest.approx(expected_size)
    assert node.fill_fraction == pytest.approx(expected_fill)
    report(
        "fig2_temporal",
        [
            f"slice [A1,A2]=[2,8]: HostA size={node.size_value:.2f} MFlops "
            f"(time-integrated capacity)",
            f"                     HostA fill={node.fill_fraction:.1%} "
            f"(time-integrated utilization)",
        ],
    )


def test_fig2_small_events_attenuated():
    """The caveat of Section 3.2.1: events smaller than the slice are
    attenuated by the aggregation."""
    spike = Signal([0.0, 4.9, 5.1], [0.0, 100.0, 0.0])
    wide = TimeSlice(0.0, 10.0)
    narrow = TimeSlice(4.9, 5.1)
    assert wide.value_of(spike) == pytest.approx(2.0)  # spike washed out
    assert narrow.value_of(spike) == pytest.approx(100.0)


def test_fig2_long_signal_integrates():
    """Exact integration over a long (10k-step) signal."""
    times = [float(i) for i in range(10_000)]
    values = [float(i % 97) for i in range(10_000)]
    signal = Signal(times, values)
    total = signal.integrate(0.0, 9_999.0)
    assert total > 0
