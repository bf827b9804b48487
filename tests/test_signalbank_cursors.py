"""Adversarial cursor tests for :class:`SignalBank` incremental advance.

The scrub loop in :class:`~repro.core.aggengine.AggregationEngine` keeps
per-row cursors and moves them with :meth:`SignalBank.advance` instead of
re-bisecting, so cursor arithmetic must stay exact under every access
pattern a user can produce with the mouse: backward jumps, repeated
windows, zero-width slices, oscillation around a breakpoint, and the
``max_rounds`` bail-out.  Every case runs against all three backings —
the resident bank, a bank wrapped through :meth:`SignalBank.from_arrays`
with ``backing="mmap"`` (the mmap code path on resident arrays), and a
bank served from a real :func:`numpy.memmap` over a store file — and is
checked against a fresh :meth:`SignalBank.locate` (itself pinned to
:func:`bisect.bisect_right` per signal).
"""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.signal import Signal
from repro.trace.signalbank import SignalBank
from repro.trace.store import open_store, write_store
from repro.trace.trace import Entity, MetricInfo, Trace

BACKINGS = ("resident", "mmap-wrap", "stored")


def bank_signals():
    """A deterministic adversarial mix of signal shapes."""
    dense_times = [i * 0.5 for i in range(200)]
    dense_values = [float(i % 7) - 3.0 for i in range(200)]
    return [
        Signal([], [], initial=3.0),  # constant: cursor pinned at 0
        Signal([5.0], [1.5]),  # single breakpoint
        Signal(dense_times, dense_values, initial=-1.0),  # dense
        Signal([-10.0, -5.0, 0.0, 5.0], [1.0, 2.0, 3.0, 4.0]),  # negative t
        Signal([2.0, 4.0, 6.0], [1.0, 1.0, 2.0]),  # plateau values
    ]


def _stored_bank(tmp_path_factory):
    signals = bank_signals()
    entities = [
        Entity(f"e{i}", "host", (f"e{i}",), {"usage": s})
        for i, s in enumerate(signals)
    ]
    trace = Trace(entities, [], [], [MetricInfo("usage", "", "")], {"end_time": 100.0})
    path = tmp_path_factory.mktemp("cursors") / "bank.rtrace"
    write_store(trace, path)
    store = open_store(path)
    table = store.entities
    assert [table.names[i] for i in table.rows["usage"].tolist()] == [
        e.name for e in entities
    ]
    return store.signal_bank("usage")


@pytest.fixture(scope="module", params=BACKINGS)
def bank(request, tmp_path_factory):
    signals = bank_signals()
    if request.param == "resident":
        return SignalBank(signals)
    if request.param == "mmap-wrap":
        resident = SignalBank(signals)
        return SignalBank.from_arrays(
            resident.times,
            resident.values,
            resident.prefix,
            resident.offsets,
            resident.initials,
            backing="mmap",
        )
    return _stored_bank(tmp_path_factory)


def reference_locate(t):
    """The scalar oracle: bisect_right per signal."""
    return np.array(
        [bisect_right(list(s.times), t) for s in bank_signals()], dtype=np.intp
    )


def adversarial_scrub():
    """Times in an order a hostile mouse would produce."""
    eps = 1e-9
    seq = [0.0, 10.0, 20.0, 99.5]  # forward sweep
    seq += [-20.0]  # hard backward jump before every breakpoint
    seq += [5.0, 5.0, 5.0]  # repeated window (advance must be 0 rounds)
    seq += [5.0 - eps, 5.0, 5.0 - eps, 5.0 + eps]  # oscillate on a breakpoint
    seq += [1000.0, -1000.0, 1000.0]  # full-span whiplash
    seq += [-10.0, -5.0, 0.0]  # land exactly on negative breakpoints
    return seq


class TestLocate:
    def test_locate_matches_bisect_everywhere(self, bank):
        signals = bank_signals()
        probes = sorted(
            {t for s in signals for t in s.times}
            | {t + 1e-9 for s in signals for t in s.times}
            | {t - 1e-9 for s in signals for t in s.times}
            | {-1e9, 0.0, 1e9}
        )
        for t in probes:
            np.testing.assert_array_equal(bank.locate(t), reference_locate(t))

    def test_locate_rejects_non_finite(self, bank):
        from repro.errors import SignalError

        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SignalError):
                bank.locate(bad)


class TestAdvance:
    def test_adversarial_scrub_matches_locate(self, bank):
        idx = bank.locate(adversarial_scrub()[0])
        for t in adversarial_scrub()[1:]:
            rounds = bank.advance(idx, t, max_rounds=10_000)
            assert rounds is not None
            np.testing.assert_array_equal(idx, reference_locate(t))

    def test_repeated_time_takes_zero_rounds(self, bank):
        idx = bank.locate(5.0)
        assert bank.advance(idx, 5.0) == 0
        np.testing.assert_array_equal(idx, reference_locate(5.0))

    def test_max_rounds_bailout_leaves_valid_cursor(self, bank):
        """Exceeding max_rounds returns None but idx must stay a legal
        cursor array the caller can hand back to locate/values_at."""
        idx = bank.locate(-1e9)  # all cursors at 0
        assert bank.advance(idx, 1e9, max_rounds=3) is None
        assert (idx >= 0).all()
        assert (idx <= bank.lengths).all()
        # The documented fallback: a fresh locate repairs the cursors.
        idx = bank.locate(1e9)
        np.testing.assert_array_equal(idx, bank.lengths)

    def test_values_at_with_advanced_cursor(self, bank):
        """values_at(t, idx) with an advanced cursor equals value_at."""
        signals = bank_signals()
        idx = bank.locate(0.0)
        for t in adversarial_scrub():
            if bank.advance(idx, t, max_rounds=10_000) is None:
                idx = bank.locate(t)
            got = bank.values_at(t, idx)
            want = np.array([s.value_at(t) for s in signals])
            np.testing.assert_array_equal(got, want)


class TestWindows:
    def test_zero_width_degenerates_to_values(self, bank):
        for t in (-10.0, 0.0, 5.0, 99.5, 1000.0):
            np.testing.assert_array_equal(
                bank.window_means(t, t), bank.values_at(t)
            )
            np.testing.assert_array_equal(
                bank.window_integrals(t, t), np.zeros(len(bank))
            )

    def test_window_math_matches_signals(self, bank):
        signals = bank_signals()
        windows = [(-20.0, -10.0), (-5.0, 5.0), (0.0, 99.5), (4.0, 4.5)]
        for a, b in windows:
            want = np.array([s.integrate(a, b) for s in signals])
            np.testing.assert_allclose(
                bank.window_integrals(a, b), want, rtol=0, atol=1e-9
            )


class TestPropertyScrub:
    @given(
        st.lists(
            st.floats(
                min_value=-200.0,
                max_value=200.0,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=2,
            max_size=40,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_any_scrub_order_matches_locate(self, stops):
        """Property form: arbitrary scrub orders never desync cursors,
        on both the resident and the mmap code paths."""
        resident = SignalBank(bank_signals())
        wrapped = SignalBank.from_arrays(
            resident.times,
            resident.values,
            resident.prefix,
            resident.offsets,
            resident.initials,
            backing="mmap",
        )
        for b in (resident, wrapped):
            idx = b.locate(stops[0])
            for t in stops[1:]:
                assert b.advance(idx, t, max_rounds=10_000) is not None
                np.testing.assert_array_equal(idx, b.locate(t))
                np.testing.assert_array_equal(idx, reference_locate(t))
