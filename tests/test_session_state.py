"""Tests for analysis-session save/restore."""

import json

import pytest

from repro.core import AnalysisSession
from repro.errors import AggregationError
from repro.trace.synthetic import figure3_trace, random_hierarchical_trace


def configured_session(trace=None):
    session = AnalysisSession(trace or figure3_trace(), seed=5)
    session.set_time_slice(0.2, 0.8)
    session.aggregate(("GroupB", "GroupA"))
    session.set_size_slider("host", 0.7)
    session.set_layout_params(charge=1234.0, spring=0.11)
    session.view()
    return session


class TestSaveLoad:
    def test_roundtrip_restores_everything(self, tmp_path):
        session = configured_session()
        before = session.view(settle_steps=0)
        path = session.save_state(tmp_path / "state.json")

        fresh = AnalysisSession(figure3_trace(), seed=99)
        fresh.load_state(path)
        assert fresh.time_slice == session.time_slice
        assert fresh.grouping.collapsed == session.grouping.collapsed
        assert fresh.scales.slider("host") == pytest.approx(0.7)
        assert fresh.dynamic.params.charge == 1234.0
        assert fresh.dynamic.params.spring == 0.11
        after = fresh.view(settle_steps=0)
        assert {n.key for n in after.nodes()} == {n.key for n in before.nodes()}
        for key in after.positions:
            assert after.position(key) == pytest.approx(before.position(key))

    def test_state_file_is_json(self, tmp_path):
        session = configured_session()
        path = session.save_state(tmp_path / "state.json")
        state = json.loads(path.read_text())
        assert state["version"] == 1
        assert state["time_slice"] == [0.2, 0.8]
        assert ["GroupB", "GroupA"] in state["collapsed"]

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99}))
        session = AnalysisSession(figure3_trace())
        with pytest.raises(AggregationError):
            session.load_state(path)

    def test_stale_groups_skipped(self, tmp_path):
        session = configured_session()
        path = session.save_state(tmp_path / "state.json")
        state = json.loads(path.read_text())
        state["collapsed"].append(["no", "such", "group"])
        state["positions"]["ghost-node"] = [1.0, 2.0]
        path.write_text(json.dumps(state))
        fresh = AnalysisSession(figure3_trace())
        fresh.load_state(path)  # must not raise
        assert ("GroupB", "GroupA") in fresh.grouping.collapsed

    def test_state_transfers_between_compatible_traces(self, tmp_path):
        """Typical flow: same platform, a new run's trace."""
        trace = random_hierarchical_trace(seed=1)
        session = AnalysisSession(trace, seed=1)
        session.aggregate_depth(2)
        session.view(settle_steps=30)
        path = session.save_state(tmp_path / "s.json")

        other = AnalysisSession(random_hierarchical_trace(seed=2), seed=7)
        other.load_state(path)
        view = other.view(settle_steps=0)
        assert any(n.is_aggregate for n in view.nodes())


def _state(**fields) -> dict:
    """A valid state file's fields, some replaced or (``None``) gone."""
    state = {
        "version": 1,
        "time_slice": [0.1, 0.9],
        "collapsed": [],
        "sliders": {},
        "layout_params": {},
        "positions": {},
    }
    state.update(fields)
    return {key: value for key, value in state.items() if value is not None}


MALFORMED = {
    "no time slice": (_state(time_slice=None), "time_slice"),
    "non-numeric slice": (_state(time_slice=["a", "b"]), "time_slice"),
    "unknown layout parameter": (
        _state(layout_params={"gravity": 1.0}), "layout_params"
    ),
    "one-number position": (_state(positions={"h1": [1.0]}), "positions"),
    "not JSON": ("{not json", "JSON"),
    "half-applied": (
        _state(
            time_slice=[1, 2],
            collapsed=[["GroupB"]],
            layout_params={"gravity": 1.0},
        ),
        "layout_params",
    ),
    "non-path group": (_state(collapsed=[5]), "collapsed"),
}


class TestMalformedState:
    """A malformed state file raises a typed error naming the field and
    changes nothing."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_rejected_before_anything_applies(self, tmp_path, case):
        content, field = MALFORMED[case]
        path = tmp_path / "state.json"
        path.write_text(
            content if isinstance(content, str) else json.dumps(content)
        )
        session = AnalysisSession(figure3_trace())
        session.set_time_slice(0.25, 0.75)
        session.aggregate(("GroupB", "GroupA"))
        params = session.dynamic.params
        before = (session.time_slice, set(session.grouping.collapsed))
        with pytest.raises(AggregationError, match=field):
            session.load_state(path)
        assert (session.time_slice, set(session.grouping.collapsed)) == before
        assert session.dynamic.params == params
