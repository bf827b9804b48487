"""Wire-protocol pinning: golden payload bytes + malformed battery.

Two nets (ISSUE 7 satellite 4):

* **golden** — the canonical-JSON bytes of representative replies over
  the paper's Fig. 3 trace are committed in
  ``tests/data/server_protocol_golden.json``.  Any schema drift (a new
  field, a reordered key, a float formatting change) breaks byte
  equality and must be accompanied by a ``PROTOCOL_VERSION`` bump and a
  deliberate ``REPRO_REGEN=1`` regeneration.
* **malformed battery** — every way a request can be wrong maps to one
  typed error code from :data:`~repro.server.protocol.ERROR_CODES`,
  error replies are well-formed envelopes, and a session survives every
  error (state changes only on success).
"""

import json
import math
import os
from pathlib import Path

import pytest

from repro.server.protocol import (
    ERROR_CODES,
    PROTOCOL_VERSION,
    ProtocolError,
    canonical_json,
    decode_request,
    error_envelope,
    ok_envelope,
)
from repro.server.state import ServerConfig, SessionState, SharedServerState
from repro.trace.synthetic import figure3_trace

GOLDEN = Path(__file__).parent / "data" / "server_protocol_golden.json"

#: label -> request; replayed in order on one session (state carries
#: over move to move, exactly like a real connection).
GOLDEN_SCRIPT = [
    ("hello", {"op": "hello"}),
    ("scrub", {"op": "scrub", "start": 0.25, "end": 0.75}),
    ("group", {"op": "group", "path": ["GroupB", "GroupA"]}),
    ("view_usage", {"op": "view", "metrics": ["usage"]}),
    ("depth_0", {"op": "depth", "depth": 0}),
    ("bye", {"op": "bye"}),
]


def golden_replies() -> dict[str, str]:
    """Replay the golden script on a fresh oracle session."""
    state = SessionState.local(figure3_trace(), seed=0, settle_steps=0)
    return {
        label: canonical_json(state.apply(dict(msg)))
        for label, msg in GOLDEN_SCRIPT
    }


class TestGoldenPayloads:
    def test_fixture_exists(self):
        assert GOLDEN.is_file(), (
            "missing committed fixture; regenerate with "
            "REPRO_REGEN=1 python -m pytest tests/test_server_protocol.py"
        )

    def test_bytes_are_pinned(self):
        committed = json.loads(GOLDEN.read_text())
        assert committed["protocol"] == PROTOCOL_VERSION
        fresh = golden_replies()
        assert set(fresh) == set(committed["replies"])
        for label, payload in fresh.items():
            assert payload == committed["replies"][label], (
                f"reply bytes for {label!r} drifted; if intentional, "
                "bump PROTOCOL_VERSION and regenerate with REPRO_REGEN=1"
            )

    def test_view_schema_shape(self):
        """The documented payload schema, field for field."""
        state = SessionState.local(figure3_trace(), settle_steps=0)
        payload = state.apply({"op": "view"})
        assert set(payload) == {
            "protocol", "slice", "units", "edges", "positions",
        }
        assert payload["protocol"] == PROTOCOL_VERSION
        assert len(payload["slice"]) == 2
        for unit in payload["units"]:
            assert set(unit) == {
                "key", "label", "kind", "group", "weight", "values",
            }
            assert unit["key"] in payload["positions"]
        for edge in payload["edges"]:
            a, b, multiplicity = edge
            assert isinstance(multiplicity, int)

    def test_payload_excludes_engine_stats(self):
        """Stats depend on cache history, so they must never enter a
        payload (they would break the concurrent-vs-isolated byte
        differential)."""
        state = SessionState.local(figure3_trace(), settle_steps=0)
        payload = state.apply({"op": "view"})
        assert "stats" not in payload


class TestCanonicalJson:
    def test_sorted_keys_no_whitespace(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": math.nan})
        with pytest.raises(ValueError):
            canonical_json({"x": math.inf})

    def test_floats_round_trip_byte_exact(self):
        value = {"x": 826.3465536678857, "y": 0.1 + 0.2}
        assert canonical_json(json.loads(canonical_json(value))) == (
            canonical_json(value)
        )


class TestEnvelopes:
    def test_ok_envelope_shape(self):
        env = ok_envelope(7, "scrub", {"k": 1})
        assert env == {"id": 7, "ok": True, "op": "scrub", "result": {"k": 1}}

    def test_error_envelope_shape(self):
        env = error_envelope(7, "bad_slice", "oops")
        assert env == {
            "id": 7,
            "ok": False,
            "error": {"code": "bad_slice", "message": "oops"},
        }

    def test_error_envelope_coerces_unknown_codes(self):
        assert error_envelope(1, "zorp", "x")["error"]["code"] == (
            "server_error"
        )

    def test_protocol_error_requires_known_code(self):
        with pytest.raises(ValueError, match="unknown protocol error code"):
            ProtocolError("zorp", "x")
        err = ProtocolError("bad_depth", "x")
        assert err.code in ERROR_CODES

    def test_decode_request_rejects_non_objects(self):
        for text in ("{not json", "[1,2]", '"str"', "42"):
            with pytest.raises(ProtocolError) as info:
                decode_request(text)
            assert info.value.code == "bad_json"
        assert decode_request('{"op":"hello"}') == {"op": "hello"}


#: (request, expected typed code) — every malformed shape the protocol
#: distinguishes.  Codes must cover most of ERROR_CODES.
BATTERY = [
    ({"op": None}, "bad_request"),
    ({}, "bad_request"),
    ({"op": "warp"}, "unknown_op"),
    ({"op": "scrub"}, "bad_slice"),
    ({"op": "scrub", "start": "a", "end": 1.0}, "bad_slice"),
    ({"op": "scrub", "start": math.nan, "end": 1.0}, "bad_slice"),
    ({"op": "scrub", "start": 0.9, "end": 0.1}, "bad_slice"),
    ({"op": "scrub", "start": True, "end": 1.0}, "bad_slice"),
    ({"op": "group", "path": ["nope", "nada"]}, "unknown_group"),
    ({"op": "group", "path": "GroupA"}, "bad_request"),
    ({"op": "group", "path": []}, "bad_request"),
    ({"op": "ungroup", "path": 5}, "bad_request"),
    ({"op": "depth", "depth": -1}, "bad_depth"),
    ({"op": "depth", "depth": 1.5}, "bad_depth"),
    ({"op": "depth"}, "bad_depth"),
    ({"op": "view", "metrics": "usage"}, "bad_request"),
    ({"op": "view", "metrics": ["imaginary"]}, "unknown_metric"),
]


class TestMalformedBattery:
    @pytest.mark.parametrize(
        "request_msg,code", BATTERY, ids=[c for _, c in BATTERY]
    )
    def test_typed_error_envelope(self, request_msg, code):
        server = SharedServerState(figure3_trace())
        state = server.create_session()
        env = server.dispatch(state, {"id": 1, **request_msg})
        assert env["ok"] is False
        assert env["id"] == 1
        assert env["error"]["code"] == code
        assert env["error"]["message"]

    def test_battery_codes_are_all_declared(self):
        assert {code for _, code in BATTERY} <= set(ERROR_CODES)

    def test_session_survives_every_error(self):
        """The whole battery against ONE session, then a valid request:
        errors must not corrupt or advance session state.  Layout is
        frozen (``settle_steps=0``) so successive views of untouched
        state are byte-identical."""
        server = SharedServerState(
            figure3_trace(), ServerConfig(settle_steps=0)
        )
        state = server.create_session()
        baseline = canonical_json(state.apply({"op": "view"}))
        moves_before = state.moves
        for request_msg, code in BATTERY:
            env = server.dispatch(state, {"id": 9, **request_msg})
            assert env["error"]["code"] == code
        assert state.moves == moves_before  # errors never count as moves
        assert canonical_json(state.apply({"op": "view"})) == baseline

    def test_ungroup_is_idempotent_not_an_error(self):
        """Ungrouping a path that is not collapsed succeeds as a no-op
        (``GroupingState.expand`` semantics) — a second analyst's
        double-click must not error out."""
        server = SharedServerState(figure3_trace())
        state = server.create_session()
        env = server.dispatch(
            state,
            {"id": 1, "op": "ungroup", "path": ["GroupB", "GroupA"]},
        )
        assert env["ok"] is True

    def test_session_limit_is_typed(self):
        server = SharedServerState(
            figure3_trace(), ServerConfig(max_sessions=1)
        )
        server.create_session()
        with pytest.raises(ProtocolError) as info:
            server.create_session()
        assert info.value.code == "session_limit"
        assert server.stats["sessions_rejected"] == 1

    def test_dispatch_never_raises(self):
        server = SharedServerState(figure3_trace())
        state = server.create_session()
        env = server.dispatch(state, {"id": None, "op": 42})
        assert env["ok"] is False
        assert server.stats["errors"] == 1


class TestInfoPayload:
    def test_kind_counts_match_the_entities(self):
        trace = figure3_trace()
        info = SharedServerState(trace).info()
        counts = {}
        for entity in trace:
            counts[entity.kind] = counts.get(entity.kind, 0) + 1
        assert info["kinds"] == counts
        assert list(info["kinds"]) == list(counts)
        assert info["entities"] == len(trace)


class TestOverTheWire:
    """The same guarantees across a real WebSocket connection."""

    def test_bad_json_frame_gets_typed_envelope_and_session_survives(self):
        import asyncio

        from repro.server.app import ReproServer
        from repro.server.client import WsClient

        async def scenario(port: int) -> None:
            client = await WsClient.connect(config.host, port)
            try:
                env = await client.send_raw("{not json")
                assert env["ok"] is False
                assert env["id"] is None  # unparseable -> no id
                assert env["error"]["code"] == "bad_json"
                reply = await client.request("hello")
                assert reply["ok"] is True
                assert reply["result"]["protocol"] == PROTOCOL_VERSION
            finally:
                await client.close()

        config = ServerConfig(settle_steps=0)
        with ReproServer(figure3_trace(), config) as server:
            asyncio.run(scenario(server.port))

    def test_session_limit_refuses_upgrade_with_503(self):
        import asyncio

        from repro.server.app import ReproServer
        from repro.server.client import WsClient
        from repro.server.ws import WebSocketError

        async def scenario(port: int) -> None:
            first = await WsClient.connect(config.host, port)
            try:
                with pytest.raises(WebSocketError, match="503"):
                    await WsClient.connect(config.host, port)
            finally:
                await first.close()

        config = ServerConfig(settle_steps=0, max_sessions=1)
        with ReproServer(figure3_trace(), config) as server:
            asyncio.run(scenario(server.port))


@pytest.mark.skipif(
    not os.environ.get("REPRO_REGEN"),
    reason="fixture regeneration is explicit: set REPRO_REGEN=1",
)
def test_regenerate_golden_fixture():
    """Not a test: rewrites the committed golden replies deliberately."""
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(
        json.dumps(
            {"protocol": PROTOCOL_VERSION, "replies": golden_replies()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    assert GOLDEN.is_file()
