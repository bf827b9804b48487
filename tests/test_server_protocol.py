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
import warnings
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
    view_payload,
    view_reply,
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
    """Replay the golden script on a fresh oracle session: each reply
    frame as the server sends it (the requests carry no id)."""
    state = SessionState.local(figure3_trace(), settle_steps=0)
    return {
        label: state.reply(dict(msg))[0] for label, msg in GOLDEN_SCRIPT
    }


def golden_frame(op: str, result: str) -> str:
    """The reply frame of an id-less *op* request whose result bytes
    are *result* (the fixture holds the result bytes)."""
    return f'{{"id":null,"ok":true,"op":"{op}","result":{result}}}'


class TestGoldenPayloads:
    def test_fixture_exists(self):
        assert GOLDEN.is_file(), (
            "missing committed fixture; regenerate with "
            "REPRO_REGEN=1 python -m pytest tests/test_server_protocol.py"
        )

    def test_bytes_are_pinned(self):
        """The reply frames, view ops' from the one-pass writer, hold
        the committed result bytes."""
        committed = json.loads(GOLDEN.read_text())
        assert committed["protocol"] == PROTOCOL_VERSION
        fresh = golden_replies()
        assert set(fresh) == set(committed["replies"])
        for label, msg in GOLDEN_SCRIPT:
            want = golden_frame(msg["op"], committed["replies"][label])
            assert fresh[label] == want, (
                f"reply bytes for {label!r} drifted; if intentional, "
                "bump PROTOCOL_VERSION and regenerate with REPRO_REGEN=1"
            )

    def test_view_schema_shape(self):
        """The documented payload schema, field for field."""
        state = SessionState.local(figure3_trace(), settle_steps=0)
        payload = json.loads(state.reply({"op": "view"})[0])["result"]
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
        payload = json.loads(state.reply({"op": "view"})[0])["result"]
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
    # Finite bounds whose integrals overflow: refused, slice kept.
    ({"op": "scrub", "start": 1e300, "end": 1e308}, "bad_slice"),
    ({"op": "scrub", "start": -1e308, "end": 1e308}, "bad_slice"),
    ({"op": "group", "path": ["nope", "nada"]}, "unknown_group"),
    ({"op": "group", "path": "GroupA"}, "bad_request"),
    ({"op": "group", "path": []}, "bad_request"),
    ({"op": "ungroup", "path": 5}, "bad_request"),
    ({"op": "depth", "depth": -1}, "bad_depth"),
    ({"op": "depth", "depth": 1.5}, "bad_depth"),
    ({"op": "depth"}, "bad_depth"),
    ({"op": "view", "metrics": "usage"}, "bad_request"),
    # Each repeat would be combined again and weigh on the result cache.
    ({"op": "view", "metrics": ["usage", "usage"]}, "bad_request"),
    ({"op": "view", "metrics": ["imaginary"]}, "unknown_metric"),
]


class TestMalformedBattery:
    @pytest.mark.parametrize(
        "request_msg,code", BATTERY, ids=[c for _, c in BATTERY]
    )
    def test_typed_error_envelope(self, request_msg, code):
        server = SharedServerState(figure3_trace())
        state = server.create_session()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reply, got = server.dispatch(state, {"id": 1, **request_msg})
        env = json.loads(reply)
        assert env["ok"] is False
        assert env["id"] == 1
        assert env["error"]["code"] == code == got
        assert env["error"]["message"]
        # A refused slice is refused once, not warned about as well.
        assert not [w for w in caught if w.category is RuntimeWarning]

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
        baseline = state.reply({"op": "view"})
        moves_before = state.moves
        for request_msg, code in BATTERY:
            reply, _ = server.dispatch(state, {"id": 9, **request_msg})
            assert json.loads(reply)["error"]["code"] == code
        assert state.moves == moves_before  # errors never count as moves
        assert state.reply({"op": "view"}) == baseline

    def test_ungroup_is_idempotent_not_an_error(self):
        """Ungrouping a path that is not collapsed succeeds as a no-op
        (``GroupingState.expand`` semantics) — a second analyst's
        double-click must not error out."""
        server = SharedServerState(figure3_trace())
        state = server.create_session()
        reply, code = server.dispatch(
            state,
            {"id": 1, "op": "ungroup", "path": ["GroupB", "GroupA"]},
        )
        assert json.loads(reply)["ok"] is True and code == ""

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
        reply, code = server.dispatch(state, {"id": None, "op": 42})
        assert json.loads(reply)["ok"] is False and code == "bad_request"
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
    frames, replies = golden_replies(), {}
    for label, msg in GOLDEN_SCRIPT:
        head, tail = golden_frame(msg["op"], "\0").split("\0")
        assert frames[label].startswith(head)
        replies[label] = frames[label][len(head):-len(tail)]
    GOLDEN.write_text(
        json.dumps(
            {"protocol": PROTOCOL_VERSION, "replies": replies},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    assert GOLDEN.is_file()


# ----------------------------------------------------------------------
# The one-pass view writer against its oracle
# ----------------------------------------------------------------------
#: Group path parts and entity names the writer must escape like
#: ``json.dumps``: non-ASCII (one outside the BMP), quotes,
#: backslashes and control characters.
ODD_GROUP = ("Grüße", 'q"G\\')
ODD_HOSTS = ('h"1', "h\\2\n", "日本\x01", "🚀\x7f\t")
ODD_LINK = 'l\t"12"'
ODD_METRIC = 'ünit "x"\\'


def odd_trace():
    """Four hosts and a link with escape-worthy names, and values that
    include ``-0.0``, ``5e-324``, ``1e16`` and integral floats."""
    from repro.trace.builder import TraceBuilder

    b = TraceBuilder()
    paths = {
        ODD_HOSTS[0]: ODD_GROUP + (ODD_HOSTS[0],),
        ODD_HOSTS[1]: ODD_GROUP + (ODD_HOSTS[1],),
        ODD_HOSTS[2]: (ODD_GROUP[0], "日本", ODD_HOSTS[2]),
        ODD_HOSTS[3]: (ODD_HOSTS[3],),
    }
    usage = (-0.0, 5e-324, 1e16, 3.0)
    for (name, path), value in zip(paths.items(), usage):
        b.declare_entity(name, "host", path)
        b.set_constant(name, "capacity", 100.0)
        b.set_constant(name, "usage", value)
    b.set_constant(ODD_HOSTS[2], ODD_METRIC, 2.5)
    b.declare_entity(ODD_LINK, "link", ODD_GROUP + (ODD_LINK,))
    b.set_constant(ODD_LINK, "capacity", 1e16)
    b.record(ODD_LINK, "usage", 0.0, 7.0)
    b.record(ODD_LINK, "usage", 0.5, 0.1)
    b.connect(ODD_HOSTS[0], ODD_HOSTS[1], via=ODD_LINK)
    b.connect(ODD_HOSTS[2], ODD_HOSTS[3])
    b.set_meta("end_time", 1.0)
    return b.build()


#: Every view op, a metric subset, no metrics and depth 0 included.
ODD_SCRIPT = [
    {"op": "view"},
    {"op": "view", "metrics": ["usage", ODD_METRIC]},
    {"op": "view", "metrics": []},
    {"op": "scrub", "start": 0.0, "end": 1.0},
    {"op": "depth", "depth": 0},
    {"op": "depth", "depth": 1},
    {"op": "group", "path": list(ODD_GROUP)},
    {"op": "scrub", "start": 0.25, "end": 0.75},
    {"op": "ungroup", "path": list(ODD_GROUP)},
    {"op": "depth", "depth": 2},
    {"op": "expand_all"},
    {"op": "view", "metrics": [ODD_METRIC]},
]

#: Where the first view's nodes are dragged (``settle_steps=0`` keeps
#: them there): signed zero, the smallest subnormal, a float whose
#: repr has an exponent and integral floats.
ODD_POSITIONS = [(-0.0, 5e-324), (1e16, 3.0), (-2.0, -0.0), (0.1, -1e-300)]


def odd_sessions():
    """Two fresh sessions over :func:`odd_trace`, nodes dragged alike:
    one to answer through the writer, one for the oracle."""
    trace = odd_trace()
    pair = []
    for _ in range(2):
        state = SessionState.local(trace, settle_steps=0)
        view = state.apply({"op": "view"})
        for key, position in zip(sorted(view.positions), ODD_POSITIONS):
            state.session.dynamic.drag(key, position)
        pair.append(state)
    return pair


class TestViewReply:
    @pytest.fixture
    def no_fallback(self, monkeypatch):
        """The writer's oracle fallback, made to fail: the writer must
        have written the bytes itself."""
        import repro.server.protocol as protocol

        def fallback(view):
            raise AssertionError("view_reply fell back to view_payload")

        monkeypatch.setattr(protocol, "view_payload", fallback)

    def test_every_view_op_matches_the_oracle(self, no_fallback):
        from repro.server.state import canonical_reply

        writer, oracle = odd_sessions()
        seen = ""
        for request_id, msg in enumerate(ODD_SCRIPT):
            reply, code = writer.reply({"id": request_id, **msg})
            want = canonical_reply(request_id, msg["op"], oracle.apply(msg))
            assert code == "" and reply == want, msg
            seen += reply
        for token in ("-0.0", "5e-324", "1e+16", "3.0", "\\ud83d\\ude80",
                      "\\u00fc", '\\"', "\\\\", "\\n", "\\t", "\\u0001",
                      "\\u007f", '"values":{}'):
            assert token in seen, token

    def test_request_ids_are_written_as_canonical_json(self, no_fallback):
        from repro.server.state import canonical_reply

        writer, oracle = odd_sessions()
        for request_id in (None, 0, -7, 2.5, "é\"", [1, {"b": 1, "a": 2}]):
            msg = {"id": request_id, "op": "view"}
            assert writer.reply(msg)[0] == canonical_reply(
                request_id, "view", oracle.apply(msg)
            )

    def test_an_overflowing_position_sum_takes_the_oracle(self):
        """Finite floats whose sum overflows: the oracle's pass writes
        the same bytes."""
        writer, oracle = odd_sessions()
        big = (1.7976931348623157e308, 1.7976931348623157e308)
        for state in (writer, oracle):
            for key in list(state.session.dynamic.positions())[:2]:
                state.session.dynamic.drag(key, big)
        msg = {"id": 1, "op": "view"}
        from repro.server.state import canonical_reply

        assert writer.reply(msg) == (
            canonical_reply(1, "view", oracle.apply(msg)), ""
        )

    def test_integer_slice_bounds_take_the_oracle(self):
        """A library caller may set the slice with ints, which
        ``json.dumps`` writes as ints: the oracle's pass writes them."""
        from repro.server.state import canonical_reply

        writer, oracle = odd_sessions()
        for state in (writer, oracle):
            state.session.set_time_slice(0, 1)
        reply, code = writer.reply({"id": 2, "op": "view"})
        assert '"slice":[0,1]' in reply and code == ""
        want = canonical_reply(2, "view", oracle.apply({"op": "view"}))
        assert reply == want

    def test_non_finite_value_raises_the_oracle_error(self):
        writer, _ = odd_sessions()
        view = writer.apply({"op": "view"})
        unit = next(iter(view.aggregated.units.values()))
        unit.values["usage"] = math.inf
        with pytest.raises(ValueError) as oracle:
            canonical_json(ok_envelope(3, "view", view_payload(view)))
        with pytest.raises(ValueError) as written:
            view_reply(3, "view", view)
        assert str(written.value) == str(oracle.value)

    def test_non_finite_position_answers_server_error(self):
        """A NaN position answers the ``server_error`` envelope of an
        unserializable payload, and the session stays usable once the
        node is back."""
        server = SharedServerState(odd_trace(), ServerConfig(settle_steps=0))
        state = server.create_session()
        view = state.apply({"op": "view"})
        key = sorted(view.positions)[0]
        # A drag refuses a NaN spot, so write one into the layout's
        # positions, as a force model gone wrong would.
        layout = state.session.dynamic.layout
        layout._pos[layout._index[key]] = (math.nan, 1.0)
        reply, code = server.dispatch(state, {"id": 4, "op": "view"})
        with pytest.raises(ValueError) as err:
            canonical_json(math.nan)
        assert code == "server_error"
        assert reply == canonical_json(error_envelope(
            4, "server_error", f"unserializable payload: {err.value}"
        ))
        assert server.stats["errors.server_error"] == 1
        state.session.dynamic.drag(key, (1.0, 1.0))
        reply, code = server.dispatch(state, {"id": 5, "op": "view"})
        assert code == "" and json.loads(reply)["result"]["positions"][
            key
        ] == [1.0, 1.0]
