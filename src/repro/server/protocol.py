"""Wire protocol of the multi-session analysis server.

Every message is one WebSocket text frame carrying one JSON object.
Requests name an operation (``{"id": 7, "op": "scrub", "start": 10.0,
"end": 20.0}``); replies are **envelopes**:

* success — ``{"id": 7, "ok": true, "op": "scrub", "result": {...}}``;
* failure — ``{"id": 7, "ok": false, "error": {"code": "bad_slice",
  "message": "..."}}`` with a typed code from :data:`ERROR_CODES`.

One message class flows the *other* way: after an accepted
``stats_stream`` request the server sends **push frames**
(:func:`push_envelope`) — ``{"push": "stats", "seq": 0, "data":
{...}}`` — which carry no ``id`` and no ``ok`` key, so a client can
always tell an unsolicited push from a reply by the presence of
``push``.

All server output is serialized with :func:`canonical_json` — sorted
keys, no whitespace, ``NaN`` rejected — so a payload has exactly one
byte representation.  That is what makes the cross-session differential
test (``tests/test_server_differential.py``) a *byte* comparison: a
concurrent session and a fresh single-user oracle session must produce
the same canonical string, not merely equal floats.

The view payload (:func:`view_payload`) deliberately excludes the
engine's stats counters: those depend on cache history and would differ
between a shared and an isolated session even when the *views* are
identical.  Unit member lists are summarized as a ``weight`` count —
the aggregate-first principle: ship the aggregate, not the roster.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _string
from typing import Any

from repro.errors import ReproError

__all__ = [
    "ERROR_CODES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "canonical_json",
    "decode_request",
    "error_envelope",
    "ok_envelope",
    "push_envelope",
    "require_finite",
    "require_int",
    "require_path",
    "view_payload",
    "view_reply",
]

#: Bumped on any incompatible change to envelopes or payload schemas
#: (the golden test in ``tests/test_server_protocol.py`` pins both).
PROTOCOL_VERSION = 1

#: Every error code a reply envelope may carry.
ERROR_CODES = (
    "bad_json",       # frame is not a JSON object
    "bad_request",    # missing/mistyped field
    "unknown_op",     # op name not in the dispatch table
    "bad_slice",      # reversed, non-finite or out-of-domain slice
    "unknown_group",  # path does not name a hierarchy group
    "unknown_metric", # metric absent from the trace
    "bad_depth",      # depth not a non-negative integer
    "session_limit",  # server at max_sessions
    "server_error",   # anything else the engine raised
)


class ProtocolError(ReproError):
    """A malformed or unserviceable client request.

    Carries a typed *code* (one of :data:`ERROR_CODES`) that the server
    puts verbatim into the error envelope, so clients and the
    malformed-request battery can switch on it without parsing prose.
    """

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown protocol error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message


def canonical_json(payload: Any) -> str:
    """The unique JSON serialization of *payload*.

    Sorted keys, no whitespace, ``allow_nan=False`` (a NaN anywhere in
    a payload is a server bug, not a value to ship).  Two payloads are
    byte-identical iff their canonical strings are equal — the
    foundation of every differential check in the server test net.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def decode_request(text: str) -> dict:
    """Parse one request frame, raising typed errors on malformed input.

    Returns the request dict; raises :class:`ProtocolError` with code
    ``bad_json`` when *text* is not JSON or not a JSON object.
    """
    try:
        msg = json.loads(text)
    except (ValueError, TypeError) as err:
        raise ProtocolError("bad_json", f"request is not JSON: {err}") from None
    if not isinstance(msg, dict):
        raise ProtocolError(
            "bad_json", f"request must be a JSON object, got {type(msg).__name__}"
        )
    return msg


def ok_envelope(request_id: Any, op: str, result: dict) -> dict:
    """The success reply envelope for request *request_id*."""
    return {"id": request_id, "ok": True, "op": op, "result": result}


def push_envelope(kind: str, seq: int, data: dict) -> dict:
    """A server-initiated push frame (``stats_stream`` and friends).

    Pushes carry a *kind* discriminator, a monotonically increasing
    per-stream *seq*, and the payload under ``data`` — but no ``id``
    and no ``ok``, so request/reply correlation logic never mistakes
    one for a reply.
    """
    return {"push": kind, "seq": seq, "data": data}


def error_envelope(request_id: Any, code: str, message: str) -> dict:
    """The failure reply envelope with a typed error *code*."""
    if code not in ERROR_CODES:
        code = "server_error"
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


# ----------------------------------------------------------------------
# Field validators (each raises a typed ProtocolError)
# ----------------------------------------------------------------------
def require_finite(msg: dict, field: str, code: str = "bad_request") -> float:
    """*field* of *msg* as a finite float, or raise *code*."""
    value = msg.get(field)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(code, f"field {field!r} must be a number")
    value = float(value)
    if not math.isfinite(value):
        raise ProtocolError(code, f"field {field!r} must be finite")
    return value


def require_int(msg: dict, field: str, minimum: int = 0,
                code: str = "bad_request") -> int:
    """*field* of *msg* as an int ``>= minimum``, or raise *code*."""
    value = msg.get(field)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(code, f"field {field!r} must be an integer")
    if value < minimum:
        raise ProtocolError(code, f"field {field!r} must be >= {minimum}")
    return value


def require_path(msg: dict, field: str = "path") -> tuple[str, ...]:
    """*field* of *msg* as a group-path tuple of strings."""
    value = msg.get(field)
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(part, str) for part in value)
    ):
        raise ProtocolError(
            "bad_request",
            f"field {field!r} must be a non-empty list of strings",
        )
    return tuple(value)


def view_payload(view) -> dict:
    """The JSON payload of one :class:`~repro.core.view.TopologyView`.

    The byte oracle of :func:`view_reply`, which writes the same bytes
    without building this dict tree: the server sends
    ``view_reply(id, op, view)``, and tests compare it with
    ``canonical_json(ok_envelope(id, op, view_payload(view)))``.

    Schema (pinned by the golden test)::

        {"protocol": 1,
         "slice": [start, end],
         "units": [{"key", "label", "kind", "group", "weight",
                    "values": {metric: value}}, ...],   # view order
         "edges": [[a, b, multiplicity], ...],
         "positions": {key: [x, y], ...}}

    Deterministic by construction: units follow the structure's stable
    ``unit_order``, edges are the structure's sorted tuple, positions
    come from the per-session deterministic layout.  Engine stats are
    deliberately absent (they depend on cache history, not the view).
    """
    agg = view.aggregated
    units = []
    for key, unit in agg.units.items():
        units.append({
            "key": unit.key,
            "label": unit.label,
            "kind": unit.kind,
            "group": list(unit.group) if unit.group is not None else None,
            "weight": unit.weight,
            "values": dict(unit.values),
        })
    return {
        "protocol": PROTOCOL_VERSION,
        "slice": [view.tslice.start, view.tslice.end],
        "units": units,
        "edges": [[e.a, e.b, e.multiplicity] for e in agg.edges],
        "positions": {
            key: [x, y] for key, (x, y) in view.positions.items()
        },
    }


def view_reply(request_id: Any, op: str, view) -> str:
    """The success reply of a view op, written in one pass from *view*.

    Byte for byte ``canonical_json(ok_envelope(request_id, op,
    view_payload(view)))``: sorted keys, ``(",", ":")`` separators,
    :func:`json.encoder.encode_basestring_ascii` escapes and
    ``float.__repr__`` / ``int.__repr__`` numbers.  Units follow view
    order, edges the structure's order and positions their sorted keys.
    No payload dict and no per-token string list is built: each unit,
    edge and position is one string, and each section is joined as soon
    as it is complete, so the peak is about twice the reply.

    A non-finite float, or a number that is not a float where a view
    holds floats (a library caller may set the slice with ints), sends
    the whole reply through the oracle instead, which writes the same
    bytes or raises the ``ValueError`` of :func:`canonical_json`.
    """
    try:
        sections = _view_sections(view)
    except TypeError:
        sections = None
    if sections is None:
        return canonical_json(ok_envelope(request_id, op, view_payload(view)))
    edges, positions, slice_text, units = sections
    return "".join((
        '{"id":', canonical_json(request_id), ',"ok":true,"op":',
        _string(op), ',"result":{"edges":[', edges, '],"positions":{',
        positions, '},"protocol":', str(PROTOCOL_VERSION), ',"slice":',
        slice_text, ',"units":[', units, "]}}",
    ))


def _view_sections(view) -> tuple[str, str, str, str] | None:
    """The edges, positions, slice and units texts of *view*'s payload,
    or ``None`` when one of its floats is not finite."""
    string, real, whole = _string, float.__repr__, int.__repr__
    agg = view.aggregated
    start, end = view.tslice.start, view.tslice.end
    slice_text = f"[{real(start)},{real(end)}]"
    # Any NaN or infinity among the floats makes this sum non-finite (a
    # finite sum that overflows only costs the oracle's slower pass).
    total = start + end
    groups = {None: "null"}
    units = []
    for unit in agg.units.values():
        values = unit.values
        total += sum(values.values())
        group = groups.get(unit.group)
        if group is None:
            group = groups[unit.group] = (
                "[" + ",".join(map(string, unit.group)) + "]"
            )
        metrics = ",".join([
            f"{string(metric)}:{real(values[metric])}"
            for metric in sorted(values)
        ])
        units.append(
            f'{{"group":{group},"key":{string(unit.key)},'
            f'"kind":{string(unit.kind)},"label":{string(unit.label)},'
            f'"values":{{{metrics}}},"weight":{whole(unit.weight)}}}'
        )
    # Each section is joined in place, so its parts are freed before
    # the next section is built.
    units = ",".join(units)
    edges = ",".join([
        f"[{string(e.a)},{string(e.b)},{whole(e.multiplicity)}]"
        for e in agg.edges
    ])
    positions = view.positions
    total += sum(map(sum, positions.values()))
    if not math.isfinite(total):
        return None
    positions = ",".join([
        f"{string(key)}:[{real(positions[key][0])},"
        f"{real(positions[key][1])}]"
        for key in sorted(positions)
    ])
    return edges, positions, slice_text, units
