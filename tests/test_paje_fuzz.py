"""The Paje reader on hostile input: a value or a typed error, in time.

Every input to :func:`repro.trace.paje.loads_paje` must give a
:class:`~repro.trace.trace.Trace` or a :class:`~repro.errors.TraceError`
within a time bound: never another exception, never a hang.  The fuzz
net mutates and truncates the lines of two valid traces (a
``dumps_paje`` export and the hand-written sample with links and
variable arithmetic) with the text reader's line mutator; the explicit
rows pin inputs random mutation does not reliably reach (a link value
that is not a number, a container re-created under its own descendant)
and the trace builder's own errors, which must name the line too.
"""

import threading

import pytest
from hypothesis import given, settings

from repro.errors import TraceError
from repro.trace.paje import dumps_paje, loads_paje
from tests.test_paje import SAMPLE
from tests.test_roundtrip_golden import golden_trace
from tests.test_text_columns import mutated_texts

#: Seconds one parse may take before it counts as a hang; the bases
#: parse in milliseconds.
TIME_BOUND_S = 10.0

BASES = (dumps_paje(golden_trace()).splitlines(), SAMPLE.splitlines())
CHARACTERS = ' \t"%#.0123456789eE-naifxyz\\'
TOKENS = (
    "nan", "inf", "-inf", "1e309", "-0.0", "0", "1", "2", "3", "5", "6",
    "7", "abc", '"', "''", "master", "root", "ROOT", "h1", "s1", "k1",
    "%EventDef", "%EndEventDef", "Alias", "Container", "Time", "Value",
)


def outcome(text: str) -> str:
    """``"trace"`` or ``"TraceError: ..."``; anything else fails here."""
    result: list = []

    def parse() -> None:
        try:
            loads_paje(text)
            result.append("trace")
        except TraceError as error:
            result.append(f"TraceError: {error}")
        except Exception as error:  # the failure under test
            result.append(error)

    worker = threading.Thread(target=parse, daemon=True)
    worker.start()
    worker.join(TIME_BOUND_S)
    assert not worker.is_alive(), f"no result within {TIME_BOUND_S} s"
    assert isinstance(result[0], str), repr(result[0])
    return result[0]


@given(mutated_texts(BASES, CHARACTERS, TOKENS))
@settings(max_examples=300, deadline=None)
def test_mutated_traces_give_a_trace_or_a_trace_error(text):
    result = outcome(text)
    assert result == "trace" or result.startswith("TraceError: ")


_HEADER = SAMPLE.split("0 SITE")[0]

#: (records after the sample's event definitions, 1-based index of the
#: record the error must name, the error)
HOSTILE = {
    "link-value-not-a-number": (
        ['0 H 0 "Host"', '8 L 0 H H "comm"', '2 0.0 h1 H 0 "hostA"',
         "6 1.0 L 0 h1 abc k1"],
        4,
        "bad value 'abc'",
    ),
    "container-nested-under-its-descendant": (
        ['0 H 0 "Host"', "2 0.0 A H 0 A", "2 0.0 B H A B", "2 0.0 A H B A",
         "2 0.0 C H A C"],
        4,
        "container nesting loops at 'A'",
    ),
    "sample-out-of-order": (
        ['0 H 0 "Host"', '1 P H "power"', '2 0.0 h1 H 0 "hostA"',
         "3 5.0 P h1 1", "3 1.0 P h1 2"],
        5,
        "out-of-order sample: t=1.0 after t=5.0",
    ),
    "entity-redeclared-with-another-kind": (
        ['0 H 0 "Host"', '0 L 0 "Link"', '2 0.0 a H 0 "x"',
         '2 0.0 b L 0 "x"'],
        4,
        "entity 'x' redeclared with kind 'link', was 'host'",
    ),
    "container-name-empty": (
        ['0 H 0 "Host"', '2 0.0 h1 H 0 ""'],
        2,
        "entity name must be non-empty",
    ),
    "container-type-name-empty": (
        ['0 H 0 ""', '2 0.0 h1 H 0 "hostA"'],
        2,
        "entity 'hostA' must have a kind",
    ),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_rows_are_typed_errors_naming_the_line(case):
    records, index, message = HOSTILE[case]
    lineno = _HEADER.count("\n") + index
    text = _HEADER + "\n".join(records) + "\n"
    assert outcome(text) == f"TraceError: paje line {lineno}: {message}"
