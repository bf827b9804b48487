"""Fig. 6 — NAS-DT class A White Hole, ordinary (sequential) host file.

Paper series: four topology views (whole run + begin/middle/end time
slices) showing "the links interconnecting the two clusters are almost
saturated, suggesting that this might be limiting the benchmark
execution" and that they stay busy "most of the time".
"""

from repro.core import TimeSlice
from repro.trace import CAPACITY, USAGE


def slice_table(trace, link_name):
    start, end = trace.span()
    link = trace.entity(link_name)
    capacity = link.signal(CAPACITY)(0.0)
    rows = [("whole", TimeSlice(start, end))]
    rows += list(zip(("begin", "middle", "end"), TimeSlice(start, end).split(3)))
    table = {}
    for label, ts in rows:
        usage = link.signal_or(USAGE)
        table[label] = {
            "mean": ts.value_of(usage) / capacity,
            "peak": usage.maximum(ts.start, ts.end) / capacity,
        }
    return table


def test_fig6_intercluster_saturation(nasdt_runs, report):
    result, trace, platform = nasdt_runs["runs"]["sequential"]
    table = slice_table(trace, "adonis-griffon")
    lines = [
        f"sequential deployment, makespan = {result.makespan:.3f}s",
        "slice    mean util   peak util (inter-cluster link)",
    ]
    for label, row in table.items():
        lines.append(f"{label:>6}   {row['mean']:9.1%}   {row['peak']:9.1%}")
    report("fig6_nasdt_sequential", lines)
    # The link saturates (peak ~100%) while transfers are in flight,
    # and carries heavy traffic through the middle and end slices.
    assert table["whole"]["peak"] > 0.95
    assert table["middle"]["peak"] > 0.95 or table["end"]["peak"] > 0.95
    assert table["whole"]["mean"] > 0.25


def test_fig6_intercluster_is_top_utilized_link(nasdt_runs):
    """The saturated diamond stands out among ALL links in the view."""
    __, trace, __ = nasdt_runs["runs"]["sequential"]
    start, end = trace.span()
    ts = TimeSlice(start, end)
    utilizations = {
        e.name: ts.value_of(e.signal_or(USAGE)) / e.signal(CAPACITY)(0.0)
        for e in trace.entities("link")
    }
    top = max(utilizations, key=utilizations.get)
    assert top == "adonis-griffon"
