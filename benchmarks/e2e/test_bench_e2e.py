"""Self-test of the end-to-end benchmark (not part of tier-1).

Run from the repository root with
``PYTHONPATH=src python -m pytest benchmarks/e2e``.  It drives the real
``run.py`` on the Grid'5000 inventory with every cluster shrunk 8x and
one-second phases, once untraced and once traced, and checks the
benchmark's own contract: every metric printed with its unit, no
failures, deterministic storms, an oracle that catches a corrupted
value, and a residual within its bound.
"""

from __future__ import annotations

import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import scenario
import storms
from checks import Replica, oracle_mismatch
from run import WORKLOADS
from summary import definition

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _bench(out: Path, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "8",
         "--seconds", "1", "--seed", "3", "--trace", str(trace),
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("e2e")


@pytest.fixture(scope="module")
def untraced(out_dir):
    return _bench(out_dir, 0)


@pytest.fixture(scope="module")
def traced(out_dir, untraced):
    return _bench(out_dir, 1)


@pytest.mark.parametrize("mode,kind", [("untraced", "end_to_end"),
                                       ("traced", "per_layer")])
def test_every_metric_printed_with_unit(mode, kind, request):
    proc, final = request.getfixturevalue(mode)
    blocks = re.split(r"^\[", proc.stdout, flags=re.M)[1:]
    assert [b.split("]", 1)[0] for b in blocks] == list(WORKLOADS)
    for workload, block in zip(WORKLOADS, blocks):
        for metric in definition()[kind]:
            line = re.search(
                rf"^  {re.escape(metric['name'])} +\S+ "
                rf"{re.escape(metric['unit'])} +n=\d+$",
                block, flags=re.M,
            )
            assert line, f"{workload}: {metric['name']} not printed"
            key = f"{workload}.{metric['name']}"
            assert final["metrics"][key]["unit"] == metric["unit"]


@pytest.mark.parametrize("mode", ["untraced", "traced"])
def test_no_failed_actions(mode, request):
    _, final = request.getfixturevalue(mode)
    assert final["correct"] is True
    assert final["attempted"] > 0
    assert final["failed"] == 0


def test_residual_within_bound(traced, out_dir):
    runs = json.loads((out_dir / "results-trace.json").read_text())["runs"]
    assert [r["workload"] for r in runs] == list(WORKLOADS)
    for run in runs:
        residual = run["metrics"]["residual_frac"]["value"]
        assert 0.0 <= residual <= layers.RESIDUAL_BOUND, run["workload"]
        assert run["missing"] == []


SPAN = (0.0, 48.0)
SITES = [("grid5000", "lyon"), ("grid5000", "nancy"), ("grid5000", "rennes")]
STORMS = {
    "slide": lambda seed: storms.slide(SPAN, seed),
    "jump0": lambda seed: storms.jump(SPAN, seed, 0),
    "jump1": lambda seed: storms.jump(SPAN, seed, 1),
    "drill": lambda seed: storms.drill(SITES, seed),
}


@pytest.mark.parametrize("name", sorted(STORMS))
def test_storms_are_seeded(name):
    make = STORMS[name]

    def head(seed):
        return list(itertools.islice(make(seed), 500))

    assert head(1) == head(1)
    assert head(1) != head(2)


def test_slide_never_repeats_a_window():
    windows = [
        (m["start"], m["end"])
        for m in itertools.islice(storms.slide(SPAN, 5), 4000)
    ]
    assert len(set(windows)) == len(windows)


def test_jump_revisits_about_three_quarters():
    """Sessions in lockstep: about 3/4 of the requests ask for a window
    some session asked for before (a result-cache hit)."""
    seen, revisits = set(), 0
    rounds = zip(*(storms.jump(SPAN, 5, k)
                   for k in range(storms.JUMP_SESSIONS)))
    for requests in itertools.islice(rounds, 2000):
        for msg in requests:
            window = (msg["start"], msg["end"])
            revisits += window in seen
            seen.add(window)
    assert 0.7 < revisits / (2000 * storms.JUMP_SESSIONS) < 0.8


def test_oracle_catches_a_corrupted_value(tmp_path):
    from repro.core import AnalysisSession
    from repro.core.hierarchy import Hierarchy
    from repro.server.protocol import view_payload
    from repro.trace import read_trace

    path = tmp_path / "grid.trace"
    scenario.generate(path, scale=8)
    assert scenario.fingerprint(path) == scenario.FINGERPRINTS[8]
    trace = read_trace(path)
    hierarchy = Hierarchy.from_trace(trace)
    session = AnalysisSession(trace)
    replica = Replica(trace, hierarchy, {})
    for msg in ({"op": "depth", "depth": 2},
                {"op": "ungroup", "path": ["grid5000", "lyon"]},
                {"op": "scrub", "start": 3.0, "end": 9.5}):
        replica.apply(msg)
    session.aggregate_depth(2)
    session.disaggregate(("grid5000", "lyon"))
    session.set_time_slice(3.0, 9.5)
    result = json.loads(json.dumps(view_payload(session.view(settle_steps=1))))
    assert len(result["units"]) == replica.unit_count()
    assert oracle_mismatch(trace, hierarchy, replica.sample(result)) is None

    unit = next(u for u in result["units"] if u["values"].get("usage"))
    unit["values"]["usage"] *= 1.0 + 1e-6
    why = oracle_mismatch(trace, hierarchy, replica.sample(result))
    assert why is not None and unit["key"] in why
