"""Compare two run sets of the end-to-end benchmark.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --seed 1 --runs 5 --out A   # parent
    python3 benchmarks/e2e/run.py --seed 1 --runs 5 --out B   # change
    python3 benchmarks/e2e/compare.py A B

*A* and *B* are ``results.json`` files or directories holding one.  For
each (workload, end-to-end metric) it prints both sides' median and
quartiles and a verdict against the metric's ``BENCHMARK.json`` bound,
from B's point of view:

* ``unresolved`` — either side's run-to-run spread (quartile distance
  over median) is wider than the bound, so the sets cannot tell;
* ``worse`` / ``better`` — B's median moved the wrong / right way by
  more than the bound;
* ``same`` — otherwise.

Metrics that ``BENCHMARK.json`` does not gate follow with their change
only.  Exits 1 when any verdict is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from summary import definition, quartiles


def load(path: Path) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` over every run in a run set."""
    if path.is_dir():
        path = path / "results.json"
    values: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(path.read_text(encoding="utf-8"))["runs"]:
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(
                metric["value"])
    return values


def verdict(a: list[float], b: list[float], bound: float,
            better: str) -> tuple[str, float]:
    """``(verdict, relative change of B's median)``."""
    qa, qb = quartiles(a), quartiles(b)
    change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
    if spread > bound:
        return "unresolved", change
    worse = change if better == "lower" else -change
    if worse > bound:
        return "worse", change
    if worse < -bound:
        return "better", change
    return "same", change


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    side_a, side_b = (load(Path(arg)) for arg in argv)
    bounded = {m["name"]: m for m in definition()["end_to_end"]}
    shared = [key for key in side_a if key in side_b]
    workloads = sorted({w for w, _ in shared})
    # Gated metrics in BENCHMARK.json order, then the ungated ones.
    names = dict.fromkeys([*bounded, *(n for _, n in shared)])
    print(f"{'workload':<12} {'metric':<15} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'change':>8} {'bound':>6}  verdict")
    bad = 0
    for workload in workloads:
        for name in names:
            key = (workload, name)
            if key not in shared:
                continue
            qa, qb = quartiles(side_a[key]), quartiles(side_b[key])
            metric = bounded.get(name)
            if metric is None:
                change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
                outcome, bound = "not gated", "-"
            else:
                outcome, change = verdict(side_a[key], side_b[key],
                                          metric["bound"], metric["better"])
                bad += outcome in ("worse", "unresolved")
                bound = f"{metric['bound']:.0%}"
            cells = ["{1:.4g} [{0:.4g}, {2:.4g}]".format(*q) for q in (qa, qb)]
            print(f"{workload:<12} {name:<15} {cells[0]:>30} "
                  f"{cells[1]:>30} {change:>+8.1%} {bound:>6}  {outcome}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
