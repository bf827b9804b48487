"""Run one ``repro`` CLI command with per-layer spans recorded.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python benchmarks/e2e/traced.py --spans OUT.json serve grid.rtrace --port 0
    python benchmarks/e2e/traced.py --spans OUT.json render grid.rtrace --out f.svg

Wraps the public entry point of each pipeline layer (:data:`TARGETS`)
with a timer, then calls ``repro.cli.main`` with the remaining
arguments.  Spans stay in memory as ``[name, start, end, parent,
request]`` rows (``perf_counter`` seconds, parent row index or -1, the
``session:id`` request id on the per-request root) and are written to
``--spans`` when ``main`` returns, which ``serve`` does on SIGTERM.  A
target that no longer exists is listed under ``"missing"``; its time
then falls into the residual of the breakdown.

When ``E2E_SPAWN_WALL`` holds the parent's ``time.time()`` at spawn, a
``process.start`` span covers spawn to ``main`` entry (interpreter
start-up and imports).
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

#: Structural spans: per-request and per-process roots, not layers.
#: Their self time is the breakdown's residual.
REQUEST, OP, MAIN = "request", "op", "main"

#: (span name, module, attribute) of every wrapped entry point.
TARGETS = (
    ("store.open", "repro.trace.store", "open_store"),
    ("store.open", "repro.trace.store", "TraceStore.open_trace"),
    ("hierarchy.build", "repro.core.hierarchy", "Hierarchy.from_trace"),
    ("agg.view", "repro.core.aggengine", "AggregationEngine.view"),
    ("visgraph.build", "repro.core.session", "build_visgraph"),
    ("layout.seeds", "repro.core.aggengine", "SharedTraceData.layout_seeds"),
    ("layout.seeds", "repro.core.session", "radial_seeds"),
    ("layout.seeds", "repro.core.layout.seeding", "radial_seeds"),
    ("layout.sync", "repro.core.layout.engine", "DynamicLayout.sync"),
    ("layout.settle", "repro.core.layout.engine", "DynamicLayout.settle"),
    ("render.svg", "repro.core.render.svg", "SvgRenderer.render"),
    ("protocol.payload", "repro.server.state", "view_payload"),
    ("protocol.encode", "repro.server.app", "canonical_json"),
    ("server.dispatch", "repro.server.state", "SharedServerState.handle_frame"),
    (OP, "repro.server.state", "SessionState.apply"),
    (REQUEST, "repro.server.app", "ReproServer._serve_frame"),
)


def _request_id(args) -> str | None:
    """``session:id`` of a ``ReproServer._serve_frame(self, session, text)``
    call, the key the client joins its round trips on."""
    try:
        return f"{args[1].session_id}:{json.loads(args[2]).get('id')}"
    except (IndexError, AttributeError, ValueError, TypeError):
        return None


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        #: aggregation-engine stats dicts seen by ``agg.view`` (by id;
        #: held here so they outlive their engines)
        self.engine_stats: dict[int, dict] = {}

    def wrap(self, name: str, fn, request_id=None):
        """*fn* timed as span *name*; *request_id(args)* tags the span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rid = request_id(args) if request_id is not None else None
            row = [name, clock(), 0.0, stack[-1] if stack else -1, rid]
            stack.append(len(spans))
            spans.append(row)
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _keep_engine_stats(self, view):
        kept = self.engine_stats

        def keeping(engine, *args, **kwargs):
            kept.setdefault(id(engine.stats), engine.stats)
            return view(engine, *args, **kwargs)

        return keeping

    def install(self, targets) -> None:
        """Wrap every target in place; record the ones that are gone."""
        for name, module_name, attribute in targets:
            owner_name, _, leaf = attribute.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                if owner_name:
                    owner = getattr(owner, owner_name)
                raw = (
                    owner.__dict__[leaf] if leaf in vars(owner)
                    else getattr(owner, leaf)
                )
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{attribute}")
                continue
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            if name == "agg.view":
                fn = self._keep_engine_stats(fn)
            wrapped = self.wrap(
                name, fn, _request_id if name == REQUEST else None
            )
            setattr(owner, leaf,
                    classmethod(wrapped) if is_classmethod else wrapped)

    def dump(self, path: str) -> None:
        """Write spans, missing targets and summed engine stats."""
        agg: dict[str, int] = {}
        for stats in self.engine_stats.values():
            for key in ("slice_delta", "slice_full"):
                agg[key] = agg.get(key, 0) + int(stats.get(key, 0))
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(
                {"spans": self.spans, "missing": self.missing, "agg": agg},
                stream, separators=(",", ":"),
            )


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[1], argv[2:]
    recorder = Recorder()
    # Only `serve` loads the server modules; importing them for another
    # command would inflate its process.start.
    recorder.install([
        target for target in TARGETS
        if cli_args[0] == "serve" or not target[1].startswith("repro.server")
    ])
    import repro.cli

    spawned = os.environ.get("E2E_SPAWN_WALL")
    if spawned is not None:
        now = time.perf_counter()
        waited = max(0.0, time.time() - float(spawned))
        recorder.spans.append(["process.start", now - waited, now, -1, None])
    cli_main = recorder.wrap(MAIN, repro.cli.main)
    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
