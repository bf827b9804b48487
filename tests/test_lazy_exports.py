"""Package inits re-export their names lazily (PEP 562).

``repro serve`` should load only the modules serving needs, while every
name and subpackage an eager init used to provide stays reachable.
Each check runs in a fresh interpreter, where nothing else has been
imported yet.
"""

import subprocess
import sys
import textwrap


def _run(code: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.strip()


def test_server_imports_skip_modules_serving_does_not_use():
    out = _run("""
        import sys
        from repro.server import ReproServer, ServerConfig
        unused = ("repro.server.load", "repro.server.client",
                  "repro.core.timeline", "repro.core.treemap",
                  "repro.obs.profiler", "repro.trace.reader")
        print([name for name in unused if name in sys.modules])
    """)
    assert out == "[]"


def test_names_and_subpackages_resolve_on_access():
    out = _run("""
        import repro.core, repro.obs, repro.trace
        from repro.obs.registry import MetricsRegistry
        print(repro.core.render.render_svg.__name__,
              repro.trace.store.open_store.__name__,
              repro.core.AnalysisSession.__name__,
              isinstance(repro.obs.registry, MetricsRegistry),
              hasattr(repro.core, "no_such_name"))
    """)
    assert out == "render_svg open_store AnalysisSession True False"
