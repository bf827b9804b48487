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


def test_convert_loads_the_parser_and_the_writer_only(tmp_path):
    """``repro convert`` on repro text loads neither the Paje parser nor
    the trace model, the signal classes or the observability code."""
    from repro.trace.synthetic import figure1_trace
    from repro.trace.writer import write_trace

    write_trace(figure1_trace(), tmp_path / "t.trace")
    out = _run(f"""
        import sys
        from repro.cli import main
        main(["convert", {str(tmp_path / "t.trace")!r},
              {str(tmp_path / "t.rtrace")!r}])
        unused = ("repro.trace.paje", "repro.trace.trace",
                  "repro.trace.stored", "repro.trace.signal",
                  "repro.trace.signalbank", "repro.trace.builder",
                  "repro.trace.events", "repro.obs")
        print([name for name in unused if name in sys.modules])
    """)
    assert out.splitlines()[-1] == "[]"


def test_serving_a_store_skips_the_text_parser(tmp_path):
    from repro.trace.store import write_store
    from repro.trace.synthetic import figure1_trace

    write_store(figure1_trace(), tmp_path / "t.rtrace")
    out = _run(f"""
        import sys
        from repro.server import ReproServer
        from repro.trace.store import open_store
        ReproServer(open_store({str(tmp_path / "t.rtrace")!r}).open_trace())
        print([name for name in ("repro.trace.reader", "repro.trace.paje")
               if name in sys.modules])
    """)
    assert out == "[]"
