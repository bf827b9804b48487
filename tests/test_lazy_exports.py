"""Package inits re-export their names lazily (PEP 562).

``repro serve`` should load only the modules serving needs, while every
name and subpackage an eager init used to provide stays reachable.
Each check runs in a fresh interpreter, where nothing else has been
imported yet.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

#: Modules only some requests need: the renderer (``svg`` op and
#: ``/render``), the Prometheus exposition (``/metrics``), the JSONL
#: writer and the trace builder (access log and self-trace), and the
#: non-default layout kernels and seeding.
ON_REQUEST = (
    "repro.core.render", "repro.core.render.svg", "repro.core.render.colors",
    "repro.obs.expo", "repro.obs.export", "repro.trace.builder",
    "repro.core.layout.sharded", "repro.core.layout.naive",
    "repro.core.layout.multilevel",
)


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


def test_serving_loads_no_module_a_request_has_not_asked_for(tmp_path):
    """Scrubs, grouping and stats through a started server leave the
    on-request modules unloaded; the first ``svg`` op loads the
    renderer."""
    from repro.trace.store import write_store
    from repro.trace.synthetic import figure3_trace

    write_store(figure3_trace(), tmp_path / "t.rtrace")
    out = _run(f"""
        import sys
        import repro.cli
        from repro.server import ReproServer
        from repro.trace.store import open_store

        with ReproServer(
            open_store({str(tmp_path / "t.rtrace")!r}).open_trace()
        ) as server:
            state = server.state
            session = state.create_session()
            group = list(state.shared.hierarchy.groups()[0])
            for msg in ({{"op": "hello"}},
                        {{"op": "scrub", "start": 0.25, "end": 0.75}},
                        {{"op": "group", "path": group}},
                        {{"op": "ungroup", "path": group}},
                        {{"op": "depth", "depth": 1}},
                        {{"op": "view"}}, {{"op": "stats"}}):
                assert state.dispatch(session, msg)["ok"], msg
            print([name for name in {ON_REQUEST!r} if name in sys.modules])
            assert state.dispatch(session, {{"op": "svg"}})["ok"]
            print("repro.core.render.svg" in sys.modules)
    """)
    assert out.splitlines() == ["[]", "True"]


def test_serving_loads_neither_asyncio_nor_openssl(tmp_path):
    """A started server answers hello, scrub and bye without importing
    asyncio, ssl, hashlib's OpenSSL backend or concurrent.futures: the
    transport is a ``selectors`` loop and the handshake digest comes
    from the built-in ``_sha1``."""
    from repro.trace.store import write_store
    from repro.trace.synthetic import figure3_trace

    write_store(figure3_trace(), tmp_path / "t.rtrace")
    out = _run(f"""
        import socket, sys
        from repro.server import ReproServer
        from repro.server.ws import OP_TEXT, FrameDecoder, encode_frame
        from repro.trace.store import open_store

        trace = open_store({str(tmp_path / "t.rtrace")!r}).open_trace()
        with ReproServer(trace) as server:
            sock = socket.create_connection(("127.0.0.1", server.port))
            sock.sendall(b"GET /ws HTTP/1.1\\r\\nUpgrade: websocket\\r\\n"
                         b"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\\r\\n"
                         b"\\r\\n")
            head = b""
            while b"\\r\\n\\r\\n" not in head:
                head += sock.recv(4096)
            head, _, rest = head.partition(b"\\r\\n\\r\\n")
            decoder = FrameDecoder()
            decoder.feed(rest)
            for request in ('{{"id": 1, "op": "hello"}}',
                            '{{"id": 2, "op": "scrub", "start": 0.25, '
                            '"end": 0.75}}',
                            '{{"id": 3, "op": "bye"}}'):
                sock.sendall(encode_frame(OP_TEXT, request.encode(), True))
                while (message := decoder.next_message()) is None:
                    decoder.feed(sock.recv(65536))
                assert '"ok":true' in message[1], message
            sock.close()
        print([name for name in ("asyncio", "ssl", "_ssl", "_hashlib",
                                 "concurrent.futures")
               if name in sys.modules])
    """)
    assert out == "[]"


def test_every_benchmark_wrap_target_resolves():
    """The end-to-end benchmark's tracer wraps each pipeline layer by
    module and attribute name; moving an import must not hide one."""
    e2e = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
    out = _run(f"""
        import sys
        sys.path.insert(0, {str(e2e)!r})
        import traced
        recorder = traced.Recorder()
        recorder.install(traced.TARGETS)
        print(recorder.missing)
    """)
    assert out == "[]"
