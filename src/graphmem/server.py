"""Minimal HTTP front end for corpus search.

Exposes the exact engine the runtime uses as ``POST /search`` with a JSON
body ``{"query": ..., "k": ...}`` (``k`` a JSON integer), so external
policies can query the same index, and ``GET /healthz``, which reports the
number of searchable units.  Built on the stdlib threading server; the
corpus is immutable, so concurrent requests are safe.

Connections are kept alive (HTTP/1.1), so a client can send many searches
over one socket; each reply leaves in one send.  Every reply other than a 200
carries ``Connection: close``, because the request body may not have been
read.  Requests are bounded: ``k`` above ``MAX_K`` gets 400 before any
search; a ``Content-Length`` that is not one header of ASCII digits, or that
is above ``MAX_BODY_BYTES``, gets 400 before the body is read; and a
connection that sends nothing for ``READ_TIMEOUT_S`` seconds, idle or in the
middle of a body, is closed without a reply.  A client that resets its
connection ends it quietly.
"""

from __future__ import annotations

import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .canon import canonical_dumps, is_json_type, parse_json
from .errors import DomainError
from .retrieval import Corpus, RetrievalError, search

MAX_K = 100
MAX_BODY_BYTES = 1 << 16
READ_TIMEOUT_S = 2.0
# large enough that the headers and a typical reply leave in one send
_WRITE_BUFFER_BYTES = 1 << 16


def make_search_server(
    corpus: Corpus,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    default_k: int = 5,
    n_frames: int = 8,
) -> ThreadingHTTPServer:
    """Build (but do not start) the server; ``port=0`` picks a free port."""
    if not 1 <= default_k <= MAX_K:
        raise RetrievalError(f"default k must be in [1, {MAX_K}], got {default_k}")
    if n_frames < 1:
        raise RetrievalError(f"frame count must be >= 1, got {n_frames}")
    if not 0 <= port <= 65535:
        raise RetrievalError(f"port must be in [0, 65535], got {port}")

    class SearchHandler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = READ_TIMEOUT_S
        wbufsize = _WRITE_BUFFER_BYTES
        # a reply larger than the buffer goes out in several sends
        disable_nagle_algorithm = True

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        def handle_expect_100(self) -> bool:
            # the client sends its body only after the buffered 100 leaves
            super().handle_expect_100()
            self.wfile.flush()
            return True

        def _reply(self, status: int, payload: dict) -> None:
            body = (canonical_dumps(payload) + "\n").encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            if status != 200:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:
            if self.path != "/healthz":
                self._reply(404, {"error": "unknown endpoint"})
                return
            self._reply(200, {"status": "ok", "units": len(corpus.units)})

        def do_POST(self) -> None:
            if self.path != "/search":
                self._reply(404, {"error": "unknown endpoint"})
                return
            try:
                length = _content_length(self.headers.get_all("Content-Length", []))
                request = parse_json(self.rfile.read(length).decode("utf-8"))
                if not isinstance(request, dict):
                    raise ValueError("body must be a JSON object")
                query = request["query"]
                k = request.get("k", default_k)
                if not isinstance(query, str):
                    raise ValueError("query must be a string")
                if not is_json_type(k, int):
                    raise ValueError(f"k must be a JSON integer, got {type(k).__name__}")
                if k > MAX_K:
                    raise ValueError(f"k must be <= {MAX_K}, got {k}")
            except (ValueError, KeyError) as exc:
                self._reply(400, {"error": f"bad request: {exc}"})
                return
            try:
                results = search(corpus, query, k, n_frames=n_frames)
            except (DomainError, ValueError) as exc:
                self._reply(400, {"error": str(exc)})
                return
            self._reply(200, {"results": [obs.to_dict() for obs in results]})

    return _SearchServer((host, port), SearchHandler)


class _SearchServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address) -> None:
        # a client that went away ends its connection; any other error is a fault
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


def _content_length(values: list[str]) -> int:
    """The body length from the request's ``Content-Length`` headers: exactly
    one, of ASCII digits only (``int`` would also take ``+20``, ``2_0`` and
    digits of other scripts), at most ``MAX_BODY_BYTES``."""
    if len(values) != 1:
        raise ValueError(f"expected one Content-Length header, got {len(values)}")
    value = values[0].strip(" \t")
    if not (value.isascii() and value.isdigit()):
        raise ValueError(f"Content-Length must be ASCII digits, got {value!r}")
    length = int(value)
    if length > MAX_BODY_BYTES:
        raise ValueError(f"Content-Length must be in [0, {MAX_BODY_BYTES}]")
    return length
