"""Minimal HTTP front end for corpus search.

Exposes the exact engine the runtime uses as ``POST /search`` with a JSON
body ``{"query": ..., "k": ...}``, so external policies can query the same
index.  Built on the stdlib threading server; the corpus is immutable, so
concurrent requests are safe.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .canon import canonical_dumps
from .errors import DomainError
from .retrieval import Corpus, search


def make_search_server(
    corpus: Corpus,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    default_k: int = 5,
    n_frames: int = 8,
) -> ThreadingHTTPServer:
    """Build (but do not start) the server; ``port=0`` picks a free port."""

    class SearchHandler(BaseHTTPRequestHandler):
        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        def _reply(self, status: int, payload: dict) -> None:
            body = (canonical_dumps(payload) + "\n").encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self) -> None:
            if self.path != "/search":
                self._reply(404, {"error": "unknown endpoint"})
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                if length < 0:
                    raise ValueError("Content-Length must be non-negative")
                request = json.loads(self.rfile.read(length).decode("utf-8"))
                if not isinstance(request, dict):
                    raise ValueError("body must be a JSON object")
                query = request["query"]
                k = int(request.get("k", default_k))
                if not isinstance(query, str):
                    raise ValueError("query must be a string")
            except (ValueError, TypeError, KeyError) as exc:
                self._reply(400, {"error": f"bad request: {exc}"})
                return
            try:
                results = search(corpus, query, k, n_frames=n_frames)
            except (DomainError, ValueError) as exc:
                self._reply(400, {"error": str(exc)})
                return
            self._reply(200, {"results": [obs.to_dict() for obs in results]})

    return ThreadingHTTPServer((host, port), SearchHandler)
