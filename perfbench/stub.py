"""Stub chat-completions endpoint that plays the policy in the rollout
workloads.

Each reply is a deterministic function of the conversation it answers: the
root query, the node titles and summaries in the linearized graph, and the
last observation block.  The stub plans ``searches`` retrieve cycles per
episode; the last one aims at the query's planted unit.  Once a node summary
carries the planted fact, the next retrieve turn answers with it.

For a fixed, hash-chosen share of turns the stub first sends one reply with
no tool call, so the engine's format-retry path runs.  It keeps connections
alive as a real endpoint does, writes each reply in a single send with
``TCP_NODELAY`` set (separate header and body writes stall on delayed ACKs),
and counts connections and requests.  It timestamps every request on
arrival and every reply on sending, so the benchmark can take the engine's
time between a reply and the same conversation's next request.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from gen import FACT_MARKER, QUERY_PREFIX, RolloutShape, distractor_query, stable_hash, tool_call

OBSERVATION_HEADING = "### Retrieved Multimodal Information"
MALFORMED_REPLY = "<thinking>let me think about the next step</thinking> searching again."
FOUND_PREFIX = "found code "

_HEADER_RE = re.compile(
    r"^(?P<id>(?:Text|Image|Video) \d+) \(source [^,]+, score [0-9.]+\)"
    r"(?: \[clip <(?P<start>[0-9.]+) seconds> to <(?P<end>[0-9.]+) seconds>\])?: (?P<content>.*)$"
)
_STAMP_RE = re.compile(r"<([0-9.]+) seconds>")
_SEARCH_LINE = '"kind":"search"'


def _section(text: str, heading: str, next_heading: str) -> str:
    start = text.index(heading) + len(heading) + 1
    return text[start:text.index(next_heading, start)]


@dataclass
class Turn:
    conversation: str  # the root query
    kind: str  # "act" (retrieve or answer turn), "memorize", or "retry"
    received: float
    sent: float = 0.0


class StubPolicy:
    """The reply function; :class:`StubEndpoint` serves it over HTTP."""

    def __init__(self, shape: RolloutShape, vocab: list[str]):
        self.shape = shape
        self.vocab = vocab

    def reply(self, messages: list[dict]) -> tuple[str, str, str]:
        """Return (root query, turn kind, reply text) for one request."""
        user = messages[1]["content"]
        root = _section(user, "### User Query", "\n\n### Agent Action Graph")
        context = _section(user, "### Agent Action Graph", "\n\n### Multimodal Memory Bank")
        retry = any(
            m["role"] == "assistant" and "<tool_call>" not in m["content"] for m in messages
        )
        memorize = any(
            m["role"] == "user" and m["content"].startswith(OBSERVATION_HEADING)
            for m in messages[2:]
        )
        kind = "memorize" if memorize else "act"
        searches = context.count(_SEARCH_LINE)
        if not retry and stable_hash(root, searches, kind) % 1000 < self.shape.retry_per_mille:
            return root, kind, MALFORMED_REPLY
        if memorize:
            block = next(m["content"] for m in messages[2:] if m["role"] == "user")
            text = self._memorize(root, searches, block)
        else:
            text = self._act(root, searches, context)
        return root, "retry" if retry else kind, text

    def _act(self, root: str, searches: int, context: str) -> str:
        for line in context.splitlines():
            if FOUND_PREFIX in line and _SEARCH_LINE in line:
                node = json.loads(line)
                if node["summary"].startswith(FOUND_PREFIX):
                    fact = node["summary"][len(FOUND_PREFIX):]
                    return tool_call(
                        "add_answer_node",
                        {"parent_ids": [node["title"]], "answer": fact},
                        "the planted fact is in memory",
                    )
        n = searches + 1
        planted_search = root[len(QUERY_PREFIX):]
        if n >= self.shape.searches:
            query = planted_search
        else:
            query = distractor_query(self.vocab, root, n)
        titles = ["root"] + [f"s{i}" for i in range(1, n)]
        h = stable_hash(root, n, "parents")
        recent = titles[-8:]
        parents = {titles[-1]}
        for i in range(h % self.shape.fan_in):
            parents.add(recent[(h >> (8 * (i + 1))) % len(recent)])
        return tool_call(
            "add_search_node",
            {"id": f"s{n}", "parent_ids": sorted(parents), "query": query},
            f"search step {n}",
        )

    def _memorize(self, root: str, searches: int, block: str) -> str:
        planted_search = root[len(QUERY_PREFIX):]
        decisions = []
        summary = f"notes for step {searches + 1}"
        lines = block.splitlines()
        for i, line in enumerate(lines):
            match = _HEADER_RE.match(line)
            if match is None:
                continue
            obs_id, content = match.group("id"), match.group("content")
            h = stable_hash(root, searches, obs_id)
            if content.startswith(planted_search + FACT_MARKER):
                summary = FOUND_PREFIX + content[len(planted_search + FACT_MARKER):]
                decisions.append(
                    {"information_id": obs_id, "is_useful": True, "key_timestamp": [],
                     "priority_score": 5}
                )
                continue
            stamps: list[float] = []
            if match.group("start") is not None:
                useful = h % 10 < 8
                frames = [float(s) for s in _STAMP_RE.findall(lines[i + 1])]
                for j in range(2):
                    stamps.append(round(frames[(h >> (4 + 4 * j)) % len(frames)] + 0.3, 1))
                if (h >> 16) % self.shape.out_of_clip_every == 0:
                    stamps.append(float(match.group("end")) + 2.5)
            else:
                useful = h % 10 < 6
            decisions.append(
                {"information_id": obs_id, "is_useful": useful,
                 "key_timestamp": stamps if useful else [],
                 "priority_score": 1 + (h >> 24) % 5}
            )
        return tool_call(
            "summarize_and_memorize",
            {"summarize": summary, "memorize": decisions},
            "judging the results",
        )


class StubEndpoint:
    """Serves ``POST /chat/completions`` on 127.0.0.1 from daemon threads."""

    def __init__(self, policy: StubPolicy):
        self.policy = policy
        self._lock = threading.Lock()
        self.turns: list[Turn] = []
        self.connections = 0
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def setup(self) -> None:
                super().setup()
                self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                with endpoint._lock:
                    endpoint.connections += 1

            def log_message(self, format, *args):  # noqa: A002 - stdlib signature
                pass

            def do_POST(self) -> None:
                body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
                received = time.perf_counter()
                messages = json.loads(body)["messages"]
                root, kind, text = endpoint.policy.reply(messages)
                payload = json.dumps(
                    {"choices": [{"message": {"role": "assistant", "content": text}}]}
                ).encode("utf-8")
                head = (
                    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    f"Content-Length: {len(payload)}\r\n\r\n"
                ).encode("ascii")
                turn = Turn(root, kind, received)
                turn.sent = time.perf_counter()
                self.wfile.write(head + payload)
                with endpoint._lock:
                    endpoint.turns.append(turn)

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    def start(self) -> "StubEndpoint":
        self._thread.start()
        return self

    def take(self) -> tuple[list[Turn], int]:
        """Turns and connections since the last call, then reset both."""
        with self._lock:
            turns, self.turns = self.turns, []
            connections, self.connections = self.connections, 0
        return turns, connections

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)


def cycle_gaps(turns: list[Turn]) -> list[float]:
    """Engine time per retrieve cycle, in seconds.

    A cycle starts at an ``act`` request.  Its engine time is the sum of the
    gaps between each reply the stub sent in the cycle and the same
    conversation's next request, up to and including the next cycle's first
    request: the search gap (retrieve reply to memorize request), the shaping
    and rendering gap (memorize reply to next act request), and any retry
    gaps.  The answer cycle has no next request and gives no sample.  Summing
    per cycle keeps the two gap kinds from forming two clusters whose
    boundary a median would land on.
    """
    by_conversation: dict[str, list[Turn]] = {}
    for turn in sorted(turns, key=lambda t: t.received):
        by_conversation.setdefault(turn.conversation, []).append(turn)
    samples = []
    for seq in by_conversation.values():
        starts = [i for i, t in enumerate(seq) if t.kind == "act"]
        for a, b in zip(starts, starts[1:]):
            samples.append(sum(seq[i + 1].received - seq[i].sent for i in range(a, b)))
    return samples
