"""Independent oracles and random-structure generators shared by the tests.

Everything here is deliberately written straight from the definitions, with
different code shapes than the implementations it checks (top-down recursion
vs. bottom-up sweep, per-node DFS vs. reverse BFS, pure-Python dot products
vs. the numpy matrix path).
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import random
import re
import socket
import struct
import threading
from collections import defaultdict
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from graphmem.energy import (
    EnergyParams,
    EnergyReport,
    ItemModality,
    VisualItem,
    normalize_priority,
    recursive_energy,
    shape_memory,
)
from graphmem.graph import MemoryGraph, NodeKind, new_graph
from graphmem.protocol import (
    Answer,
    Memorize,
    MemorizeDecision,
    Retrieve,
    serialize_action,
)
from graphmem.retrieval import Corpus, Modality, search
from graphmem.runtime import EpisodeConfig

# -- energy oracle -----------------------------------------------------------


def naive_omega(graph: MemoryGraph, params: EnergyParams) -> dict[int, float]:
    """Definitional top-down evaluation of the reinforced score, without
    memoization: every node mean is recomputed on demand."""
    children: dict[int, list[int]] = defaultdict(list)
    for node in graph.nodes:
        for parent in node.parent_indices:
            children[parent].append(node.index)
    items_of: dict[int, list[VisualItem]] = defaultdict(list)
    for item in graph.memory_bank:
        if item.saliency == 1:
            items_of[item.owner_node].append(item)

    def intrinsic(item: VisualItem) -> float:
        owner = graph.nodes[item.owner_node]
        degree = sum(1 for n in graph.nodes if item.owner_node in n.parent_indices)
        priority_hat = (item.priority - 1) / 4.0
        age = graph.step - owner.created_step
        return priority_hat * (1 + degree) * math.exp(-params.lambda_decay * age)

    def omega(item: VisualItem) -> float:
        feedback = sum(node_mean(child) for child in children[item.owner_node])
        return intrinsic(item) + params.gamma_feedback * feedback

    def node_mean(index: int) -> float:
        items = items_of[index]
        if not items:
            return 0.0
        return sum(omega(item) for item in items) / len(items)

    return {
        item.ordinal: omega(item)
        for item in graph.memory_bank
        if item.saliency == 1
    }


def naive_intrinsic(graph: MemoryGraph, params: EnergyParams) -> dict[int, float]:
    children_count: dict[int, int] = defaultdict(int)
    for node in graph.nodes:
        for parent in node.parent_indices:
            children_count[parent] += 1
    out = {}
    for item in graph.memory_bank:
        if item.saliency != 1:
            continue
        owner = graph.nodes[item.owner_node]
        out[item.ordinal] = (
            (item.priority - 1) / 4.0
            * (1 + children_count[item.owner_node])
            * math.exp(-params.lambda_decay * (graph.step - owner.created_step))
        )
    return out


# -- bit-exact references for the scoring arithmetic -------------------------------


def fraction_budgets(retained, report: EnergyReport, params: EnergyParams) -> dict[int, int]:
    """The budget split in exact rational arithmetic: each item gets
    int(s_total * w / sum(w)) over Fractions, or an even share in uniform
    mode and when the weights sum to 0 or less."""
    weight_sum = sum(Fraction(report.total[ordinal]) for ordinal in retained)
    if params.uniform_mode or weight_sum <= 0:
        return {ordinal: params.s_total // len(retained) for ordinal in retained}
    return {
        ordinal: int(Fraction(params.s_total) * Fraction(report.total[ordinal]) / weight_sum)
        for ordinal in retained
    }


def per_item_energy(
    graph: MemoryGraph, params: EnergyParams
) -> tuple[dict[int, float], dict[int, float]]:
    """Intrinsic and reinforced scores with every float operation in the
    order of the per-item formulation: nodes bottom-up, each node's items
    in slot order, and for each item normalize_priority(p) * (1 +
    out_degree) * exp(-lambda * age), with the decay computed per item.
    Sums add left to right, as on every Python before 3.12's compensated
    ``sum()``."""
    children: dict[int, list[int]] = defaultdict(list)
    for node in graph.nodes:
        for parent in node.parent_indices:
            children[parent].append(node.index)
    intrinsic: dict[int, float] = {}
    total: dict[int, float] = {}
    node_mean: dict[int, float] = {}
    for node in reversed(graph.nodes):
        feedback = 0.0
        for child in children[node.index]:
            feedback += node_mean[child]
        feedback *= params.gamma_feedback
        owned = sorted(
            (it for it in graph.memory_bank if it.owner_node == node.index and it.saliency == 1),
            key=lambda it: it.slot,
        )
        omegas = []
        for item in owned:
            base = (
                normalize_priority(item.priority)
                * (1 + len(children[node.index]))
                * math.exp(-params.lambda_decay * (graph.step - node.created_step))
            )
            intrinsic[item.ordinal] = base
            total[item.ordinal] = base + feedback
            omegas.append(base + feedback)
        omega_sum = 0.0
        for omega in omegas:
            omega_sum += omega
        node_mean[node.index] = omega_sum / len(omegas) if omegas else 0.0
    return intrinsic, total


# -- reachability oracle -------------------------------------------------------


def forward_reachability_path(graph: MemoryGraph) -> set[int]:
    """A node is on the critical path iff a directed path from it reaches the
    answer node; checked by per-node DFS over child edges."""
    answer = next((n.index for n in graph.nodes if n.kind is NodeKind.ANSWER), None)
    if answer is None:
        return set()
    children: dict[int, list[int]] = defaultdict(list)
    for node in graph.nodes:
        for parent in node.parent_indices:
            children[parent].append(node.index)

    def reaches_answer(start: int) -> bool:
        stack, seen = [start], set()
        while stack:
            current = stack.pop()
            if current == answer:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(children[current])
        return False

    return {node.index for node in graph.nodes if reaches_answer(node.index)}


# -- random structures ---------------------------------------------------------


def path_count(n_nodes: int, parent_sets: list[frozenset[int]]) -> int:
    """Number of root-to-anywhere paths; bounds the cost of the naive
    recursion on a candidate DAG."""
    paths = [0] * n_nodes
    paths[0] = 1
    for index in range(1, n_nodes):
        paths[index] = sum(paths[parent] for parent in parent_sets[index])
    return sum(paths)


def random_graph_with_items(
    rng: random.Random,
    *,
    max_nodes: int = 20,
    max_items_per_node: int = 4,
    max_parents: int = 2,
    max_path_count: int = 200_000,
) -> MemoryGraph:
    """A random legal graph built through the public API, with random bank
    items attached to its search nodes.  Parent fan-in is bounded and dense
    shapes are resampled so the naive oracle stays cheap."""
    while True:
        n_nodes = rng.randint(1, max_nodes)
        parent_sets: list[frozenset[int]] = [frozenset()]
        for index in range(1, n_nodes):
            k = rng.randint(1, min(max_parents, index))
            parent_sets.append(frozenset(rng.sample(range(index), k)))
        if path_count(n_nodes, parent_sets) <= max_path_count:
            break

    graph = new_graph(f"probe query {rng.randint(0, 10**9)}")
    titles = ["root"]
    for index in range(1, n_nodes):
        title = f"n{index}"
        graph.add_search_node(
            title,
            {titles[parent] for parent in parent_sets[index]},
            f"sub-query {index}",
        )
        titles.append(title)

    for index in range(1, n_nodes):
        n_items = rng.randint(0, max_items_per_node)
        refs = []
        for slot in range(n_items):
            item = VisualItem(
                ordinal=len(graph.memory_bank),
                owner_node=index,
                slot=slot,
                modality=rng.choice(list(ItemModality)),
                payload_ref=f"ref://{index}/{slot}",
                saliency=rng.choice([0, 1, 1, 1]),
                priority=rng.randint(1, 5),
            )
            refs.append(graph.append_item(item))
        graph.populate_node(index, f"summary {index}", refs)
    return graph


def shaping_fingerprint(seeds) -> list:
    """For each seed, a random graph (up to 30 nodes, 6 items per node and 3
    parents) shaped under random ``top_k`` and ``gamma_feedback``: the seed,
    the assignment record, and every reinforced score as ``float.hex``.
    Needs no numpy, so any supported Python can run it without one."""
    fingerprint = []
    for seed in seeds:
        rng = random.Random(seed)
        params = EnergyParams(
            top_k=rng.randint(1, 6), gamma_feedback=rng.choice([0.3, 0.5, 0.7, 0.9])
        )
        graph = random_graph_with_items(rng, max_nodes=30, max_items_per_node=6, max_parents=3)
        scores = recursive_energy(graph, params).total
        assignment = shape_memory(graph, params)
        fingerprint.append(
            [seed, assignment.to_dict(), [[k, v.hex()] for k, v in sorted(scores.items())]]
        )
    return fingerprint


def random_action(rng: random.Random):
    """A random structurally valid action, including awkward strings."""
    kind = rng.choice(["retrieve", "memorize", "answer"])
    if kind == "retrieve":
        return Retrieve(
            title=random_text(rng, empty_ok=False),
            parent_titles=tuple(random_text(rng, empty_ok=False) for _ in range(rng.randint(1, 3))),
            query=random_text(rng, empty_ok=False),
        )
    if kind == "answer":
        return Answer(
            parent_titles=tuple(random_text(rng, empty_ok=False) for _ in range(rng.randint(1, 3))),
            answer=random_text(rng, empty_ok=False),
        )
    decisions = tuple(
        MemorizeDecision(
            information_id=random_text(rng, empty_ok=False),
            is_useful=rng.random() < 0.5,
            key_timestamps_s=tuple(
                round(rng.uniform(0, 3600), 1) for _ in range(rng.randint(0, 3))
            ),
            priority_score=rng.randint(1, 5),
        )
        for _ in range(rng.randint(0, 4))
    )
    return Memorize(summary=random_text(rng, empty_ok=True), decisions=decisions)


def random_episode_script(rng: random.Random, corpus: Corpus, config: EpisodeConfig,
                          vocab: list[str]) -> list[str]:
    """A legal scripted episode over ``corpus``: one to four retrieves under
    random parents, each memorizing a random subset of the hits it will be
    offered (video keyframes requested in and around the clip), then an
    answer from random search nodes."""
    script, titles = [], ["root"]
    for level in range(1, rng.randint(2, 5)):
        title, query = f"s{level}", " ".join(rng.choices(vocab, k=rng.randint(1, 3)))
        parents = tuple(rng.sample(titles, rng.randint(1, min(2, len(titles)))))
        script.append(serialize_action(Retrieve(title, parents, query), "t"))
        hits = search(corpus, query, config.search_k, n_frames=config.n_frames)
        decisions = []
        for hit in rng.sample(hits, rng.randint(0, len(hits))):
            stamps = ()
            if hit.modality is Modality.VIDEO:
                stamps = tuple(
                    max(0.0, rng.uniform(hit.clip_start_s - 5, hit.clip_end_s + 5))
                    for _ in range(rng.randint(0, 3))
                )
            decisions.append(MemorizeDecision(hit.id, rng.random() < 0.8, stamps,
                                              rng.randint(1, 5)))
        script.append(serialize_action(Memorize(f"level {level}", tuple(decisions)), "t"))
        titles.append(title)
    parents = tuple(rng.sample(titles[1:], rng.randint(1, len(titles) - 1)))
    script.append(serialize_action(Answer(parents, rng.choice(vocab)), "t"))
    return script


def chain_script(depth: int) -> list[str]:
    """A scripted episode over the demo corpus that grows a chain of
    ``depth`` search nodes, each keeping the first text hit at priority 5,
    and then answers from the last node."""
    script, parent = [], "root"
    for level in range(1, depth + 1):
        title = f"s{level}"
        script.append(serialize_action(Retrieve(title, (parent,), "Solaris Dawn director"), "t"))
        keep = MemorizeDecision("Text 1", True, (), 5)
        script.append(serialize_action(Memorize(f"level {level}", (keep,)), "t"))
        parent = title
    script.append(serialize_action(Answer((parent,), "mira chen"), "t"))
    return script


_NASTY = [
    '"',
    "\\",
    "\n",
    "\t",
    "<",
    ">",
    "</tool_call>",
    "<thinking>",
    "{",
    "}",
    "é",
    "中文",
    "\U0001f600",
    " ",
]


def random_text(rng: random.Random, *, empty_ok: bool) -> str:
    parts = []
    for _ in range(rng.randint(0 if empty_ok else 1, 6)):
        if rng.random() < 0.3:
            parts.append(rng.choice(_NASTY))
        else:
            parts.append(
                "".join(rng.choice("abcdefghij XYZ0123") for _ in range(rng.randint(1, 8)))
            )
    text = "".join(parts)
    if not empty_ok and not text.strip():
        text = "x" + text
    return text


# characters that JSON escapes, or that are awkward to escape: controls,
# DEL, non-ASCII, astral characters and lone surrogates of both halves
ESCAPE_NASTY = [
    '"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "/", "é", "中文",
    "\U0001f600", "\ud800", "\udfff", "\ud83d", "\ude00", "\\u", "\\ud800",
]


def escape_text(rng: random.Random) -> str:
    """A non-empty random text mixing plain words with ``ESCAPE_NASTY``."""
    parts = ["x"]
    for _ in range(rng.randint(0, 8)):
        if rng.random() < 0.5:
            parts.append(rng.choice(ESCAPE_NASTY))
        else:
            parts.append("".join(rng.choice("abc XYZ09") for _ in range(rng.randint(1, 6))))
    return "".join(parts)


def random_response(rng: random.Random) -> str:
    return serialize_action(random_action(rng), random_text(rng, empty_ok=True))


# -- reference writer ------------------------------------------------------------


def rounding_dumps(obj) -> str:
    """The canonical writer as it was when it rounded every float to 6
    decimal places on the way out, rebuilding each dict and list."""

    def rounded(value):
        if isinstance(value, float):
            return round(value, 6)
        if isinstance(value, dict):
            return {key: rounded(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [rounded(item) for item in value]
        return value

    return json.dumps(
        rounded(obj), sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
    )


# -- objective oracle ---------------------------------------------------------


def plain_clipped_objective(ratios, advantages, eps) -> float:
    """The unmasked clipped surrogate, straight from the formula."""
    total = sum(len(row) for row in ratios)
    if total == 0:
        return 0.0
    acc = 0.0
    for row, advantage in zip(ratios, advantages):
        for ratio in row:
            clipped = min(max(ratio, 1.0 - eps), 1.0 + eps)
            acc += min(ratio * advantage, clipped * advantage)
    return acc / total


def brute_force_mu(reward: int, node_index, critical_path, r_val) -> int:
    """Literal evaluation of the mask indicator expression."""
    if node_index is None:
        return 0
    first = (1 if reward == 1 else 0) * (1 if node_index not in critical_path else 0)
    second = (1 if reward == 0 else 0) * (1 if node_index in r_val else 0)
    return first + second


# -- stub endpoints --------------------------------------------------------------


def chat_reply(content: str) -> bytes:
    """A chat-completions response body carrying ``content``."""
    return json.dumps(
        {"choices": [{"message": {"role": "assistant", "content": content}}]}
    ).encode("utf-8")


class _ThreadedServer:
    """Serves ``self.server`` from a daemon thread inside a ``with`` block."""

    server: ThreadingHTTPServer

    @property
    def base_url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self):
        # a short poll lets __exit__'s shutdown() return promptly
        self._thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=5)


class StubChatServer(_ThreadedServer):
    """Local chat-completions endpoint replaying canned contents in order;
    records every request body, its parsed payload and its auth header."""

    def __init__(self, contents: list[str]):
        self.bodies: list[bytes] = []
        self.requests: list[dict] = []
        self.auth_headers: list[str | None] = []
        contents_iter = iter(contents)
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):
                pass

            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                body = self.rfile.read(length)
                outer.bodies.append(body)
                outer.requests.append(json.loads(body.decode("utf-8")))
                outer.auth_headers.append(self.headers.get("Authorization"))
                if self.path != "/chat/completions":
                    self.send_response(404)
                    self.end_headers()
                    return
                try:
                    content = next(contents_iter)
                except StopIteration:
                    self.send_response(500)
                    self.end_headers()
                    return
                body = chat_reply(content)
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)


class KeepAliveStub(_ThreadedServer):
    """Local HTTP/1.1 endpoint that keeps connections alive and counts them.
    ``respond(n)`` answers the n-th request (from 0) with ``(status, body)``,
    with ``(status, body, "close")`` to close the connection after the reply
    without announcing it (as an idle timeout does), or with ``None`` to reset
    the connection before any reply byte.  Records each request's headers."""

    def __init__(self, respond):
        self.connections = 0
        self.headers: list[dict[str, str]] = []
        lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt, *args):
                pass

            def setup(self):
                super().setup()
                with lock:
                    outer.connections += 1

            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", "0")))
                with lock:
                    n = len(outer.headers)
                    outer.headers.append(dict(self.headers))
                answer = respond(n)
                self.close_connection = answer is None or len(answer) == 3
                if answer is None:
                    # with linger 0, closing the socket sends a reset
                    self.connection.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                    )
                    return
                status, body = answer[:2]
                self.send_response(status)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True


# -- cosine oracle --------------------------------------------------------------


def pure_python_topk(vectors: list[list[float]], query: list[float], k: int) -> list[int]:
    """Exhaustive cosine ranking with pure-Python dots and full sort, with the
    same 12-decimal quantization the engine applies before ranking."""
    scored = []
    for position, vector in enumerate(vectors):
        dot = math.fsum(a * b for a, b in zip(vector, query))
        scored.append((round(-dot, 12), position))
    scored.sort()
    return [position for _, position in scored[:k]]


# -- corpus file writer ---------------------------------------------------------


def corpus_record(items: list[dict], *, clip_len_s=60.0, embed_dim: int = 16,
                  embed_seed: int = 9157) -> dict:
    """A ``corpus/2`` record of the item records and embedding settings,
    with the index computed from the definitions: each item's hashed token
    counts over its L2 norm, kept per bucket, each bucket's items in order,
    stored as base64 of little-endian ``start`` int64, ``rows`` uint32 and
    ``vals`` float64 entries.  A content that is not a string has no
    tokens, so a record can carry an item the loader must refuse."""
    postings: list[list[tuple[int, float]]] = [[] for _ in range(embed_dim)]
    key = embed_seed.to_bytes(8, "big")
    for row, item in enumerate(items):
        content = item.get("content")
        tokens = re.findall(r"[^\W_]+", content.casefold()) if isinstance(content, str) else []
        counts: dict[int, int] = defaultdict(int)
        for token in tokens:
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=key).digest()
            counts[int.from_bytes(digest, "big") % embed_dim] += 1
        norm = math.sqrt(sum(count * count for count in counts.values()))
        for bucket, count in counts.items():
            postings[bucket].append((row, count / norm))
    start = [0]
    for bucket in postings:
        start.append(start[-1] + len(bucket))
    entries = [entry for bucket in postings for entry in bucket]
    return {
        "schema": "corpus/2",
        "clip_len_s": clip_len_s,
        "embed_dim": embed_dim,
        "embed_seed": embed_seed,
        "items": items,
        "index": {
            "start": pack_array("q", start),
            "rows": pack_array("I", [row for row, _ in entries]),
            "vals": pack_array("d", [val for _, val in entries]),
        },
    }


def pack_array(code: str, values) -> str:
    """Base64 of ``values`` as little-endian ``struct`` entries of ``code``."""
    return base64.b64encode(struct.pack(f"<{len(values)}{code}", *values)).decode("ascii")
