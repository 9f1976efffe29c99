"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and returns plain data; the same seed
gives byte-identical inputs.  The seed changes only the words, never the
shape of the work: unit counts, video lengths, episode lengths, group sizes
and the request mix are fixed per workload, so two seeds cost the same.

Planted facts: each rollout query has one text unit whose content is a run of
tokens found nowhere else, followed by ``code <fact>``.  The root query names
those tokens, so the stub policy can aim its last search at them and answer
with the fact it reads back.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

MANIFEST_SCHEMA = "corpus-manifest/1"
CONSONANTS = "bcdfghjklmnprstvz"
VOWELS = "aeiou"
QUERY_PREFIX = "which code belongs to "
FACT_MARKER = " code "
# Engine defaults that `graphmem corpus build` writes into every corpus file.
CLIP_LEN_S = 60.0
EMBED_DIM = 256
EMBED_SEED = 9157
NO_TOKEN_QUERIES = ("?!", "--- ...", "(( ))", "!!! ???", "~", "... -- ...")


@dataclass(frozen=True)
class CorpusShape:
    videos: int
    video_minutes: int
    texts: int
    images: int
    vocab: int
    caption_words: tuple[int, int] = (6, 12)


@dataclass(frozen=True)
class RolloutShape:
    """One round of a rollout workload: ``episodes`` distinct queries, each
    answered after ``searches`` retrieve cycles (the last one finds the
    planted fact)."""

    corpus: CorpusShape
    episodes: int
    searches: int
    search_k: int
    top_k: int
    fan_in: int  # most parents a search node takes
    retry_per_mille: int  # share of turns that get one malformed reply
    out_of_clip_every: int  # one video decision in this many asks for a frame outside the clip


ROLLOUT_SEARCH = RolloutShape(
    corpus=CorpusShape(videos=300, video_minutes=60, texts=4000, images=2000, vocab=3000),
    episodes=16,
    searches=4,
    search_k=5,
    top_k=5,
    fan_in=1,
    retry_per_mille=60,
    out_of_clip_every=8,
)

ROLLOUT_DEEP = RolloutShape(
    corpus=CorpusShape(videos=100, video_minutes=6, texts=250, images=150, vocab=300),
    episodes=2,
    searches=100,
    search_k=8,
    top_k=24,
    fan_in=3,
    retry_per_mille=60,
    out_of_clip_every=8,
)

SEARCH_HTTP_CORPUS = CorpusShape(videos=0, video_minutes=0, texts=16000, images=8000, vocab=3000)
HTTP_KS = (1, 3, 5, 10, 20)
HTTP_QUERY_WORDS = (1, 2, 4, 8, 16, 24)
HTTP_WELL_FORMED = 110
HTTP_ARRAY_BODIES = 4

TRAIN_CORPUS = CorpusShape(videos=20, video_minutes=3, texts=200, images=60, vocab=400)
TRAIN_GROUPS = 32
# Outcome of the 8 rollouts of every group: rewarded, failed (wrong answer),
# truncated (never answers).  Each kind has a fixed episode length.
TRAIN_PATTERN = ("rewarded",) * 3 + ("failed",) * 3 + ("truncated",) * 2
TRAIN_SEARCHES = {"rewarded": 6, "failed": 5, "truncated": 8}
TRAIN_T_MAX = 8


def vocabulary(rng: random.Random, size: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        word = "".join(
            rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(rng.randint(2, 4))
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def planted_tokens(rng: random.Random, count: int, seen: set[str]) -> list[str]:
    """Tokens no vocabulary word can equal: they all contain digits."""
    tokens = []
    while len(tokens) < count:
        token = f"q{rng.randrange(36 ** 5):07d}x"
        if token not in seen:
            seen.add(token)
            tokens.append(token)
    return tokens


def caption(rng: random.Random, vocab: list[str], shape: CorpusShape) -> str:
    return " ".join(rng.choice(vocab) for _ in range(rng.randint(*shape.caption_words)))


@dataclass(frozen=True)
class PlantedQuery:
    query: str
    search: str  # the query that retrieves the planted unit
    fact: str
    unit_id: str


def corpus_items(
    rng: random.Random, vocab: list[str], shape: CorpusShape, planted: list[PlantedQuery]
) -> list[dict]:
    """Manifest items: videos first, then texts with the planted units spread
    among them, then images."""
    items = []
    for v in range(shape.videos):
        items.append(
            {
                "id": f"vid{v:05d}",
                "modality": "video",
                "content": caption(rng, vocab, shape),
                "duration_s": float(shape.video_minutes * 60),
                "asset_ref": f"assets/vid{v:05d}.mp4",
            }
        )
    texts = [
        {"id": f"doc{t:05d}", "modality": "text", "content": caption(rng, vocab, shape),
         "asset_ref": ""}
        for t in range(shape.texts - len(planted))
    ]
    for p in planted:
        position = rng.randint(0, len(texts))
        texts.insert(
            position,
            {"id": p.unit_id, "modality": "text", "content": p.search + FACT_MARKER + p.fact,
             "asset_ref": ""},
        )
    items.extend(texts)
    for i in range(shape.images):
        items.append(
            {
                "id": f"img{i:05d}",
                "modality": "image",
                "content": caption(rng, vocab, shape),
                "asset_ref": f"assets/img{i:05d}.png",
            }
        )
    return items


def planted_queries(rng: random.Random, count: int, tokens_each: int = 6) -> list[PlantedQuery]:
    seen: set[str] = set()
    out = []
    for q in range(count):
        search = " ".join(planted_tokens(rng, tokens_each, seen))
        fact = " ".join(planted_tokens(rng, 2, seen))
        out.append(PlantedQuery(QUERY_PREFIX + search, search, fact, f"fact{q:04d}"))
    return out


def write_manifest(directory: Path, items: list[dict]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    record = {"schema": MANIFEST_SCHEMA, "items": items}
    (directory / "items.json").write_text(json.dumps(record), encoding="utf-8")


@dataclass(frozen=True)
class RolloutInputs:
    vocab: list[str]
    items: list[dict]
    queries: list[PlantedQuery]


def stable_hash(*parts: object) -> int:
    text = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big")


def distractor_query(vocab: list[str], root: str, n: int) -> str:
    """The stub's n-th search before the planted one: 3 to 6 vocabulary words."""
    h = stable_hash(root, n, "query")
    return " ".join(vocab[(h >> (8 * i)) % len(vocab)] for i in range(3 + h % 4))


def _cosine(a: dict[int, int], b: dict[int, int]) -> float:
    dot = sum(n * b.get(bucket, 0) for bucket, n in a.items())
    norms = math.sqrt(sum(n * n for n in a.values()) * sum(n * n for n in b.values()))
    return dot / norms if norms else 0.0


def rollout_inputs(seed: int, shape: RolloutShape) -> RolloutInputs:
    """Corpus and queries for a rollout workload.  A planted unit shares no
    token with any other unit, but its tokens can share hash buckets with
    vocabulary words; the planted tokens are drawn again until none of the
    episode's distractor searches ranks the planted unit within twice the
    search depth, so every episode runs exactly ``shape.searches`` cycles."""
    rng = random.Random(f"rollout/{seed}")
    vocab = vocabulary(rng, shape.corpus.vocab)
    queries = planted_queries(rng, shape.episodes)
    items = corpus_items(rng, vocab, shape.corpus, queries)
    oracle = checks.Oracle(items, CLIP_LEN_S, EMBED_DIM, EMBED_SEED, 1)
    seen = set(" ".join(q.search + " " + q.fact for q in queries).split())
    for i, q in enumerate(queries):
        row = oracle.position[(q.unit_id, None)]
        while True:
            planted = checks.bucket_counts(q.search + FACT_MARKER + q.fact, EMBED_DIM, EMBED_SEED)
            reachable = False
            for n in range(1, shape.searches):
                distractor = distractor_query(vocab, q.query, n)
                scores = oracle.scores(distractor)
                scores[row] = -1.0
                floor = np.partition(scores, -2 * shape.search_k)[-2 * shape.search_k]
                bag = checks.bucket_counts(distractor, EMBED_DIM, EMBED_SEED)
                if _cosine(planted, bag) >= floor:
                    reachable = True
                    break
            if not reachable:
                break
            search = " ".join(planted_tokens(rng, len(q.search.split()), seen))
            q = queries[i] = PlantedQuery(QUERY_PREFIX + search, search, q.fact, q.unit_id)
        items[next(j for j, item in enumerate(items) if item["id"] == q.unit_id)]["content"] = \
            q.search + FACT_MARKER + q.fact
    return RolloutInputs(vocab, items, queries)


@dataclass(frozen=True)
class HttpRequest:
    body: bytes
    kind: str  # "search" | "no_tokens" | "array_body"
    query: str = ""
    k: int = 0


def http_inputs(seed: int) -> tuple[list[dict], list[HttpRequest]]:
    """Corpus items and one round of the request mix, in sending order."""
    rng = random.Random(f"search-http/{seed}")
    vocab = vocabulary(rng, SEARCH_HTTP_CORPUS.vocab)
    items = corpus_items(rng, vocab, SEARCH_HTTP_CORPUS, [])
    requests = []
    for i in range(HTTP_WELL_FORMED):
        k = HTTP_KS[i % len(HTTP_KS)]
        if i % 20 == 7:
            query = NO_TOKEN_QUERIES[(i // 20) % len(NO_TOKEN_QUERIES)]
            kind = "no_tokens"
        else:
            words = HTTP_QUERY_WORDS[(i // len(HTTP_KS)) % len(HTTP_QUERY_WORDS)]
            query = " ".join(rng.choice(vocab) for _ in range(words))
            kind = "search"
        body = json.dumps({"query": query, "k": k}).encode("utf-8")
        requests.append(HttpRequest(body, kind, query, k))
    for i in range(HTTP_ARRAY_BODIES):
        query = " ".join(rng.choice(vocab) for _ in range(3))
        body = json.dumps([{"query": query, "k": 5}]).encode("utf-8")
        requests.append(HttpRequest(body, "array_body"))
    rng.shuffle(requests)
    return items, requests


@dataclass(frozen=True)
class TrainGroup:
    query: str
    answer: str
    gold_ids: tuple[str, ...]
    gold_search: str


def train_inputs(seed: int) -> tuple[list[str], list[dict], list[TrainGroup]]:
    """Corpus items and one group description per query.  Each group has two
    gold evidence units, both reachable by the group's gold search."""
    rng = random.Random(f"train-prep/{seed}")
    vocab = vocabulary(rng, TRAIN_CORPUS.vocab)
    seen: set[str] = set()
    groups = []
    planted_items = []
    for g in range(TRAIN_GROUPS):
        search = " ".join(planted_tokens(rng, 4, seen))
        answer = " ".join(planted_tokens(rng, 2, seen))
        gold_ids = (f"gold{g:03d}a", f"gold{g:03d}b")
        for gold_id in gold_ids:
            planted_items.append(
                {"id": gold_id, "modality": "text", "content": search + FACT_MARKER + answer,
                 "asset_ref": ""}
            )
        groups.append(TrainGroup(QUERY_PREFIX + search, answer, gold_ids, search))
    items = corpus_items(rng, vocab, TRAIN_CORPUS, [])
    items.extend(planted_items)
    return vocab, items, groups



def tool_call(name: str, arguments: dict, thinking: str = "next step") -> str:
    """A reply in the wire protocol's envelope."""
    payload = json.dumps({"name": name, "arguments": arguments}, sort_keys=True)
    return f"<thinking>{thinking}</thinking>\n<tool_call>{payload}</tool_call>"


class SeededRollout:
    """In-process policy for one train-prep rollout (``run_episode`` only
    calls ``act``).  ``outcome`` fixes the plan: rewarded rollouts answer
    right after six searches, one of which hits the gold units and one of
    which (s2) is a dead end; failed rollouts answer wrong after five, one
    hitting gold; truncated ones never answer."""

    def __init__(self, rng: random.Random, vocab: list[str], group: TrainGroup, outcome: str):
        self.rng, self.vocab, self.group, self.outcome = rng, vocab, group, outcome
        self.searches = 0
        self.gold_step = rng.randint(3, TRAIN_SEARCHES[outcome]) if outcome != "failed" \
            else rng.randint(1, TRAIN_SEARCHES[outcome])

    def act(self, bundle, followup=()) -> str:
        if followup:
            ids = re.findall(r"^((?:Text|Image|Video) \d+) ", followup[-1][1], re.MULTILINE)
            return tool_call("summarize_and_memorize", {
                "summarize": f"step {self.searches} notes",
                "memorize": [
                    {"information_id": i, "is_useful": self.rng.random() < 0.6,
                     "key_timestamp": [], "priority_score": self.rng.randint(1, 5)}
                    for i in ids
                ],
            })
        if self.searches >= TRAIN_SEARCHES[self.outcome] and self.outcome != "truncated":
            answer = self.group.answer if self.outcome == "rewarded" else "no such code"
            return tool_call("add_answer_node",
                             {"parent_ids": [f"s{self.searches}"], "answer": answer})
        self.searches += 1
        n = self.searches
        # s2 hangs from the root and is never built on: a dead end
        options = ["root"] + [f"s{i}" for i in range(1, n) if i != 2]
        parents = {"root"} if n <= 2 else {f"s{n - 1}" if n - 1 != 2 else "s1"}
        parents.add(self.rng.choice(options))
        if n == self.gold_step:
            query = self.group.gold_search
        else:
            query = " ".join(self.rng.choice(self.vocab) for _ in range(self.rng.randint(3, 5)))
        return tool_call("add_search_node",
                         {"id": f"s{n}", "parent_ids": sorted(parents), "query": query})


def train_rollouts(seed: int, directory: Path):
    """Run every rollout of every group in process and write the judged
    trajectories.  Returns (files in command-line order, [(query, files)]
    per group, {query: gold ids})."""
    from graphmem.retrieval import CorpusItem, build_corpus
    from graphmem.runtime import EpisodeConfig, judge_exact, run_episode, save_trajectory

    vocab, items, groups = train_inputs(seed)
    corpus = build_corpus([CorpusItem.from_dict(item) for item in items])
    config = EpisodeConfig(t_max=TRAIN_T_MAX, search_k=5)
    directory.mkdir(parents=True, exist_ok=True)
    files, by_group, gold = [], [], {}
    for g, group in enumerate(groups):
        paths = []
        for r, outcome in enumerate(TRAIN_PATTERN):
            rng = random.Random(f"train-prep/{seed}/{g}/{r}")
            trajectory = run_episode(
                SeededRollout(rng, vocab, group, outcome), corpus, group.query, config
            )
            if trajectory.answer_text is not None:
                trajectory.reward = judge_exact(trajectory.answer_text, group.answer)
            path = directory / f"g{g:03d}_r{r}.jsonl"
            save_trajectory(trajectory, path)
            paths.append(path)
        files.extend(paths)
        by_group.append((group.query, paths))
        gold[group.query] = set(group.gold_ids)
    return files, by_group, gold
