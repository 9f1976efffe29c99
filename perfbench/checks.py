"""Checks of the program's outputs, computed apart from the program.

Nothing here imports graphmem.  Search results are ranked again from the
documented algorithm (hashed-token bag embedding, cosine, 12-decimal
quantization, ties in insertion order).  Episodes, masks and advantages are
recomputed from the trajectory files the program wrote.  Every check returns
a list of error strings; an empty list is a pass.

``self_tests`` feeds each check one deliberately corrupted copy of a real
output (a swapped rank, a budget sum off by one, a flipped mu, a shifted
advantage, a dropped answer, a re-admitted evicted item) and reports every
corruption that a check failed to catch.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import re
from dataclasses import dataclass

import numpy as np

TOKEN_RE = re.compile(r"[^\W_]+")
LABELS = {"text": "Text", "image": "Image", "video": "Video"}
TIE_TOLERANCE = 1e-11  # score gaps below this may order either way
SCORE_TOLERANCE = 1.01e-6  # scores are stored at 6 decimals
ADVANTAGE_FLOOR = 1e-6


def bucket_counts(text: str, dim: int, seed: int) -> dict[int, int]:
    key = seed.to_bytes(8, "big")
    counts: dict[int, int] = {}
    for token in TOKEN_RE.findall(text.casefold()):
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=key).digest()
        bucket = int.from_bytes(digest, "big") % dim
        counts[bucket] = counts.get(bucket, 0) + 1
    return counts


@dataclass
class Unit:
    item: dict
    clip: tuple[float, float] | None


class Oracle:
    """Reference index over a manifest's items: units in insertion order,
    raw token counts per unit, cosine computed from counts and norms."""

    def __init__(self, items: list[dict], clip_len_s: float, dim: int, seed: int, n_frames: int):
        self.dim, self.seed, self.n_frames = dim, seed, n_frames
        self.units: list[Unit] = []
        rows: list[int] = []
        item_counts = []
        for pos, item in enumerate(items):
            item_counts.append(bucket_counts(item["content"], dim, seed))
            if item["modality"] == "video":
                start = 0.0
                while start < item["duration_s"]:
                    end = min(start + clip_len_s, item["duration_s"])
                    self.units.append(Unit(item, (start, end)))
                    rows.append(pos)
                    start = end
            else:
                self.units.append(Unit(item, None))
                rows.append(pos)
        counts = np.zeros((len(items), dim))
        for pos, bag in enumerate(item_counts):
            for bucket, n in bag.items():
                counts[pos, bucket] = n
        self.counts = counts[rows]
        self.norms = np.sqrt((self.counts ** 2).sum(axis=1))
        self.position = {
            (u.item["id"], None if u.clip is None else u.clip[0]): i
            for i, u in enumerate(self.units)
        }

    def scores(self, query: str) -> np.ndarray:
        bag = bucket_counts(query, self.dim, self.seed)
        q = np.zeros(self.dim)
        for bucket, n in bag.items():
            q[bucket] = n
        q_norm = math.sqrt(sum(n * n for n in bag.values()))
        if q_norm == 0.0:
            return np.zeros(len(self.units))
        dots = self.counts @ q
        with np.errstate(invalid="ignore", divide="ignore"):
            out = dots / (self.norms * q_norm)
        return np.where(self.norms > 0, out, 0.0)

    def frames(self, item_id: str, start: float, end: float) -> list[list]:
        out = []
        for i in range(self.n_frames):
            ts = round(start + (end - start) * i / self.n_frames, 6)
            out.append([ts, f"frame://{item_id}?t={ts:.3f}"])
        return out


def check_search(oracle: Oracle, query: str, k: int, results: list[dict]) -> list[str]:
    """One result list against the reference ranking."""
    errors: list[str] = []
    where = f"search {query[:40]!r} k={k}"
    raw = oracle.scores(query)
    if len(results) != min(k, len(oracle.units)):
        return [f"{where}: {len(results)} results"]
    picked = []
    counters = {"text": 0, "image": 0, "video": 0}
    for obs in results:
        clip_start = obs.get("clip_start_s")
        pos = oracle.position.get((obs["source_id"], clip_start))
        if pos is None:
            return [f"{where}: unknown unit {obs['source_id']} @ {clip_start}"]
        picked.append(pos)
        unit = oracle.units[pos]
        counters[unit.item["modality"]] += 1
        expected_id = f"{LABELS[unit.item['modality']]} {counters[unit.item['modality']]}"
        if obs["id"] != expected_id:
            errors.append(f"{where}: id {obs['id']!r}, expected {expected_id!r}")
        if obs["modality"] != unit.item["modality"] or obs["content"] != unit.item["content"] \
                or obs["asset_ref"] != unit.item["asset_ref"]:
            errors.append(f"{where}: fields of {obs['id']} differ from the corpus")
        if abs(obs["score"] - raw[pos]) > SCORE_TOLERANCE:
            errors.append(f"{where}: score {obs['score']} for {obs['id']}, expected {raw[pos]:.8f}")
        if unit.clip is not None:
            if obs.get("clip_end_s") != unit.clip[1] or \
                    obs.get("frames") != oracle.frames(unit.item["id"], *unit.clip):
                errors.append(f"{where}: clip bounds or frames of {obs['id']} differ")
    if len(set(picked)) != len(picked):
        errors.append(f"{where}: a unit is returned twice")
    for a, b in zip(picked, picked[1:]):
        if raw[a] == raw[b]:
            if a > b:
                errors.append(f"{where}: tie between units {a} and {b} not in insertion order")
        elif raw[a] < raw[b] - TIE_TOLERANCE:
            errors.append(f"{where}: unit {b} outranks unit {a} but is listed after it")
    last = picked[-1]
    chosen = set(picked)
    better = np.flatnonzero(raw > raw[last] + TIE_TOLERANCE)
    missing = [int(i) for i in better if int(i) not in chosen]
    if missing:
        errors.append(f"{where}: units {missing[:3]} outrank the last result but are absent")
    tied_earlier = np.flatnonzero(raw[:last] == raw[last])
    missing = [int(i) for i in tied_earlier if int(i) not in chosen]
    if missing:
        errors.append(f"{where}: earlier tied units {missing[:3]} should come first")
    if not np.any(raw):
        if picked != list(range(len(picked))) or any(obs["score"] != 0 for obs in results):
            errors.append(f"{where}: a query with no known tokens must return the first k units")
    return errors


# -- episodes ------------------------------------------------------------------


def read_trajectory(text: str) -> tuple[dict, list[dict]]:
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    return lines[0], lines[1:]


def check_episode(
    meta: dict, records: list[dict], *, gold: str, s_total: int, top_k: int
) -> list[str]:
    """Grammar ``(retrieve memorize)* answer``, the exact-judge reward,
    budget conservation, the top-K bound, and permanent eviction."""
    where = f"episode {meta['query'][:40]!r}"
    errors: list[str] = []
    kinds = [r["kind"] for r in records]
    if not kinds or kinds[-1] != "answer" or any(k != "retrieve" for k in kinds[:-1]):
        errors.append(f"{where}: cycle kinds {kinds[:3]}... do not match "
                      "(retrieve memorize)* answer")
    for i, record in enumerate(records):
        if record["cycle"] != i:
            errors.append(f"{where}: cycle {record['cycle']} at position {i}")
        if record["kind"] == "retrieve":
            if record["action"]["name"] != "add_search_node" or record["memorize_action"] is None \
                    or record["memorize_action"]["name"] != "summarize_and_memorize":
                errors.append(f"{where}: cycle {i} is not a search followed by a memorize")
        elif record["action"]["name"] != "add_answer_node":
            errors.append(f"{where}: cycle {i} answer record holds {record['action']['name']}")
    normalize = lambda s: " ".join(s.casefold().split())  # noqa: E731
    if meta["answer"] is None or normalize(meta["answer"]) != normalize(gold):
        errors.append(f"{where}: answer {meta['answer']!r}, planted fact {gold!r}")
    if meta["reward"] != 1:
        errors.append(f"{where}: reward {meta['reward']!r} on a planted-fact episode")

    owner_cycle = {r["node_index"]: r["cycle"] for r in records if r["kind"] == "retrieve"}
    item_cycle = {
        item["ordinal"]: owner_cycle.get(item["owner_node"])
        for item in meta["graph"]["memory_bank"]
    }
    evicted: set[int] = set()
    for record in records:
        assignment = record["assignment"]
        budgets = dict((o, b) for o, b in assignment["budgets"])
        retained = assignment["retained"]
        if sum(budgets.values()) + assignment["slack"] != s_total:
            errors.append(f"{where}: cycle {record['cycle']} budgets + slack != {s_total}")
        if len(retained) > top_k or len(set(retained)) != len(retained) \
                or set(retained) != set(budgets):
            errors.append(f"{where}: cycle {record['cycle']} retains {len(retained)} > {top_k} "
                          "or disagrees with its budgets")
        back = evicted & set(retained)
        if back:
            errors.append(f"{where}: evicted items {sorted(back)[:3]} retained again at cycle "
                          f"{record['cycle']}")
        live = {o for o, c in item_cycle.items() if c is not None and c < record["cycle"]}
        if not set(retained) <= live:
            errors.append(f"{where}: cycle {record['cycle']} retains items that do not exist yet")
        evicted |= live - set(retained)
    return errors


def episode_searches(records: list[dict]) -> list[tuple[str, list[dict]]]:
    return [
        (r["action"]["arguments"]["query"], r["observations"])
        for r in records if r["kind"] == "retrieve"
    ]


# -- training batches ------------------------------------------------------------


def reaches(nodes: list[dict], start: int, target: int) -> bool:
    """Brute force: is there a directed path start -> target?"""
    children: dict[int, list[int]] = {}
    for node in nodes:
        for parent in node["parent_indices"]:
            children.setdefault(parent, []).append(node["index"])
    stack, seen = [start], set()
    while stack:
        current = stack.pop()
        if current == target:
            return True
        if current not in seen:
            seen.add(current)
            stack.extend(children.get(current, []))
    return False


def expected_segments(meta: dict, records: list[dict], gold_ids: set[str]) -> list[dict]:
    """(node_index, mu, tag) for every segment of one rollout."""
    reward = meta["reward"] or 0
    nodes = meta["graph"]["nodes"]
    answer = next((n["index"] for n in nodes if n["kind"] == "answer"), None)
    out = []
    for record in records:
        if record["kind"] != "retrieve":
            continue
        node = record["node_index"]
        dead_end = reward == 1 and (answer is None or not reaches(nodes, node, answer))
        valuable = reward == 0 and any(o["source_id"] in gold_ids for o in record["observations"])
        tag = "dead_end_positive" if dead_end else "valuable_negative" if valuable else "unmasked"
        out.append({"node_index": node, "mu": int(dead_end or valuable), "tag": tag})
    if meta["answer"] is not None:
        out.append({"node_index": None, "mu": 0, "tag": "unmasked"})
    return out


def advantages(rewards: list[int]) -> list[float]:
    mean = sum(rewards) / len(rewards)
    std = math.sqrt(sum((r - mean) ** 2 for r in rewards) / len(rewards))
    return [(r - mean) / max(std, ADVANTAGE_FLOOR) for r in rewards]


def check_batch(
    batch: list[dict], groups: list[tuple[str, list[tuple[dict, list[dict]]]]],
    gold: dict[str, set[str]],
) -> list[str]:
    """The exported batch against masks and advantages recomputed from the
    trajectories.  ``groups`` lists (query, [(meta, records), ...]) in the
    order the rollouts were handed to the program."""
    errors: list[str] = []
    expected = []
    for g, (query, rollouts) in enumerate(groups):
        rewards = [meta["reward"] or 0 for meta, _ in rollouts]
        for r, ((meta, records), adv) in enumerate(zip(rollouts, advantages(rewards))):
            for s, seg in enumerate(expected_segments(meta, records, gold.get(query, set()))):
                expected.append((g, query, f"r{r}", s, rewards[r], adv, seg))
    if len(batch) != len(expected):
        return [f"batch has {len(batch)} segments, expected {len(expected)}"]
    for row, (g, query, rid, s, reward, adv, seg) in zip(batch, expected):
        where = f"group {g} {rid} segment {s}"
        found = (row["group"], row["query"], row["rollout_id"], row["segment_index"])
        if found != (g, query, rid, s):
            errors.append(f"{where}: row is {found[0]}/{found[2]}/{found[3]}")
            continue
        if row["reward"] != reward or row["node_index"] != seg["node_index"]:
            errors.append(f"{where}: reward or node differs")
        if row["mu"] != seg["mu"] or row["tag"] != seg["tag"]:
            errors.append(f"{where}: mu {row['mu']} ({row['tag']}), "
                          f"expected {seg['mu']} ({seg['tag']})")
        if abs(row["advantage"] - adv) > SCORE_TOLERANCE:
            errors.append(f"{where}: advantage {row['advantage']}, expected {adv:.6f}")
    return errors


# -- self-tests --------------------------------------------------------------------


def _readmit_evicted(records: list[dict]) -> list[dict] | None:
    """A copy of the records with one evicted item swapped back in, two
    cycles after its eviction, for the last retained one: count and budget
    sum stay, so only the permanence check can catch it.  None when the
    episode evicts nothing early enough."""
    bad = copy.deepcopy(records)
    for i in range(len(bad) - 2):
        gone = set(bad[i]["assignment"]["retained"]) - set(bad[i + 1]["assignment"]["retained"])
        later = bad[i + 2]["assignment"]
        if gone and later["retained"]:
            dropped = later["retained"][-1]
            later["retained"][-1] = min(gone)
            for entry in later["budgets"]:
                if entry[0] == dropped:
                    entry[0] = min(gone)
            return bad
    return None


def self_tests(
    *,
    oracle: Oracle | None = None,
    search_case: tuple[str, int, list[dict]] | None = None,
    episode_cases: list[tuple[dict, list[dict], dict]] = (),
    batch_case: tuple[list[dict], list, dict] | None = None,
) -> list[str]:
    """Corrupt one real output per check and return the corruptions that
    passed unnoticed (an empty list means every check caught its fault).
    The episode corruptions use the first of ``episode_cases``, except the
    re-admitted eviction, which uses the first episode that evicts."""
    missed = []
    if search_case is not None:
        query, k, results = search_case
        swapped = copy.deepcopy(results)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        if not check_search(oracle, query, k, swapped):
            missed.append("search check passed a swapped rank")
    if episode_cases:
        meta, records, kwargs = episode_cases[0]
        bad = copy.deepcopy(records)
        bad[-1]["assignment"]["slack"] += 1
        if not check_episode(meta, bad, **kwargs):
            missed.append("episode check passed a budget off by one")
        if not check_episode(meta, copy.deepcopy(records[:-1]), **kwargs):
            missed.append("episode check passed an episode without its answer")
        readmitted = next(
            ((meta, bad, kwargs) for meta, records, kwargs in episode_cases
             if (bad := _readmit_evicted(records)) is not None),
            None,
        )
        if readmitted is None:
            missed.append("no episode evicts an item early enough to re-admit it")
        elif not check_episode(readmitted[0], readmitted[1], **readmitted[2]):
            missed.append("episode check passed a re-admitted evicted item")
    if batch_case is not None:
        batch, groups, gold = batch_case
        for field, change in (("mu", lambda v: 1 - v), ("advantage", lambda v: v + 0.01)):
            bad = copy.deepcopy(batch)
            bad[0][field] = change(bad[0][field])
            if not check_batch(bad, groups, gold):
                missed.append(f"batch check passed a changed {field}")
    return missed
