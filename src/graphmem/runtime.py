"""Episode driver: the reason -> retrieve -> perceive -> shape loop.

Each cycle shapes the memory bank at the current step, renders the prompt
from the shaped graph, asks the policy for an action, and applies it.  A
retrieve action spawns a skeletal search node and immediately triggers a
second policy call that must memorize the retrieved observations before
anything else happens (the action sequence of a legal episode always matches
``(retrieve memorize)* (answer | truncation)``).  The whole loop is
deterministic under a scripted policy: corpus + config + script fully
determine the trajectory bytes.  ``apply_action`` only edits the graph, so
the cycle records and the config rebuild it with no search and no policy
call.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence
from urllib.parse import urlsplit

from .canon import (
    Record,
    canonical_dumps,
    normalize_text,
    parse_json,
    read_json,
    read_text,
    write_text_atomic,
)
from .energy import BudgetAssignment, EnergyParams, ItemModality, VisualItem, shape_memory
from .errors import DomainError
from .graph import GraphError, MemoryGraph, new_graph
from .protocol import (
    Action,
    Answer,
    FORMAT_REMINDER,
    DEFAULT_INSTRUCTION,
    MEMORIZE_PROMPT,
    Memorize,
    ParsedResponse,
    PromptBundle,
    ProtocolError,
    Retrieve,
    SchemaViolation,
    action_payload,
    parse_response,
    render_context,
    render_observation,
)
from .retrieval import Corpus, Modality, Observation, resolve_keyframes, search

TRAJECTORY_SCHEMA = "trajectory/1"

TOKEN_ENV_DEFAULT = "GRAPHMEM_API_TOKEN"


class PolicyProtocolError(DomainError):
    pass


class PolicyUnreachable(DomainError):
    """The endpoint could not be reached, dropped the call, or answered
    with a non-2xx status."""


class IllegalTransition(DomainError):
    pass


class JudgeError(DomainError):
    pass


class SessionSchemaMismatch(DomainError):
    pass


class CorruptSession(DomainError):
    pass


# -- policies ---------------------------------------------------------------


class Policy(ABC):
    """Action source.  ``followup`` carries extra conversation turns beyond
    the prompt bundle as (role, content) pairs; the memorize turn passes the
    assistant's retrieve reply plus the rendered observations."""

    @abstractmethod
    def act(self, bundle: PromptBundle, followup: Sequence[tuple[str, str]] = ()) -> str:
        raise NotImplementedError


class ScriptedPolicy(Policy):
    """Deterministic test double replaying a fixed response list."""

    def __init__(self, responses: Sequence[str]):
        self._responses = list(responses)
        self._cursor = 0

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedPolicy":
        responses = read_json(path, PolicyProtocolError)
        if not isinstance(responses, list) or not all(isinstance(r, str) for r in responses):
            raise PolicyProtocolError(f"{path}: script must be a JSON list of strings")
        return cls(responses)

    def act(self, bundle: PromptBundle, followup: Sequence[tuple[str, str]] = ()) -> str:
        if self._cursor >= len(self._responses):
            raise PolicyProtocolError("scripted policy ran out of responses")
        response = self._responses[self._cursor]
        self._cursor += 1
        return response


# How a kept-alive connection that the server closed while idle fails before
# any reply byte arrives; only these are retried, once, on a fresh connection.
_STALE_CONNECTION = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)


class ChatCompletionsClient:
    """Thin client for a chat-completions style HTTP endpoint.  Each calling
    thread keeps one connection alive, so one client can serve parallel
    episodes.  The auth token is read from an environment variable.  Requests
    and responses are not kept: a prompt can run to tens of thousands of
    characters per turn."""

    def __init__(
        self,
        base_url: str,
        model: str,
        *,
        token_env: str = TOKEN_ENV_DEFAULT,
        timeout_s: float = 60.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.token_env = token_env
        self.timeout_s = timeout_s
        self._local = threading.local()
        self._connections: list[http.client.HTTPConnection] = []
        self._url = f"{self.base_url}/chat/completions"
        parts = urlsplit(self._url)
        try:
            self._port = parts.port
        except ValueError as exc:
            raise PolicyUnreachable(f"bad endpoint URL {base_url!r}: {exc}") from exc
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise PolicyUnreachable(f"endpoint URL must be http(s)://host..., got {base_url!r}")
        self._host = parts.hostname
        if not self._host.isascii():
            # http.client sends a non-ASCII host as IDNA, failing there if it cannot
            try:
                self._host.encode("idna")
            except UnicodeError as exc:
                raise PolicyUnreachable(f"bad endpoint host in {base_url!r}: {exc}") from exc
        self._path = parts.path
        self._connection_class = (
            http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
        )

    def complete(self, messages: Sequence[tuple[str, str]]) -> str:
        """Send one conversation of (role, content) pairs and return the
        reply's content."""
        body = json.dumps(
            {
                "model": self.model,
                "messages": [{"role": role, "content": content} for role, content in messages],
            },
            allow_nan=False,
        ).encode()
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.token_env, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        status, reply = self._post(body, headers)
        if not 200 <= status < 300:
            raise PolicyUnreachable(f"POST {self._url} answered HTTP {status}")
        try:
            data = parse_json(reply)
        except ValueError as exc:
            raise PolicyProtocolError(f"chat-completions response is not JSON: {exc}") from exc
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise PolicyProtocolError(f"malformed chat-completions response: {exc}") from exc
        if not isinstance(content, str):
            raise PolicyProtocolError(f"chat-completions content is not a string: {content!r}")
        return content

    def close(self) -> None:
        """Close every thread's connection.  A later call opens a new one."""
        for conn in self._connections:
            conn.close()

    def _post(self, body: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """One POST over this thread's connection, which opens again on its
        own after a close.  A reused connection that fails before the reply
        starts is retried once on a fresh one; any other failure raises."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connection_class(
                self._host, self._port, timeout=self.timeout_s
            )
            self._connections.append(conn)
        while True:
            reused = conn.sock is not None
            try:
                conn.request("POST", self._path, body=body, headers=headers)
                response = conn.getresponse()
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                if reused and isinstance(exc, _STALE_CONNECTION):
                    continue
                raise PolicyUnreachable(f"POST {self._url} failed: {exc!r}") from exc
            try:
                return response.status, response.read()
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                raise PolicyUnreachable(f"POST {self._url} reply cut off: {exc!r}") from exc


class RemotePolicy(Policy):
    """Policy backed by a remote chat-completions endpoint."""

    def __init__(self, client: ChatCompletionsClient):
        self.client = client

    def act(self, bundle: PromptBundle, followup: Sequence[tuple[str, str]] = ()) -> str:
        messages = [("system", bundle.instruction), ("user", bundle.user_text()), *followup]
        return self.client.complete(messages)


# -- judging ----------------------------------------------------------------


JUDGE_SYSTEM_PROMPT = """\
You are an expert evaluation system for a question answering chatbot.
You are given the query, a reference answer, and a generated answer.
Your task is to evaluate the correctness of the generated answer.
Note that the generated answer may contain additional information beyond the
reference answer.
Respond in exactly this format:
<judge>True or False</judge>
"""

_JUDGE_RE = re.compile(r"<judge>\s*(True|False)\s*</judge>")


def judge_exact(answer: str, gold: str) -> int:
    """Binary reward by normalized string equality (case-fold, trim,
    collapse whitespace)."""
    return int(normalize_text(answer) == normalize_text(gold))


class ExactMatchJudge:
    def judge(self, query: str, gold: str, answer: str) -> int:
        return judge_exact(answer, gold)


class RemoteJudge:
    """Sends the grading prompt to a judge endpoint and parses the
    ``<judge>True|False</judge>`` verdict."""

    def __init__(self, client: ChatCompletionsClient):
        self.client = client

    def judge(self, query: str, gold: str, answer: str) -> int:
        messages = [
            ("system", JUDGE_SYSTEM_PROMPT),
            ("user", f"Query: {query}\nReference Answer: {gold}\nGenerated Answer: {answer}"),
        ]
        try:
            content = self.client.complete(messages)
        except (PolicyUnreachable, PolicyProtocolError) as exc:
            raise JudgeError(f"judge endpoint failed: {exc}") from exc
        match = _JUDGE_RE.search(content)
        if match is None:
            raise JudgeError(f"no <judge> verdict in response: {content!r}")
        return 1 if match.group(1) == "True" else 0


# -- episodes -----------------------------------------------------------------


@dataclass
class EpisodeConfig:
    t_max: int = 20
    energy: EnergyParams = field(default_factory=EnergyParams)
    search_k: int = 5
    n_frames: int = 8
    instruction: str = DEFAULT_INSTRUCTION

    def __post_init__(self) -> None:
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max!r}")
        if self.search_k < 1:
            raise ValueError(f"search_k must be >= 1, got {self.search_k!r}")
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames!r}")


@dataclass
class CycleRecord(Record, keep_null=("memorize_action",)):
    """Everything one cycle produced: the prompt fingerprint, the raw and
    parsed responses of both turns, the observations, and the shaping
    assignment in force when the prompt was rendered."""

    cycle: int
    step: int
    prompt_digest: str
    prompt_chars: int
    response: str
    action: dict
    kind: str  # "retrieve" | "answer"
    node_index: int
    assignment: BudgetAssignment
    observations: tuple[Observation, ...] = ()
    memorize_prompt_chars: int = 0
    memorize_response: str = ""
    memorize_action: dict | None = None


@dataclass
class Trajectory:
    """One finished (or truncated) episode, ready for judging, statistics,
    and trainer-side segmentation.  Its query, its answer and whether it
    hit the cycle bound are read off the graph."""

    records: list[CycleRecord]
    graph: MemoryGraph
    reward: int | None = None

    @property
    def query(self) -> str:
        return self.graph.root_query

    @property
    def answer_text(self) -> str | None:
        return self.graph.nodes[-1].answer_text if self.graph.is_terminal else None

    @property
    def truncated(self) -> bool:
        return not self.graph.is_terminal

    def to_jsonl(self) -> str:
        meta = {
            "kind": "meta",
            "schema": TRAJECTORY_SCHEMA,
            "query": self.query,
            "answer": self.answer_text,
            "truncated": self.truncated,
            "reward": self.reward,
            "graph": self.graph.to_dict(),
        }
        lines = [canonical_dumps(meta)]
        for record in self.records:
            lines.append(canonical_dumps(record.to_dict()))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Trajectory":
        """Read a trajectory file.  Its reward must be null, 0 or 1, and the
        meta line's query, answer and truncation flag what its graph says.
        A line ends only at "\\n": strings hold U+0085, U+2028 and U+2029 raw."""
        lines = [line for line in text.split("\n") if line.strip()]
        if not lines:
            raise CorruptSession("empty trajectory file")
        try:
            meta = parse_json(lines[0])
        except json.JSONDecodeError as exc:
            raise CorruptSession(f"bad trajectory meta line: {exc}") from exc
        if not isinstance(meta, dict):
            raise CorruptSession("trajectory meta line must be a JSON object")
        if meta.get("kind") != "meta" or meta.get("schema") != TRAJECTORY_SCHEMA:
            raise SessionSchemaMismatch(
                f"expected a {TRAJECTORY_SCHEMA!r} meta line, got {meta.get('schema')!r}"
            )
        try:
            records = [CycleRecord.from_dict(parse_json(line)) for line in lines[1:]]
            trajectory = cls(
                records=records,
                graph=MemoryGraph.from_dict(meta["graph"]),
                reward=meta["reward"],
            )
            stated = (meta["query"], meta["answer"], meta["truncated"])
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise CorruptSession(f"malformed trajectory record: {exc}") from exc
        reward = trajectory.reward  # true and 1.0 both equal 1
        if reward is not None and (type(reward) is not int or reward not in (0, 1)):
            raise CorruptSession(f"trajectory reward must be null, 0 or 1, got {reward!r}")
        derived = (trajectory.query, trajectory.answer_text, trajectory.truncated)
        # types too: 1 == True, but the graph says true
        if [(type(v), v) for v in stated] != [(type(v), v) for v in derived]:
            raise CorruptSession(
                f"meta (query, answer, truncated) {stated!r} disagrees with its graph {derived!r}"
            )
        return trajectory


def save_trajectory(trajectory: Trajectory, path: str | Path) -> None:
    write_text_atomic(path, trajectory.to_jsonl())


def load_trajectory(path: str | Path) -> Trajectory:
    return Trajectory.from_jsonl(read_text(path, CorruptSession))


# -- transitions --------------------------------------------------------------


def _action_kind(action: Action) -> str:
    if isinstance(action, Retrieve):
        return "retrieve"
    if isinstance(action, Memorize):
        return "memorize"
    return "answer"


def apply_action(
    graph: MemoryGraph, action: Action, observations: Sequence[Observation] = ()
) -> None:
    """Apply one parsed action to the graph: a retrieve adds a skeletal
    search node, an answer the answer node, and a memorize populates the
    newest node from ``observations``, the search results shown for it,
    with one bank item per useful text or image result and one per kept
    keyframe of a useful video clip.  Nothing is searched.  The graph
    refuses an action out of turn, before it changes: a memorize whose
    newest node is not an open search node, or any action once it is
    answered."""
    if isinstance(action, Retrieve):
        graph.add_search_node(action.title, action.parent_titles, action.query)
    elif isinstance(action, Answer):
        graph.add_answer_node(action.parent_titles, action.answer)
    elif isinstance(action, Memorize):
        by_id = {obs.id: obs for obs in observations}
        for decision in action.decisions:
            if decision.information_id not in by_id:
                raise SchemaViolation(
                    f"information_id {decision.information_id!r} was not offered "
                    f"(offered: {sorted(by_id)})"
                )
        owner = len(graph.nodes) - 1
        items: list[VisualItem] = []
        for decision in action.decisions:
            if not decision.is_useful:
                continue
            obs = by_id[decision.information_id]
            if obs.modality is Modality.VIDEO:
                modality = ItemModality.VIDEO_FRAME
                frames = resolve_keyframes(obs, decision.key_timestamps_s)
            else:
                modality = ItemModality(obs.modality.value)  # text or image
                frames = [(None, obs.asset_ref or f"corpus://{obs.source_id}")]
            for timestamp_s, ref in frames:
                ordinal, slot = len(graph.memory_bank) + len(items), len(items)
                items.append(VisualItem(
                    ordinal, owner, slot, modality, ref,
                    priority=decision.priority_score, source_timestamp_s=timestamp_s,
                ))
        graph.memorize(action.summary, items)
    else:
        raise TypeError(f"not an action: {action!r}")


# -- the loop -----------------------------------------------------------------


def _conversation_chars(bundle: PromptBundle, followup: Sequence[tuple[str, str]]) -> int:
    return bundle.char_count() + sum(len(content) for _, content in followup)


def _act_and_parse(
    policy: Policy,
    bundle: PromptBundle,
    followup: Sequence[tuple[str, str]],
) -> tuple[str, ParsedResponse]:
    """One policy call with a single retry on unparseable output; the retry
    appends the offending reply and a format reminder."""
    raw = policy.act(bundle, followup)
    try:
        return raw, parse_response(raw)
    except ProtocolError:
        reminder = tuple(followup) + (("assistant", raw), ("user", FORMAT_REMINDER))
        raw2 = policy.act(bundle, reminder)
        try:
            return raw2, parse_response(raw2)
        except ProtocolError as second:
            raise PolicyProtocolError(
                f"unparseable policy output after one retry: {second}"
            ) from second


def run_episode(
    policy: Policy,
    corpus: Corpus,
    query: str,
    config: EpisodeConfig,
) -> Trajectory:
    """Run one episode to its answer or the cycle bound.

    Every cycle: shape the memory bank at the current step, render the
    prompt, ask the policy for a retrieve or an answer, apply it.  A
    retrieve is searched, and the memorize turn, against the same bundle
    plus the rendered observations, populates its node before the cycle
    closes.  Episodes that hit the bound keep their trailing skeletal node,
    if any, and are marked truncated.
    """
    graph = new_graph(query)
    records: list[CycleRecord] = []
    while not graph.is_terminal and len(records) < config.t_max:
        cycle = len(records)
        assignment = shape_memory(graph, config.energy)
        bundle = render_context(graph, assignment, config.instruction)
        raw, parsed = _act_and_parse(policy, bundle, ())
        action = parsed.action
        if isinstance(action, Memorize):
            raise IllegalTransition("expected retrieve or answer, got memorize")
        try:
            apply_action(graph, action)
        except GraphError as exc:
            raise PolicyProtocolError(
                f"policy action rejected at cycle {cycle}: {exc}"
            ) from exc
        record = CycleRecord(
            cycle=cycle,
            step=assignment.step,
            prompt_digest=bundle.digest(),
            prompt_chars=bundle.char_count(),
            response=raw,
            action=action_payload(action),
            kind=_action_kind(action),
            node_index=len(graph.nodes) - 1,
            assignment=assignment,
        )
        if isinstance(action, Retrieve):
            observations = tuple(
                search(corpus, action.query, config.search_k, n_frames=config.n_frames)
            )
            followup = (
                ("assistant", raw),
                ("user", render_observation(observations) + "\n" + MEMORIZE_PROMPT),
            )
            raw2, parsed2 = _act_and_parse(policy, bundle, followup)
            if not isinstance(parsed2.action, Memorize):
                raise IllegalTransition(f"expected memorize, got {_action_kind(parsed2.action)}")
            apply_action(graph, parsed2.action, observations)
            record = replace(
                record,
                observations=observations,
                memorize_prompt_chars=_conversation_chars(bundle, followup),
                memorize_response=raw2,
                memorize_action=action_payload(parsed2.action),
            )
        records.append(record)
    return Trajectory(records=records, graph=graph)
