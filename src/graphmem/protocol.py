"""Wire protocol for agent turns.

A reply is a tag envelope: optional reasoning inside ``<thinking>`` tags
followed by exactly one JSON tool call inside ``<tool_call>`` tags, e.g.::

    <thinking>need the director</thinking>
    <tool_call>{"name": "add_search_node", "arguments": {"id": "director",
    "parent_ids": ["root"], "query": "who directed X"}}</tool_call>

Three tools exist: ``add_search_node`` (spawn a retrieval step),
``add_answer_node`` (finish the episode), and ``summarize_and_memorize``
(close a retrieval step by summarizing the results and judging every
retrieved item).  Parsing is lenient where real model output is noisy
(missing thinking and trailing text are tolerated) and strict on the payload
shape.  Serialization is canonical: sorted keys, UTF-8, timestamps at one
decimal place; any serialized action reparses to an equal action.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal
from typing import TYPE_CHECKING, Iterable, Union

from .canon import JSON_TYPE_NAMES, canonical_dumps, is_json_type, parse_json
from .energy import is_priority
from .errors import DomainError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .energy import BudgetAssignment
    from .graph import MemoryGraph
    from .retrieval import Observation

TOOL_SEARCH = "add_search_node"
TOOL_ANSWER = "add_answer_node"
TOOL_MEMORIZE = "summarize_and_memorize"

WARN_TRAILING_TEXT = "trailing-text"
WARN_PRIORITY_CLAMPED = "priority-clamped"
# key timestamps in replies must be below this
_TIMESTAMP_LIMIT_S = 1e27
# quantizes any finite float to tenths: the largest has 309 integer digits,
# where the default context holds 28 digits in all
_TENTHS_CONTEXT = Context(prec=310)


class ProtocolError(DomainError):
    pass


class MissingToolCall(ProtocolError):
    pass


class MalformedPayload(ProtocolError):
    pass


class UnknownTool(ProtocolError):
    pass


class SchemaViolation(ProtocolError):
    pass


class StaleAssignment(ProtocolError):
    pass


def _half_up_tenths(seconds: float) -> Decimal:
    return Decimal(repr(float(seconds))).quantize(
        Decimal("0.1"), rounding=ROUND_HALF_UP, context=_TENTHS_CONTEXT
    )


def quantize_timestamp(seconds: float) -> float:
    """Quantize to one decimal place, rounding halves up."""
    return float(_half_up_tenths(seconds))


def format_timestamp(seconds: float) -> str:
    """Render a video timestamp as ``<12.0 seconds>`` (one decimal,
    half-up rounding)."""
    if seconds < 0:
        raise ValueError(f"timestamp must be non-negative, got {seconds!r}")
    return f"<{_half_up_tenths(seconds)} seconds>"


@dataclass(frozen=True)
class MemorizeDecision:
    """Judgment for one retrieved item: keep-or-drop, video keyframes of
    interest, and a 1-5 relevance score.  Timestamps are stored at the wire
    resolution (one decimal place) so round-trips are exact."""

    information_id: str
    is_useful: bool
    key_timestamps_s: tuple[float, ...] = ()
    priority_score: int = 3

    def __post_init__(self) -> None:
        if not self.information_id:
            raise ValueError("information_id must be non-empty")
        if not is_priority(self.priority_score):
            raise ValueError(f"priority_score must be an integer in [1, 5], got {self.priority_score!r}")
        quantized = []
        for ts in self.key_timestamps_s:
            if not 0 <= ts < _TIMESTAMP_LIMIT_S:
                raise ValueError(
                    f"key timestamp must be >= 0 and below {_TIMESTAMP_LIMIT_S:g}, got {ts!r}"
                )
            quantized.append(quantize_timestamp(ts))
        object.__setattr__(self, "key_timestamps_s", tuple(quantized))


@dataclass(frozen=True)
class Retrieve:
    title: str
    parent_titles: tuple[str, ...]
    query: str

    def __post_init__(self) -> None:
        if not self.title:
            raise ValueError("title must be non-empty")
        if not self.parent_titles:
            raise ValueError("at least one parent title is required")
        if not self.query.strip():
            raise ValueError("query must be non-empty")


@dataclass(frozen=True)
class Memorize:
    summary: str
    decisions: tuple[MemorizeDecision, ...] = ()


@dataclass(frozen=True)
class Answer:
    parent_titles: tuple[str, ...]
    answer: str

    def __post_init__(self) -> None:
        if not self.parent_titles:
            raise ValueError("at least one parent title is required")
        if not self.answer.strip():
            raise ValueError("answer must be non-empty")


Action = Union[Retrieve, Memorize, Answer]


@dataclass(frozen=True)
class ParsedResponse:
    thinking: str
    action: Action
    warnings: tuple[str, ...] = ()


_THINKING_RE = re.compile(r"<thinking>(.*?)</thinking>", re.DOTALL)
_TOOL_CALL_RE = re.compile(r"<tool_call>(.*?)</tool_call>", re.DOTALL)
_ENVELOPE_TAGS = ("<thinking>", "</thinking>", "<tool_call>", "</tool_call>")
_TAG_IN_THINKING_RE = re.compile(r"</?(?:thinking|tool_call)>")


def _require(args: dict, key: str, kind: type, *, allow_empty: bool = False):
    if key not in args:
        raise SchemaViolation(f"missing required field {key!r}")
    value = args[key]
    if not is_json_type(value, kind):
        raise SchemaViolation(f"field {key!r} must be {JSON_TYPE_NAMES[kind]}")
    if kind is str and not allow_empty and not value.strip():
        raise SchemaViolation(f"field {key!r} must be non-empty")
    return value


def _parent_titles(args: dict) -> tuple[str, ...]:
    if "parent_ids" not in args:
        raise SchemaViolation("missing required field 'parent_ids'")
    value = args["parent_ids"]
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, list) or not value \
            or not all(isinstance(v, str) and v for v in value):
        raise SchemaViolation("field 'parent_ids' must be a non-empty list of node ids")
    return tuple(value)


def _parse_priority(entry: dict, warnings: list[str]) -> int:
    if "priority_score" not in entry:
        raise SchemaViolation("missing required field 'priority_score'")
    value = entry["priority_score"]
    if is_json_type(value, float):  # a finite number; 4.0 stands for 4
        if value % 1:
            raise SchemaViolation("field 'priority_score' must be an integer")
        value = int(value)
    elif not is_json_type(value, int):  # an integer too large for a float is clamped
        raise SchemaViolation("field 'priority_score' must be a number")
    if not 1 <= value <= 5:
        warnings.append(WARN_PRIORITY_CLAMPED)
        value = min(5, max(1, value))
    return value


def _parse_timestamps(entry: dict) -> tuple[float, ...]:
    value = entry.get("key_timestamp", [])
    if not is_json_type(value, list):
        value = [value]  # one timestamp
    out = []
    for ts in value:
        if not (is_json_type(ts, float) and 0 <= ts < _TIMESTAMP_LIMIT_S):
            raise SchemaViolation(
                f"key timestamps must be numbers >= 0 and below {_TIMESTAMP_LIMIT_S:g}"
            )
        out.append(float(ts))
    return tuple(out)


def _parse_memorize(args: dict, warnings: list[str]) -> Memorize:
    summary = _require(args, "summarize", str, allow_empty=True)
    entries = args.get("memorize", [])
    if not isinstance(entries, list):
        raise SchemaViolation("field 'memorize' must be a list")
    decisions = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise SchemaViolation("memorize entries must be objects")
        decisions.append(
            MemorizeDecision(
                information_id=_require(entry, "information_id", str),
                is_useful=_require(entry, "is_useful", bool),
                key_timestamps_s=_parse_timestamps(entry),
                priority_score=_parse_priority(entry, warnings),
            )
        )
    return Memorize(summary=summary, decisions=tuple(decisions))


def parse_response(text: str) -> ParsedResponse:
    """Extract the first thinking block and the first tool call from raw
    model output.

    Never crashes on arbitrary input: every failure mode is a typed error.
    Unknown payload keys are ignored; non-whitespace after the closing tool
    tag is tolerated and flagged.
    """
    warnings: list[str] = []
    thinking = ""
    scan = text
    thinking_match = _THINKING_RE.search(text)
    if thinking_match:
        thinking = thinking_match.group(1).strip()
        # Blank the span so tool-call text inside the thinking block cannot
        # be mistaken for the envelope.
        scan = (
            text[: thinking_match.start()]
            + " " * (thinking_match.end() - thinking_match.start())
            + text[thinking_match.end():]
        )
    call_match = _TOOL_CALL_RE.search(scan)
    if call_match is None:
        raise MissingToolCall("no complete <tool_call> envelope found")
    payload_text = call_match.group(1)
    try:
        payload = parse_json(payload_text)
    except json.JSONDecodeError as exc:
        raise MalformedPayload(
            f"tool call payload is not valid JSON: {exc.msg} "
            f"(at offset {call_match.start(1) + exc.pos})"
        ) from exc
    if not isinstance(payload, dict):
        raise MalformedPayload("tool call payload must be a JSON object")
    if "name" not in payload:
        raise SchemaViolation("payload missing 'name'")
    name = payload["name"]
    if not isinstance(name, str):
        raise SchemaViolation("field 'name' must be a string")
    if "arguments" not in payload:
        raise SchemaViolation("payload missing 'arguments'")
    args = payload["arguments"]
    if not isinstance(args, dict):
        raise SchemaViolation("field 'arguments' must be an object")

    if name == TOOL_SEARCH:
        action: Action = Retrieve(
            title=_require(args, "id", str),
            parent_titles=_parent_titles(args),
            query=_require(args, "query", str),
        )
    elif name == TOOL_ANSWER:
        action = Answer(
            parent_titles=_parent_titles(args),
            answer=_require(args, "answer", str),
        )
    elif name == TOOL_MEMORIZE:
        action = _parse_memorize(args, warnings)
    else:
        raise UnknownTool(f"unknown tool {name!r}")

    if scan[call_match.end():].strip():
        warnings.append(WARN_TRAILING_TEXT)
    return ParsedResponse(thinking=thinking, action=action, warnings=tuple(warnings))


def action_payload(action: Action) -> dict:
    if isinstance(action, Retrieve):
        return {
            "name": TOOL_SEARCH,
            "arguments": {
                "id": action.title,
                "parent_ids": list(action.parent_titles),
                "query": action.query,
            },
        }
    if isinstance(action, Answer):
        return {
            "name": TOOL_ANSWER,
            "arguments": {
                "parent_ids": list(action.parent_titles),
                "answer": action.answer,
            },
        }
    if isinstance(action, Memorize):
        return {
            "name": TOOL_MEMORIZE,
            "arguments": {
                "summarize": action.summary,
                "memorize": [
                    {
                        "information_id": d.information_id,
                        "is_useful": d.is_useful,
                        "key_timestamp": list(d.key_timestamps_s),
                        "priority_score": d.priority_score,
                    }
                    for d in action.decisions
                ],
            },
        }
    raise TypeError(f"not an action: {action!r}")


def serialize_action(action: Action, thinking: str = "") -> str:
    """Canonical envelope for an action.  ``parse_response`` applied to the
    result yields a structurally equal action.

    Envelope tag literals occurring inside field values are escaped
    (``<`` becomes ``\\u003c`` in the JSON payload) or defanged (leading
    ``<`` stripped inside the thinking text) so extraction stays unambiguous.
    """
    body = canonical_dumps(action_payload(action))
    for tag in _ENVELOPE_TAGS:
        body = body.replace(tag, "\\u003c" + tag[1:])
    safe_thinking = _TAG_IN_THINKING_RE.sub(lambda m: m.group()[1:], thinking)
    return f"<thinking>{safe_thinking}</thinking><tool_call>{body}</tool_call>"


@dataclass(frozen=True)
class PromptBundle:
    """Everything the policy sees for one turn: the system instruction and
    the user message, which holds the query, the linearized graph and the
    retained memory attachments in ranking order."""

    instruction: str
    user: str

    def user_text(self) -> str:
        return self.user

    def text(self) -> str:
        """The whole prompt, whose digest and length a cycle record keeps."""
        return self.instruction.rstrip("\n") + "\n\n" + self.user


def render_context(
    graph: "MemoryGraph",
    assignment: "BudgetAssignment",
    instruction: str,
) -> PromptBundle:
    """Compose the policy prompt from the current graph and the latest
    shaping result.  Rejects assignments whose step stamp does not match the
    graph (the graph mutated since shaping)."""
    if assignment.step != graph.step:
        raise StaleAssignment(
            f"assignment shaped at step {assignment.step}, graph is at step {graph.step}"
        )
    lines = [
        f"- item {ordinal}: budget {assignment.budgets[ordinal]} tokens, "
        f"ref {graph.memory_bank[ordinal].payload_ref}"
        for ordinal in assignment.retained
    ] or ["(empty)"]
    user = (
        f"### User Query\n{graph.root_query}\n\n### Agent Action Graph\n"
        + graph.linearize().rstrip("\n")
        + "\n\n### Multimodal Memory Bank\n" + "\n".join(lines) + "\n"
    )
    return PromptBundle(instruction, user)


def render_observation(observations: Iterable["Observation"]) -> str:
    """Deterministic text block listing each retrieved item under its stable
    id ("Text 1", "Image 1", "Video 1", ...).  Video clips list their sampled
    frame timestamps.  The ids listed here are exactly what a memorize
    decision's ``information_id`` must echo."""
    lines = []
    for obs in observations:
        header = f"{obs.id} (source {obs.source_id}, score {obs.score:.6f})"
        if obs.frames:
            span = (
                f"clip {format_timestamp(obs.clip_start_s)} to "
                f"{format_timestamp(obs.clip_end_s)}"
            )
            lines.append(f"{header} [{span}]: {obs.content}")
            stamps = ", ".join(format_timestamp(ts) for ts, _ in obs.frames)
            lines.append(f"  frames: {stamps}")
        else:
            lines.append(f"{header}: {obs.content}")
    body = "\n".join(lines) if lines else "(no results)"
    return f"### Retrieved Multimodal Information\n{body}\n"


DEFAULT_INSTRUCTION = """\
You are a research assistant that answers a user's question by building a
directed acyclic graph of retrieval steps.  The graph starts with a root node
(id "root") holding the original question.  On every turn you take exactly
one action.

Node types:
- root: the user's original question (already present).
- search: one retrieval step, with a unique short id, one or more parent ids,
  and the query string sent to the search engine.
- answer: the final node carrying the complete answer; it ends the episode.

Tools:
1. add_search_node -- spawn a retrieval step.  Arguments: "id" (unique short
   descriptive title), "parent_ids" (list of existing node ids this step
   builds on), "query" (the search string; make it substantially different
   from earlier queries).
2. add_answer_node -- finish.  Arguments: "parent_ids" (nodes supporting the
   answer), "answer" (the complete final answer).
3. summarize_and_memorize -- must be called after every add_search_node, even
   when the retrieved results are entirely irrelevant.  Arguments:
   "summarize" (1-3 sentence factual synthesis of what the results contribute
   to the question; say so explicitly if nothing is relevant) and "memorize"
   (one entry per retrieved item: {"information_id": the offered id such as
   "Text 1", "is_useful": true/false, "key_timestamp": [seconds...] for video
   items else [], "priority_score": 1 (marginal) to 5 (critical)}).

Reply with your reasoning inside <thinking></thinking> tags followed by
exactly one JSON tool call inside <tool_call></tool_call> tags:

<thinking>
your reasoning
</thinking>
<tool_call>
{"name": <function-name>, "arguments": <args-json-object>}
</tool_call>
"""

MEMORIZE_PROMPT = """\
### Memorize
The search results for your query are shown above.  Call
summarize_and_memorize now: give a brief (1-3 sentence) factual summary of
what these results contribute to the user's question, and judge every
retrieved item (is_useful, key_timestamp for video items, priority_score 1-5).
If nothing is relevant, state that in the summary and mark the items
accordingly.
"""

FORMAT_REMINDER = """\
Your previous reply could not be parsed.  Respond again using the required
format: your reasoning inside <thinking></thinking> tags, then exactly one
tool call inside <tool_call></tool_call> tags containing a JSON object with
"name" and "arguments".
"""
