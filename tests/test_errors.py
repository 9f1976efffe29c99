"""A domain error is its class and its message.

The CLI prints the class name as the error code, so the set of classes is
the set of codes a user can see; and since no class takes an argument
beyond its message, every one survives pickling, as an error returned from
a worker process must.
"""

import pickle

import pytest

import graphmem.cli  # noqa: F401  (imports every module that defines an error)
from graphmem.errors import DomainError
from graphmem.protocol import Memorize, UnknownTool, parse_response, serialize_action
from graphmem.runtime import EpisodeConfig, IllegalTransition, ScriptedPolicy, run_episode

# every code an `error [...]` line can name for a domain error
CODES = [
    "AlreadyPopulated", "BadArgument", "BadClipLength", "BadIndex", "BadInputFile",
    "BadItemRef", "BadManifest", "BadPriority", "BadTitle", "ConfigError", "CorruptGraph",
    "CorruptSession", "DomainError", "DuplicateItemId", "DuplicateTitle", "EmptyCorpus",
    "EmptyIndex", "EmptyQuery", "EnergyError", "GraphError", "GraphTerminal",
    "IllegalTransition", "IncompleteGroup", "JudgeError", "MalformedPayload",
    "MisalignedInputs", "MissingToolCall", "NotASearchNode", "PolicyProtocolError",
    "PolicyUnreachable", "ProtocolError", "RetrievalError", "SchemaMismatch",
    "SchemaViolation", "SessionSchemaMismatch", "StaleAssignment", "TrainingError",
    "TranscriptMismatch", "UnknownParent", "UnknownTool",
]


def _domain_errors() -> list[type[DomainError]]:
    found, pending = [DomainError], [DomainError]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return sorted(found, key=lambda cls: cls.__name__)


def _round_trip(exc: Exception) -> None:
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.args == exc.args


def test_every_domain_error_is_a_known_code():
    assert [cls.__name__ for cls in _domain_errors()] == CODES


@pytest.mark.parametrize("cls", _domain_errors(), ids=lambda cls: cls.__name__)
def test_every_domain_error_survives_pickling(cls):
    _round_trip(cls(f"{cls.__name__} message with 'quotes' and é"))


def test_illegal_transition_from_an_episode_survives_pickling(toy_corpus):
    script = [serialize_action(Memorize("s", ()), "t")]
    with pytest.raises(IllegalTransition) as excinfo:
        run_episode(ScriptedPolicy(script), toy_corpus, "query", EpisodeConfig(t_max=3))
    _round_trip(excinfo.value)
    assert str(pickle.loads(pickle.dumps(excinfo.value))) == (
        "expected retrieve or answer, got memorize"
    )


def test_unknown_tool_from_a_parse_survives_pickling():
    with pytest.raises(UnknownTool) as excinfo:
        parse_response('<tool_call>{"name":"fly_to_moon","arguments":{}}</tool_call>')
    _round_trip(excinfo.value)
    assert str(pickle.loads(pickle.dumps(excinfo.value))) == "unknown tool 'fly_to_moon'"
