import json
import random
import sys
import threading
import time
from pathlib import Path

import pytest

from graphmem.canon import canonical_dumps
from graphmem.config import load_config
from graphmem.energy import EnergyParams, shape_memory
from graphmem.graph import (
    AlreadyPopulated,
    CorruptGraph,
    GraphTerminal,
    NodeKind,
    NotASearchNode,
    new_graph,
)
from graphmem.protocol import (
    FORMAT_REMINDER,
    Answer,
    Memorize,
    MemorizeDecision,
    PromptBundle,
    Retrieve,
    SchemaViolation,
    parse_response,
    serialize_action,
)
from graphmem.retrieval import CorpusItem, Modality, Observation, build_corpus
from graphmem.runtime import (
    ChatCompletionsClient,
    CorruptSession,
    EpisodeConfig,
    ExactMatchJudge,
    IllegalTransition,
    JUDGE_SYSTEM_PROMPT,
    JudgeError,
    PolicyProtocolError,
    PolicyUnreachable,
    RemoteJudge,
    RemotePolicy,
    ScriptedPolicy,
    SessionSchemaMismatch,
    apply_action,
    judge_exact,
    load_trajectory,
    run_episode,
    save_trajectory,
)
from helpers import KeepAliveStub, StubChatServer, chat_reply, escape_text

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

DEMO_QUERY = "Who directed the film Solaris Dawn and in which year did it premiere?"


def demo_config() -> EpisodeConfig:
    return EpisodeConfig(
        t_max=10,
        energy=EnergyParams(lambda_decay=0.1, gamma_feedback=0.3, s_total=1000, top_k=3),
    )


def demo_script() -> list[str]:
    return json.loads((FIXTURES / "demo_script.json").read_text(encoding="utf-8"))


def run_demo(toy_corpus, *, config=None, script=None):
    policy = ScriptedPolicy(script or demo_script())
    return run_episode(policy, toy_corpus, DEMO_QUERY, config or demo_config())


class TestRunEpisode:
    def test_demo_matches_golden(self, toy_corpus):
        trajectory = run_demo(toy_corpus)
        trajectory.reward = judge_exact(trajectory.answer_text, "mira chen, 2019")
        expected = (GOLDEN / "demo_trajectory.jsonl").read_text(encoding="utf-8")
        assert trajectory.to_jsonl() == expected

    def test_demo_shape(self, toy_corpus):
        trajectory = run_demo(toy_corpus)
        assert len(trajectory.records) == 3
        assert trajectory.answer_text == "Mira Chen, 2019"
        assert not trajectory.truncated
        kinds = [record.kind for record in trajectory.records]
        assert kinds == ["retrieve", "retrieve", "answer"]
        assert [n.kind.value for n in trajectory.graph.nodes] == [
            "root", "search", "search", "answer",
        ]

    def test_replay_determinism(self, toy_corpus):
        first = run_demo(toy_corpus).to_jsonl()
        second = run_demo(toy_corpus).to_jsonl()
        assert first == second

    def test_truncation_at_t_max(self, toy_corpus):
        config = demo_config()
        config.t_max = 3
        script = json.loads((FIXTURES / "dup_script.json").read_text(encoding="utf-8"))
        trajectory = run_episode(
            ScriptedPolicy(script), toy_corpus, "Which films share a director?", config
        )
        assert trajectory.truncated
        assert trajectory.answer_text is None
        assert len(trajectory.records) == 3

    def test_t_max_one_with_two_search_script(self, toy_corpus):
        config = demo_config()
        config.t_max = 1
        trajectory = run_demo(toy_corpus, config=config)
        assert trajectory.truncated
        assert len(trajectory.records) == 1

    def test_garbage_twice_aborts(self, toy_corpus):
        policy = ScriptedPolicy(["complete nonsense", "still nonsense"])
        with pytest.raises(PolicyProtocolError):
            run_episode(policy, toy_corpus, DEMO_QUERY, demo_config())

    def test_one_retry_recovers(self, toy_corpus):
        script = demo_script()
        script.insert(0, "garbled first try")
        trajectory = run_demo(toy_corpus, script=script)
        assert trajectory.answer_text == "Mira Chen, 2019"

    @pytest.mark.parametrize(
        "stamp", ["1e400", "1" + "0" * 400, "NaN"], ids=["inf", "400-digits", "nan"]
    )
    def test_memorize_reply_with_bad_timestamp_is_retried(self, toy_corpus, stamp):
        script = demo_script()
        good = script[1]
        assert '"key_timestamp":[]' in good
        script.insert(1, good.replace('"key_timestamp":[]', f'"key_timestamp":[{stamp}]', 1))
        trajectory = run_demo(toy_corpus, script=script)
        assert trajectory.answer_text == "Mira Chen, 2019"
        assert trajectory.records[0].memorize_response == good
        assert trajectory.to_jsonl() == run_demo(toy_corpus).to_jsonl()

    def test_unknown_parent_becomes_policy_error(self, toy_corpus):
        script = [
            serialize_action(Retrieve("s", ("no-such-node",), "query"), "t"),
        ]
        with pytest.raises(PolicyProtocolError):
            run_episode(ScriptedPolicy(script), toy_corpus, DEMO_QUERY, demo_config())

    def test_memorize_at_cycle_start_is_illegal(self, toy_corpus):
        script = [serialize_action(Memorize("s", ()), "t")]
        with pytest.raises(IllegalTransition) as excinfo:
            run_episode(ScriptedPolicy(script), toy_corpus, DEMO_QUERY, demo_config())
        assert str(excinfo.value) == "expected retrieve or answer, got memorize"

    @pytest.mark.parametrize(
        "reply, got",
        [(Retrieve("s2", ("root",), "query two"), "retrieve"), (Answer(("root",), "x"), "answer")],
        ids=["retrieve", "answer"],
    )
    def test_retrieve_in_memorize_turn_is_illegal(self, toy_corpus, reply, got):
        script = [
            serialize_action(Retrieve("s1", ("root",), "query one"), "t"),
            serialize_action(reply, "t"),
        ]
        with pytest.raises(IllegalTransition) as excinfo:
            run_episode(ScriptedPolicy(script), toy_corpus, DEMO_QUERY, demo_config())
        assert str(excinfo.value) == f"expected memorize, got {got}"

    def test_unoffered_information_id_rejected(self, toy_corpus):
        script = [
            serialize_action(Retrieve("s1", ("root",), "query one"), "t"),
            serialize_action(
                Memorize("s", (MemorizeDecision("Text 99", True, (), 3),)), "t"
            ),
        ]
        with pytest.raises(SchemaViolation):
            run_episode(ScriptedPolicy(script), toy_corpus, DEMO_QUERY, demo_config())

    def test_state_machine_legality(self, toy_corpus):
        trajectory = run_demo(toy_corpus)
        pattern = "".join(
            {"retrieve": "r", "answer": "a"}[record.kind] for record in trajectory.records
        )
        assert pattern.rstrip("a") == "r" * pattern.count("r")
        assert pattern.count("a") <= 1

    def test_prompt_embeds_current_step_budgets(self, toy_corpus):
        trajectory = run_demo(toy_corpus)
        # each earlier retrieve added one search node, one step
        for record in trajectory.records:
            assert record.assignment.step == record.cycle

    def test_video_keyframes_seeded(self, toy_corpus):
        trajectory = run_demo(toy_corpus)
        frames = [
            item for item in trajectory.graph.memory_bank
            if item.modality.value == "video_frame"
        ]
        assert len(frames) == 1
        assert frames[0].source_timestamp_s == 30.0
        assert frames[0].priority == 4


DIRECTOR_HIT = Observation(
    "Text 1", "doc-director", Modality.TEXT, 0.9, "Solaris Dawn was directed by Mira Chen."
)


def memorize_director(graph):
    """Retrieve, then memorize ``DIRECTOR_HIT`` as bank item 0."""
    apply_action(graph, Retrieve("s", ("root",), "who directed Solaris Dawn film"))
    memorize = Memorize("found it", (MemorizeDecision("Text 1", True, (), 5),))
    apply_action(graph, memorize, (DIRECTOR_HIT,))


class TestApplyAction:
    """One action on a bare graph, with no corpus and no policy."""

    def test_memorize_without_pending(self):
        graph = new_graph(DEMO_QUERY)
        with pytest.raises(NotASearchNode):
            apply_action(graph, Memorize("s", ()))

    def test_retrieve_on_terminal_graph(self):
        graph = new_graph(DEMO_QUERY)
        graph.add_answer_node({"root"}, "done")
        with pytest.raises(GraphTerminal):
            apply_action(graph, Retrieve("s", ("root",), "q"))

    def test_retrieve_then_memorize_populates(self):
        graph = new_graph(DEMO_QUERY)
        apply_action(graph, Retrieve("s", ("root",), "who directed Solaris Dawn film"))
        assert graph.nodes[1].populated is False
        memorize = Memorize("found it", (MemorizeDecision("Text 1", True, (), 5),))
        apply_action(graph, memorize, (DIRECTOR_HIT,))
        assert graph.nodes[1].populated
        assert graph.nodes[1].items == (0,)
        assert graph.memory_bank[0].priority == 5
        assert graph.memory_bank[0].payload_ref == "corpus://doc-director"
        with pytest.raises(AlreadyPopulated):
            apply_action(graph, Memorize("again", ()), (DIRECTOR_HIT,))

    def test_useless_decisions_seed_nothing(self):
        graph = new_graph(DEMO_QUERY)
        apply_action(graph, Retrieve("s", ("root",), "who directed Solaris Dawn film"))
        memorize = Memorize("nothing", (MemorizeDecision("Text 1", False, (), 1),))
        apply_action(graph, memorize, (DIRECTOR_HIT,))
        assert graph.memory_bank == []
        assert graph.nodes[1].items == ()

    @pytest.mark.parametrize(
        "prepare, refusal",
        [
            (lambda graph: None, NotASearchNode),
            (memorize_director, AlreadyPopulated),
            (lambda graph: graph.add_answer_node({"root"}, "done"), GraphTerminal),
        ],
        ids=["root-only", "populated", "answered"],
    )
    def test_refused_memorize_leaves_graph_unchanged(self, prepare, refusal):
        graph = new_graph(DEMO_QUERY)
        prepare(graph)
        before = canonical_dumps(graph.to_dict())
        memorize = Memorize("again", (MemorizeDecision("Text 1", True, (), 4),))
        with pytest.raises(refusal):
            apply_action(graph, memorize, (DIRECTOR_HIT,))
        assert canonical_dumps(graph.to_dict()) == before

    def test_unoffered_information_id_rejected(self):
        graph = new_graph(DEMO_QUERY)
        apply_action(graph, Retrieve("s", ("root",), "who directed Solaris Dawn film"))
        memorize = Memorize("s", (MemorizeDecision("Text 2", True, (), 3),))
        with pytest.raises(SchemaViolation):
            apply_action(graph, memorize, (DIRECTOR_HIT,))
        assert not graph.nodes[1].populated


def short_clip_trajectory(tmp_path: Path) -> Path:
    """An episode over 0.1 s clips that keeps a keyframe at 0.3 s from the
    third clip, whose end is 0.1 + 0.1 + 0.1 = 0.30000000000000004."""
    corpus = build_corpus(
        [CorpusItem("v", Modality.VIDEO, "Solaris Dawn premiere", duration_s=1.0)],
        clip_len_s=0.1,
    )
    keep = MemorizeDecision("Video 3", True, (0.3,), 4)
    script = [
        serialize_action(Retrieve("clips", ("root",), "Solaris Dawn premiere"), "t"),
        serialize_action(Memorize("the third clip", (keep,)), "t"),
        serialize_action(Answer(("clips",), "2019"), "t"),
    ]
    config = load_config(FIXTURES / "demo_config.json").episode_config()
    trajectory = run_episode(ScriptedPolicy(script), corpus, "When did it premiere?", config)
    assert len(trajectory.graph.memory_bank) == 1
    path = tmp_path / "short_clips.jsonl"
    save_trajectory(trajectory, path)
    return path


# each made under tests/fixtures/demo_config.json; the first two by scripts/make_goldens.py
REPLAYS = {
    "demo": lambda tmp_path: GOLDEN / "demo_trajectory.jsonl",
    "dup": lambda tmp_path: FIXTURES / "dup_trajectory.jsonl",
    "short-clips": short_clip_trajectory,
}


@pytest.mark.parametrize("name", sorted(REPLAYS))
def test_records_alone_rebuild_the_graph(tmp_path, name):
    """Shaping and the recorded actions, applied with the recorded
    observations, give every recorded assignment and the saved graph: no
    corpus search and no policy call."""
    path = REPLAYS[name](tmp_path)
    energy = load_config(FIXTURES / "demo_config.json").episode_config().energy
    meta = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    trajectory = load_trajectory(path)
    graph = new_graph(meta["query"])
    for record in trajectory.records:
        assert shape_memory(graph, energy) == record.assignment
        apply_action(graph, parse_response(record.response).action)
        if record.kind == "retrieve":
            memorize = parse_response(record.memorize_response).action
            apply_action(graph, memorize, record.observations)
    assert canonical_dumps(graph.to_dict()) == canonical_dumps(meta["graph"])


class TestJudges:
    def test_exact_match_normalized(self):
        assert judge_exact("Beijing", "beijing") == 1
        assert judge_exact("  Mira  Chen ", "mira chen") == 1

    def test_exact_mismatch(self):
        assert judge_exact("Paris", "Beijing") == 0

    def test_exact_judge_object(self):
        assert ExactMatchJudge().judge("q", "gold", "GOLD") == 1

    def test_remote_judge_true(self):
        with StubChatServer(["<judge>True</judge>"]) as stub:
            judge = RemoteJudge(ChatCompletionsClient(stub.base_url, "judge-model"))
            assert judge.judge("q", "gold", "generated") == 1
            sent = stub.requests[0]
            assert sent["model"] == "judge-model"
            assert "Reference Answer: gold" in sent["messages"][1]["content"]

    def test_remote_judge_false(self):
        with StubChatServer(["I think <judge>False</judge>"]) as stub:
            judge = RemoteJudge(ChatCompletionsClient(stub.base_url, "judge-model"))
            assert judge.judge("q", "gold", "generated") == 0

    def test_remote_judge_unparseable(self):
        with StubChatServer(["no verdict here"]) as stub:
            judge = RemoteJudge(ChatCompletionsClient(stub.base_url, "judge-model"))
            with pytest.raises(JudgeError):
                judge.judge("q", "gold", "generated")

    def test_remote_judge_unreachable(self):
        judge = RemoteJudge(
            ChatCompletionsClient("http://127.0.0.1:1", "judge-model", timeout_s=0.2)
        )
        with pytest.raises(JudgeError):
            judge.judge("q", "gold", "generated")


class TestRemotePolicy:
    def test_end_to_end_over_stub(self, toy_corpus, monkeypatch):
        monkeypatch.setenv("GRAPHMEM_API_TOKEN", "secret-token")
        with StubChatServer(demo_script()) as stub:
            client = ChatCompletionsClient(stub.base_url, "test-model")
            trajectory = run_episode(
                RemotePolicy(client), toy_corpus, DEMO_QUERY, demo_config()
            )
            assert trajectory.answer_text == "Mira Chen, 2019"
            assert len(stub.requests) == 5
            assert stub.auth_headers[0] == "Bearer secret-token"
            first = stub.requests[0]["messages"]
            assert first[0]["role"] == "system"
            assert first[1]["role"] == "user"
            # memorize turn continues the conversation
            third = stub.requests[1]["messages"]
            assert [m["role"] for m in third] == ["system", "user", "assistant", "user"]
            assert "Retrieved Multimodal Information" in third[3]["content"]

    def test_matches_scripted_trajectory(self, toy_corpus):
        with StubChatServer(demo_script()) as stub:
            client = ChatCompletionsClient(stub.base_url, "test-model")
            remote = run_episode(
                RemotePolicy(client), toy_corpus, DEMO_QUERY, demo_config()
            )
        scripted = run_demo(toy_corpus)
        assert remote.to_jsonl() == scripted.to_jsonl()


def reference_body(model: str, messages: list[tuple[str, str]]) -> bytes:
    """The request body as ``json.dumps`` writes it, from raw contents."""
    payload = {
        "model": model,
        "messages": [{"role": role, "content": content} for role, content in messages],
    }
    return json.dumps(payload, allow_nan=False).encode("utf-8")


class ReferencePolicy(RemotePolicy):
    """A remote policy that also keeps, for each call, the body
    ``json.dumps`` would write for the conversation it sends."""

    def __init__(self, client: ChatCompletionsClient):
        super().__init__(client)
        self.expected: list[bytes] = []

    def act(self, bundle, followup=()):
        messages = [("system", bundle.instruction), ("user", bundle.user_text()), *followup]
        self.expected.append(reference_body(self.client.model, messages))
        return super().act(bundle, followup)


class TestRequestBody:
    """Request bodies are byte for byte what ``json.dumps`` makes of the
    same conversation."""

    def test_retrieve_memorize_and_retry_turns(self, toy_corpus):
        script = demo_script()
        # an unparseable reply before the first retrieve and before the
        # first memorize, each answered with a format retry
        script = ["garbage"] + script[:1] + ["<tool_call>{</tool_call>"] + script[1:]
        with StubChatServer(script) as stub:
            policy = ReferencePolicy(ChatCompletionsClient(stub.base_url, "test-model"))
            trajectory = run_episode(policy, toy_corpus, DEMO_QUERY, demo_config())
        assert trajectory.answer_text == "Mira Chen, 2019"
        assert len(stub.bodies) == len(script)
        assert stub.bodies == policy.expected
        retry = stub.requests[1]["messages"]
        assert [m["role"] for m in retry] == ["system", "user", "assistant", "user"]
        assert retry[3]["content"] == FORMAT_REMINDER

    def test_fuzzed_policy_and_judge_calls(self):
        rng = random.Random(20)
        cases = 60
        with StubChatServer(["<judge>True</judge>"] * (2 * cases)) as stub:
            expected = []
            for _ in range(cases):
                client = ChatCompletionsClient(stub.base_url, escape_text(rng))
                user = "\n".join(escape_text(rng) for _ in range(rng.randint(1, 4)))
                user += "\n" * rng.randint(0, 2)
                bundle = PromptBundle(escape_text(rng), user)
                followup = [
                    (rng.choice(["assistant", "user"]), escape_text(rng))
                    for _ in range(rng.choice([0, 2, 4]))
                ]
                RemotePolicy(client).act(bundle, followup)
                expected.append(reference_body(client.model, [
                    ("system", bundle.instruction), ("user", bundle.user_text()), *followup,
                ]))
                query, gold, answer = (escape_text(rng) for _ in range(3))
                assert RemoteJudge(client).judge(query, gold, answer) == 1
                graded = f"Query: {query}\nReference Answer: {gold}\nGenerated Answer: {answer}"
                expected.append(reference_body(
                    client.model, [("system", JUDGE_SYSTEM_PROMPT), ("user", graded)]
                ))
                client.close()
        assert stub.bodies == expected


class TestChatCompletionsClient:
    MESSAGES = [("user", "hi")]

    @pytest.fixture
    def connect(self):
        clients = []

        def connect(stub: KeepAliveStub, **kwargs) -> ChatCompletionsClient:
            client = ChatCompletionsClient(stub.base_url, "test-model", timeout_s=5, **kwargs)
            clients.append(client)
            return client

        yield connect
        for client in clients:
            client.close()

    def test_calls_reuse_one_connection(self, connect):
        with KeepAliveStub(lambda n: (200, chat_reply(f"reply {n}"))) as stub:
            client = connect(stub)
            assert client.complete(self.MESSAGES) == "reply 0"
            assert client.complete(self.MESSAGES) == "reply 1"
        assert stub.connections == 1
        assert stub.headers[0]["Content-Type"] == "application/json"

    def test_reconnects_once_after_idle_close(self, connect):
        with KeepAliveStub(lambda n: (200, chat_reply(f"reply {n}"), "close")) as stub:
            client = connect(stub)
            assert client.complete(self.MESSAGES) == "reply 0"
            # the server has closed the kept-alive connection; the client
            # finds out only when it sends on it
            assert client.complete(self.MESSAGES) == "reply 1"
        assert stub.connections == 2
        assert len(stub.headers) == 2

    @pytest.mark.parametrize("good_replies", [0, 1])
    def test_reset_connections_unreachable_after_two_attempts(self, connect, good_replies):
        def respond(n: int):
            return (200, chat_reply("ok")) if n < good_replies else None

        with KeepAliveStub(respond) as stub:
            client = connect(stub)
            for _ in range(good_replies):
                assert client.complete(self.MESSAGES) == "ok"
            with pytest.raises(PolicyUnreachable):
                client.complete(self.MESSAGES)
        # a fresh connection that fails is not retried; a reused one once
        attempts = len(stub.headers) - good_replies
        assert attempts == 1 + good_replies
        assert stub.connections == 1 + good_replies

    def test_auth_header_only_when_token_set(self, connect, monkeypatch):
        monkeypatch.delenv("GRAPHMEM_TEST_TOKEN", raising=False)
        with KeepAliveStub(lambda n: (200, chat_reply("ok"))) as stub:
            client = connect(stub, token_env="GRAPHMEM_TEST_TOKEN")
            client.complete(self.MESSAGES)
            monkeypatch.setenv("GRAPHMEM_TEST_TOKEN", "secret")
            client.complete(self.MESSAGES)
        assert "Authorization" not in stub.headers[0]
        assert stub.headers[1]["Authorization"] == "Bearer secret"

    @pytest.mark.parametrize(
        "answer, error",
        [
            ((500, b"overloaded"), PolicyUnreachable),
            ((404, chat_reply("ok")), PolicyUnreachable),
            ((200, b"<html>"), PolicyProtocolError),
            ((200, b'{"choices": []}'), PolicyProtocolError),
            ((200, b"[" * 30_000), PolicyProtocolError),
        ],
        ids=["500", "404", "not-json", "no-choices", "nested-30000-deep"],
    )
    def test_bad_answers_are_typed(self, connect, answer, error):
        with KeepAliveStub(lambda n: answer) as stub:
            with pytest.raises(error):
                connect(stub).complete(self.MESSAGES)

    def test_threads_share_one_client(self, connect):
        def respond(n: int):
            time.sleep(0.002)
            return 200, chat_reply(f"reply {n}")

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with KeepAliveStub(respond) as stub:
                client = connect(stub)
                replies: list[str] = []

                def worker() -> None:
                    for _ in range(5):
                        replies.append(client.complete(self.MESSAGES))

                threads = [threading.Thread(target=worker) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch)
        assert sorted(replies) == sorted(f"reply {n}" for n in range(30))
        assert stub.connections == 6  # one per thread

    @pytest.mark.parametrize(
        "url",
        ["ftp://127.0.0.1", "127.0.0.1:8000", "http://host:port", "http://\xe9..x:1",
         "http://\udcff:1"],
    )
    def test_bad_url_is_typed(self, url):
        with pytest.raises(PolicyUnreachable):
            ChatCompletionsClient(url, "test-model")

    def test_host_valid_as_idna_accepted(self):
        ChatCompletionsClient("http://\xe9.x:1", "test-model")


def golden_with_meta(tmp_path, key, value) -> Path:
    """The demo golden with its meta line's ``key`` set to ``value``."""
    lines = (GOLDEN / "demo_trajectory.jsonl").read_text(encoding="utf-8").splitlines()
    meta = json.loads(lines[0])
    meta[key] = value
    path = tmp_path / "edited.jsonl"
    path.write_text("\n".join([json.dumps(meta)] + lines[1:]) + "\n", encoding="utf-8")
    return path


class TestSessions:
    """The trajectory reader's typed errors."""

    def test_future_schema_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"kind": "meta", "schema": "trajectory/99"}\n', encoding="utf-8")
        with pytest.raises(SessionSchemaMismatch):
            load_trajectory(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("query", "Who wrote Solaris Dawn?"),
            ("answer", "Mira Chen"),
            ("answer", None),
            ("truncated", True),
            ("truncated", 0),
        ],
        ids=["query", "answer", "answer-null", "truncated", "truncated-0"],
    )
    def test_meta_disagreeing_with_graph_rejected(self, tmp_path, key, value):
        with pytest.raises(CorruptSession, match="disagrees with its graph"):
            load_trajectory(golden_with_meta(tmp_path, key, value))

    @pytest.mark.parametrize("reward", [None, 0, 1])
    def test_reward_null_0_or_1_accepted(self, tmp_path, reward):
        assert load_trajectory(golden_with_meta(tmp_path, "reward", reward)).reward is reward

    @pytest.mark.parametrize("reward", [True, 1.0, -1, [1]], ids=["true", "1.0", "-1", "list"])
    def test_reward_of_another_type_or_value_rejected(self, tmp_path, reward):
        with pytest.raises(CorruptSession, match="reward"):
            load_trajectory(golden_with_meta(tmp_path, "reward", reward))

    @pytest.mark.parametrize("graph", [[], "x", 3], ids=["list", "string", "number"])
    def test_graph_not_an_object_rejected(self, tmp_path, graph):
        with pytest.raises(CorruptGraph, match="JSON object"):
            load_trajectory(golden_with_meta(tmp_path, "graph", graph))

    def test_corrupt_file_rejected(self, toy_corpus, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        meta = run_demo(toy_corpus).to_jsonl().splitlines()[0]
        path.write_text(meta + "\n{ not json\n", encoding="utf-8")
        with pytest.raises(CorruptSession):
            load_trajectory(path)


class TestTrajectoryFiles:
    def test_save_load_round_trip(self, toy_corpus, tmp_path):
        trajectory = run_demo(toy_corpus)
        trajectory.reward = 1
        path = tmp_path / "t.jsonl"
        save_trajectory(trajectory, path)
        loaded = load_trajectory(path)
        assert loaded.to_jsonl() == trajectory.to_jsonl()
        assert loaded.reward == 1
        assert loaded.graph.critical_path() == trajectory.graph.critical_path()

    def test_terminal_record_is_answer(self, toy_corpus):
        trajectory = run_demo(toy_corpus)
        assert trajectory.records[-1].kind == "answer"
        answer_node = trajectory.graph.nodes[trajectory.records[-1].node_index]
        assert answer_node.kind is NodeKind.ANSWER
