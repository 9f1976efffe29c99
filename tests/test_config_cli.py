import http.client
import json
import os
import random
import resource
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from graphmem.canon import canonical_dumps
from graphmem.cli import main
from graphmem.config import Config, ConfigError, dump_config, load_config
from graphmem.protocol import Answer, Memorize, Retrieve, serialize_action
from graphmem.retrieval import CorpusItem, Modality, build_corpus, save_corpus, search
from graphmem.runtime import load_trajectory
from helpers import KeepAliveStub, chain_script, chat_reply, corpus_record, pack_array

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

DEMO_QUERY = "Who directed the film Solaris Dawn and in which year did it premiere?"


def write_demo_config(tmp_path, **overrides) -> Path:
    config = {
        "lambda_decay": 0.1,
        "gamma_feedback": 0.3,
        "s_total": 1000,
        "top_k": 3,
        "t_max": 10,
        "search_k": 5,
        "n_frames": 8,
        "policy_mode": "scripted",
        "policy_script": str(FIXTURES / "demo_script.json"),
        "judge_mode": "exact",
        "corpus_path": str(FIXTURES / "demo_corpus.json"),
        "output_dir": str(tmp_path / "out"),
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestConfig:
    def test_defaults_match_contract(self):
        config = Config()
        assert config.lambda_decay == 0.1
        assert config.gamma_feedback == 0.3
        assert config.s_total == 1_310_720
        assert config.t_max == 20
        assert config.search_k == 5
        assert config.n_frames == 8
        assert config.top_k == 5

    def test_round_trip(self, tmp_path):
        config = Config(lambda_decay=1e-7, t_max=7, uniform_mode=True, corpus_path="c.json")
        path = tmp_path / "c.json"
        path.write_text(dump_config(config), encoding="utf-8")
        assert '"lambda_decay":1e-07,' in path.read_text(encoding="utf-8")
        assert load_config(path) == config

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"t_amx": 3}', encoding="utf-8")
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert "t_amx" in str(excinfo.value)

    def test_missing_required_field_named(self):
        config = Config()
        with pytest.raises(ConfigError) as excinfo:
            config.require("corpus_path")
        assert "corpus_path" in str(excinfo.value)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            Config(policy_mode="telepathy")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("search_k", True),
            ("s_total", 1000.0),
            ("uniform_mode", 1),
            ("gamma_feedback", 10**400),
            ("policy_timeout_s", float("inf")),
            ("policy_timeout_s", 0),
        ],
    )
    def test_value_of_wrong_type_or_range_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            Config(**{field: value})


class TestCorpusBuild:
    def test_build_from_manifests(self, tmp_path, capsys):
        out = tmp_path / "corpus.json"
        code = main([
            "corpus", "build",
            "--manifest-dir", str(FIXTURES / "corpus"),
            "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "3 texts, 0 images, 1 videos, 3 clips indexed (6 searchable units)" in printed
        assert out.read_bytes() == (FIXTURES / "demo_corpus.json").read_bytes()

    def test_rebuild_identical(self, tmp_path):
        out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
        for out in (out1, out2):
            assert main([
                "corpus", "build",
                "--manifest-dir", str(FIXTURES / "corpus"),
                "--out", str(out),
            ]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_dir_is_domain_error(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        code = main([
            "corpus", "build", "--manifest-dir", str(empty), "--out", str(tmp_path / "c.json"),
        ])
        assert code == 1
        assert "EmptyCorpus" in capsys.readouterr().err


class TestRun:
    def test_demo_run_matches_golden(self, tmp_path, capsys):
        config = write_demo_config(tmp_path)
        out = tmp_path / "trajectory.jsonl"
        code = main([
            "run", "--config", str(config),
            "--query", DEMO_QUERY,
            "--gold", "mira chen, 2019",
            "--out", str(out),
        ])
        assert code == 0
        # a single query reports as a batch of one does
        assert capsys.readouterr().out == f"[0] answered after 3 cycles, verdict 1 -> {out}\n"
        assert out.read_bytes() == (GOLDEN / "demo_trajectory.jsonl").read_bytes()

    def test_missing_corpus_path_names_field(self, tmp_path, capsys):
        config = write_demo_config(tmp_path, corpus_path="")
        code = main(["run", "--config", str(config), "--query", DEMO_QUERY])
        assert code == 1
        assert "corpus_path" in capsys.readouterr().err

    def test_t_max_one_truncates_without_verdict(self, tmp_path, capsys):
        config = write_demo_config(tmp_path, t_max=1)
        out = tmp_path / "t.jsonl"
        code = main([
            "run", "--config", str(config),
            "--query", DEMO_QUERY, "--gold", "mira chen, 2019",
            "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "truncated" in printed
        assert "verdict absent" in printed

    def test_set_flag_overrides_config(self, tmp_path, capsys):
        config = write_demo_config(tmp_path)  # file says t_max=10
        out = tmp_path / "t.jsonl"
        code = main([
            "run", "--config", str(config),
            "--query", DEMO_QUERY,
            "--out", str(out),
            "--set", "t_max=1",
        ])
        assert code == 0
        assert "truncated after 1 cycles" in capsys.readouterr().out

    def test_set_flag_rejects_unknown_field(self, tmp_path, capsys):
        config = write_demo_config(tmp_path)
        code = main([
            "run", "--config", str(config), "--query", DEMO_QUERY,
            "--set", "t_amx=1",
        ])
        assert code == 1
        assert "t_amx" in capsys.readouterr().err

    def test_repeated_batch_queries_keep_every_session(self, tmp_path, capsys):
        config = write_demo_config(tmp_path)
        queries = tmp_path / "queries.jsonl"
        queries.write_text((json.dumps({"query": DEMO_QUERY}) + "\n") * 2, encoding="utf-8")
        out = tmp_path / "batch"
        code = main([
            "run", "--config", str(config), "--queries", str(queries), "--out-dir", str(out),
        ])
        assert code == 0
        saved = sorted(p.name for p in out.iterdir())
        assert saved == ["trajectory_0000.jsonl", "trajectory_0001.jsonl"]
        assert (out / saved[0]).read_bytes() == (out / saved[1]).read_bytes()

    def test_batch_reports_an_unwritable_output_and_runs_on(self, tmp_path, capsys):
        config = write_demo_config(tmp_path)
        queries = tmp_path / "queries.jsonl"
        queries.write_text((json.dumps({"query": DEMO_QUERY}) + "\n") * 3, encoding="utf-8")
        out = tmp_path / "batch"
        (out / "trajectory_0001.jsonl").mkdir(parents=True)
        code = main([
            "run", "--config", str(config), "--queries", str(queries), "--out-dir", str(out),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert [line.split(" ", 1)[0] for line in captured.out.splitlines()] == ["[0]", "[2]"]
        (error,) = captured.err.splitlines()
        assert error.startswith("error [IsADirectoryError]: [1] ")

    def test_batch_queries_parallel(self, tmp_path, capsys):
        config = write_demo_config(tmp_path)
        queries = tmp_path / "queries.jsonl"
        queries.write_text(
            json.dumps({"query": DEMO_QUERY, "gold": "mira chen, 2019"}) + "\n",
            encoding="utf-8",
        )
        code = main([
            "run", "--config", str(config),
            "--queries", str(queries),
            "--out-dir", str(tmp_path / "batch"),
            "--parallel", "2",
        ])
        assert code == 0
        produced = tmp_path / "batch" / "trajectory_0000.jsonl"
        assert produced.read_bytes() == (GOLDEN / "demo_trajectory.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "field, code",
        [("instruction_path", "ConfigError"), ("policy_script", "PolicyProtocolError")],
    )
    def test_bad_run_wide_input_is_one_line_before_the_corpus(
        self, tmp_path, capsys, field, code
    ):
        missing = tmp_path / "missing"
        config = write_demo_config(
            tmp_path, corpus_path=str(tmp_path / "no-corpus.json"), **{field: str(missing)}
        )
        queries = tmp_path / "queries.jsonl"
        queries.write_text((json.dumps({"query": DEMO_QUERY}) + "\n") * 3, encoding="utf-8")
        out = tmp_path / "batch"
        exit_code = main([
            "run", "--config", str(config), "--queries", str(queries), "--out-dir", str(out),
        ])
        assert exit_code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # one line for the run, naming the shared input, not the corpus
        (error,) = captured.err.splitlines()
        assert error.startswith(f"error [{code}]: {missing}: "), error
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--out", "t.jsonl"), ("--gold", "mira chen")])
    def test_out_or_gold_with_queries_is_usage_error(self, tmp_path, capsys, flag, value):
        config = write_demo_config(tmp_path)
        queries = tmp_path / "queries.jsonl"
        queries.write_text(json.dumps({"query": DEMO_QUERY}) + "\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main([
                "run", "--config", str(config), "--queries", str(queries),
                "--out-dir", str(tmp_path / "batch"), flag, str(tmp_path / value),
            ])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "queries.jsonl"]

    def test_run_restores_the_sigint_handler(self, tmp_path, capsys):
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            assert main(_run_with(tmp_path)) == 0
            assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
        finally:
            signal.signal(signal.SIGINT, previous)

    @pytest.mark.parametrize("parallel", ["0", "-1"])
    def test_parallel_below_one_is_usage_error(self, tmp_path, capsys, parallel):
        queries = tmp_path / "queries.jsonl"
        queries.write_text(json.dumps({"query": DEMO_QUERY}) + "\n", encoding="utf-8")
        out = tmp_path / "batch"
        with pytest.raises(SystemExit) as excinfo:
            main([
                "run", "--config", str(write_demo_config(tmp_path)), "--queries", str(queries),
                "--out-dir", str(out), "--parallel", parallel,
            ])
        assert excinfo.value.code == 2
        assert "--parallel" in capsys.readouterr().err
        assert not out.exists()


def closed_port_url() -> str:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


class TestRemoteRun:
    def remote_config(self, tmp_path, base_url: str) -> Path:
        return write_demo_config(
            tmp_path, policy_mode="remote", policy_base_url=base_url,
            policy_model="test-model", policy_timeout_s=5,
        )

    @pytest.mark.parametrize(
        "respond, code",
        [
            (None, "PolicyUnreachable"),
            (lambda n: (500, b"overloaded"), "PolicyUnreachable"),
            (lambda n: (200, b"<html>not json</html>"), "PolicyProtocolError"),
            (lambda n: (200, chat_reply(None)), "PolicyProtocolError"),
            (lambda n: (200, b'{"choices": [{"message": {"content": ["x"]}}]}'),
             "PolicyProtocolError"),
        ],
        ids=["closed-port", "http-500", "not-json", "null-content", "list-content"],
    )
    def test_policy_failure_is_one_typed_line(self, tmp_path, capsys, respond, code):
        def run(base_url: str) -> int:
            config = self.remote_config(tmp_path, base_url)
            return main(["run", "--config", str(config), "--query", DEMO_QUERY])

        if respond is None:
            exit_code = run(closed_port_url())
        else:
            with KeepAliveStub(respond) as stub:
                exit_code = run(stub.base_url)
        assert exit_code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [{code}]: ")
        assert err.count("\n") == 1

    def test_judge_reply_without_string_content_keeps_the_episode(self, tmp_path, capsys):
        """A judge whose reply content is null is a judge failure: one
        warning line, and the episode is kept without a reward."""
        out = tmp_path / "t.jsonl"
        with KeepAliveStub(lambda n: (200, chat_reply(None))) as stub:
            config = write_demo_config(
                tmp_path, judge_mode="remote", judge_base_url=stub.base_url,
                judge_model="test-model",
            )
            code = main([
                "run", "--config", str(config), "--query", DEMO_QUERY,
                "--gold", "mira chen, 2019", "--out", str(out),
            ])
        assert code == 0
        (warning,) = capsys.readouterr().err.splitlines()
        assert warning.startswith("warning: [0] judge endpoint failed: chat-completions content")
        assert json.loads(out.read_text(encoding="utf-8").splitlines()[0])["reward"] is None

    def test_one_client_serves_the_whole_batch(self, tmp_path, capsys):
        script = json.loads((FIXTURES / "demo_script.json").read_text(encoding="utf-8"))
        queries = tmp_path / "queries.jsonl"
        queries.write_text((json.dumps({"query": DEMO_QUERY}) + "\n") * 3, encoding="utf-8")
        with KeepAliveStub(lambda n: (200, chat_reply(script[n % len(script)]))) as stub:
            config = self.remote_config(tmp_path, stub.base_url)
            code = main([
                "run", "--config", str(config), "--queries", str(queries),
                "--out-dir", str(tmp_path / "batch"),
            ])
        assert code == 0
        assert len(stub.headers) == 3 * len(script)
        assert stub.connections == 1
        golden = (GOLDEN / "demo_trajectory.jsonl").read_text(encoding="utf-8")
        for index in range(3):
            produced = (tmp_path / "batch" / f"trajectory_{index:04d}.jsonl").read_text(
                encoding="utf-8"
            )
            # the golden was judged; this run had no gold
            assert produced.splitlines()[1:] == golden.splitlines()[1:]

    def test_output_directory_fails_before_any_policy_call(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.mkdir()
        with KeepAliveStub(lambda n: (500, b"unexpected")) as stub:
            config = self.remote_config(tmp_path, stub.base_url)
            code = main([
                "run", "--config", str(config), "--query", DEMO_QUERY, "--out", str(out),
            ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [IsADirectoryError]: ")
        assert err.endswith(f"{str(out)!r}\n")
        assert err.count("\n") == 1
        assert stub.headers == []

    def test_batch_reports_every_failed_episode(self, tmp_path, capsys):
        script = json.loads((FIXTURES / "demo_script.json").read_text(encoding="utf-8"))
        queries = tmp_path / "queries.jsonl"
        queries.write_text((json.dumps({"query": DEMO_QUERY}) + "\n") * 3, encoding="utf-8")

        def respond(n: int):
            # episodes run one after another: the second one's first call fails
            if n == len(script):
                return 500, b"overloaded"
            return 200, chat_reply(script[n % (len(script) + 1)])

        out = tmp_path / "batch"
        with KeepAliveStub(respond) as stub:
            config = self.remote_config(tmp_path, stub.base_url)
            code = main([
                "run", "--config", str(config), "--queries", str(queries), "--out-dir", str(out),
            ])
        assert code == 1
        captured = capsys.readouterr()
        assert [line.split(" ", 1)[0] for line in captured.out.splitlines()] == ["[0]", "[2]"]
        (error,) = captured.err.splitlines()
        assert error.startswith("error [PolicyUnreachable]: [1] ")
        assert sorted(p.name for p in out.iterdir()) == [
            "trajectory_0000.jsonl", "trajectory_0002.jsonl",
        ]


class TestPrune:
    def _positive_and_negative(self, tmp_path):
        """One rewarded rollout with a dead end, one failed rollout that hit
        gold evidence; both from the dead-end script."""
        sys.path.insert(0, str(Path(__file__).parent))
        from test_training import dead_end_script, run_demo
        from graphmem.retrieval import load_corpus
        from graphmem.runtime import save_trajectory

        corpus = load_corpus(FIXTURES / "demo_corpus.json")
        positive = run_demo(corpus, dead_end_script(), reward=1)
        negative = run_demo(corpus, dead_end_script(), reward=0)
        paths = []
        for name, trajectory in [("pos", positive), ("neg", negative)]:
            path = tmp_path / f"{name}.jsonl"
            save_trajectory(trajectory, path)
            paths.append(str(path))
        gold = tmp_path / "gold.json"
        gold.write_text(
            json.dumps(
                {"entries": [{"query": positive.query, "gold_evidence_ids": ["doc-director"]}]}
            ),
            encoding="utf-8",
        )
        return paths, str(gold)

    def test_prune_audit_and_batch(self, tmp_path, capsys):
        paths, gold = self._positive_and_negative(tmp_path)
        batch = tmp_path / "batch.jsonl"
        audit = tmp_path / "audit.txt"
        code = main([
            "prune", "--trajectories", *paths,
            "--gold-manifest", gold,
            "--out-batch", str(batch),
            "--out-audit", str(audit),
        ])
        assert code == 0
        audit_text = audit.read_text(encoding="utf-8")
        assert audit_text.count("dead_end_positive") == 1
        assert "valuable_negative" in audit_text
        lines = [json.loads(line) for line in batch.read_text().strip().splitlines()]
        assert len(lines) == 6
        assert {line["advantage"] for line in lines} == {1.0, -1.0}

    def test_equal_rewards_zero_advantages(self, tmp_path):
        paths, gold = self._positive_and_negative(tmp_path)
        # rewrite the negative rollout as positive so rewards tie
        from graphmem.runtime import load_trajectory, save_trajectory

        trajectory = load_trajectory(paths[1])
        trajectory.reward = 1
        save_trajectory(trajectory, paths[1])
        batch = tmp_path / "batch.jsonl"
        code = main([
            "prune", "--trajectories", *paths,
            "--gold-manifest", gold,
            "--out-batch", str(batch),
        ])
        assert code == 0
        lines = [json.loads(line) for line in batch.read_text().strip().splitlines()]
        assert {line["advantage"] for line in lines} == {0.0}

    @pytest.mark.parametrize("reward", [True, 1.0, 2, "1"], ids=["true", "1.0", "2", "string"])
    def test_reward_not_null_0_or_1_is_corrupt_session(self, tmp_path, capsys, reward):
        lines = (GOLDEN / "demo_trajectory.jsonl").read_text(encoding="utf-8").splitlines()
        meta = json.loads(lines[0])
        meta["reward"] = reward
        path = _write(tmp_path / "t.jsonl", "\n".join([json.dumps(meta)] + lines[1:]) + "\n")
        batch = tmp_path / "b.jsonl"
        assert main(["prune", "--trajectories", path, "--out-batch", str(batch)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [CorruptSession]: ")
        assert err.count("\n") == 1
        assert not batch.exists()

    def test_reprune_byte_identical(self, tmp_path):
        paths, gold = self._positive_and_negative(tmp_path)
        batches = []
        for name in ("b1.jsonl", "b2.jsonl"):
            out = tmp_path / name
            assert main([
                "prune", "--trajectories", *paths,
                "--gold-manifest", gold,
                "--out-batch", str(out),
            ]) == 0
            batches.append(out.read_bytes())
        assert batches[0] == batches[1]


class TestStats:
    def test_fixture_duplicates_and_golden(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "stats", "--trajectories",
            str(GOLDEN / "demo_trajectory.jsonl"),
            str(FIXTURES / "dup_trajectory.jsonl"),
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert [e["duplicate_queries"] for e in report["episodes"]] == [0, 1]
        assert report["summary"]["total_duplicate_queries"] == 1
        assert out.read_bytes() == (GOLDEN / "stats_report.json").read_bytes()

    def test_empty_input_ok(self, capsys):
        assert main(["stats", "--trajectories"]) == 0

    def test_usage_error_exit_code_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run"])  # missing required arguments
        assert excinfo.value.code == 2


@pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"], ids=["NEL", "LS", "PS"])
class TestJsonlLineEnds:
    """canonical_dumps writes U+0085, U+2028 and U+2029 raw inside strings,
    so a JSONL line ends only at "\\n"."""

    def test_trajectory_round_trip_stats_and_prune(self, tmp_path, capsys, char):
        from graphmem.runtime import load_trajectory

        script = json.loads((FIXTURES / "demo_script.json").read_text(encoding="utf-8"))
        script[0] = script[0].replace("The question", f"The {char} question")
        out = tmp_path / "t.jsonl"
        assert main(_run_with(
            tmp_path, policy_script=_write(tmp_path / "s.json", json.dumps(script)),
        ) + ["--gold", "mira chen, 2019", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert char in text
        assert load_trajectory(out).to_jsonl() == text
        assert main(["stats", "--trajectories", str(out)]) == 0
        batch = tmp_path / "batch.jsonl"
        assert main(["prune", "--trajectories", str(out), "--out-batch", str(batch)]) == 0
        assert batch.read_text(encoding="utf-8")
        assert capsys.readouterr().err == ""

    def test_queries_file(self, tmp_path, capsys, char):
        query = f"Who directed {char} Solaris Dawn?"
        line = json.dumps({"query": query}, ensure_ascii=False)
        assert main(_run_batch(tmp_path, f"{line}\n{line}\n")) == 0
        assert capsys.readouterr().err == ""
        for index in range(2):
            path = tmp_path / "batch" / f"trajectory_{index:04d}.jsonl"
            meta = json.loads(path.read_text(encoding="utf-8").split("\n")[0])
            assert meta["query"] == query


class TestConfigDump:
    def test_dump_defaults_round_trip(self, tmp_path, capsys):
        assert main(["config", "dump"]) == 0
        dumped = capsys.readouterr().out
        path = tmp_path / "dumped.json"
        path.write_text(dumped, encoding="utf-8")
        assert load_config(path) == Config()

    def test_out_of_range_value_in_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"lambda_decay": -1}', encoding="utf-8")
        assert main(["config", "dump", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error [ConfigError]: ")
        assert "lambda_decay must be finite and >= 0, got -1" in captured.err


@pytest.mark.parametrize(
    "override, message",
    [
        ("t_max=0", "t_max must be >= 1, got 0"),
        ("top_k=0", "top_k must be >= 1, got 0"),
        ("search_k=0", "search_k must be >= 1, got 0"),
        ("lambda_decay=-1", "lambda_decay must be finite and >= 0, got -1"),
    ],
)
def test_out_of_range_override_is_config_error(tmp_path, capsys, override, message):
    config = write_demo_config(tmp_path)
    code = main(["run", "--config", str(config), "--query", DEMO_QUERY, "--set", override])
    assert code == 1
    assert capsys.readouterr().err == f"error [ConfigError]: {message}\n"


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run_with(tmp_path, **overrides) -> list[str]:
    config = write_demo_config(tmp_path, **overrides)
    return ["run", "--config", str(config), "--query", DEMO_QUERY]


def _run_batch(tmp_path, queries_text: str) -> list[str]:
    config = write_demo_config(tmp_path)
    queries = _write(tmp_path / "queries.jsonl", queries_text)
    return ["run", "--config", str(config), "--queries", queries,
            "--out-dir", str(tmp_path / "batch")]


def _remote_run_with(tmp_path, **overrides) -> list[str]:
    # nothing listens on the discard port; a bad config fails before any call
    return _run_with(
        tmp_path, policy_mode="remote", policy_base_url="http://127.0.0.1:9",
        policy_model="m", **overrides,
    )


def _prune_with_gold(tmp_path, gold_text: str) -> list[str]:
    gold = _write(tmp_path / "gold.json", gold_text)
    return ["prune", "--trajectories", str(GOLDEN / "demo_trajectory.jsonl"),
            "--gold-manifest", gold, "--out-batch", str(tmp_path / "b.jsonl")]


def _build_from_manifest(tmp_path, manifest_text: str) -> list[str]:
    manifests = tmp_path / "manifests"
    manifests.mkdir()
    _write(manifests / "m.json", manifest_text)
    return ["corpus", "build", "--manifest-dir", str(manifests),
            "--out", str(tmp_path / "c.json")]


# an integer literal past the 4,300 digits ``int`` converts from text
HUGE_INT = "1" + "0" * 5000

BAD_INPUTS = {
    "missing config": lambda tmp: ["run", "--config", str(tmp / "none.json"),
                                   "--query", DEMO_QUERY],
    "missing corpus": lambda tmp: _run_with(tmp, corpus_path=str(tmp / "none.json")),
    "missing script": lambda tmp: _run_with(tmp, policy_script=str(tmp / "none.json")),
    "malformed script": lambda tmp: _run_with(
        tmp, policy_script=_write(tmp / "script.json", '["unterminated')
    ),
    "missing instruction": lambda tmp: _run_with(
        tmp, instruction_path=str(tmp / "none.txt")
    ),
    "missing trajectory": lambda tmp: ["stats", "--trajectories", str(tmp / "none.jsonl")],
    "trajectory meta not an object": lambda tmp: [
        "stats", "--trajectories", _write(tmp / "t.jsonl", "[]\n"),
    ],
    "malformed gold manifest": lambda tmp: _prune_with_gold(tmp, "{not json"),
    "gold entry without query": lambda tmp: _prune_with_gold(tmp, '{"entries": [{}]}'),
    "gold ids a string": lambda tmp: _prune_with_gold(
        tmp, '{"entries": [{"query": "q", "gold_evidence_ids": "doc-director"}]}'
    ),
    "gold ids not strings": lambda tmp: _prune_with_gold(
        tmp, '{"entries": [{"query": "q", "gold_evidence_ids": [1]}]}'
    ),
    "gold query not a string": lambda tmp: _prune_with_gold(
        tmp, '{"entries": [{"query": 5, "gold_evidence_ids": ["doc-director"]}]}'
    ),
    "config integer of 5001 digits": lambda tmp: [
        "config", "dump", "--config", _write(tmp / "c.json", '{"s_total": ' + HUGE_INT + "}"),
    ],
    "override integer of 5001 digits": lambda tmp: _run_with(tmp) + [
        "--set", f"s_total={HUGE_INT}",
    ],
    "trajectory reward of 5001 digits": lambda tmp: [
        "stats", "--trajectories", _write(
            tmp / "t.jsonl", (GOLDEN / "demo_trajectory.jsonl").read_text(encoding="utf-8")
            .replace('"reward":1,', f'"reward":{HUGE_INT},', 1),
        ),
    ],
    "corpus without header fields": lambda tmp: [
        "serve", "--corpus", _write(tmp / "c.json", json.dumps({
            key: value for key, value in corpus_record([]).items()
            if key not in ("clip_len_s", "embed_dim", "embed_seed")
        })),
    ],
    "corpus embed_dim not an int": lambda tmp: [
        "serve", "--corpus", _write(
            tmp / "c.json", json.dumps({**corpus_record([]), "embed_dim": "x"}),
        ),
    ],
    "queries line not JSON": lambda tmp: _run_batch(tmp, "not json\n"),
    "queries line without query": lambda tmp: _run_batch(tmp, '{"gold": "x"}\n'),
    "config sets session_dir": lambda tmp: _run_with(tmp, session_dir=str(tmp / "sessions")),
    "config corpus_path not a string": lambda tmp: _run_with(tmp, corpus_path=5),
    "config search_k a bool": lambda tmp: _run_with(tmp, search_k=True),
    "config t_max a float": lambda tmp: _run_with(tmp, t_max=2.5),
    "config policy_timeout_s negative": lambda tmp: _remote_run_with(tmp, policy_timeout_s=-1),
    "config policy_timeout_s nan": lambda tmp: _remote_run_with(
        tmp, policy_timeout_s=float("nan")
    ),
    "config policy_timeout_s a string": lambda tmp: _remote_run_with(
        tmp, policy_timeout_s="abc"
    ),
    "clip length nan": lambda tmp: _build_from_manifest(
        tmp, (FIXTURES / "corpus" / "manifest.json").read_text(encoding="utf-8")
    ) + ["--clip-len", "nan"],
    "clip length inf": lambda tmp: _build_from_manifest(
        tmp, (FIXTURES / "corpus" / "manifest.json").read_text(encoding="utf-8")
    ) + ["--clip-len", "inf"],
    "serve zero frames": lambda tmp: [
        "serve", "--corpus", str(FIXTURES / "demo_corpus.json"), "--n-frames", "0",
    ],
    "serve port above 65535": lambda tmp: [
        "serve", "--corpus", str(FIXTURES / "demo_corpus.json"), "--port", "70000",
    ],
    "serve port negative": lambda tmp: [
        "serve", "--corpus", str(FIXTURES / "demo_corpus.json"), "--port", "-1",
    ],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_file_is_typed_error(tmp_path, capsys, case):
    argv = BAD_INPUTS[case](tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [")
    assert "Traceback" not in err
    assert err.count("\n") == 1, err
    # nothing ran, so nothing was written
    assert not (tmp_path / "batch").exists()
    assert not (tmp_path / "b.jsonl").exists()


OS_FAILURES = {
    "run output under a file": (
        lambda tmp, port: _run_with(tmp) + ["--out", str(tmp / "file" / "x" / "t.jsonl")],
        "NotADirectoryError",
        lambda tmp: tmp / "file" / "x",
    ),
    "stats output under a file": (
        lambda tmp, port: ["stats", "--trajectories", str(GOLDEN / "demo_trajectory.jsonl"),
                           "--out", str(tmp / "file" / "x.json")],
        "NotADirectoryError",
        lambda tmp: tmp / "file" / "x.json",
    ),
    "serve on a taken port": (
        lambda tmp, port: ["serve", "--corpus", str(FIXTURES / "demo_corpus.json"),
                           "--port", str(port)],
        "OSError",
        None,
    ),
}


@pytest.mark.parametrize("case", sorted(OS_FAILURES))
def test_os_failure_is_one_typed_line(tmp_path, capsys, case):
    argv_for, code, target_for = OS_FAILURES[case]
    (tmp_path / "file").write_text("", encoding="utf-8")
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        assert main(argv_for(tmp_path, taken.getsockname()[1])) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [{code}]: ")
    assert err.count("\n") == 1
    if target_for is not None:
        assert err.endswith(f"{str(target_for(tmp_path))!r}\n")
        assert ".tmp" not in err


def _run_capped(argv: list[str]) -> subprocess.CompletedProcess:
    """Run graphmem in a child held to 1 GiB of address space and 60 s, so
    that a command growing without bound fails rather than filling memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    root = Path(__file__).parent.parent
    return subprocess.run(
        [sys.executable, "-m", "graphmem.cli", *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=cap,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )


# each case's argv, and the id of the video it cannot segment
UNBOUNDED_CLIPS = {
    "corpus build of a 1e20 s video": (lambda tmp: _build_from_manifest(tmp, json.dumps(
        {"items": [{"id": "v", "modality": "video", "content": "c", "duration_s": 1e20}]}
    )), "v"),
    "corpus build in 1e-9 s clips": (lambda tmp: _build_from_manifest(
        tmp, (FIXTURES / "corpus" / "manifest.json").read_text(encoding="utf-8")
    ) + ["--clip-len", "1e-9"], "vid-interview"),
    "run over a corpus of 1e-300 s clips": (lambda tmp: _run_with(tmp, corpus_path=_write(
        tmp / "corpus.json",
        (FIXTURES / "demo_corpus.json").read_text(encoding="utf-8").replace(
            '"clip_len_s":60.0', '"clip_len_s":1e-300'
        ),
    )), "vid-interview"),
}


@pytest.mark.parametrize("case", sorted(UNBOUNDED_CLIPS))
def test_unbounded_clip_count_is_one_typed_line(tmp_path, case):
    argv_for, video_id = UNBOUNDED_CLIPS[case]
    result = _run_capped(argv_for(tmp_path))
    assert result.returncode == 1, result.stderr
    (line,) = result.stderr.splitlines()
    assert line.startswith("error [BadClipLength]: ")
    assert "more than 1000000 clips" in line
    assert line.startswith(f"error [BadClipLength]: {video_id!r}: ")
    assert not (tmp_path / "c.json").exists()


def test_clip_bounds_from_1e27_seconds_run(tmp_path):
    """Clips of a 1e28 s video in 1e27 s clips are searched and shown to
    the policy with their bounds, past the 28 digits of the default
    decimal context."""
    build = _build_from_manifest(tmp_path, json.dumps({"items": [
        {"id": "v", "modality": "video", "content": "harbor at night", "duration_s": 1e28}
    ]})) + ["--clip-len", "1e27"]
    assert _run_capped(build).returncode == 0
    script = _write(tmp_path / "s.json", json.dumps([
        serialize_action(Retrieve("s1", ("root",), "harbor at night"), "search"),
        serialize_action(Memorize("nothing useful", ()), "judge"),
        serialize_action(Answer(("s1",), "none"), "answer"),
    ]))
    out = tmp_path / "t.jsonl"
    result = _run_capped(
        _run_with(tmp_path, corpus_path=str(tmp_path / "c.json"), policy_script=script)
        + ["--out", str(out)]
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    (record, _) = load_trajectory(out).records
    assert max(obs.clip_end_s for obs in record.observations) >= 1e27


def test_score_past_the_float_range_is_one_typed_line(tmp_path):
    """Feedback at gamma 1e308 drives a five-deep chain's scores to inf."""
    script = _write(tmp_path / "chain.json", json.dumps(chain_script(5)))
    result = _run_capped(_run_with(tmp_path, gamma_feedback=1e308, policy_script=script))
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    (line,) = result.stderr.splitlines()
    assert line.startswith("error [EnergyError]: [0] retained scores [inf")


# each command writes its outputs under tmp/new/sub, which does not exist yet
NEW_DIRECTORY_OUTPUTS = {
    "corpus build": (
        lambda tmp, out: ["corpus", "build", "--manifest-dir", str(FIXTURES / "corpus"),
                          "--out", str(out / "corpus.json")],
        ["corpus.json"],
    ),
    "run": (lambda tmp, out: _run_with(tmp) + ["--out", str(out / "t.jsonl")], ["t.jsonl"]),
    "stats": (
        lambda tmp, out: ["stats", "--trajectories", str(GOLDEN / "demo_trajectory.jsonl"),
                          "--out", str(out / "stats.json")],
        ["stats.json"],
    ),
    "prune": (
        lambda tmp, out: ["prune", "--trajectories", str(GOLDEN / "demo_trajectory.jsonl"),
                          "--out-batch", str(out / "batch" / "b.jsonl"),
                          "--out-audit", str(out / "audit" / "a.txt")],
        ["audit/a.txt", "batch/b.jsonl"],
    ),
}


@pytest.mark.parametrize("case", sorted(NEW_DIRECTORY_OUTPUTS))
def test_output_into_a_new_directory(tmp_path, capsys, case):
    argv_for, expected = NEW_DIRECTORY_OUTPUTS[case]
    out = tmp_path / "new" / "sub"
    assert main(argv_for(tmp_path, out)) == 0
    assert capsys.readouterr().err == ""
    written = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
    assert written == expected


DEEP = "[" * 30_000

DEEPLY_NESTED_INPUTS = {
    "config": (lambda tmp: ["config", "dump", "--config", _write(tmp / "c.json", DEEP)],
               "ConfigError"),
    "manifest": (lambda tmp: _build_from_manifest(tmp, DEEP), "BadManifest"),
    "corpus": (lambda tmp: ["serve", "--corpus", _write(tmp / "c.json", DEEP)], "BadManifest"),
    "trajectory meta": (
        lambda tmp: ["stats", "--trajectories", _write(tmp / "t.jsonl", DEEP + "\n")],
        "CorruptSession",
    ),
    "trajectory record": (
        lambda tmp: ["stats", "--trajectories", _write(
            tmp / "t.jsonl",
            (GOLDEN / "demo_trajectory.jsonl").read_text(encoding="utf-8") + DEEP + "\n",
        )],
        "CorruptSession",
    ),
    "queries": (lambda tmp: _run_batch(tmp, DEEP + "\n"), "BadInputFile"),
    "gold manifest": (lambda tmp: _prune_with_gold(tmp, DEEP), "BadInputFile"),
    "script": (lambda tmp: _run_with(tmp, policy_script=_write(tmp / "s.json", DEEP)),
               "PolicyProtocolError"),
}


@pytest.mark.parametrize("case", sorted(DEEPLY_NESTED_INPUTS))
def test_deeply_nested_input_is_typed_error(tmp_path, capsys, case):
    argv_for, code = DEEPLY_NESTED_INPUTS[case]
    assert main(argv_for(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [{code}]: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["stats", "prune"])
@pytest.mark.parametrize(
    "field", ["cycle", "prompt_chars", "node_index", "memorize_prompt_chars"]
)
def test_count_that_is_not_an_int_is_corrupt_session(tmp_path, capsys, command, field):
    lines = (GOLDEN / "demo_trajectory.jsonl").read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record[field] = str(record[field])
    path = _write(tmp_path / "t.jsonl", "\n".join([lines[0], json.dumps(record)] + lines[2:]))
    out = ["--out", str(tmp_path / "s.json")] if command == "stats" else [
        "--out-batch", str(tmp_path / "b.jsonl")
    ]
    assert main([command, "--trajectories", path, *out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [CorruptSession]: ")
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("[sb].json*"))


def _edit_root_query(lines: list[dict]) -> None:
    lines[0]["query"] = lines[0]["graph"]["root_query"] = 7


def _edit_budgets(lines: list[dict]) -> None:
    assignment = lines[-1]["assignment"]
    assignment["budgets"] = [[ordinal, str(budget)] for ordinal, budget in assignment["budgets"]]


def _swap_budget_pairs(lines: list[dict]) -> None:
    budgets = lines[-1]["assignment"]["budgets"]
    budgets[0], budgets[1] = budgets[1], budgets[0]


# name: (edit of the golden trajectory's parsed lines, the error it gives);
# a fault in the meta line's graph is the graph's own error
EDITED_TRAJECTORIES = {
    "node query 7": (lambda lines: lines[0]["graph"]["nodes"][1].update(query=7), "CorruptGraph"),
    "root query 7": (_edit_root_query, "CorruptGraph"),
    "node title 5": (lambda lines: lines[0]["graph"]["nodes"][1].update(title=5), "CorruptGraph"),
    "populated 1": (
        lambda lines: lines[0]["graph"]["nodes"][1].update(populated=1), "CorruptGraph"
    ),
    "response 5": (lambda lines: lines[1].update(response=5), "CorruptSession"),
    "prompt_digest [1]": (lambda lines: lines[1].update(prompt_digest=[1]), "CorruptSession"),
    "string budgets": (_edit_budgets, "CorruptSession"),
    "retained 7 without a budget": (
        lambda lines: lines[-1]["assignment"].update(retained=[0, 1, 2, 7]), "CorruptSession"
    ),
    "budget pairs swapped": (_swap_budget_pairs, "CorruptSession"),
    "source_id 5": (
        lambda lines: lines[1]["observations"][0].update(source_id=5), "CorruptSession"
    ),
    "score x": (lambda lines: lines[1]["observations"][0].update(score="x"), "CorruptSession"),
    "prompt_chars -5": (lambda lines: lines[1].update(prompt_chars=-5), "CorruptSession"),
    "kind bogus": (lambda lines: lines[1].update(kind="bogus"), "CorruptSession"),
}


@pytest.mark.parametrize("command", ["stats", "prune"])
@pytest.mark.parametrize("case", list(EDITED_TRAJECTORIES))
def test_edited_trajectory_is_one_typed_line(tmp_path, capsys, command, case):
    edit, code = EDITED_TRAJECTORIES[case]
    lines = [json.loads(line) for line in
             (GOLDEN / "demo_trajectory.jsonl").read_text(encoding="utf-8").splitlines()]
    edit(lines)
    path = _write(tmp_path / "t.jsonl", "".join(json.dumps(line) + "\n" for line in lines))
    out = ["--out", str(tmp_path / "s.json")] if command == "stats" else [
        "--out-batch", str(tmp_path / "b.jsonl")
    ]
    assert main([command, "--trajectories", path, *out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [{code}]: ")
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("[sb].json*"))


def _remote_reply_run(tmp, base_url: str) -> list[str]:
    config = write_demo_config(
        tmp, policy_mode="remote", policy_base_url=base_url, policy_model="m",
        policy_timeout_s=5,
    )
    return ["run", "--config", str(config), "--query", DEMO_QUERY]


def _surrogate_script() -> list[str]:
    """The demo script with a lone surrogate in its first reply's thinking,
    which a parsed reply keeps and the trajectory would hold."""
    script = json.loads((FIXTURES / "demo_script.json").read_text(encoding="utf-8"))
    script[0] = script[0].replace("The question", "The \ud800 question")
    return script


def _surrogate_reply(raw: bool):
    """Chat replies of the surrogate script, the lone surrogate escaped in
    the body or written raw (as UTF-8 with surrogates passed)."""
    script = _surrogate_script()

    def respond(n: int):
        body = chat_reply(script[n % len(script)])
        if raw:
            body = body.replace(b"\\ud800", "\ud800".encode("utf-8", "surrogatepass"))
        return 200, body

    return respond


def _bad_tool_call() -> str:
    """The demo's first reply with a lone surrogate escaped in its tool call."""
    first = json.loads((FIXTURES / "demo_script.json").read_text(encoding="utf-8"))[0]
    return first.replace("director-search", "director\\ud800")


# Each input holds a lone UTF-16 surrogate, which no output file could hold;
# the third entry answers chat calls, where the input is a remote reply.
SURROGATE_INPUTS = {
    "manifest content": (
        lambda tmp, url: _build_from_manifest(tmp, json.dumps({
            "schema": "corpus-manifest/1",
            "items": [{"id": "d", "modality": "text", "content": "x\ud800y"}],
        })),
        "BadManifest", None,
    ),
    "scripted reply": (
        lambda tmp, url: _run_with(
            tmp, policy_script=_write(tmp / "s.json", json.dumps(_surrogate_script()))
        ),
        "PolicyProtocolError", None,
    ),
    "scripted tool call": (
        lambda tmp, url: _run_with(
            tmp, policy_script=_write(tmp / "s.json", json.dumps([_bad_tool_call()] * 2))
        ),
        "PolicyProtocolError", None,
    ),
    "queries file": (
        lambda tmp, url: _run_batch(tmp, json.dumps({"query": "q\udfff"}) + "\n"),
        "BadInputFile", None,
    ),
    "query byte": (
        # argv holds the byte 0xff, not UTF-8, as the lone surrogate U+DCFF
        lambda tmp, url: _run_with(tmp)[:-1] + ["Who directed \udcff Solaris Dawn?"],
        "BadArgument", None,
    ),
    "gold byte": (
        lambda tmp, url: _run_with(tmp) + ["--gold", "Mira \udcff Chen"],
        "BadArgument", None,
    ),
    "remote reply escaped": (_remote_reply_run, "PolicyProtocolError", _surrogate_reply(False)),
    "remote reply raw": (_remote_reply_run, "PolicyProtocolError", _surrogate_reply(True)),
}


@pytest.mark.parametrize("case", sorted(SURROGATE_INPUTS))
def test_lone_surrogate_input_is_one_typed_line(tmp_path, case):
    argv_for, code, respond = SURROGATE_INPUTS[case]
    root = Path(__file__).parent.parent

    def run(base_url: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "graphmem.cli", *argv_for(tmp_path, base_url)],
            capture_output=True, text=True, errors="backslashreplace", timeout=60,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )

    if respond is None:
        result = run("")
    else:
        with KeepAliveStub(respond) as stub:
            result = run(stub.base_url)
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"error [{code}]: ")
    assert not list(tmp_path.rglob("trajectory*.jsonl"))


@pytest.mark.parametrize("role", ["policy", "judge"])
def test_host_not_valid_idna_is_one_typed_line(tmp_path, role):
    """An endpoint host that http.client cannot send fails as the client is
    made, before any episode runs."""
    root = Path(__file__).parent.parent
    config = write_demo_config(tmp_path, **{
        f"{role}_mode": "remote", f"{role}_base_url": "http://\xe9..x:1", f"{role}_model": "m",
    })
    result = subprocess.run(
        [sys.executable, "-m", "graphmem.cli", "run", "--config", str(config),
         "--query", DEMO_QUERY, "--gold", "mira chen, 2019"],
        capture_output=True, text=True, errors="backslashreplace", timeout=60,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    (line,) = result.stderr.splitlines()
    assert line.startswith("error [PolicyUnreachable]: ")


def test_make_goldens_reproduces_the_committed_files(tmp_path):
    """scripts/make_goldens.py, run on a copy of tests/ without its goldens,
    writes every golden and fixture byte for byte as committed."""
    root = Path(__file__).parent.parent
    (tmp_path / "scripts").mkdir()
    shutil.copy(root / "scripts" / "make_goldens.py", tmp_path / "scripts")
    shutil.copytree(
        root / "tests", tmp_path / "tests", ignore=shutil.ignore_patterns("__pycache__", "golden")
    )
    result = subprocess.run(
        [sys.executable, str(tmp_path / "scripts" / "make_goldens.py")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert result.returncode == 0, result.stderr
    for name in ("golden", "fixtures"):
        committed = sorted(p.relative_to(root) for p in (root / "tests" / name).rglob("*"))
        made = sorted(p.relative_to(tmp_path) for p in (tmp_path / "tests" / name).rglob("*"))
        assert made == committed
        for path in committed:
            if (root / path).is_file():
                assert (tmp_path / path).read_bytes() == (root / path).read_bytes(), path


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "graphmem.cli", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0
    assert "corpus" in result.stdout and "prune" in result.stdout


def test_cli_import_leaves_out_requests():
    result = subprocess.run(
        [sys.executable, "-c", "import sys, graphmem.cli; print('requests' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["prune", "--trajectories", str(GOLDEN / "demo_trajectory.jsonl"),
         "--out-batch", "{tmp}/batch.jsonl"],
        ["stats", "--trajectories", str(GOLDEN / "demo_trajectory.jsonl")],
        ["config", "dump"],
    ],
    ids=["import", "prune", "stats", "config-dump"],
)
def test_numpy_left_unloaded(tmp_path, argv):
    """Only commands that build or search an index load numpy."""
    run = "" if argv is None else f"assert main({[a.format(tmp=tmp_path) for a in argv]!r}) == 0; "
    result = subprocess.run(
        [sys.executable, "-c",
         f"import sys; from graphmem.cli import main; {run}print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


def _start_serve(corpus_path: Path, env: dict) -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "graphmem.cli", "serve", "--corpus", str(corpus_path),
         "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    line = proc.stdout.readline()
    assert line.startswith("serving POST /search on http://127.0.0.1:"), proc.stderr.read()
    return proc, int(line.rsplit(":", 1)[1])


def _stop_serve(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=10)
    proc.stdout.close()
    proc.stderr.close()


def test_serve_replies_equal_in_process_search(tmp_path):
    """``serve`` replies byte for byte as in-process ``search`` ranks, with
    ``OPENBLAS_NUM_THREADS`` unset and with two BLAS threads: a search
    scores from postings, so the BLAS thread count cannot move a ranking."""
    rng = random.Random(4097)
    vocab = [f"w{i}" for i in range(64)]

    def words(low: int, high: int) -> str:
        return " ".join(rng.choices(vocab, k=rng.randint(low, high)))

    corpus = build_corpus(
        CorpusItem(f"doc-{i:05d}", Modality.TEXT, words(20, 60)) for i in range(4097)
    )
    corpus_path = tmp_path / "corpus.json"
    save_corpus(corpus, corpus_path)
    queries = [(words(5, 30), rng.randint(1, 20)) for _ in range(50)]
    expected = [
        (canonical_dumps({"results": [obs.to_dict() for obs in search(corpus, query, k)]})
         + "\n").encode("utf-8")
        for query, k in queries
    ]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}

    for blas_env in (env, {**env, "OPENBLAS_NUM_THREADS": "2"}):
        proc, port = _start_serve(corpus_path, blas_env)
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            for (query, k), reply in zip(queries, expected):
                conn.request("POST", "/search", body=json.dumps({"query": query, "k": k}))
                response = conn.getresponse()
                assert response.status == 200
                assert response.read() == reply
            conn.close()
        finally:
            _stop_serve(proc)


def _serve_refusal(corpus_path: str, timeout: float = 60) -> str:
    """The one ``BadManifest`` line ``serve`` ends with on a corpus file it
    refuses, run in a child process, since a corpus that loads would start
    serving."""
    result = subprocess.run(
        [sys.executable, "-m", "graphmem.cli", "serve", "--corpus", corpus_path, "--port", "0"],
        capture_output=True, text=True, timeout=timeout,
    )
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error [BadManifest]: "), result.stderr
    assert result.stderr.count("\n") == 1, result.stderr
    assert result.stdout == ""
    return result.stderr


def test_serve_on_a_huge_embed_dim_is_one_bad_manifest_line(tmp_path):
    """An ``embed_dim`` above 65536 is refused before the index is made,
    not ended by numpy's allocation error."""
    record = corpus_record([{"id": "d", "modality": "text", "content": "x"}])
    _serve_refusal(_write(tmp_path / "c.json", json.dumps({**record, "embed_dim": 1099511627776})))


@pytest.mark.parametrize(
    "field, value", [("id", 7), ("content", 5), ("asset_ref", ["a"]), ("duration_s", True)],
    ids=["id", "content", "asset_ref", "duration_s-bool"],
)
def test_non_string_corpus_item_field_is_one_bad_manifest_line(tmp_path, capsys, field, value):
    """``corpus build`` over a manifest and ``serve`` over a corpus file
    refuse an item whose id, content or asset_ref is not a string, and a
    video whose duration_s is not a number."""
    modality = "video" if field == "duration_s" else "text"
    item = {"id": "d", "modality": modality, "content": "body", field: value}
    assert main(_build_from_manifest(tmp_path, json.dumps({"items": [item]}))) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [BadManifest]: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "c.json").exists()

    _serve_refusal(_write(tmp_path / "c.json", json.dumps(corpus_record([item]))), timeout=30)


@pytest.mark.parametrize(
    "items, message",
    [
        ({"a": 1}, "expected an object with an 'items' list"),
        ("abc", "expected an object with an 'items' list"),
        ([1], "items[0] must be an object, got 1"),
        ([{"id": "d", "modality": "text", "content": "x"}, "d"],
         "items[1] must be an object, got 'd'"),
        ([{"id": "d", "content": "x"}], "items[0]: 'modality'"),
    ],
    ids=["an object", "a string", "an int entry", "a string entry", "an entry without modality"],
)
def test_items_not_a_list_of_objects_is_one_bad_manifest_line(tmp_path, capsys, items, message):
    """``corpus build`` over a manifest and ``serve`` over a corpus file
    refuse ``items`` that is not a list of objects, naming the entry."""
    assert main(_build_from_manifest(tmp_path, json.dumps({"items": items}))) == 1
    err = capsys.readouterr().err
    assert err == f"error [BadManifest]: {tmp_path / 'manifests' / 'm.json'}: {message}\n"
    assert not (tmp_path / "c.json").exists()

    corpus_path = _write(tmp_path / "c.json", json.dumps({**corpus_record([]), "items": items}))
    assert _serve_refusal(corpus_path) == f"error [BadManifest]: {corpus_path}: {message}\n"


@pytest.mark.parametrize("target", ["missing", "a file"])
def test_manifest_dir_not_a_directory_is_one_bad_manifest_line(tmp_path, capsys, target):
    """``corpus build`` names a ``--manifest-dir`` that is not a directory,
    rather than reporting that it found no items there."""
    manifests = tmp_path / "none"
    if target == "a file":
        manifests = FIXTURES / "corpus" / "manifest.json"
    argv = ["corpus", "build", "--manifest-dir", str(manifests), "--out", str(tmp_path / "c.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error [BadManifest]: {manifests}: not a directory\n"
    assert not (tmp_path / "c.json").exists()


def test_serve_on_a_bad_stored_index_is_one_bad_manifest_line(tmp_path):
    """A stored index that breaks a rule ends ``serve`` with one line
    naming the array, not a numpy traceback."""
    record = corpus_record([{"id": "d", "modality": "text", "content": "x"}])
    record["index"]["vals"] = pack_array("d", [float("nan")])
    err = _serve_refusal(_write(tmp_path / "c.json", json.dumps(record)))
    assert "index 'vals'" in err


def test_serve_stops_on_sigterm_with_sigint_ignored():
    """Under a parent that ignores SIGINT (a background job), SIGTERM still
    shuts the server down cleanly.  A failing step's message carries the
    server's exit status and stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "graphmem.cli", "serve",
         "--corpus", str(FIXTURES / "demo_corpus.json"), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        line = proc.stdout.readline()
        assert line.startswith("serving POST /search on http://127.0.0.1:"), line
        port = int(line.rsplit(":", 1)[1])
        proc.send_signal(signal.SIGINT)
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        conn.request("POST", "/search", body=json.dumps({"query": "Solaris Dawn", "k": 1}))
        assert conn.getresponse().status == 200  # SIGINT was ignored
        conn.close()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=5) == 0
        stderr = proc.stderr.read()
        assert "Traceback" not in stderr, stderr
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5).close()
    except (Exception, pytest.fail.Exception) as exc:
        # the server's side, read once it has been reaped
        if proc.poll() is None:
            proc.kill()
        status = proc.wait()
        raise AssertionError(
            f"{type(exc).__name__}: {exc}\n"
            f"server exit status {status}, stderr:\n{proc.stderr.read()}"
        ) from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def _start_remote_run(tmp_path, stub, run_args: list[str], sigint) -> subprocess.Popen:
    """``graphmem run`` against ``stub`` in a child process that starts with
    ``sigint`` as its SIGINT action; returns once the first call arrives."""
    config = write_demo_config(
        tmp_path, policy_mode="remote", policy_base_url=stub.base_url,
        policy_model="test-model", policy_timeout_s=5,
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "graphmem.cli", "run", "--config", str(config), *run_args,
         "--out-dir", str(tmp_path / "out")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, sigint),
    )
    deadline = time.monotonic() + 30
    while not stub.headers:
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            raise AssertionError(f"no policy call; stderr:\n{proc.communicate()[1]}")
        time.sleep(0.01)
    return proc


def _slow_script_stub(delay_s: float) -> KeepAliveStub:
    script = json.loads((FIXTURES / "demo_script.json").read_text(encoding="utf-8"))

    def respond(n: int):
        time.sleep(delay_s)
        return 200, chat_reply(script[n % len(script)])

    return KeepAliveStub(respond)


@pytest.mark.parametrize("batch", [False, True], ids=["query", "queries"])
def test_run_stops_at_once_on_sigint(tmp_path, batch):
    """Ctrl-C ends ``graphmem run`` at once, one query or a batch: the
    episode in flight is dropped, no queued one starts, and nothing is
    printed on stderr."""
    queries = tmp_path / "queries.jsonl"
    queries.write_text((json.dumps({"query": DEMO_QUERY}) + "\n") * 12, encoding="utf-8")
    run_args = ["--queries", str(queries)] if batch else ["--query", DEMO_QUERY]
    with _slow_script_stub(0.5) as stub:
        proc = _start_remote_run(tmp_path, stub, run_args, signal.SIG_DFL)
        try:
            proc.send_signal(signal.SIGINT)
            sent = time.monotonic()
            status = proc.wait(timeout=10)
            took = time.monotonic() - sent
            stdout, stderr = proc.communicate()
            time.sleep(0.6)  # longer than one reply: a queued episode would have called
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    assert took < 2
    assert status == -signal.SIGINT, (status, stderr)
    assert stderr == ""
    assert stdout == ""
    assert len(stub.headers) == 1  # the call in flight when the signal came
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_run_keeps_an_ignored_sigint_ignored(tmp_path):
    """Under a parent that ignores SIGINT (a background job), the run goes
    on to its end."""
    with _slow_script_stub(0.05) as stub:
        proc = _start_remote_run(tmp_path, stub, ["--query", DEMO_QUERY], signal.SIG_IGN)
        try:
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    assert proc.returncode == 0, stderr
    assert stdout.startswith("[0] answered after 3 cycles, verdict absent -> ")
    assert (tmp_path / "out" / "trajectory.jsonl").exists()


# Run in the server's process: the main thread sleeps before it takes back a
# condition's lock, which widens the window in which a signal lands inside
# threading's own lock code while the serving loop starts a handler thread.
_SLOW_LOCK_RESTORE = """\
import sys, threading, time
restore = threading.Condition._acquire_restore
def slow(self, saved):
    if threading.current_thread() is threading.main_thread():
        time.sleep(0.3)
    return restore(self, saved)
threading.Condition._acquire_restore = slow
from graphmem.cli import main
sys.exit(main(["serve", "--corpus", sys.argv[1], "--port", "0"]))
"""


@pytest.mark.parametrize(
    "sigint, stop",
    [(signal.SIG_IGN, signal.SIGTERM), (signal.SIG_DFL, signal.SIGINT)],
    ids=["sigterm", "sigint"],
)
def test_serve_stops_on_a_signal_inside_threading_locks(sigint, stop):
    """A stop signal that lands while the serving loop is inside
    threading's lock code, just after a request, still shuts the server
    down cleanly."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _SLOW_LOCK_RESTORE, str(FIXTURES / "demo_corpus.json")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, sigint),
    )
    try:
        line = proc.stdout.readline()
        assert line.startswith("serving POST /search on http://127.0.0.1:"), line
        conn = http.client.HTTPConnection("127.0.0.1", int(line.rsplit(":", 1)[1]), timeout=5)
        conn.request("POST", "/search", body=json.dumps({"query": "Solaris Dawn", "k": 1}))
        assert conn.getresponse().status == 200
        proc.send_signal(stop)
        assert proc.wait(timeout=5) == 0
        conn.close()
        stderr = proc.stderr.read()
        assert "Traceback" not in stderr, stderr
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
