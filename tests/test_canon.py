import http.client
import json
import os
import random
import threading
from dataclasses import dataclass
from pathlib import Path

import pytest

from graphmem import cli, graph, protocol, runtime, server, training
from graphmem.canon import Record, canonical_dumps, json_escape, parse_json, write_text_atomic
from graphmem.config import load_config
from graphmem.graph import NodeKind
from graphmem.retrieval import CorpusItem, Modality, build_corpus
from helpers import random_episode_script, rounding_dumps

FIXTURES = Path(__file__).parent / "fixtures"


class TestParseJson:
    @pytest.mark.parametrize(
        "text, position",
        [
            ('"x\\ud800y"', 2),  # a high half, escaped
            ('["ok", "\\uDFFF"]', 8),  # a low half, escaped
            ('{"\\ud800": 1}', 2),  # in a key
            ('"\\ude00\\ud83d"', 1),  # the halves of a pair, in the wrong order
            ('"\\ud83d\\\\ude00"', 1),  # a high half, then an escaped backslash
            ('"x\ud800"', 2),  # raw
            ('"\ud83d\ude00"', 1),  # a raw pair stays two code points
        ],
    )
    def test_lone_surrogate_is_a_decode_error(self, text, position):
        for given in (text, text.encode("utf-8", "surrogatepass")):
            with pytest.raises(json.JSONDecodeError, match="lone UTF-16 surrogate") as excinfo:
                parse_json(given)
            assert excinfo.value.pos == position

    @pytest.mark.parametrize(
        "text, value",
        [
            ('"\\ud83d\\ude00"', "\U0001f600"),
            ('"\\uD83D\\uDE00 \\u00e9"', "\U0001f600 \u00e9"),
            ('"\\\\ud800"', "\\ud800"),  # an escaped backslash, then text
            ('"\U0001f600 \u00e9"', "\U0001f600 \u00e9"),
        ],
    )
    def test_valid_text_parses(self, text, value):
        assert parse_json(text) == value
        assert parse_json(text.encode("utf-8")) == value

    def test_json_escape_is_json_dumps_without_quotes(self):
        text = '"\\\n\x00\x7f/\u00e9\U0001f600\ud800'
        assert json_escape(text) == json.dumps(text)[1:-1]
        assert json_escape(text[:4]) + json_escape(text[4:]) == json_escape(text)


class TestWriteTextAtomic:
    def test_replaces_the_file(self, tmp_path):
        path = tmp_path / "out.json"
        write_text_atomic(path, "first\n")
        write_text_atomic(str(path), "second ü\n")
        assert path.read_bytes() == "second ü\n".encode("utf-8")
        assert os.listdir(tmp_path) == ["out.json"]

    def test_failure_while_writing_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(path, "x" * 100_000 + "\ud800")  # a lone surrogate
        assert path.read_text(encoding="utf-8") == "old\n"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_failure_to_replace_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        path.write_text("old\n", encoding="utf-8")
        temps = []

        def failing_replace(src, dst):
            temps.append(src)
            assert os.path.exists(src)
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", failing_replace)
        for _ in range(2):
            with pytest.raises(OSError, match="disk gone"):
                write_text_atomic(path, "new\n")
        assert path.read_text(encoding="utf-8") == "old\n"
        assert os.listdir(tmp_path) == ["out.json"]
        # each writer has its own temporary file beside the target
        assert len(set(temps)) == 2
        assert all(os.path.dirname(t) == str(tmp_path) for t in temps)

    def test_os_error_names_the_target(self, tmp_path):
        target = tmp_path / "out.json"
        target.mkdir()
        with pytest.raises(IsADirectoryError) as excinfo:
            write_text_atomic(target, "new\n")
        assert (excinfo.value.filename, excinfo.value.filename2) == (str(target), None)
        assert str(excinfo.value).endswith(f": {str(target)!r}")

    def test_failed_cleanup_keeps_the_original_error(self, tmp_path):
        (tmp_path / "file").write_text("", encoding="utf-8")
        with pytest.raises(NotADirectoryError) as excinfo:
            write_text_atomic(tmp_path / "file" / "out.json", "new\n")
        # removing the temporary file fails too; that error is not raised
        assert excinfo.value.__context__ is None


@dataclass(frozen=True)
class _Tagged(Record):
    kind: NodeKind | None = None


class TestRecord:
    """The record rule for a field no saved record has yet: an enum that
    may be None."""

    @pytest.mark.parametrize("kind", [None, NodeKind.ANSWER])
    def test_optional_enum_round_trips(self, kind):
        record = _Tagged(kind).to_dict()
        assert record == ({} if kind is None else {"kind": "answer"})
        assert _Tagged.from_dict(record) == _Tagged(kind)

    def test_null_in_an_optional_field_reads_as_none(self):
        assert _Tagged.from_dict({"kind": None}) == _Tagged()


def test_every_written_float_is_rounded_where_it_is_made(tmp_path, monkeypatch, toy_corpus):
    """The writer and the reference that rounds every float on the way out
    give the same bytes for each record the engine writes: trajectory lines,
    batch lines, ``/search`` replies, linearize lines and the stats report.
    The demo episode and seeded random episodes over 60 s clips, of videos
    whose durations are given to 0.1 s, supply them."""
    written = []

    def both(obj):
        text = canonical_dumps(obj)
        written.append((text, rounding_dumps(obj)))
        return text

    for module in (cli, graph, protocol, runtime, server, training):
        monkeypatch.setattr(module, "canonical_dumps", both)

    def writes(stage):
        before = len(written)
        result = stage()
        assert len(written) > before
        return result

    rng = random.Random(2311)
    vocab = [f"w{i}" for i in range(12)]
    items = []
    for i in range(30):
        modality = rng.choice(list(Modality))
        duration = round(rng.uniform(0.1, 400), 1) if modality is Modality.VIDEO else None
        items.append(CorpusItem(f"{modality.value}-{i}", modality,
                                " ".join(rng.choices(vocab, k=rng.randint(1, 8))), duration))
    corpus = build_corpus(items)
    config = load_config(FIXTURES / "demo_config.json").episode_config()
    demo_script = json.loads((FIXTURES / "demo_script.json").read_text(encoding="utf-8"))
    # episodes render their prompts through linearize
    episodes = [writes(lambda: runtime.run_episode(
        runtime.ScriptedPolicy(demo_script), toy_corpus, "demo", config))]
    for reward in (1, 0, 0, 1, 0, 0):
        script = random_episode_script(rng, corpus, config, vocab)
        episode = writes(lambda: runtime.run_episode(
            runtime.ScriptedPolicy(script), corpus, "q", config))
        episode.reward = reward
        episodes.append(episode)

    paths = [str(tmp_path / f"t{i}.jsonl") for i in range(len(episodes))]
    for episode, path in zip(episodes, paths):
        writes(lambda: runtime.save_trajectory(episode, path))
    group = training.prepare_group(episodes[1:], [items[0].id, items[1].id])
    writes(lambda: training.export_training_batch([group]))
    writes(lambda: cli.main(["stats", "--trajectories", *paths,
                             "--out", str(tmp_path / "stats.json")]))

    search_server = server.make_search_server(corpus)
    thread = threading.Thread(target=search_server.serve_forever, kwargs={"poll_interval": 0.02})
    thread.start()
    try:
        conn = http.client.HTTPConnection(*search_server.server_address[:2], timeout=10)

        def post(body: str) -> bytes:
            conn.request("POST", "/search", body=body)
            return conn.getresponse().read()

        for _ in range(20):
            query = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
            writes(lambda: post(json.dumps({"query": query, "k": rng.randint(1, 30)})))
        conn.close()
    finally:
        search_server.shutdown()
        search_server.server_close()
        thread.join(timeout=5)

    assert [text for text, reference in written if text != reference] == []
