import json
import os
from dataclasses import dataclass

import pytest

from graphmem.canon import Record, json_escape, parse_json, write_text_atomic
from graphmem.graph import NodeKind


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
