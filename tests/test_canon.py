import copy
import os
import pickle

import pytest

from graphmem.canon import write_text_atomic
from graphmem.energy import ItemModality, VisualItem
from graphmem.graph import new_graph


def item() -> VisualItem:
    return VisualItem(0, 0, 0, ItemModality.TEXT, "corpus://doc")


class TestWriteStamps:
    def test_every_write_takes_a_fresh_stamp(self):
        it = item()
        seen = [it.stamp]
        it.allocated_budget = 3
        seen.append(it.stamp)
        it.allocated_budget = 3  # the same value again
        seen.append(it.stamp)
        it.saliency = True  # equal to 1 in Python, but not in JSON
        seen.append(it.stamp)
        assert seen == sorted(set(seen))

    def test_objects_never_share_a_stamp(self):
        first, second = item(), item()
        assert first == second
        assert first.stamp != second.stamp

    def test_copies_are_stamped_afresh(self):
        node = new_graph("q").nodes[0]
        for twin in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert twin == node
            assert twin.stamp > node.stamp


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

    def test_failed_cleanup_keeps_the_original_error(self, tmp_path):
        (tmp_path / "file").write_text("", encoding="utf-8")
        with pytest.raises(NotADirectoryError) as excinfo:
            write_text_atomic(tmp_path / "file" / "out.json", "new\n")
        # removing the temporary file fails too; that error is not raised
        assert excinfo.value.__context__ is None
