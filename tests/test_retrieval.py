import json
import logging
import random
import socket
import threading

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmem.energy import ItemModality
from graphmem.retrieval import (
    BadClipLength,
    BadManifest,
    Clip,
    CorpusItem,
    DuplicateItemId,
    EmptyIndex,
    Modality,
    build_corpus,
    embed,
    is_searchable,
    load_corpus,
    load_manifest,
    load_manifest_dir,
    resolve_keyframes,
    sample_frames,
    save_corpus,
    search,
    segment_video,
)
from graphmem.server import make_search_server
from helpers import pure_python_topk


class TestBuildCorpus:
    def test_150s_video_three_clips(self):
        corpus = build_corpus(
            [CorpusItem("v", Modality.VIDEO, "caption", duration_s=150.0)], clip_len_s=60.0
        )
        bounds = [(clip.start_s, clip.end_s) for clip in corpus.clips]
        assert bounds == [(0.0, 60.0), (60.0, 120.0), (120.0, 150.0)]

    def test_exact_length_single_clip(self):
        corpus = build_corpus(
            [CorpusItem("v", Modality.VIDEO, "caption", duration_s=60.0)], clip_len_s=60.0
        )
        assert [(c.start_s, c.end_s) for c in corpus.clips] == [(0.0, 60.0)]

    def test_no_videos_no_clips(self):
        corpus = build_corpus([CorpusItem("t", Modality.TEXT, "body")])
        assert corpus.clips == []
        assert len(corpus.units) == 1

    def test_duplicate_id_rejected(self):
        items = [CorpusItem("x", Modality.TEXT, "a"), CorpusItem("x", Modality.TEXT, "b")]
        with pytest.raises(DuplicateItemId):
            build_corpus(items)

    def test_bad_clip_length(self):
        with pytest.raises(BadClipLength):
            build_corpus([CorpusItem("t", Modality.TEXT, "a")], clip_len_s=0)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=10_000),
        st.floats(min_value=0.5, max_value=600),
    )
    def test_clip_coverage_exact_no_overlap(self, duration, clip_len):
        bounds = segment_video(duration, clip_len)
        assert bounds[0][0] == 0.0
        assert bounds[-1][1] == duration
        for (start, end), (next_start, _) in zip(bounds, bounds[1:]):
            assert end == next_start
            assert end - start == pytest.approx(clip_len)
        assert all(end > start for start, end in bounds)


class TestEmbed:
    def test_deterministic(self):
        text = "The quick brown fox"
        assert np.array_equal(embed(text), embed(text))

    def test_unit_norm(self):
        assert abs(float(np.linalg.norm(embed("any text at all"))) - 1.0) < 1e-9

    def test_empty_text_unsearchable(self):
        vector = embed("...---...")
        assert not is_searchable(vector)
        assert float(np.linalg.norm(vector)) == 0.0

    def test_case_fold_and_split(self):
        assert np.array_equal(embed("Red-CAR!"), embed("red car"))

    def test_cosine_regression(self):
        # frozen once from the reference hasher (dim=256, seed=9157)
        a, b, c = embed("red car"), embed("red car engine"), embed("blue sky")
        assert float(a @ b) == pytest.approx(0.816496580927726, abs=1e-12)
        assert float(a @ c) == pytest.approx(0.0, abs=1e-12)
        assert float(a @ b) > float(a @ c)


class TestSearch:
    def test_k_larger_than_corpus_returns_all(self, toy_corpus):
        results = search(toy_corpus, "Solaris Dawn", 50)
        assert len(results) == len(toy_corpus.units)

    def test_matching_doc_ranked_first(self):
        items = [
            CorpusItem("d1", Modality.TEXT, "alpha beta gamma"),
            CorpusItem("d2", Modality.TEXT, "quantum entanglement photon"),
            CorpusItem("d3", Modality.TEXT, "alpha delta"),
        ]
        corpus = build_corpus(items)
        # oracle: brute-force cosine over all three docs
        vectors = [list(map(float, row)) for row in corpus.index]
        query_vec = list(map(float, embed("photon entanglement")))
        oracle_order = pure_python_topk(vectors, query_vec, 3)
        results = search(corpus, "photon entanglement", 3)
        assert results[0].source_id == "d2"
        assert [corpus.units.index(u) for u in corpus.units] is not None
        assert [obs.source_id for obs in results] == [
            corpus.items[corpus.units[i].item_pos].id for i in oracle_order
        ]

    def test_duplicate_docs_tie_by_insertion(self):
        items = [
            CorpusItem("first", Modality.TEXT, "same words here"),
            CorpusItem("second", Modality.TEXT, "same words here"),
        ]
        corpus = build_corpus(items)
        results = search(corpus, "same words", 2)
        assert [obs.source_id for obs in results] == ["first", "second"]

    def test_empty_index(self):
        corpus = build_corpus([])
        with pytest.raises(EmptyIndex):
            search(corpus, "anything", 1)

    def test_unsearchable_query_scores_zero(self, toy_corpus):
        results = search(toy_corpus, "!!!", 3)
        assert all(obs.score == 0.0 for obs in results)

    def test_observation_ids_dense_per_modality(self, toy_corpus):
        results = search(toy_corpus, "Solaris Dawn Mira Chen", 6)
        texts = [o.id for o in results if o.modality is Modality.TEXT]
        videos = [o.id for o in results if o.modality is Modality.VIDEO]
        assert texts == [f"Text {i}" for i in range(1, len(texts) + 1)]
        assert videos == [f"Video {i}" for i in range(1, len(videos) + 1)]

    def test_video_hits_carry_frames(self, toy_corpus):
        results = search(toy_corpus, "Interview Mira Chen directing Solaris", 6, n_frames=8)
        video = next(o for o in results if o.modality is Modality.VIDEO)
        assert len(video.frames) == 8
        stamps = [ts for ts, _ in video.frames]
        assert stamps == sorted(stamps)
        assert all(video.clip_start_s <= ts < video.clip_end_s for ts in stamps)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_ranking_matches_oracle_on_random_corpora(self, seed):
        rng = random.Random(seed)
        vocabulary = [f"word{i}" for i in range(40)]
        items = [
            CorpusItem(
                f"doc{i}",
                Modality.TEXT,
                " ".join(rng.choices(vocabulary, k=rng.randint(1, 12))),
            )
            for i in range(rng.randint(1, 60))
        ]
        corpus = build_corpus(items, embed_dim=64)
        query = " ".join(rng.choices(vocabulary, k=rng.randint(1, 6)))
        k = rng.randint(1, len(items) + 2)
        vectors = [list(map(float, row)) for row in corpus.index]
        oracle = pure_python_topk(vectors, list(map(float, embed(query, dim=64))), k)
        got = [obs.source_id for obs in search(corpus, query, k)]
        assert got == [corpus.items[corpus.units[i].item_pos].id for i in oracle]


class TestFrames:
    def test_uniform_grid(self):
        clip = Clip("v", 0.0, 60.0)
        assert [ts for ts, _ in sample_frames(clip, 4)] == [0.0, 15.0, 30.0, 45.0]

    def test_single_frame_at_start(self):
        assert [ts for ts, _ in sample_frames(Clip("v", 10.0, 60.0), 1)] == [10.0]

    def test_offset_clip(self):
        clip = Clip("v", 120.0, 150.0)
        assert [ts for ts, _ in sample_frames(clip, 3)] == [120.0, 130.0, 140.0]

    def test_refs_deterministic(self):
        clip = Clip("v", 0.0, 60.0)
        assert sample_frames(clip, 5) == sample_frames(clip, 5)


class TestKeyframes:
    def _video_observation(self, toy_corpus):
        results = search(toy_corpus, "Interview Mira Chen directing Solaris", 6, n_frames=4)
        return next(o for o in results if o.modality is Modality.VIDEO)

    def test_snap_to_nearest(self, toy_corpus):
        obs = self._video_observation(toy_corpus)  # clip [0, 60), grid 0/15/30/45
        seeds = resolve_keyframes(obs, [29.9])
        assert len(seeds) == 1
        assert seeds[0].source_timestamp_s == 30.0
        assert seeds[0].modality is ItemModality.VIDEO_FRAME

    def test_out_of_clip_dropped_with_warning(self, toy_corpus, caplog):
        obs = self._video_observation(toy_corpus)
        with caplog.at_level(logging.WARNING, logger="graphmem.retrieval"):
            seeds = resolve_keyframes(obs, [999.0])
        assert seeds == []
        assert any("dropped" in message for message in caplog.messages)

    def test_empty_request(self, toy_corpus):
        assert resolve_keyframes(self._video_observation(toy_corpus), []) == []

    def test_equidistant_prefers_earlier_frame(self, toy_corpus):
        obs = self._video_observation(toy_corpus)  # grid 0/15/30/45
        seeds = resolve_keyframes(obs, [22.5])
        assert seeds[0].source_timestamp_s == 15.0


class TestPersistence:
    def test_manifest_round_trip(self, tmp_path):
        manifest = {
            "schema": "corpus-manifest/1",
            "items": [
                {"id": "a", "modality": "text", "content": "alpha"},
                {
                    "id": "v",
                    "modality": "video",
                    "content": "caption",
                    "duration_s": 90.0,
                    "asset_ref": "assets/v.mp4",
                },
            ],
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        items = load_manifest(path)
        assert [item.id for item in items] == ["a", "v"]
        assert items[1].duration_s == 90.0

    def test_manifest_dir_sorted(self, tmp_path):
        for name, item_id in [("b.json", "two"), ("a.json", "one")]:
            (tmp_path / name).write_text(
                json.dumps({"items": [{"id": item_id, "modality": "text", "content": "x"}]}),
                encoding="utf-8",
            )
        assert [item.id for item in load_manifest_dir(tmp_path)] == ["one", "two"]

    def test_bad_manifest(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(BadManifest):
            load_manifest(path)

    def test_corpus_file_round_trip_stable(self, tmp_path, toy_corpus):
        path1 = tmp_path / "c1.json"
        path2 = tmp_path / "c2.json"
        save_corpus(toy_corpus, path1)
        reloaded = load_corpus(path1)
        save_corpus(reloaded, path2)
        assert path1.read_bytes() == path2.read_bytes()
        assert np.array_equal(reloaded.index, toy_corpus.index)


class TestSearchServer:
    @pytest.fixture
    def server_address(self, toy_corpus):
        server = make_search_server(toy_corpus, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server.server_address[:2]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_post_search(self, server_address):
        host, port = server_address
        url = f"http://{host}:{port}/search"
        response = requests.post(url, json={"query": "who directed Solaris Dawn film", "k": 2})
        assert response.status_code == 200
        results = response.json()["results"]
        assert len(results) == 2
        assert results[0]["source_id"] == "doc-director"

        assert requests.post(url, json={"nope": 1}).status_code == 400
        assert requests.post(f"http://{host}:{port}/other", json={}).status_code == 404

    @pytest.mark.parametrize(
        "body",
        ['[{"query": "solaris"}]', '"solaris"', "3", "null", '{"query": "solaris", "k": [2]}'],
        ids=["array", "string", "number", "null", "k-list"],
    )
    def test_non_object_body_rejected(self, server_address, body):
        host, port = server_address
        response = requests.post(f"http://{host}:{port}/search", data=body, timeout=5)
        assert response.status_code == 400
        assert response.json()["error"].startswith("bad request")

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_bad_content_length_rejected(self, server_address, length):
        body = b'{"query": "solaris"}'
        head = f"POST /search HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n"
        with socket.create_connection(server_address, timeout=5) as sock:
            sock.sendall(head.encode("ascii") + body)
            reply = sock.recv(4096)
        assert reply.split(b"\r\n", 1)[0].split(b" ")[1] == b"400"
