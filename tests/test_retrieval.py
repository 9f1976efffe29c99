import base64
import http.client
import json
import logging
import math
import random
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmem import retrieval
from graphmem.canon import canonical_dumps
from graphmem.retrieval import (
    BadClipLength,
    BadManifest,
    CorpusItem,
    DuplicateItemId,
    EmptyIndex,
    Modality,
    RetrievalError,
    build_corpus,
    embed,
    load_corpus,
    load_manifest,
    load_manifest_dir,
    resolve_keyframes,
    sample_frames,
    save_corpus,
    search,
    segment_video,
)
from graphmem.server import MAX_BODY_BYTES, MAX_K, READ_TIMEOUT_S, make_search_server
from helpers import corpus_record, pack_array, pure_python_topk


class TestBuildCorpus:
    def test_150s_video_three_clips(self):
        corpus = build_corpus(
            [CorpusItem("v", Modality.VIDEO, "caption", duration_s=150.0)], clip_len_s=60.0
        )
        assert corpus.units == [(0.0, 60.0), (60.0, 120.0), (120.0, 150.0)]

    def test_exact_length_single_clip(self):
        corpus = build_corpus(
            [CorpusItem("v", Modality.VIDEO, "caption", duration_s=60.0)], clip_len_s=60.0
        )
        assert corpus.units == [(0.0, 60.0)]

    def test_no_videos_no_clips(self):
        corpus = build_corpus([CorpusItem("t", Modality.TEXT, "body")])
        assert corpus.units == [None]

    def test_duplicate_id_rejected(self):
        items = [CorpusItem("x", Modality.TEXT, "a"), CorpusItem("x", Modality.TEXT, "b")]
        with pytest.raises(DuplicateItemId):
            build_corpus(items)

    def test_bad_clip_length(self):
        with pytest.raises(BadClipLength):
            build_corpus([CorpusItem("t", Modality.TEXT, "a")], clip_len_s=0)

    MIXED_ITEMS = [
        CorpusItem("v1", Modality.VIDEO, "red car chase", duration_s=150.0),
        CorpusItem("t", Modality.TEXT, "blue sky"),
        CorpusItem("v2", Modality.VIDEO, "...", duration_s=200.0),
        CorpusItem("i", Modality.IMAGE, "red car"),
    ]

    def test_every_row_is_its_items_embedding(self):
        corpus = build_corpus(self.MIXED_ITEMS, clip_len_s=60.0)
        assert index_rows(corpus).tobytes() == item_vectors(corpus).tobytes()

    def test_units_share_their_items_row(self):
        corpus = build_corpus(self.MIXED_ITEMS, clip_len_s=60.0)
        assert corpus.units == [
            (0.0, 60.0), (60.0, 120.0), (120.0, 150.0),
            None,
            (0.0, 60.0), (60.0, 120.0), (120.0, 180.0), (180.0, 200.0),
            None,
        ]
        # first_unit partitions the units, in item order
        assert corpus.first_unit == [0, 3, 4, 8, 9]
        for pos, (lo, hi) in enumerate(zip(corpus.first_unit, corpus.first_unit[1:])):
            item = self.MIXED_ITEMS[pos]
            if item.modality is Modality.VIDEO:
                assert corpus.units[lo:hi] == segment_video(item.duration_s, 60.0)
            else:
                assert corpus.units[lo:hi] == [None]

    @pytest.mark.parametrize(
        "duration",
        [float("nan"), float("inf"), 0.0, -1.0, True, "60", pytest.param(10**400, id="10**400")],
    )
    def test_video_needs_finite_positive_duration(self, duration):
        with pytest.raises(ValueError):
            CorpusItem("v", Modality.VIDEO, "caption", duration_s=duration)

    def test_clip_count_is_bounded(self):
        # a million clips at most; criterion 10's extreme makes 500,000.  Far
        # larger requests are run only in a memory-capped child process
        # (tests/test_config_cli.py), since without the bound they never end.
        message = "a video of 1000001.0 s in clips of 1.0 s would make more than 1000000 clips"
        with pytest.raises(BadClipLength) as excinfo:
            segment_video(1_000_001.0, 1.0)
        assert str(excinfo.value) == message

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

    @pytest.mark.parametrize("clip_len", [0.1, 0.2, 0.3, 1 / 3, 60.0])
    def test_clip_bounds_are_multiples_of_the_clip_length(self, clip_len):
        """The fewest clips that cover the video, each starting at a multiple
        of the clip length, so whole-clip videos gain no sliver."""
        for duration in map(float, range(1, 301)):
            bounds = segment_video(duration, clip_len)
            count = 1
            while count * clip_len < duration:
                count += 1
            assert len(bounds) == count
            assert [start for start, _ in bounds] == [i * clip_len for i in range(count)]
            assert [end for _, end in bounds[:-1]] == [i * clip_len for i in range(1, count)]
            assert bounds[-1][1] == duration


class TestEmbed:
    def test_deterministic(self):
        text = "The quick brown fox"
        assert np.array_equal(embed(text), embed(text))

    def test_unit_norm(self):
        assert abs(float(np.linalg.norm(embed("any text at all"))) - 1.0) < 1e-9

    def test_empty_text_unsearchable(self):
        vector = embed("...---...")
        assert not vector.any()
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
        vectors = [list(map(float, row)) for row in item_vectors(corpus)]
        query_vec = list(map(float, embed("photon entanglement")))
        oracle_order = pure_python_topk(vectors, query_vec, 3)
        results = search(corpus, "photon entanglement", 3)
        assert results[0].source_id == "d2"
        assert [obs.source_id for obs in results] == [items[i].id for i in oracle_order]

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
        assert corpus.index.start.tolist() == [0] * (corpus.embed_dim + 1)
        assert corpus.index.rows.size == corpus.index.vals.size == 0
        with pytest.raises(EmptyIndex):
            search(corpus, "anything", 1)

    def test_unsearchable_query_scores_zero(self, toy_corpus):
        results = search(toy_corpus, "!!!", 3)
        assert all(obs.score == 0.0 for obs in results)
        first = [
            (item.id, None if unit is None else unit[0])
            for pos, item in enumerate(toy_corpus.items)
            for unit in toy_corpus.units[toy_corpus.first_unit[pos]:toy_corpus.first_unit[pos + 1]]
        ][:3]
        assert [(obs.source_id, obs.clip_start_s) for obs in results] == first

    def test_clips_of_one_video_tie_in_insertion_order(self):
        items = [
            CorpusItem("t", Modality.TEXT, "ocean waves"),
            CorpusItem("v", Modality.VIDEO, "ocean waves at dusk", duration_s=250.0),
        ]
        corpus = build_corpus(items, clip_len_s=60.0)
        results = search(corpus, "dusk waves", 6)
        clips = [o for o in results if o.modality is Modality.VIDEO]
        assert [o.clip_start_s for o in clips] == [0.0, 60.0, 120.0, 180.0, 240.0]
        assert len({o.score for o in clips}) == 1
        assert [o.source_id for o in results] == ["v"] * 5 + ["t"]

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
        items = []
        for i in range(rng.randint(1, 60)):
            words = " ".join(rng.choices(vocabulary, k=rng.randint(1, 12)))
            if rng.random() < 0.3:
                duration = rng.uniform(1.0, 300.0)
                items.append(CorpusItem(f"vid{i}", Modality.VIDEO, words, duration_s=duration))
            else:
                items.append(CorpusItem(f"doc{i}", Modality.TEXT, words))
        corpus = build_corpus(items, clip_len_s=60.0, embed_dim=64)
        # the unit list and its vectors, rebuilt from the items alone
        units = []
        for item in items:
            if item.modality is Modality.VIDEO:
                units += [(item, start) for start, _ in segment_video(item.duration_s, 60.0)]
            else:
                units.append((item, None))
        vectors = [list(map(float, embed(item.content, dim=64))) for item, _ in units]
        query = " ".join(rng.choices(vocabulary, k=rng.randint(1, 6)))
        k = rng.randint(1, len(units) + 2)
        oracle = pure_python_topk(vectors, list(map(float, embed(query, dim=64))), k)
        got = [(obs.source_id, obs.clip_start_s) for obs in search(corpus, query, k)]
        assert got == [(units[i][0].id, units[i][1]) for i in oracle]


def per_unit_search(items, clip_len_s, dim, query, k, n_frames=8):
    """Search as it ran over one index row per unit: stack a vector for every
    unit and rank the units with a stable argsort."""
    units = []
    for item in items:
        if item.modality is Modality.VIDEO:
            units += [(item, clip) for clip in segment_video(item.duration_s, clip_len_s)]
        else:
            units.append((item, None))
    index = np.stack([embed(item.content, dim) for item, _ in units])
    scores = np.round(index @ embed(query, dim), 12)
    ranked = np.argsort(-scores, kind="stable")[:k].tolist()
    hits = [(*units[pos], float(scores[pos])) for pos in ranked]
    return hit_records(hits, n_frames), len(units)


def item_vectors(corpus):
    """The dense index: each item's embedding, one row per item."""
    return np.stack(
        [embed(item.content, corpus.embed_dim, corpus.embed_seed) for item in corpus.items]
    )


def index_rows(corpus):
    """The dense matrix that ``corpus.index`` holds as postings."""
    index = corpus.index
    dense = np.zeros((len(corpus.items), corpus.embed_dim))
    dense[index.rows, np.repeat(np.arange(corpus.embed_dim), np.diff(index.start))] = index.vals
    return dense


def dense_search(corpus, index, query, k, n_frames=8):
    """Search as it ran with a dense product: score every row of the dense
    ``index`` with ``index @ q``, rank the items with a full stable argsort,
    and expand each ranked item into its units."""
    query_vec = embed(query, corpus.embed_dim, corpus.embed_seed)
    scores = np.round(index @ query_vec, 12)
    hits = []
    for pos in np.argsort(-scores, kind="stable").tolist():
        for unit in corpus.units[corpus.first_unit[pos]:corpus.first_unit[pos + 1]]:
            hits.append((corpus.items[pos], unit, float(scores[pos])))
        if len(hits) >= k:
            break
    return hit_records(hits[:k], n_frames)


def hit_records(hits, n_frames):
    """Observation records for ``(item, clip, score)`` hits in rank order;
    ``clip`` is ``(start_s, end_s)`` or ``None``."""
    counters = {modality: 0 for modality in Modality}
    observations = []
    for item, clip, score in hits:
        counters[item.modality] += 1
        record = {
            "id": f"{item.modality.value.capitalize()} {counters[item.modality]}",
            "source_id": item.id,
            "modality": item.modality.value,
            "score": round(score, 6),
            "content": item.content,
            "asset_ref": item.asset_ref,
        }
        if clip is not None:
            record["clip_start_s"], record["clip_end_s"] = clip
            record["frames"] = [[ts, ref] for ts, ref in sample_frames(item.id, *clip, n_frames)]
        observations.append(record)
    return observations


CAPTIONS = st.one_of(
    st.just(""),
    st.just("..."),
    st.lists(st.sampled_from(["red", "car", "sky", "blue", "dusk"]), max_size=4).map(" ".join),
)


@st.composite
def mixed_items(draw):
    items = []
    for i in range(draw(st.integers(min_value=1, max_value=12))):
        caption = draw(CAPTIONS)
        modality = draw(st.sampled_from(list(Modality)))
        duration = (
            draw(st.floats(min_value=0.5, max_value=300.0))
            if modality is Modality.VIDEO
            else None
        )
        items.append(CorpusItem(f"x{i}", modality, caption, duration_s=duration))
    return items


@settings(max_examples=60, deadline=None)
@given(mixed_items(), CAPTIONS)
def test_item_ranking_equals_per_unit_ranking(items, query):
    # 16 dims make hash collisions, so distinct captions tie too
    corpus = build_corpus(items, clip_len_s=60.0, embed_dim=16)
    n_units = len(corpus.units)
    for k in range(1, n_units + 3):
        expected, total = per_unit_search(items, 60.0, 16, query, k)
        assert total == n_units
        got = [obs.to_dict() for obs in search(corpus, query, k)]
        assert canonical_dumps(got) == canonical_dumps(expected)


class TestPostings:
    def test_search_equals_dense_search(self):
        """Postings scoring and top-k by partition give the whole output of
        a dense product and a full stable sort, byte for byte, on a corpus
        of texts and multi-clip videos with duplicate captions."""
        rng = random.Random(1717)
        vocab = [f"w{i}" for i in range(40)]
        captions = [" ".join(rng.choices(vocab, k=rng.randint(1, 6))) for _ in range(60)]
        items = [
            CorpusItem(f"v{i:03d}", Modality.VIDEO, rng.choice(captions),
                       duration_s=rng.choice([30.0, 90.0, 150.0, 300.0]))
            if rng.random() < 0.3
            else CorpusItem(f"t{i:03d}", Modality.TEXT, rng.choice(captions))
            for i in range(300)
        ]
        corpus = build_corpus(items, clip_len_s=60.0)
        index = item_vectors(corpus)
        n_items = len(items)
        queries = [(" ".join(rng.choices(vocab, k=rng.randint(1, 8))), rng.randint(1, 100))
                   for _ in range(600)]
        queries += [(vocab[0], n_items), (vocab[1], n_items + 7), ("", 5), ("?! ...", 40)]
        seen = set()
        for query, k in queries:
            got = [obs.to_dict() for obs in search(corpus, query, k)]
            assert canonical_dumps(got) == canonical_dumps(dense_search(corpus, index, query, k))
            scores = np.sort(np.round(index @ embed(query), 12))[::-1]
            if k >= n_items:
                seen.add("k at least the items")
            elif np.count_nonzero(scores == scores[k - 1]) > k - np.count_nonzero(
                scores > scores[k - 1]
            ):
                seen.add("k-th score tied past k")
            if 0 < np.count_nonzero(scores) < k:
                seen.add("zeros fill in")
            if not scores.any():
                seen.add("no known tokens")
        assert seen == {"k at least the items", "k-th score tied past k", "zeros fill in",
                        "no known tokens"}

    def test_largest_embed_dim(self, tmp_path):
        """At the largest ``embed_dim`` a corpus file may declare, the
        postings hold every non-zero entry, each bucket's rows ascending,
        buckets above 2**15 included, and search equals the dense one."""
        rng = random.Random(65536)
        items = [CorpusItem(f"d{i}", Modality.TEXT, " ".join(
                     f"w{rng.randrange(5000)}" for _ in range(12)))
                 for i in range(40)]
        path = tmp_path / "c.json"
        built = build_corpus(items, embed_dim=65536)
        save_corpus(built, path)
        corpus = load_corpus(path)
        assert_same_postings(corpus.index, built.index)
        index = item_vectors(corpus)
        start = corpus.index.start
        assert start[-1] == np.count_nonzero(index)
        assert start[-1] > start[32768] > 0
        rows, buckets = corpus.index.rows, np.repeat(np.arange(65536), np.diff(start))
        assert np.all((np.diff(buckets) > 0) | (np.diff(rows) > 0))
        assert np.array_equal(index[rows, buckets], corpus.index.vals)
        for item in items[:10]:
            query = " ".join(item.content.split()[:4])
            got = [obs.to_dict() for obs in search(corpus, query, 8)]
            assert canonical_dumps(got) == canonical_dumps(dense_search(corpus, index, query, 8))


class TestFrames:
    def test_uniform_grid(self):
        assert [ts for ts, _ in sample_frames("v", 0.0, 60.0, 4)] == [0.0, 15.0, 30.0, 45.0]

    def test_single_frame_at_start(self):
        assert [ts for ts, _ in sample_frames("v", 10.0, 60.0, 1)] == [10.0]

    def test_offset_clip(self):
        assert [ts for ts, _ in sample_frames("v", 120.0, 150.0, 3)] == [120.0, 130.0, 140.0]

    def test_refs_deterministic(self):
        assert sample_frames("v", 0.0, 60.0, 5) == sample_frames("v", 0.0, 60.0, 5)


class TestKeyframes:
    def _video_observation(self, toy_corpus):
        results = search(toy_corpus, "Interview Mira Chen directing Solaris", 6, n_frames=4)
        return next(o for o in results if o.modality is Modality.VIDEO)

    def test_snap_to_nearest(self, toy_corpus):
        obs = self._video_observation(toy_corpus)  # clip [0, 60), grid 0/15/30/45
        kept = resolve_keyframes(obs, [29.9])
        assert [ts for ts, _ in kept] == [30.0]
        assert all(pair in obs.frames for pair in kept)

    def test_out_of_clip_dropped_with_warning(self, toy_corpus, caplog):
        obs = self._video_observation(toy_corpus)
        with caplog.at_level(logging.WARNING, logger="graphmem.retrieval"):
            kept = resolve_keyframes(obs, [999.0])
        assert kept == []
        assert any("dropped" in message for message in caplog.messages)

    def test_empty_request(self, toy_corpus):
        assert resolve_keyframes(self._video_observation(toy_corpus), []) == []

    def test_equidistant_prefers_earlier_frame(self, toy_corpus):
        obs = self._video_observation(toy_corpus)  # grid 0/15/30/45
        kept = resolve_keyframes(obs, [22.5, 37.5])
        assert [ts for ts, _ in kept] == [15.0, 30.0]
        assert all(pair in obs.frames for pair in kept)


def assert_same_postings(ours, theirs):
    """Equal postings: the same arrays, bit for bit, of the same dtypes."""
    for mine, other in zip(ours, theirs, strict=True):
        assert mine.dtype == other.dtype
        assert mine.tobytes() == other.tobytes()


# five texts over 5 buckets: postings start [0, 3, 5, 5, 8, 10], so bucket 0
# holds three rows, bucket 2 none, and the rows fall from bucket to bucket
FAULT_ITEMS = [
    {"id": f"d{i}", "modality": "text", "content": content}
    for i, content in enumerate(["red car", "blue sky", "car sky red", "dusk", "sky at dusk"])
]
INDEX_CODES = {"start": ("<i8", "q"), "rows": ("<u4", "I"), "vals": ("<f8", "d")}


def fault_base_record() -> dict:
    return corpus_record(FAULT_ITEMS, embed_dim=5)


def unpack(record: dict, name: str) -> list:
    return np.frombuffer(base64.b64decode(record["index"][name]), INDEX_CODES[name][0]).tolist()


def decoded(name: str, change):
    """A fault in the entries of one stored array."""
    def fault(record):
        record["index"][name] = pack_array(INDEX_CODES[name][1], change(unpack(record, name)))
    return fault


def encoded(name: str, change):
    """A fault in the stored text of one array."""
    def fault(record):
        record["index"][name] = change(record["index"][name])
    return fault


def flip_spare_bit(text: str) -> str:
    """The same bytes in a non-canonical text: the lowest bit of the last
    digit before the padding is a spare bit, zero when canonical."""
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    data = text.rstrip("=")
    digit = alphabet[alphabet.index(data[-1]) ^ 1]
    return data[:-1] + digit + text[len(data):]


def put(pos: int, value):
    return lambda values: values[:pos] + [value] + values[pos + 1:]


INDEX_FAULTS = {
    "start one entry short": ("start", decoded("start", lambda a: a[:-1])),
    "start one entry long": ("start", decoded("start", lambda a: a + [a[-1]])),
    "start above 0": ("start", decoded("start", put(0, 1))),
    "start falls": ("start", decoded("start", put(2, 6))),
    "start ends before the rows": ("start", decoded("start", put(5, 9))),
    "vals shorter than rows": ("vals", decoded("vals", lambda a: a[:-1])),
    "row at the item count": ("rows", decoded("rows", put(9, 5))),
    "row repeated in a bucket": ("rows", decoded("rows", put(1, 0))),
    "rows fall in a bucket": ("rows", decoded("rows", lambda a: [a[1], a[0]] + a[2:])),
    "val zero": ("vals", decoded("vals", put(3, 0.0))),
    "val negative": ("vals", decoded("vals", put(3, -0.5))),
    "val nan": ("vals", decoded("vals", put(3, math.nan))),
    "val inf": ("vals", decoded("vals", put(3, math.inf))),
    **{
        f"{name} {fault}": (name, encoded(name, change))
        for name in INDEX_CODES
        for fault, change in [
            ("holds a non-base64 character", lambda text: text[:4] + "*" + text[4:]),
            ("holds a line break", lambda text: text[:4] + "\n" + text[4:]),
            ("has data after padding", lambda text: text.rstrip("=") + "==AAAA"),
            ("has a partial entry",
             lambda text: base64.b64encode(base64.b64decode(text) + b"\0\0").decode()),
            ("not a string", lambda text: [0]),
        ]
    },
    **{
        f"{name} has non-zero spare bits": (name, encoded(name, flip_spare_bit))
        for name in ("rows", "vals")  # the padded ones: 40 and 80 bytes
    },
    "vals missing": ("vals", lambda record: record["index"].pop("vals")),
    "index missing": ("index", lambda record: record.pop("index")),
    "index a list": ("index", lambda record: record.update(index=list(record["index"]))),
}


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
        """A saved corpus loads as it was built, down to its clips: a video
        4e-7 s longer than one clip keeps its second clip, and clips of
        1e-7 s stay a valid length."""
        corpora = [
            toy_corpus,
            build_corpus([CorpusItem("v", Modality.VIDEO, "c", duration_s=60.0000004)]),
            build_corpus([CorpusItem("t", Modality.TEXT, "c")], clip_len_s=1e-7),
        ]
        assert len(corpora[1].units) == 2
        for corpus in corpora:
            path1 = tmp_path / "c1.json"
            path2 = tmp_path / "c2.json"
            save_corpus(corpus, path1)
            reloaded = load_corpus(path1)
            save_corpus(reloaded, path2)
            assert path1.read_bytes() == path2.read_bytes()
            assert reloaded.units == corpus.units
            assert reloaded.first_unit == corpus.first_unit
            assert reloaded.clip_len_s == corpus.clip_len_s
            assert_same_postings(reloaded.index, corpus.index)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("clip_len_s", None),
            ("clip_len_s", "60"),
            ("clip_len_s", True),
            ("clip_len_s", float("inf")),
            pytest.param("clip_len_s", 10**400, id="clip_len_s-10**400"),
            ("embed_dim", None),
            ("embed_dim", "x"),
            ("embed_dim", 0),
            ("embed_dim", 16.0),
            ("embed_dim", True),
            ("embed_dim", 65537),
            ("embed_dim", 2**40),
            ("embed_seed", None),
            ("embed_seed", -1),
            ("embed_seed", 2**64),
            ("embed_seed", 1.5),
            ("embed_seed", False),
        ],
    )
    def test_bad_corpus_header(self, tmp_path, field, value):
        record = corpus_record([], clip_len_s=60.0, embed_dim=16, embed_seed=2**64 - 1)
        if value is None:
            del record[field]
        else:
            record[field] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        with pytest.raises(BadManifest, match=field):
            load_corpus(path)

    def test_corpus_header_bounds_accepted(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(corpus_record([], clip_len_s=30, embed_dim=1,
                                                 embed_seed=2**64 - 1)), encoding="utf-8")
        corpus = load_corpus(path)
        assert corpus.index.start.tolist() == [0, 0]
        assert corpus.index.rows.size == corpus.index.vals.size == 0
        assert corpus.first_unit == [0]

    @settings(max_examples=40, deadline=None)
    @given(
        mixed_items(),
        st.one_of(st.integers(min_value=1, max_value=64),
                  st.integers(min_value=1, max_value=65536), st.just(65536)),
    )
    def test_saved_postings_load_as_built(self, tmp_path_factory, items, embed_dim):
        """Save then load gives the postings the build made, array for
        array, bit for bit and with the same dtypes, for corpora of videos,
        no-token and duplicate captions at any ``embed_dim``."""
        built = build_corpus(items, clip_len_s=60.0, embed_dim=embed_dim)
        path = tmp_path_factory.mktemp("corpus") / "c.json"
        save_corpus(built, path)
        loaded = load_corpus(path)
        assert_same_postings(loaded.index, built.index)
        assert (loaded.units, loaded.first_unit) == (built.units, built.first_unit)

    def test_load_embeds_nothing(self, tmp_path, toy_corpus, monkeypatch):
        """A load reads the stored postings: with no way to embed or hash a
        token, it still gives the built corpus."""
        path = tmp_path / "c.json"
        save_corpus(toy_corpus, path)

        def refuse(*args):
            raise AssertionError("a load embedded")

        monkeypatch.setattr(retrieval, "embed", refuse)
        monkeypatch.setattr(retrieval, "_bucket", refuse)
        loaded = load_corpus(path)
        assert_same_postings(loaded.index, toy_corpus.index)
        assert loaded.units == toy_corpus.units

    @pytest.mark.parametrize("with_index", [False, True], ids=["as-written", "with-an-index"])
    def test_corpus_1_file_is_refused(self, tmp_path, with_index):
        """A ``corpus/1`` file is refused, index or not, with word to rebuild."""
        record = {**corpus_record([{"id": "d", "modality": "text", "content": "x"}]),
                  "schema": "corpus/1"}
        if not with_index:
            del record["index"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        with pytest.raises(BadManifest, match="rebuild it with `graphmem corpus build`"):
            load_corpus(path)

    @pytest.mark.parametrize("case", sorted(INDEX_FAULTS))
    def test_bad_stored_index(self, tmp_path, case):
        """Each broken rule of the stored postings is a ``BadManifest``
        naming the array, raised before any search can use it."""
        name, fault = INDEX_FAULTS[case]
        record = fault_base_record()
        assert unpack(record, "start") == [0, 3, 5, 5, 8, 10]  # the shape the cases rely on
        fault(record)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        with pytest.raises(BadManifest, match=f"'{name}'"):
            load_corpus(path)

    def test_fault_base_record_loads(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(fault_base_record()), encoding="utf-8")
        built = build_corpus(
            [CorpusItem.from_dict(item) for item in FAULT_ITEMS], embed_dim=5
        )
        assert_same_postings(load_corpus(path).index, built.index)


def post_json(address, path: str, body) -> tuple[int, dict]:
    """POST ``body`` (raw text, or an object sent as JSON) on a fresh
    connection; return the status and the decoded reply."""
    conn = http.client.HTTPConnection(*address, timeout=5)
    try:
        conn.request("POST", path, body=body if isinstance(body, str) else json.dumps(body))
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestSearchServer:
    @pytest.fixture
    def server_address(self, toy_corpus):
        server = make_search_server(toy_corpus, port=0)
        # a short poll lets shutdown() return promptly
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )
        thread.start()
        try:
            yield server.server_address[:2]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_post_search(self, server_address):
        status, reply = post_json(
            server_address, "/search", {"query": "who directed Solaris Dawn film", "k": 2}
        )
        assert status == 200
        results = reply["results"]
        assert len(results) == 2
        assert results[0]["source_id"] == "doc-director"

        assert post_json(server_address, "/search", {"nope": 1})[0] == 400
        assert post_json(server_address, "/other", {})[0] == 404

    @pytest.mark.parametrize(
        "body",
        ['[{"query": "solaris"}]', '"solaris"', "3", "null", '{"query": "solaris", "k": [2]}'],
        ids=["array", "string", "number", "null", "k-list"],
    )
    def test_non_object_body_rejected(self, server_address, body):
        status, reply = post_json(server_address, "/search", body)
        assert status == 400
        assert reply["error"].startswith("bad request")

    @pytest.mark.parametrize(
        "lengths",
        [("-1",), ("abc",), ("+20",), ("2_0",), ("20", "5")],
        ids=["-1", "abc", "+20", "2_0", "two-headers"],
    )
    def test_bad_content_length_rejected(self, server_address, lengths):
        """A Content-Length that is not one header of ASCII digits gets 400
        and Connection: close on its header alone, though ``int`` reads
        ``+20`` and ``2_0`` as the 20 bytes of the body that follows."""
        body = b'{"query": "solaris"}'
        assert len(body) == 20
        head = "POST /search HTTP/1.1\r\nHost: x\r\n" + "".join(
            f"Content-Length: {length}\r\n" for length in lengths
        ) + "\r\n"
        with socket.create_connection(server_address, timeout=5) as sock:
            sock.sendall(head.encode("ascii") + body)
            reply = sock.recv(4096)  # each reply leaves in one send
        head, payload = reply.split(b"\r\n\r\n", 1)
        status_line, headers = head.split(b"\r\n", 1)
        assert status_line.split(b" ")[1] == b"400"
        assert b"Connection: close" in headers
        assert "Content-Length" in json.loads(payload)["error"]

    def test_content_length_padded_with_spaces_accepted(self, server_address):
        body = b'{"query": "solaris", "k": 1}'
        head = f"POST /search HTTP/1.1\r\nHost: x\r\nContent-Length:  {len(body)} \r\n\r\n"
        with socket.create_connection(server_address, timeout=5) as sock:
            sock.sendall(head.encode("ascii") + body)
            assert sock.recv(4096).startswith(b"HTTP/1.1 200")

    @pytest.mark.parametrize("when", ["after-the-reply", "before-the-reply"])
    def test_client_reset_ends_its_connection_quietly(self, server_address, capsys, when):
        """A client that resets its connection (SO_LINGER 0), after reading
        its reply or before, ends that connection with nothing on stderr,
        and the server serves on."""
        before = set(threading.enumerate())
        body = b'{"query": "solaris", "k": 1}'
        head = f"POST /search HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n\r\n"
        with socket.create_connection(server_address, timeout=5) as sock:
            sock.sendall(head.encode("ascii") + body)
            if when == "after-the-reply":
                assert sock.recv(4096).startswith(b"HTTP/1.1 200")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        # connections are accepted in order: this one's handler started first
        assert post_json(server_address, "/search", {"query": "solaris", "k": 1})[0] == 200
        handlers = [t for t in threading.enumerate() if t not in before]
        for handler in handlers:
            handler.join(timeout=5)
        assert not any(handler.is_alive() for handler in handlers)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("default_k", [0, MAX_K + 1])
    def test_default_k_outside_cap_refused(self, toy_corpus, default_k):
        with pytest.raises(RetrievalError):
            make_search_server(toy_corpus, default_k=default_k)

    @pytest.mark.parametrize(
        "body",
        ["[" * 30_000, '{"query": "x", "k": 1e400}', '{"query": "x", "k": ' + "9" * 400 + "}"],
        ids=["nested-30000-deep", "k-1e400", "k-400-digits"],
    )
    def test_unparseable_body_gets_400_and_the_server_serves_on(
        self, server_address, body, capsys
    ):
        status, reply = post_json(server_address, "/search", body)
        assert status == 400
        assert reply["error"].startswith("bad request")
        assert post_json(server_address, "/search", {"query": "solaris", "k": 1})[0] == 200
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("k", [True, 2.9, "3"], ids=["bool", "float", "string"])
    def test_k_other_than_json_integer_rejected(self, server_address, k):
        status, reply = post_json(server_address, "/search", {"query": "solaris", "k": k})
        assert status == 400
        assert reply["error"].startswith("bad request: k must be a JSON integer")
        status, reply = post_json(server_address, "/search", {"query": "solaris", "k": 3})
        assert status == 200 and len(reply["results"]) == 3

    def test_healthz(self, server_address):
        conn = http.client.HTTPConnection(*server_address, timeout=5)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read()) == {"status": "ok", "units": 6}
            conn.request("GET", "/search")
            response = conn.getresponse()
            assert response.status == 404
            assert response.getheader("Content-Type").startswith("application/json")
            assert json.loads(response.read()) == {"error": "unknown endpoint"}
        finally:
            conn.close()

    def test_k_above_cap_rejected(self, server_address):
        status, reply = post_json(server_address, "/search", {"query": "solaris", "k": MAX_K + 1})
        assert status == 400
        assert str(MAX_K) in reply["error"]
        assert post_json(server_address, "/search", {"query": "solaris", "k": MAX_K})[0] == 200

    def test_short_body_times_out_quietly(self, server_address, capsys):
        head = "POST /search HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n"
        with socket.create_connection(server_address, timeout=5) as sock:
            started = time.monotonic()
            sock.sendall(head.encode("ascii") + b'{"query": "x"}')
            reply = sock.recv(4096)
            waited = time.monotonic() - started
        assert reply == b""  # closed without a reply
        assert READ_TIMEOUT_S <= waited < 5
        assert "Traceback" not in capsys.readouterr().err

    def test_oversized_body_rejected_unread(self, server_address):
        head = (
            "POST /search HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
        )
        with socket.create_connection(server_address, timeout=5) as sock:
            sock.sendall(head.encode("ascii"))
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        status_line, headers = reply.split(b"\r\n\r\n", 1)[0].split(b"\r\n", 1)
        assert status_line.split(b" ")[1] == b"400"
        assert b"Connection: close" in headers

    def test_expect_100_continue_answered(self, server_address):
        body = b'{"query": "solaris", "k": 1}'
        head = (
            "POST /search HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        with socket.create_connection(server_address, timeout=5) as sock:
            sock.sendall(head.encode("ascii"))
            assert sock.recv(4096).startswith(b"HTTP/1.1 100")
            sock.sendall(body)
            assert sock.recv(4096).startswith(b"HTTP/1.1 200")

    def test_connection_kept_alive_until_error(self, server_address):
        conn = http.client.HTTPConnection(*server_address, timeout=5)

        def post(body: bytes) -> http.client.HTTPResponse:
            conn.request("POST", "/search", body=body)
            response = conn.getresponse()
            response.read()
            return response

        try:
            first = post(b'{"query": "solaris", "k": 2}')
            sock = conn.sock
            second = post(b'{"query": "mira chen", "k": 3}')
            assert (first.status, second.status) == (200, 200)
            assert conn.sock is sock

            rejected = post(b'{"nope": 1}')
            assert rejected.status == 400
            assert rejected.getheader("Connection") == "close"
            assert conn.sock is None

            assert post(b'{"query": "solaris"}').status == 200
            assert conn.sock is not None and conn.sock is not sock
        finally:
            conn.close()
