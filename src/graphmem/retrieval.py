"""Deterministic simulated multimodal corpus and search engine.

Searchable units are text documents, images, and 1-minute video clips;
images and videos are indexed by their caption text.  Embeddings are hashed
bags of tokens (seeded, so identical across runs and platforms), similarity
is cosine over unit vectors, and the embedding sits behind a tiny interface
so a real model client can replace it.

The index is per-bucket postings: the items non-zero in each bucket, with
their entries.  A search adds the query's weight into each posting it
touches, scoring only the items that share a bucket with the query, and
calls no BLAS, so rankings do not depend on the BLAS build or its threads.
Items are embedded only when a corpus is built; the corpus file stores the
postings, and a load decodes and checks them.

numpy is imported inside the functions that compute, not at module level,
so importing graphmem leaves it unloaded.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import itertools
import logging
import math
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .canon import Record, canonical_dumps, is_finite_number, read_json, write_text_atomic
from .errors import DomainError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

log = logging.getLogger(__name__)

EMBED_DIM_DEFAULT = 256
EMBED_DIM_MAX = 65536  # largest a corpus file may declare
EMBED_SEED_DEFAULT = 9157
CLIP_LEN_DEFAULT = 60.0
FRAMES_PER_CLIP_DEFAULT = 8
CLIPS_PER_VIDEO_MAX = 1_000_000  # bounds memory; keeps each clip's end above its start
SCORE_DECIMALS = 12  # ranking quantization, keeps near-ties platform-stable
_BUCKET_CACHE_SIZE = 1 << 16  # memoized token buckets, bounded in memory

CORPUS_SCHEMA = "corpus/2"
MANIFEST_SCHEMA = "corpus-manifest/1"

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


class RetrievalError(DomainError):
    pass


class DuplicateItemId(RetrievalError):
    pass


class BadClipLength(RetrievalError):
    pass


class EmptyIndex(RetrievalError):
    pass


class BadManifest(RetrievalError):
    pass


class Modality(str, Enum):
    TEXT = "text"
    IMAGE = "image"
    VIDEO = "video"


@dataclass(frozen=True)
class CorpusItem(Record, optional=("asset_ref",)):
    """One store entry.  ``content`` is the text body for text items and the
    caption used for indexing otherwise.  ``asset_ref`` is an opaque pointer
    to the underlying asset; no pixels are stored here."""

    id: str
    modality: Modality
    content: str
    duration_s: float | None = None
    asset_ref: str = ""

    def __post_init__(self) -> None:
        if not (isinstance(self.id, str) and isinstance(self.content, str)
                and isinstance(self.asset_ref, str)):
            raise TypeError(f"corpus item {self.id!r}: id, content and asset_ref must be strings")
        if not self.id:
            raise ValueError("corpus item id must be non-empty")
        if self.modality is Modality.VIDEO:
            # a finite positive duration gives the video at least one clip
            if not (is_finite_number(self.duration_s) and self.duration_s > 0):
                raise ValueError(f"video {self.id!r} needs a finite numeric duration_s > 0")
        elif self.duration_s is not None:
            raise ValueError(f"non-video {self.id!r} must not carry a duration")


class Postings(NamedTuple):
    """The item embeddings by bucket: ``rows[start[j]:start[j + 1]]`` are
    the items non-zero in bucket ``j``, ascending, and ``vals`` holds their
    entries at the same positions."""

    start: np.ndarray
    rows: np.ndarray
    vals: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.start.nbytes + self.rows.nbytes + self.vals.nbytes


@dataclass
class Corpus:
    """One entry of ``units`` per search hit, in item order: a video clip's
    ``(start_s, end_s)``, or ``None`` for a text doc or an image.  Item ``i``
    owns ``units[first_unit[i]:first_unit[i + 1]]``; the last entry of
    ``first_unit`` is ``len(units)``.  ``index`` holds one embedding per
    item, so the clips of a video share it and tie."""

    items: list[CorpusItem]
    units: list[tuple[float, float] | None]
    first_unit: list[int]
    index: Postings
    embed_dim: int
    embed_seed: int
    clip_len_s: float


@dataclass(frozen=True)
class Observation(Record, omit_empty=("frames",), optional=("asset_ref",)):
    """One search hit as offered to the policy.  ``id`` is dense per modality
    within the result list ("Text 1", "Video 2", ...); video hits carry their
    clip bounds and uniformly pre-sampled frames."""

    id: str
    source_id: str
    modality: Modality
    score: float
    content: str
    asset_ref: str = ""
    clip_start_s: float | None = None
    clip_end_s: float | None = None
    frames: tuple[tuple[float, str], ...] = ()


@functools.lru_cache(maxsize=_BUCKET_CACHE_SIZE)
def _bucket(token: str, dim: int, seed: int) -> int:
    digest = hashlib.blake2b(
        token.encode("utf-8"), digest_size=8, key=seed.to_bytes(8, "big")
    ).digest()
    return int.from_bytes(digest, "big") % dim


def embed(text: str, dim: int = EMBED_DIM_DEFAULT, seed: int = EMBED_SEED_DEFAULT) -> np.ndarray:
    """Hashed bag-of-tokens embedding: case-fold, split on non-alphanumerics,
    hash each token into one of ``dim`` buckets, count, L2-normalize.

    Text with no tokens embeds to the zero vector, which is unsearchable:
    it scores 0 against everything.
    """
    import numpy as np

    counts = np.zeros(dim, dtype=np.float64)
    for token in _TOKEN_RE.findall(text.casefold()):
        counts[_bucket(token, dim, seed)] += 1.0
    norm = float(np.linalg.norm(counts))
    if norm == 0.0:
        return counts
    return counts / norm


def segment_video(duration_s: float, clip_len_s: float) -> list[tuple[float, float]]:
    """Split [0, duration) into the fewest clips of ``clip_len_s`` seconds
    that cover it: clip ``i`` starts at ``i * clip_len_s``, and the last one
    ends at the duration, so it may be shorter."""
    if not 0 < clip_len_s < math.inf:
        raise BadClipLength(f"clip length must be finite and > 0, got {clip_len_s!r}")
    if duration_s / clip_len_s > CLIPS_PER_VIDEO_MAX:
        raise BadClipLength(
            f"a video of {duration_s!r} s in clips of {clip_len_s!r} s would make more than "
            f"{CLIPS_PER_VIDEO_MAX} clips"
        )
    # the rounded quotient is off by at most one from the least count n
    # with n * clip_len_s >= duration_s
    count = math.ceil(duration_s / clip_len_s)
    if count * clip_len_s < duration_s:
        count += 1
    elif count > 1 and (count - 1) * clip_len_s >= duration_s:
        count -= 1
    return [(i * clip_len_s, min((i + 1) * clip_len_s, duration_s)) for i in range(count)]


def build_corpus(
    items: Iterable[CorpusItem],
    clip_len_s: float = CLIP_LEN_DEFAULT,
    *,
    embed_dim: int = EMBED_DIM_DEFAULT,
    embed_seed: int = EMBED_SEED_DEFAULT,
) -> Corpus:
    """Segment videos into clips and embed every item once, keeping the
    embeddings only as postings.  Deterministic given the inputs."""
    import numpy as np

    items = list(items)
    units, first_unit = _layout(items, clip_len_s)
    index = np.empty((len(items), embed_dim), dtype=np.float64)
    for pos, item in enumerate(items):
        # every clip of a video is indexed by the video's caption
        index[pos] = embed(item.content, embed_dim, embed_seed)
    return Corpus(
        items=items,
        units=units,
        first_unit=first_unit,
        index=_postings(index),
        embed_dim=embed_dim,
        embed_seed=embed_seed,
        clip_len_s=clip_len_s,
    )


def _layout(
    items: list[CorpusItem], clip_len_s: float
) -> tuple[list[tuple[float, float] | None], list[int]]:
    """``Corpus.units`` and ``Corpus.first_unit`` of the items, whose ids
    must be unique."""
    seen: set[str] = set()
    for item in items:
        if item.id in seen:
            raise DuplicateItemId(f"duplicate corpus item id {item.id!r}")
        seen.add(item.id)
    if not 0 < clip_len_s < math.inf:
        raise BadClipLength(f"clip length must be finite and > 0, got {clip_len_s!r}")

    units: list[tuple[float, float] | None] = []
    first_unit: list[int] = []
    for item in items:
        first_unit.append(len(units))
        if item.modality is Modality.VIDEO:
            try:
                units.extend(segment_video(item.duration_s, clip_len_s))
            except BadClipLength as exc:
                raise BadClipLength(f"{item.id!r}: {exc}") from None
        else:
            units.append(None)
    first_unit.append(len(units))
    return units, first_unit


def _postings(index: np.ndarray) -> Postings:
    """The postings of a dense index, one row per item."""
    import numpy as np

    dim = index.shape[1]
    rows, buckets = np.divmod(np.flatnonzero(index != 0), dim)
    # a stable sort by bucket keeps each bucket's rows ascending; with the
    # narrowest key type that holds every bucket, numpy sorts by radix
    order = np.argsort(buckets.astype(np.min_scalar_type(dim - 1)), kind="stable")
    rows, buckets = rows[order], buckets[order]
    start = np.zeros(dim + 1, dtype=np.intp)
    np.cumsum(np.bincount(buckets, minlength=dim), out=start[1:])
    return Postings(start, rows, index[rows, buckets])


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` highest scores, highest first, exact ties in
    position order: ``np.argsort(-scores, kind="stable")[:k]`` without
    sorting every score."""
    import numpy as np

    neg = -scores
    if k >= len(neg):
        return np.argsort(neg, kind="stable")
    kth = np.partition(neg, k - 1)[k - 1]
    # every score above the k-th, then the first of those tied with it
    better = np.flatnonzero(neg < kth)
    tied = np.flatnonzero(neg == kth)[: k - len(better)]
    top = np.concatenate((better, tied))
    return top[np.argsort(neg[top], kind="stable")]


def sample_frames(source_id: str, start_s: float, end_s: float, n: int) -> list[tuple[float, str]]:
    """``n`` uniformly spaced frames over [start_s, end_s) of the video
    ``source_id``, first at start_s.  Timestamps are rounded to 6 decimal
    places."""
    if n < 1:
        raise ValueError(f"frame count must be >= 1, got {n!r}")
    span = end_s - start_s
    out = []
    for i in range(n):
        ts = round(start_s + span * i / n, 6)
        out.append((ts, f"frame://{source_id}?t={ts:.3f}"))
    return out


_MODALITY_LABEL = {Modality.TEXT: "Text", Modality.IMAGE: "Image", Modality.VIDEO: "Video"}


def search(
    corpus: Corpus,
    query: str,
    k: int,
    *,
    n_frames: int = FRAMES_PER_CLIP_DEFAULT,
) -> list[Observation]:
    """Top-k searchable units by cosine similarity, ties broken by insertion
    order.  Scores are quantized to 12 decimal places before ranking so that
    near-ties order identically on every platform, and stored on the
    observations rounded to 6 decimal places."""
    import numpy as np

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k!r}")
    if not corpus.units:
        raise EmptyIndex("corpus has no searchable units")
    query_vec = embed(query, corpus.embed_dim, corpus.embed_seed)
    # Entries are >= 0, so an item that shares no bucket with the query
    # scores exactly 0; the others differ from a dense product by a few ulps
    # at most, which the quantization absorbs.
    scores = np.zeros(len(corpus.items))
    start, rows, vals = corpus.index
    for bucket in np.flatnonzero(query_vec).tolist():
        lo, hi = start[bucket], start[bucket + 1]
        scores[rows[lo:hi]] += vals[lo:hi] * query_vec[bucket]
    scores = np.round(scores, SCORE_DECIMALS)
    # Exact ties rank in insertion order.  An item's units are adjacent and
    # tie exactly, so expanding the ranked items in order ranks the units;
    # each item owns at least one unit, so k items suffice.
    first = corpus.first_unit
    ranked_items = _top_k(scores, k).tolist()
    hits = itertools.islice(
        ((pos, unit) for pos in ranked_items for unit in corpus.units[first[pos]:first[pos + 1]]),
        k,
    )

    observations: list[Observation] = []
    counters = {Modality.TEXT: 0, Modality.IMAGE: 0, Modality.VIDEO: 0}
    for pos, unit in hits:
        item = corpus.items[pos]
        counters[item.modality] += 1
        clip_fields = {}
        if unit is not None:
            start_s, end_s = unit
            clip_fields = {
                "clip_start_s": start_s,
                "clip_end_s": end_s,
                "frames": tuple(sample_frames(item.id, start_s, end_s, n_frames)),
            }
        observations.append(
            Observation(
                id=f"{_MODALITY_LABEL[item.modality]} {counters[item.modality]}",
                source_id=item.id,
                modality=item.modality,
                score=round(float(scores[pos]), 6),
                content=item.content,
                asset_ref=item.asset_ref,
                **clip_fields,
            )
        )
    return observations


def resolve_keyframes(
    observation: Observation, key_timestamps_s: Sequence[float]
) -> list[tuple[float, str]]:
    """Snap each requested timestamp to the nearest pre-sampled frame of the
    clip (earlier frame wins on exact ties) and return the kept frames as
    ``(timestamp_s, frame_ref)`` pairs of ``observation.frames``.  Requests
    outside the clip are dropped with a warning.
    """
    if observation.modality is not Modality.VIDEO or not observation.frames:
        raise RetrievalError("keyframes can only be resolved on video clip observations")
    kept: list[tuple[float, str]] = []
    for requested in key_timestamps_s:
        if not observation.clip_start_s <= requested < observation.clip_end_s:
            log.warning(
                "keyframe request %.1fs outside clip [%.1f, %.1f) of %s; dropped",
                requested,
                observation.clip_start_s,
                observation.clip_end_s,
                observation.source_id,
            )
            continue
        kept.append(min(observation.frames, key=lambda fr: (abs(fr[0] - requested), fr[0])))
    return kept


# -- manifests and corpus files -------------------------------------------


def _items_from_record(record: dict, origin: str) -> list[CorpusItem]:
    if not isinstance(record, dict) or not isinstance(record.get("items"), list):
        raise BadManifest(f"{origin}: expected an object with an 'items' list")
    items = []
    for pos, entry in enumerate(record["items"]):
        if not isinstance(entry, dict):
            raise BadManifest(f"{origin}: items[{pos}] must be an object, got {entry!r:.40}")
        try:
            items.append(CorpusItem.from_dict(entry))
        except (KeyError, TypeError, ValueError) as exc:
            raise BadManifest(f"{origin}: items[{pos}]: {exc}") from exc
    return items


def load_manifest(path: str | Path) -> list[CorpusItem]:
    record = read_json(path, BadManifest)
    if isinstance(record, dict) and record.get("schema") not in (None, MANIFEST_SCHEMA):
        raise BadManifest(f"{path}: unsupported manifest schema {record.get('schema')!r}")
    return _items_from_record(record, str(path))


def load_manifest_dir(directory: str | Path) -> list[CorpusItem]:
    """All items from every ``*.json`` manifest in the directory, in sorted
    filename order."""
    directory = Path(directory)
    if not directory.is_dir():
        raise BadManifest(f"{directory}: not a directory")
    items: list[CorpusItem] = []
    for path in sorted(directory.glob("*.json")):
        items.extend(load_manifest(path))
    return items


# how each postings array is stored: base64 of these little-endian entries
_INDEX_DTYPES = {"start": "<i8", "rows": "<u4", "vals": "<f8"}


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus: its items, embedding settings and postings.  The
    postings are deterministic, so unchanged inputs always produce
    byte-identical files."""
    record = {
        "schema": CORPUS_SCHEMA,
        "clip_len_s": corpus.clip_len_s,
        "embed_dim": corpus.embed_dim,
        "embed_seed": corpus.embed_seed,
        "items": [item.to_dict() for item in corpus.items],
        "index": {
            name: base64.b64encode(array.astype(_INDEX_DTYPES[name]).tobytes()).decode("ascii")
            for name, array in corpus.index._asdict().items()
        },
    }
    write_text_atomic(path, canonical_dumps(record) + "\n")


def load_corpus(path: str | Path) -> Corpus:
    """The corpus a ``corpus/2`` file holds.  Nothing is embedded: the
    stored postings are decoded and checked before any search can use
    them."""
    # numpy, which holds the index, loads before the JSON parse: loading
    # it after the parse measured a slower start-up
    import numpy  # noqa: F401

    record = read_json(path, BadManifest)
    schema = record.get("schema") if isinstance(record, dict) else None
    if schema == "corpus/1":
        raise BadManifest(
            f"{path}: a 'corpus/1' file holds no index; rebuild it with `graphmem corpus build`"
        )
    if schema != CORPUS_SCHEMA:
        raise BadManifest(f"{path}: expected a {CORPUS_SCHEMA!r} file")
    items = _items_from_record(record, str(path))
    clip_len_s = record.get("clip_len_s")
    embed_dim = record.get("embed_dim")
    embed_seed = record.get("embed_seed")
    if not is_finite_number(clip_len_s):
        raise BadManifest(f"{path}: 'clip_len_s' must be a finite number, got {clip_len_s!r}")
    if not _is_int(embed_dim) or not 1 <= embed_dim <= EMBED_DIM_MAX:
        raise BadManifest(
            f"{path}: 'embed_dim' must be an integer in [1, {EMBED_DIM_MAX}], got {embed_dim!r}"
        )
    if not _is_int(embed_seed) or not 0 <= embed_seed < 2**64:
        raise BadManifest(
            f"{path}: 'embed_seed' must be an integer in [0, 2**64), got {embed_seed!r}"
        )
    units, first_unit = _layout(items, clip_len_s)
    return Corpus(
        items=items,
        units=units,
        first_unit=first_unit,
        index=_read_postings(record.get("index"), embed_dim, len(items), str(path)),
        embed_dim=embed_dim,
        embed_seed=embed_seed,
        clip_len_s=clip_len_s,
    )


def _read_postings(stored: object, embed_dim: int, n_items: int, origin: str) -> Postings:
    """The postings a corpus file stores, checked as ``_postings`` makes
    them, since a file is untrusted input."""
    import numpy as np

    if not isinstance(stored, dict):
        raise BadManifest(f"{origin}: 'index' must be an object of the postings arrays")
    arrays = {}
    for name, dtype in _INDEX_DTYPES.items():
        text = stored.get(name)
        try:
            if not isinstance(text, str):
                raise ValueError("not a string")
            raw = base64.b64decode(text)
            # strict: only the one text b64encode writes for these bytes, so
            # no stray character, line end, data after padding or spare bit
            if base64.b64encode(raw).decode("ascii") != text:
                raise ValueError("not canonical base64")
            # native dtypes, as _postings makes them
            arrays[name] = np.frombuffer(raw, dtype=dtype).astype(
                np.float64 if name == "vals" else np.intp, copy=False
            )
        except ValueError as exc:  # base64 raises binascii.Error, a ValueError
            raise BadManifest(
                f"{origin}: index {name!r} must be base64 of whole {dtype} entries: {exc}"
            ) from None
    start, rows, vals = arrays["start"], arrays["rows"], arrays["vals"]

    def bad(name: str, rule: str) -> BadManifest:
        return BadManifest(f"{origin}: index {name!r} {rule}")

    if len(start) != embed_dim + 1:
        raise bad("start", f"must have embed_dim + 1 = {embed_dim + 1} entries, has {len(start)}")
    if start[0] != 0 or np.any(start[1:] < start[:-1]):
        raise bad("start", "must start at 0 and never fall")
    if len(vals) != len(rows):
        raise bad("vals", f"must have as many entries as 'rows' ({len(rows)}), has {len(vals)}")
    if start[-1] != len(rows):
        raise bad("start", f"must end at the length of 'rows' ({len(rows)}), ends at {start[-1]}")
    if len(rows) and rows.max() >= n_items:
        raise bad("rows", f"must be below the item count ({n_items})")
    # in bucket order, each bucket's rows ascending: (bucket, row) strictly rises
    keys = np.repeat(np.arange(embed_dim, dtype=np.int64), np.diff(start)) * n_items + rows
    if np.any(keys[1:] <= keys[:-1]):
        raise bad("rows", "must strictly ascend within each bucket")
    if not np.all((vals > 0) & (vals < math.inf)):
        raise bad("vals", "must be finite and > 0")
    return Postings(start, rows, vals)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)
