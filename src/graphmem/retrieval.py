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

numpy is imported inside the functions that compute, not at module level,
so importing graphmem leaves it unloaded.
"""

from __future__ import annotations

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

CORPUS_SCHEMA = "corpus/1"
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
    """Split [0, duration) into consecutive clips of at most ``clip_len_s``
    seconds; the last clip may be shorter."""
    if not 0 < clip_len_s < math.inf:
        raise BadClipLength(f"clip length must be finite and > 0, got {clip_len_s!r}")
    if duration_s / clip_len_s > CLIPS_PER_VIDEO_MAX:
        raise BadClipLength(
            f"a video of {duration_s!r} s in clips of {clip_len_s!r} s would make more than "
            f"{CLIPS_PER_VIDEO_MAX} clips"
        )
    bounds = []
    start = 0.0
    while start < duration_s:
        end = min(start + clip_len_s, duration_s)
        bounds.append((start, end))
        start = end
    return bounds


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
    seen: set[str] = set()
    for item in items:
        if item.id in seen:
            raise DuplicateItemId(f"duplicate corpus item id {item.id!r}")
        seen.add(item.id)
    if not 0 < clip_len_s < math.inf:
        raise BadClipLength(f"clip length must be finite and > 0, got {clip_len_s!r}")

    units: list[tuple[float, float] | None] = []
    first_unit: list[int] = []
    index = np.empty((len(items), embed_dim), dtype=np.float64)
    for pos, item in enumerate(items):
        # every clip of a video is indexed by the video's caption
        index[pos] = embed(item.content, embed_dim, embed_seed)
        first_unit.append(len(units))
        if item.modality is Modality.VIDEO:
            try:
                units.extend(segment_video(item.duration_s, clip_len_s))
            except BadClipLength as exc:
                raise BadClipLength(f"{item.id!r}: {exc}") from None
        else:
            units.append(None)
    first_unit.append(len(units))
    return Corpus(
        items=items,
        units=units,
        first_unit=first_unit,
        index=_postings(index),
        embed_dim=embed_dim,
        embed_seed=embed_seed,
        clip_len_s=clip_len_s,
    )


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
    if not isinstance(record, dict) or "items" not in record:
        raise BadManifest(f"{origin}: expected an object with an 'items' list")
    try:
        return [CorpusItem.from_dict(entry) for entry in record["items"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise BadManifest(f"{origin}: {exc}") from exc


def load_manifest(path: str | Path) -> list[CorpusItem]:
    record = read_json(path, BadManifest)
    if isinstance(record, dict) and record.get("schema") not in (None, MANIFEST_SCHEMA):
        raise BadManifest(f"{path}: unsupported manifest schema {record.get('schema')!r}")
    return _items_from_record(record, str(path))


def load_manifest_dir(directory: str | Path) -> list[CorpusItem]:
    """All items from every ``*.json`` manifest in the directory, in sorted
    filename order."""
    directory = Path(directory)
    items: list[CorpusItem] = []
    for path in sorted(directory.glob("*.json")):
        items.extend(load_manifest(path))
    return items


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus description.  Embeddings are not stored; they are
    deterministic and get rebuilt on load, so unchanged inputs always produce
    byte-identical files."""
    record = {
        "schema": CORPUS_SCHEMA,
        "clip_len_s": corpus.clip_len_s,
        "embed_dim": corpus.embed_dim,
        "embed_seed": corpus.embed_seed,
        "items": [item.to_dict() for item in corpus.items],
    }
    write_text_atomic(path, canonical_dumps(record) + "\n")


def load_corpus(path: str | Path) -> Corpus:
    # numpy, which builds the index, loads before the JSON parse: loading
    # it after the parse measured a slower start-up
    import numpy  # noqa: F401

    record = read_json(path, BadManifest)
    if not isinstance(record, dict) or record.get("schema") != CORPUS_SCHEMA:
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
    return build_corpus(
        items, clip_len_s=clip_len_s, embed_dim=embed_dim, embed_seed=embed_seed
    )


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)
