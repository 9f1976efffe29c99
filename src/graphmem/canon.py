"""Canonical serialization, text normalization and file I/O shared across
modules.

Everything that leaves the process (graph files, trajectories, wire
payloads) goes through :func:`canonical_dumps` so that identical
in-memory values always produce identical bytes, and output files are
written whole through :func:`write_text_atomic`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .errors import DomainError

_WS_RE = re.compile(r"\s+")

FLOAT_PLACES = 6


def normalize_text(text: str) -> str:
    """Case-fold, trim, and collapse runs of whitespace to single spaces."""
    return _WS_RE.sub(" ", text.casefold()).strip()


def round_floats(obj: Any, places: int = FLOAT_PLACES) -> Any:
    """Recursively round floats so serialized output is platform-stable."""
    if isinstance(obj, float):
        return round(obj, places)
    if isinstance(obj, dict):
        return {key: round_floats(value, places) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(value, places) for value in obj]
    return obj


def canonical_dumps(obj: Any) -> str:
    """Serialize to canonical JSON: sorted keys, compact separators, UTF-8,
    floats fixed at 6 decimal places."""
    return json.dumps(
        round_floats(obj),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
        allow_nan=False,
    )


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_text(path: str | Path, error: type["DomainError"]) -> str:
    """The UTF-8 text of an input file.  A file that is missing, unreadable
    or not UTF-8 raises the caller's ``error``, naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from exc


def read_json(path: str | Path, error: type["DomainError"]) -> Any:
    """The parsed content of a JSON input file; any failure to read or parse
    it raises the caller's ``error``, naming the path."""
    text = read_text(path, error)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` in UTF-8 so that readers see the old file or
    the whole new one, never part of it: the text goes to a temporary file in
    the same directory, named uniquely per call, which then replaces
    ``path``.  On failure the temporary file is removed, ``path`` is left as
    it was, and an OS error names ``path``, not the temporary file."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(temp, "x", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp, path)
    except BaseException as exc:
        # a failed cleanup must not hide the error that made it necessary
        try:
            temp.unlink(missing_ok=True)
        except OSError:
            pass
        if isinstance(exc, OSError) and exc.filename is not None:
            exc.filename = str(path)
            del exc.filename2  # unset, so the message names one path
        raise
