"""Canonical serialization, text normalization and file I/O shared across
modules.

Everything that leaves the process (graph files, trajectories, wire
payloads) goes through :func:`canonical_dumps` so that identical
in-memory values always produce identical bytes, and output files are
written whole through :func:`write_text_atomic`.  Saved record types
derive their JSON form from their fields through :class:`Record`, and JSON
from outside the process is parsed through :func:`parse_json`.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import operator
import os
import re
import sys
import types
import typing
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .errors import DomainError

_WS_RE = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    """Case-fold, trim, and collapse runs of whitespace to single spaces."""
    return _WS_RE.sub(" ", text.casefold()).strip()


def canonical_dumps(obj: Any) -> str:
    """Serialize to canonical JSON: sorted keys, compact separators, UTF-8.
    Floats are written exactly as held; a value that must be stable to a
    fixed precision is rounded where it is computed."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
    )


def is_json_type(value: object, kind: type) -> bool:
    """Whether ``value`` holds the JSON type of the annotation ``kind``: a
    bool only as a bool, an int never as a bool, a float as any int or float
    that a float holds finitely (compared, not converted), and a str, list
    or dict only as itself."""
    if kind is float:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is kind


# what a value must be, by the annotation ``is_json_type`` checks it against
JSON_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a finite number",
                   str: "a string", list: "a list", dict: "an object"}


def require_json_type(value: object, kind: type, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``is_json_type(value, kind)``."""
    if not is_json_type(value, kind):
        raise ValueError(f"{name} must be {JSON_TYPE_NAMES[kind]}, got {value!r}")


def require_json_types(values: Iterable, kind: type, name: str) -> None:
    """``require_json_type`` of each of ``values``, most of which pass on one test."""
    exact = None if kind is float else kind
    for value in values:
        if type(value) is not exact:
            require_json_type(value, kind, name)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_text(path: str | Path, error: type["DomainError"]) -> str:
    """The UTF-8 text of an input file.  A file that is missing, unreadable
    or not UTF-8 raises the caller's ``error``, naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from exc


def parse_json(text: str | bytes) -> Any:
    """``json.loads`` for input from outside the process.  Nesting too deep
    for the parser raises ``json.JSONDecodeError``, as any other malformed
    JSON does, not ``RecursionError``, so the caller's handler for bad JSON
    turns it into the caller's typed error.  So does a lone UTF-16
    surrogate, escaped or raw (bytes are decoded as ``json.loads`` decodes
    them, surrogates passed): no output file could hold it as UTF-8."""
    if isinstance(text, bytes):
        text = text.decode(json.detect_encoding(text), "surrogatepass")
    try:
        value = json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", "", 0) from None
    if not text.isascii() or _SURROGATE_ESCAPE_RE.search(text):
        _reject_lone_surrogates(text)
    return value


# the start of the escape of a UTF-16 surrogate, \uD800 to \uDFFF
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")
_LOW_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][c-fC-F]")


def _reject_lone_surrogates(text: str) -> None:
    """Raise ``json.JSONDecodeError`` at the first lone surrogate in ``text``,
    which ``json.loads`` has accepted.  A high surrogate escape followed at
    once by a low one is one character; any raw surrogate is lone, since
    ``json.loads`` leaves it as it is."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise json.JSONDecodeError("lone UTF-16 surrogate", text, exc.start) from None
    pair_end = -1
    for match in _SURROGATE_ESCAPE_RE.finditer(text):
        start = match.start()
        if start == pair_end:
            continue
        before = start
        while before and text[before - 1] == "\\":
            before -= 1
        if (start - before) % 2:
            continue  # an escaped backslash, then the letter u
        if text[start + 3] in "89abAB" and _LOW_SURROGATE_ESCAPE_RE.match(text, start + 6):
            pair_end = start + 6
            continue
        raise json.JSONDecodeError("lone UTF-16 surrogate", text, start)


def read_json(path: str | Path, error: type["DomainError"]) -> Any:
    """The parsed content of a JSON input file; any failure to read or parse
    it raises the caller's ``error``, naming the path."""
    text = read_text(path, error)
    try:
        return parse_json(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` in UTF-8 so that readers see the old file or
    the whole new one, never part of it: the text goes to a temporary file in
    the same directory, named uniquely per call, which then replaces
    ``path``.  A missing directory is made first.  On failure the temporary
    file is removed, ``path`` is left as it was, and an OS error names
    ``path``, not the temporary file."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        if not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
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


class Record:
    """Base of the dataclasses saved as JSON objects: graph nodes and bank
    items, corpus items, observations, cycle records and training segments.
    ``to_dict`` and ``from_dict`` follow each field's type:

    - an enum is written as its value, a frozenset as a sorted list, a tuple
      as a list, element by element, and a nested record as its dict;
      reading converts back;
    - a field whose type admits ``None`` is left out while it is ``None``,
      and its key may be missing; a ``null`` there reads as ``None``;
    - every other key must be present, and a value or list element not of
      its field's JSON type (``is_json_type``) is a ``ValueError`` naming it.

    A subclass names its exceptions in its class statement: ``keep_null``
    fields are written as ``null`` and must be present, ``omit_empty``
    fields are left out while empty and may be missing, and ``optional``
    fields may be missing.  A missing key takes the field's default.
    """

    def __init_subclass__(cls, *, keep_null=(), omit_empty=(), optional=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._rules = (frozenset(keep_null), frozenset(omit_empty), frozenset(optional))

    def to_dict(self) -> dict:
        record = {}
        for name, encode, omit_none, omit_empty in _codec(type(self))[0]:
            value = getattr(self, name)
            if value is None:
                if omit_none:
                    continue
            elif omit_empty and not value:
                continue
            elif encode is not None:
                value = encode(value)
            record[name] = value
        return record

    @classmethod
    def from_dict(cls, record: dict):
        values = []
        for name, default, decode, exact, kind, nullable in _codec(cls)[1]:
            value = record[name] if default is dataclasses.MISSING else record.get(name, default)
            # inline, as in require_json_types: most values pass on one test
            if type(value) is not exact and not (value is None and nullable):
                require_json_type(value, kind, name)
            values.append(value if decode is None or value is None else decode(value))
        return cls(*values)


@functools.cache
def _codec(cls: type) -> tuple[tuple, tuple]:
    """The writers and readers of a record class, one per field in order."""
    keep_null, omit_empty, optional = cls._rules
    hints = typing.get_type_hints(cls)
    writers, readers = [], []
    for field in dataclasses.fields(cls):
        name = field.name
        encode, decode, kind = _converters(hints[name], name)
        nullable = type(None) in typing.get_args(hints[name])
        omit_none = nullable and name not in keep_null
        may_miss = omit_none or name in omit_empty or name in optional
        writers.append((name, encode, omit_none, name in omit_empty))
        # a field without a default is read as required all the same, and a
        # default is read in its JSON form
        default = field.default if may_miss else dataclasses.MISSING
        if encode is not None and default not in (None, dataclasses.MISSING):
            default = encode(default)
        exact = None if kind is float else kind
        readers.append((name, default, decode, exact, kind, nullable))
    return tuple(writers), tuple(readers)


def _converters(tp: Any, name: str) -> tuple[Callable | None, Callable | None, type]:
    """How a value of type ``tp`` is written to JSON and read back, None
    where it passes unchanged, and the JSON type it is written as.  The
    reader of a list checks each element, naming it after ``name``."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union or origin is types.UnionType:
        (inner,) = [arg for arg in args if arg is not type(None)]
        return _converters(inner, name)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return operator.attrgetter("value"), tp, type(next(iter(tp)).value)
    if hasattr(tp, "from_dict"):
        return tp.to_dict, tp.from_dict, dict
    if origin is frozenset or (origin is tuple and args[1:] == (...,)):
        element = f"{name}[]"
        encode, decode, kind = _converters(args[0], element)
        written = sorted if origin is frozenset else list

        def read(value: list):
            require_json_types(value, kind, element)
            return origin(value if decode is None else map(decode, value))

        return written if encode is None else lambda value: written(map(encode, value)), read, list
    if origin is tuple:  # a fixed-length tuple of plain values
        return list, functools.partial(_fixed_tuple, args, name), list
    return None, None, tp


def _fixed_tuple(kinds: tuple[type, ...], name: str, value: list) -> tuple:
    if len(value) != len(kinds):
        raise ValueError(f"{name} must hold {len(kinds)} values, got {len(value)}")
    for index, (item, kind) in enumerate(zip(value, kinds)):
        if type(item) is not kind or kind is float:  # inline, as in require_json_types
            require_json_type(item, kind, f"{name}[{index}]")
    return tuple(value)
