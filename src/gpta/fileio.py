"""How gpta reads and writes its files: whole-file writes for run-directory
artifacts and checkpoints, JSON and JSONL reads, and the typed reader that
checks decoded JSON against dataclass field annotations."""

import json
import math
import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin

from .errors import ParseError, ValidationError


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Replace `path` with `data` (str is written as UTF-8) so that it holds
    either its previous bytes or all of the new ones, never a truncated mix.

    The bytes go to a temp file in the same directory, which os.replace
    then renames over `path`. There is no fsync: this survives a crashed
    or interrupted process, not a power loss.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_text(path: str | Path) -> str:
    """The text of the UTF-8 file `path`. Bytes that are not UTF-8 raise
    ValidationError naming the path; a missing file raises OSError."""
    with decoding(str(path)):
        return Path(path).read_text(encoding="utf-8")


def encodes(text: str) -> bool:
    """Whether `text` encodes as UTF-8, i.e. holds no lone surrogate (which
    JSON's \\ud800 escapes can produce)."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def read_json(path: str | Path):
    """The JSON value in the UTF-8 file `path`. Invalid JSON or UTF-8 raises
    ValidationError naming the path; a missing file raises OSError."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed {path}: invalid JSON: {exc}") from exc


def jsonl_objects(text: str) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of JSONL `text`, lines
    numbered from 1. Lines end at "\\n" only, so U+0085, U+2028 and U+2029
    inside a string stay in their line. A line that is not JSON, or not a
    JSON object, raises ParseError naming it."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON ({exc.msg})", lineno) from exc
        if not isinstance(obj, dict):
            raise ParseError("expected a JSON object", lineno)
        yield lineno, obj


@contextmanager
def decoding(what: str):
    """Turn any failure to decode `what` into ValidationError (exit 2)."""
    try:
        yield
    except (ValueError, KeyError, TypeError, ValidationError) as exc:
        raise ValidationError(f"malformed {what}: {type(exc).__name__}: {exc}") from exc


# Each scalar annotation's name in messages and the exact types it takes (no bool for a number, no numpy scalar).
_SCALARS = {str: ("string", {str}), int: ("integer", {int}), float: ("number", {int, float}), bool: ("boolean", {bool})}

# What a sequence-typed value must be, for the error when it is not.
_SEQUENCE_EXPECTED = {
    tuple[float, float, float]: "a list of three numbers",
    tuple[str, ...]: "a list of strings",
    tuple[str, float]: "a [prefix, weight] pair",
}


# The number lists states are mostly made of, checked in one pass: each one's
# element type and the JSON types it accepts (bool is a type of its own).
_NUMBER_LISTS = {tuple[float, ...]: (float, {int, float}), tuple[int, ...]: (int, {int})}


def _from_json(path: str, tp, value):
    """Check a JSON value against a type annotation and return it as that
    type; errors name the JSON path, e.g. $.sim_pool[3][1]. Scalars,
    `X | None`, tuples, lists and dataclasses (via record_from_json) are
    understood, and a tuple is taken wherever a list is."""
    if tp in _NUMBER_LISTS and isinstance(value, (list, tuple)):
        number, accepted = _NUMBER_LISTS[tp]
        try:
            if set(map(type, value)) <= accepted and (number is int or all(map(math.isfinite, value))):
                return tuple(map(number, value))
        except OverflowError:  # an int too large for a float; the element walk below names it
            pass
    if tp in _SCALARS:
        name, accepted = _SCALARS[tp]
        if type(value) not in accepted:
            raise ValidationError(f"$.{path}: expected {name}, got {type(value).__name__}")
        # JSON readers accept NaN and Infinity; this also catches ints too large for a float.
        if tp is float and not abs(value) <= sys.float_info.max:
            raise ValidationError(f"$.{path}: expected a finite number, got {value}")
        if tp is str and not encodes(value):
            raise ValidationError(f"$.{path}: expected a string that encodes as UTF-8")
        return tp(value)
    if is_dataclass(tp):
        return record_from_json(tp, value, path)
    items = get_args(tp)
    if type(None) in items:
        return None if value is None else _from_json(path, items[0], value)
    if isinstance(value, (list, tuple)) and (get_origin(tp) is list or items[-1] is Ellipsis):
        items = items[:1] * len(value)
    if not isinstance(value, (list, tuple)) or len(value) != len(items):
        raise ValidationError(f"$.{path}: expected {_SEQUENCE_EXPECTED.get(tp, 'a list')}")
    return get_origin(tp)(_from_json(f"{path}[{i}]", t, v) for i, (t, v) in enumerate(zip(items, value)))


def _fields_from_json(cls, obj, path: str, names=None) -> dict:
    """Typed keyword arguments for dataclass cls from a JSON object holding
    the fields `names` (default: all); a field whose default is None may be
    left out."""
    if not isinstance(obj, dict):
        raise ValidationError(f"$.{path}: expected object, got {type(obj).__name__}")
    named = {f.name: f for f in fields(cls) if names is None or f.name in names}
    missing = {name for name, f in named.items() if f.default is not None} - obj.keys()
    unknown = obj.keys() - named.keys()
    if missing or unknown:
        raise ValidationError(f"$.{path}: missing keys {sorted(missing)}, unknown keys {sorted(unknown)}")
    return {key: _from_json(f"{path}.{key}", named[key].type, value) for key, value in obj.items()}


def record_from_json(cls, obj, path: str):
    """Build a run record dataclass from its JSON object, each field from
    its annotation. A missing (unless its default is None), unknown or
    mistyped key raises ValidationError naming $.<path>.<field>."""
    return cls(**_fields_from_json(cls, obj, path))
