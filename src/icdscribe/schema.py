"""One strict mapping between dataclasses and JSON documents.

Reading follows the field annotations: an unknown key, a value of the
wrong type (a bool is not an int; a float must be finite), a tuple of the
wrong length or a failed constructor check raises ContractError naming the
dotted path, and a missing key takes the field default unless the reader
asks for every key, as a manifest's does.  A float field
whose metadata is INF_AS_NULL stores +inf as null.  A number field whose
metadata is `within(...)` is bounded by `check_bounds`, which its class
runs on construction; `check_within` checks one value against it.
"""

import codecs
import contextlib
import dataclasses
import json
import math
import os
import sys
import typing
from functools import cache

from .errors import ContractError

INF_AS_NULL = {"inf_as_null": True}


class Interval(typing.NamedTuple):
    """A range of numbers; `ends` is `[` or `(` then `]` or `)`, a parenthesis for an open end."""

    low: float
    high: float
    ends: str

    def __contains__(self, value):  # false for NaN
        above = self.low < value if self.ends[0] == "(" else self.low <= value
        return above and (value < self.high if self.ends[1] == ")" else value <= self.high)

    def __str__(self):
        return f"{self.ends[0]}{self.low:g}, {self.high:g}{self.ends[1]}"


def within(low, high=math.inf, ends=None):
    """Field metadata bounding a number; by default both ends are closed, but +inf is left out."""
    return {"within": Interval(low, high, ends or "[" + ("]" if high < math.inf else ")"))}


def check_within(cls, name, value):
    """Raise a ContractError if `value` is outside the `within` of `cls`'s field `name`."""
    bound = _fields(cls)[name][0].metadata.get("within")
    if bound and value not in bound:
        raise ContractError(f"{name} {value} outside {bound}")


def check_bounds(obj):
    """Raise a ContractError naming the first field of dataclass `obj` outside its `within`."""
    for name in _fields(type(obj)):
        check_within(type(obj), name, getattr(obj, name))


@cache
def _fields(cls):
    hints = typing.get_type_hints(cls)
    return {f.name: (f, hints[f.name]) for f in dataclasses.fields(cls)}


def _shown(value):
    return json.dumps(value)[:40]


def to_payload(value):
    """Plain JSON values for a dataclass tree; tuples become lists."""
    if dataclasses.is_dataclass(value):
        out = {}
        for name, (f, _) in _fields(type(value)).items():
            item = getattr(value, name)
            if f.metadata.get("inf_as_null") and item == math.inf:
                item = None
            out[name] = to_payload(item)
        return out
    if isinstance(value, (list, tuple)):
        return [to_payload(item) for item in value]
    return value


def from_payload(tp, value, where="", defaults=True):
    """A value of annotation `tp` rebuilt from plain JSON values found at path `where`.

    List items share their list's path.  With `defaults` False a key left out
    is refused at any depth, even where its field has a default.
    """
    if dataclasses.is_dataclass(tp):
        return _from_mapping(tp, value, where, defaults)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise ContractError(f"{where!r} must be a list, got {_shown(value)}")
        if origin is list or args[-1] is Ellipsis:
            return origin(from_payload(args[0], item, where, defaults) for item in value)
        if len(value) != len(args):
            raise ContractError(f"{where!r} must hold {len(args)} values, got {len(value)}")
        return tuple(from_payload(a, item, where, defaults) for a, item in zip(args, value))
    if tp is float:
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    else:
        ok = type(value) is tp
    if not ok:
        raise ContractError(f"{where!r} must be {tp.__name__}, got {_shown(value)}")
    return value


def _from_mapping(cls, value, where, defaults):
    if not isinstance(value, dict):
        raise ContractError(f"{where or 'document'!r} must be a mapping, got {_shown(value)}")
    prefix = where + "." if where else ""
    fields = _fields(cls)
    unknown = sorted(set(value) - set(fields))
    if unknown:
        raise ContractError(f"unknown key {prefix + unknown[0]!r}")
    kwargs = {}
    for name, (f, hint) in fields.items():
        if name in value:
            item = value[name]
            null_inf = item is None and f.metadata.get("inf_as_null")
            kwargs[name] = (math.inf if null_inf
                            else from_payload(hint, item, prefix + name, defaults))
        elif not defaults or (f.default is dataclasses.MISSING
                              and f.default_factory is dataclasses.MISSING):
            raise ContractError(f"missing key {prefix + name!r}")
    try:
        return cls(**kwargs)
    except ContractError as exc:
        raise ContractError(f"{where}: {exc}") if where else exc


@contextlib.contextmanager
def atomic_write(path):
    """A binary file whose bytes replace `path` only when the block completes.

    The bytes go to a temporary file beside `path` that then replaces it, so
    a write that fails or is interrupted leaves the old file intact and no
    temporary file behind.  An error opening or renaming the temporary file
    names `path`, the file the caller asked for.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def write_document(path, fmt, payload):
    """Write `payload` atomically as sorted, indented JSON, tagged `fmt` unless that is None."""
    if fmt is not None:
        payload = {"format": fmt, **payload}
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True).encode("utf-8") + b"\n")


def read_lines(path):
    """The lines of the UTF-8 text file at `path`, less a leading byte-order mark; bad UTF-8
    raises a ContractError naming it."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return list(fh)
    except UnicodeDecodeError as exc:
        raise ContractError(f"{path}: not valid UTF-8 ({exc})") from None


def read_document(path, fmt, decode):
    """`decode(payload)` for the JSON document at `path`; see `decode_document`."""
    with open(path, "rb") as fh:
        return decode_document(path, fh.read(), fmt, decode)


def decode_document(path, data, fmt, decode):
    """`decode(payload)` for the UTF-8 JSON `data` read from `path`, its format tag `fmt` removed.

    A leading byte-order mark is dropped, and with `fmt` None the whole
    payload goes to `decode`.  Bad UTF-8 or JSON (nesting too deep included),
    a wrong tag, and any ContractError, lookup, type or value error raised by
    `decode` become one ContractError that names `path` once; an OSError
    passes through.
    """
    try:
        payload = json.loads(data.removeprefix(codecs.BOM_UTF8).decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ContractError(f"{path}: not valid JSON ({exc})") from exc
    try:
        if fmt is not None:
            declared = payload.get("format") if isinstance(payload, dict) else None
            if declared != fmt:
                raise ContractError(f"unsupported format {_shown(declared)}, expected {fmt!r}")
            del payload["format"]
        return decode(payload)
    except ContractError as exc:
        raise ContractError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ContractError(f"{path}: malformed document: {detail}") from exc
