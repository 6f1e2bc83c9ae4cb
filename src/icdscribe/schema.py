"""One strict mapping between dataclasses and JSON documents.

Reading follows the field annotations: an unknown key, a value of the
wrong type (a bool is not an int; a float must be finite), a tuple of the
wrong length or a failed constructor check raises ConfigError naming the
dotted path, and a missing key takes the field default.  A float field
whose metadata is INF_AS_NULL stores +inf as null.
"""

import contextlib
import dataclasses
import json
import math
import os
import sys
import typing
from functools import cache

from .errors import ConfigError, ContractError, ParseError, ShapeError, ValidationError

INF_AS_NULL = {"inf_as_null": True}


@cache
def _fields(cls):
    hints = typing.get_type_hints(cls)
    return {f.name: (f, hints[f.name]) for f in dataclasses.fields(cls)}


def _shown(value):
    return json.dumps(value)[:40]


def to_payload(value):
    """Plain JSON values for a dataclass tree; tuples become lists, `object` fields pass as is."""
    if dataclasses.is_dataclass(value):
        out = {}
        for name, (f, hint) in _fields(type(value)).items():
            item = getattr(value, name)
            if f.metadata.get("inf_as_null") and item == math.inf:
                item = None
            out[name] = item if hint is object else to_payload(item)
        return out
    if isinstance(value, (list, tuple)):
        return [to_payload(item) for item in value]
    return value


def from_payload(tp, value, where=""):
    """A value of annotation `tp` rebuilt from plain JSON values found at path `where`.

    List items share their list's path; `object` passes a value unchecked.
    """
    if dataclasses.is_dataclass(tp):
        return _from_mapping(tp, value, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{where!r} must be a list, got {_shown(value)}")
        if origin is list or args[-1] is Ellipsis:
            return origin(from_payload(args[0], item, where) for item in value)
        if len(value) != len(args):
            raise ConfigError(f"{where!r} must hold {len(args)} values, got {len(value)}")
        return tuple(from_payload(a, item, where) for a, item in zip(args, value))
    if tp is float:
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    else:
        ok = tp is object or type(value) is tp
    if not ok:
        raise ConfigError(f"{where!r} must be {tp.__name__}, got {_shown(value)}")
    return value


def _from_mapping(cls, value, where):
    if not isinstance(value, dict):
        raise ConfigError(f"{where or 'document'!r} must be a mapping, got {_shown(value)}")
    prefix = where + "." if where else ""
    fields = _fields(cls)
    unknown = sorted(set(value) - set(fields))
    if unknown:
        raise ConfigError(f"unknown key {prefix + unknown[0]!r}")
    kwargs = {}
    for name, (f, hint) in fields.items():
        if name in value:
            item = value[name]
            null_inf = item is None and f.metadata.get("inf_as_null")
            kwargs[name] = math.inf if null_inf else from_payload(hint, item, prefix + name)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing key {prefix + name!r}")
    try:
        return cls(**kwargs)
    except (ContractError, ValidationError, ConfigError) as exc:
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from exc


def write_document(path, fmt, payload):
    """Stream `payload` as sorted, indented JSON, tagged with format `fmt` unless it is None.

    The JSON goes to a temporary file beside `path` that then replaces it,
    so a write that fails or is interrupted leaves the old document intact.
    """
    if fmt is not None:
        payload = {"format": fmt, **payload}
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_document(path, fmt, decode):
    """`decode(payload)` for the JSON document at `path`, its format tag `fmt` removed.

    With `fmt` None the whole payload goes to `decode`.  Bad JSON, a wrong
    tag, and the ConfigErrors, lookup and type errors raised by `decode`
    become a ConfigError naming the file; other package errors pass through.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    try:
        if fmt is not None:
            declared = payload.get("format") if isinstance(payload, dict) else None
            if declared != fmt:
                raise ConfigError(f"unsupported format {_shown(declared)}, expected {fmt!r}")
            del payload["format"]
        return decode(payload)
    except (ContractError, ShapeError, ValidationError):
        raise
    except ParseError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ConfigError(f"{path}: malformed document: {detail}") from exc
