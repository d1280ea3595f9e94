"""JSON helpers: the repo's dialect, non-finite sentinels, canonical hashing.

Three problems share this module because all are about keeping the
toolkit's JSON honest:

* **The dialect.**  Reports, served bodies, ``results.json`` and ``repro
  expand --json`` are ``json.dumps(obj, indent=1, default=float)``: one
  space per level, non-finite floats as bare ``NaN``/``Infinity`` tokens.
  :func:`json_text` writes it byte for byte, but Python's indenting encoder
  is pure Python, so it hands every container of scalars — and every list
  of flat records, such as a report's curve points — to the C encoder in
  one call whose item separator carries the newline and indent.  Python
  walks only the frame of containers that hold containers.

* **Non-finite floats.**  Result rows legitimately contain ``inf`` / ``nan``
  (``actual_compression`` is ``inf`` for an all-pruned mask).  Python's
  default JSON dialect writes them as bare ``Infinity`` / ``NaN`` tokens,
  which strict RFC 8259 consumers — including the binary store's segment
  readers — reject.  :func:`sanitize_nonfinite` replaces them with an
  explicit object sentinel (``{"__nonfinite__": "inf" | "-inf" | "nan"}``)
  and :func:`restore_nonfinite` turns the sentinel back into a float.  The
  convention is documented in docs/FORMATS.md; the sentinel key is reserved
  and must not appear as a literal mapping in stored payloads.

* **Hashing.**  :func:`canonical_json` is the serializer behind
  ``spec_hash``: it refuses (``TypeError``) anything that is not JSON-native
  (tuples, sets, arbitrary objects, non-finite floats, non-string dict
  keys), naming the offending path.  Hashing through ``default=str`` would
  silently alias distinct specs whose stringifications collide; failing
  fast keeps the content address trustworthy.  For JSON-native input the
  output string is byte-identical to ``json.dumps(obj, sort_keys=True)``,
  so existing cache keys are unaffected.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, List, Set

import numpy as np

__all__ = [
    "json_text",
    "NONFINITE_KEY",
    "sanitize_nonfinite",
    "restore_nonfinite",
    "canonical_json",
]

_CONTAINERS = (list, tuple, dict)


def _scalars(kinds) -> bool:
    """Whether no value of these types is a container, so the C encoder
    writes them without recursing."""
    return not any(issubclass(kind, _CONTAINERS) for kind in kinds)


def _c_text(obj: Any, level: int) -> str:
    """The C encoder's text of a container whose items it writes without
    recursing, with the items separated as ``indent=1`` separates them at
    ``level``; unknown objects pass through ``float``, as in the dialect."""
    return json.JSONEncoder(separators=(",\n" + " " * level, ": "),
                            default=float).encode(obj)


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _scalar_text(value: Any) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    return _float_text(float(value))  # the dialect's default=float


def _key_text(key: Any) -> str:
    """A mapping key as ``json`` converts it, then quoted."""
    if isinstance(key, str):
        pass
    elif isinstance(key, float):
        key = _float_text(key)
    elif key is True:
        key = "true"
    elif key is False:
        key = "false"
    elif key is None:
        key = "null"
    elif isinstance(key, int):
        key = int.__repr__(key)
    else:
        raise TypeError("keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}")
    return encode_basestring_ascii(key)


def _encode(obj: Any, level: int, out: List[str], path: Set[int]) -> None:
    """Append ``obj``'s text at indent ``level`` to ``out``; ``path`` holds
    the ids of the Python-walked containers enclosing it."""
    if not isinstance(obj, _CONTAINERS):
        out.append(_scalar_text(obj))
        return
    is_dict = isinstance(obj, dict)
    if not obj:
        out.append("{}" if is_dict else "[]")
        return
    inner = "\n" + " " * (level + 1)
    close = "\n" + " " * level + ("}" if is_dict else "]")
    kind = type(obj)
    if kind is dict:
        kinds = set(map(type, obj.values()))
    elif kind is list or kind is tuple:
        kinds = set(map(type, obj))
    else:  # a subclass may iterate otherwise: walked as json walks it
        kinds = None
    if kinds is not None and _scalars(kinds):
        # the C encoder writes "[a,<inner>b]": open and close the frame
        text = _c_text(obj, level + 1)
        out.append(text[0] + inner + text[1:-1] + close)
        return
    if kinds == {dict} and not is_dict and all(obj) and _scalars(
            set(map(type, chain.from_iterable(map(dict.values, obj))))):
        # non-empty flat records, their items at level + 2.  A raw newline
        # only ever appears in a separator, and only a separator between
        # two records follows a "}" and precedes a "{"
        record = "\n" + " " * (level + 2)
        text = _c_text(obj, level + 2)
        body = text[2:-2].replace("}," + record + "{",
                                  inner + "}," + inner + "{" + record)
        out.append("[" + inner + "{" + record + body + inner + "}" + close)
        return
    marker = id(obj)
    if marker in path:
        raise ValueError("Circular reference detected")
    path.add(marker)
    separator = inner
    if is_dict:
        out.append("{")
        for key, value in obj.items():
            out.append(separator + _key_text(key) + ": ")
            separator = "," + inner
            _encode(value, level + 1, out, path)
    else:
        out.append("[")
        for value in obj:
            out.append(separator)
            separator = "," + inner
            _encode(value, level + 1, out, path)
    out.append(close)
    path.discard(marker)


def json_text(obj: Any) -> str:
    """``json.dumps(obj, indent=1, default=float)``, byte for byte.

    The repo's one JSON dialect (see the module docstring).  Inputs that
    ``json.dumps`` rejects raise the same exception type: an object
    ``float`` cannot convert, a key that is not a str/int/float/bool/None,
    a container that contains itself.
    """
    out: List[str] = []
    _encode(obj, 0, out, set())
    return "".join(out)


#: reserved sentinel key for non-finite floats in strict-JSON payloads.
NONFINITE_KEY = "__nonfinite__"

_TO_TOKEN = {math.inf: "inf", -math.inf: "-inf"}
_FROM_TOKEN = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def _float_sentinel(value: float):
    if value != value:  # nan
        return {NONFINITE_KEY: "nan"}
    token = _TO_TOKEN.get(value)
    return {NONFINITE_KEY: token} if token is not None else float(value)


def sanitize_nonfinite(obj: Any) -> Any:
    """A JSON-safe copy of ``obj`` with non-finite floats as sentinels.

    Recurses through dicts/lists/tuples (tuples become lists, matching
    ``json.dumps``); numpy scalars collapse to their Python equivalents.
    Unknown leaf types pass through untouched for the caller's ``default``
    hook to handle.
    """
    if isinstance(obj, bool):  # before int: bool is an int subclass
        return obj
    if isinstance(obj, float):
        return _float_sentinel(obj)
    if isinstance(obj, np.floating):
        return _float_sentinel(float(obj))
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {key: sanitize_nonfinite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize_nonfinite(value) for value in obj]
    return obj


def restore_nonfinite(obj: Any) -> Any:
    """Inverse of :func:`sanitize_nonfinite`: sentinel dicts become floats."""
    if isinstance(obj, dict):
        if len(obj) == 1:
            token = obj.get(NONFINITE_KEY)
            if isinstance(token, str) and token in _FROM_TOKEN:
                return _FROM_TOKEN[token]
        return {key: restore_nonfinite(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [restore_nonfinite(value) for value in obj]
    return obj


def _assert_canonical(obj: Any, path: str) -> None:
    if obj is None or isinstance(obj, (bool, str, int)):
        return
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise TypeError(
                f"non-finite float at {path} cannot be hashed canonically"
            )
        return
    if isinstance(obj, dict):
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"non-string mapping key {key!r} at {path} is not "
                    "canonical JSON"
                )
            _assert_canonical(value, f"{path}.{key}")
        return
    if isinstance(obj, list):
        for i, value in enumerate(obj):
            _assert_canonical(value, f"{path}[{i}]")
        return
    raise TypeError(
        f"{type(obj).__name__} at {path} is not canonical JSON "
        "(only dict/list/str/int/finite float/bool/None hash stably; "
        "convert tuples to lists and objects to JSON-native values)"
    )


def canonical_json(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True)``, but fail fast on anything whose
    serialization is not a faithful content address (see module docstring)."""
    _assert_canonical(obj, "$")
    return json.dumps(obj, sort_keys=True, allow_nan=False)
