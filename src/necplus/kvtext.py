"""Flat key-value text files used for run configs, transform metadata, and
serialized distribution models.

Format: one `key value` pair per line, single space separator, `#` starts a
comment line. Floats are written with `repr` so they round-trip exactly.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import InvalidInputError, reading, writing


def dumps(pairs: dict) -> str:
    lines = []
    for key, value in pairs.items():
        if isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} {value}")
    return "\n".join(lines) + "\n"


def loads(text: str, path) -> dict[str, str]:
    """The pairs of the text of the file `path`; a key set twice raises
    InvalidInputError naming the file and the key."""
    pairs: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" ")
        if key in pairs:
            raise InvalidInputError(f"{path}: repeated key {key!r}")
        pairs[key] = value.strip()
    return pairs


def write(path: str | Path, pairs: dict) -> None:
    with writing(path):
        Path(path).write_text(dumps(pairs), encoding="utf-8")


def read(path: str | Path) -> dict[str, str]:
    """The pairs of the file `path`, which may start with a UTF-8 byte-order
    mark."""
    with reading(path):
        return loads(Path(path).read_text(encoding="utf-8-sig"), path)


def get(pairs: dict[str, str], key: str, path, conv):
    """conv(pairs[key]) of a file read from `path`; a missing key or a value
    conv rejects raises InvalidInputError naming the file and the key."""
    if key not in pairs:
        raise InvalidInputError(f"{path}: missing key {key!r}")
    try:
        return conv(pairs[key])
    except ValueError:
        raise InvalidInputError(
            f"{path}: bad value {pairs[key]!r} for key {key!r}") from None


def finite_float(text: str) -> float:
    """float(text) that rejects nan and infinities; a `get` converter."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def positive_float(text: str) -> float:
    """finite_float(text) that also rejects zero and negatives; a `get`
    converter."""
    value = finite_float(text)
    if not value > 0:
        raise ValueError(f"{text!r} is not positive")
    return value
