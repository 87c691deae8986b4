"""The one error base, and the one way a user's input file is read and written.

Every error that bad input or settings can cause derives from `PrivqaError`.
The readers raise the caller's error class, naming the file and, where there
is one, the line. This module imports nothing from privqa.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar

V = TypeVar("V")


class PrivqaError(Exception):
    """Bad input or settings: the base of every error a user can cause."""


def read_text(path: str | Path, error: type[PrivqaError]) -> str:
    """The file's UTF-8 text, newlines translated as text mode reads them."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror or exc})") from exc
    try:
        return raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def read_json(path: str | Path, error: type[PrivqaError]) -> Any:
    """The value a JSON file holds."""
    try:
        return json.loads(read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{exc.lineno}: {exc.msg} (column {exc.colno})") from None


def read_records(
    path: str | Path,
    error: type[PrivqaError],
    convert: Callable[[dict, int], tuple[str, V]],
) -> dict[str, V]:
    """Each non-blank line's JSON object, converted and keyed by its id, in file order.

    `convert(record, line number)` returns the (id, value) pair; a
    `PrivqaError` it raises comes back as the same class, prefixed with
    `path:line: `. An id may appear once. Lines end at "\\n" only, since
    `write_records` writes U+2028 and U+0085 raw and `str.splitlines` would
    break at them.
    """
    out: dict[str, V] = {}
    for lineno, line in enumerate(read_text(path, error).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise error(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
        if not isinstance(rec, dict):
            raise error(f"{path}:{lineno}: record is not an object")
        try:
            key, value = convert(rec, lineno)
        except PrivqaError as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from exc
        if key in out:
            raise error(f"{path}:{lineno}: duplicate id {key!r}")
        out[key] = value
    return out


def write_records(path: str | Path, records: Iterable[dict]) -> None:
    """Write one JSON object per line, non-ASCII text as is: what `read_records` reads."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
