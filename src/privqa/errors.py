"""The one error base, and the one way a user's input file is read and written.

Every error that bad input or settings can cause derives from `PrivqaError`.
The readers raise the caller's error class, naming the file and, where there
is one, the line. `field` is the one check of a decoded value's kind: a field
of another kind fails, naming its path. Record files, reports and checkpoints
are written through `replacing`, so each is either whole or as it was. This
module imports nothing from privqa.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from itertools import count
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, TypeVar

V = TypeVar("V")


def _all(kind: type, values: Iterable) -> bool:
    return all(type(v) is kind for v in values)


def _finite(value: Any) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


# A field's kind is a type or one of these two. A float is a finite number, an int is
# never a bool (JSON's true is no number), and a WHOLE number is an int or a whole float.
TEXT, WHOLE = "a string with a non-space character", "a whole number"
_KINDS = {  # kind: (how a message names it, the test its value passes)
    str: ("a string", lambda v: type(v) is str),
    TEXT: (TEXT, lambda v: type(v) is str and v.strip() != ""),
    int: ("an integer", lambda v: type(v) is int),
    WHOLE: (WHOLE, lambda v: type(v) is int or type(v) is float and v.is_integer()),
    float: ("a finite number", _finite),
    bool: ("true or false", lambda v: type(v) is bool),
    dict: ("an object", lambda v: type(v) is dict),
    dict[str, str]: ("an object of strings", lambda v: type(v) is dict and _all(str, v.values())),
    list[str]: ("a list of strings", lambda v: type(v) is list and _all(str, v)),
    list[int]: ("a list of integers", lambda v: type(v) is list and _all(int, v)),
    list[float]: ("a list of finite numbers", lambda v: type(v) is list and all(map(_finite, v))),
    list[dict]: ("a list of objects", lambda v: type(v) is list and _all(dict, v)),
}
_REQUIRED = object()


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


def field(record: Any, key: str | tuple, kind: Any, error: Callable, default: Any = _REQUIRED):
    """The value at `key`, a path of keys for a nested field, if it is of `kind`.

    A missing field is `default`, or an error without one. `error(message)`
    names the path: "field 'context.specific.a': expected an object, got 3".
    """
    path = key if isinstance(key, tuple) else (key,)
    for depth in range(len(path) + 1):
        expected, test = _KINDS[kind if depth == len(path) else dict]
        if not test(record):
            shown = json.dumps(record, ensure_ascii=False, default=repr)
            where = f"field {'.'.join(path[:depth])!r}" if depth else "top level"
            raise error(f"{where}: expected {expected}, got {shown[:60]}")
        if depth < len(path):
            if path[depth] not in record and default is _REQUIRED:
                raise error(f"missing field {'.'.join(path[: depth + 1])!r}")
            if path[depth] not in record:
                return default
            record = record[path[depth]]
    if kind is list[float]:
        return [float(v) for v in record]
    return float(record) if kind is float else int(record) if kind is WHOLE else record


def naming(error: type[PrivqaError], what: str) -> Callable[[str], PrivqaError]:
    """`error` for `field` whose message begins with `what: `, e.g. the instance's id."""
    return lambda message: error(f"{what}: {message}")


def read_json(path: str | Path, error: type[PrivqaError], convert: Callable[[dict], V] = dict) -> V:
    """The JSON object a file holds, converted; `convert`'s `PrivqaError` gains `path: `."""
    try:
        value = json.loads(read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{exc.lineno}: {exc.msg} (column {exc.colno})") from None
    try:
        return convert(field(value, (), dict, error))
    except PrivqaError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def read_records(
    path: str | Path, error: type[PrivqaError], convert: Callable[[dict, int], tuple[str, V]]
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


@contextmanager
def replacing(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """A new file to write that takes `path`'s place only once the block completes.

    It is a sibling of `path`, opened with "x", so it gets the permission
    bits `open(path, "w")` gives a new file. Once the block completes it is
    closed and renamed over `path`; if the block raises, `KeyboardInterrupt`
    included, it is removed and `path` keeps its old content. Nothing is
    synced to disk: this guards against an interrupted writer, not a crash.
    """
    path = Path(path)
    for n in count():
        tmp = path.with_name(f".{path.name}.{n}.tmp")
        try:
            fh = tmp.open("xb") if binary else tmp.open("x", encoding="utf-8")
            break
        except FileExistsError:
            continue
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_records(path: str | Path, records: Iterable[dict]) -> None:
    """Write one JSON object per line, non-ASCII text as is: what `read_records` reads.

    A writer that stops part way leaves `path` as it was.
    """
    with replacing(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
