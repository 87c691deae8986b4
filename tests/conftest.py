"""Child processes started by the tests import privqa from this checkout's src.

`--hypothesis-profile=ci` runs the field-type laws in tests/test_cli.py, the
exactness law in tests/test_scorer.py and the disclosure law in
tests/test_promptkit.py on many more examples than tier-1 gives them; a test
that sets its own `max_examples` keeps it. The `interrupt_writes` fixture
stands in for a user's Ctrl-C in the middle of writing an output file.
"""

import builtins
import io
import os
from pathlib import Path

import pytest
from hypothesis import settings

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile("ci", max_examples=400)


class _Interrupting:
    """A file that takes half of its first write, then raises `KeyboardInterrupt`."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise KeyboardInterrupt

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.fixture
def interrupt_writes(tmp_path, monkeypatch):
    """Call it to interrupt, from then on, each file opened for writing under `tmp_path`."""
    real = io.open

    def opening(file, mode="r", *args, **kwargs):
        fh = real(file, mode, *args, **kwargs)
        if set(mode) & set("wxa") and isinstance(file, (str, os.PathLike)):
            if Path(file).resolve().is_relative_to(tmp_path.resolve()):
                return _Interrupting(fh)
        return fh

    def arm():
        monkeypatch.setattr(io, "open", opening)
        monkeypatch.setattr(builtins, "open", opening)

    return arm
