"""Line-oriented stdio protocol for external scorer processes.

The child process prints one handshake line ``{"protocol": 1}`` on stdout,
then answers each request line ``{"id": ..., "inputs": [...]}`` with one
response line ``{"id": ..., "scores": [...]}``. Scores are raw reals, one
per input; the parent normalizes them. A reader thread feeds a queue so
every read carries a timeout, and protocol errors always name the instance
id they interrupted.
"""

from __future__ import annotations

import json
import queue
import subprocess
import threading
from typing import Sequence

from privqa.contexts import ContextView
from privqa.corpus import AugmentedInstance
from privqa.errors import PrivqaError, field
from privqa.harness import choice_texts
from privqa.scorer import ScoreVector, softmax

PROTOCOL_VERSION = 1


class PluginError(PrivqaError):
    """The external scorer process violated the protocol or went away."""


class ExternalScorer:
    """Client for a child scorer process speaking the stdio protocol."""

    def __init__(self, command: Sequence[str], timeout: float = 30.0):
        self.command = tuple(command)
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader: threading.Thread | None = None

    def __enter__(self) -> "ExternalScorer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _pump(self) -> None:
        assert self._proc is not None and self._proc.stdout is not None
        for line in self._proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _fail(self, message: str) -> PluginError:
        """A timeout or protocol fault leaves the child out of step: kill it now."""
        self._proc.kill()
        return PluginError(message)

    def _read_line(self, what: str) -> str:
        try:
            line = self._lines.get(timeout=self.timeout)
        except queue.Empty:
            raise self._fail(f"external scorer timed out after {self.timeout}s on {what}")
        if line is None:
            raise self._fail(f"external scorer exited before answering {what}")
        return line

    def start(self) -> None:
        if self._proc is not None:
            raise PluginError("external scorer already started")
        try:
            self._proc = subprocess.Popen(
                list(self.command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise PluginError(f"cannot launch external scorer {self.command}: {exc}") from exc
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        line = self._read_line("the handshake")
        try:
            hello = json.loads(line)
        except json.JSONDecodeError as exc:
            raise self._fail(f"handshake is not JSON: {line!r}") from exc
        if not isinstance(hello, dict) or hello.get("protocol") != PROTOCOL_VERSION:
            raise self._fail(
                f"unsupported handshake {hello!r}; expected protocol {PROTOCOL_VERSION}"
            )

    def score(self, instance_id: str, inputs: Sequence[str]) -> list[float]:
        """Send one request and return its raw scores, in input order."""
        if self._proc is None or self._proc.stdin is None:
            raise PluginError("external scorer not started")
        request = json.dumps({"id": instance_id, "inputs": list(inputs)})
        try:
            self._proc.stdin.write(request + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise self._fail(
                f"external scorer pipe closed while sending instance {instance_id}"
            ) from exc
        line = self._read_line(f"instance {instance_id}")
        try:
            reply = json.loads(line)
        except json.JSONDecodeError as exc:
            raise self._fail(
                f"response for instance {instance_id} is not JSON: {line!r}"
            ) from exc
        if not isinstance(reply, dict):
            raise self._fail(f"response for instance {instance_id} is not an object: {line!r}")
        if reply.get("id") != instance_id:
            raise self._fail(
                f"response id {reply.get('id')!r} does not match request id {instance_id!r}"
            )
        # a string, a bool, NaN or Infinity (json.loads accepts the last two) fails here;
        # softmax would turn a NaN into NaN probabilities and argmax pick the first label
        error = lambda message: self._fail(f"response for instance {instance_id}: {message}")
        values = field(reply, "scores", list[float], error)
        if len(values) != len(inputs):
            raise self._fail(
                f"response for instance {instance_id} has {len(values)} scores"
                f" for {len(inputs)} inputs"
            )
        return values

    def close(self) -> None:
        if self._proc is None:
            return
        if self._proc.stdin is not None:
            try:
                self._proc.stdin.close()
            except OSError:
                pass
        try:
            self._proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        if self._reader is not None:
            self._reader.join(timeout=5.0)
        self._proc = None
        self._reader = None


def external_score(
    scorer: ExternalScorer, instance: AugmentedInstance, view: ContextView
) -> ScoreVector:
    """Score an instance's choices through the external process."""
    labels = instance.instance.labels()
    texts = choice_texts(instance, view)
    raw = scorer.score(instance.instance.id, texts)
    probs = softmax(raw)
    return ScoreVector(labels=labels, scores=tuple(raw), probs=tuple(float(p) for p in probs))
