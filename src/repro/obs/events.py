"""A structured JSON-line event log with a configurable sink.

One event is one JSON object on one line: ``{"ts": ..., "event": ...,
**fields}``.  The sink is anything callable (receives the line, no
newline), anything file-like (``write`` + optional ``flush``), or
``None`` — the default, which disables the log entirely so un-operated
deployments pay a single attribute check per would-be event.

The stack emits a small, stable vocabulary: ``member-down`` /
``member-up`` from connection pools, ``member-joined`` /
``member-suspect`` / ``member-down`` / ``member-refuted`` /
``member-removed`` from the gossip agent,
``failover`` from :class:`ShardedClient`,
``window-requeued`` from the corpus scheduler, and ``slow-request``
from servers run with ``--slow-ms``.  ``docs/OBSERVABILITY.md`` documents the per-event
fields.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, IO

__all__ = ["EventLog"]


class EventLog:
    """Thread-safe JSON-line event emitter.

    ``EventLog()`` is disabled; ``EventLog(sink)`` writes one line per
    :meth:`emit` to a callable or file-like sink.  Use
    :meth:`EventLog.to_path` for an append-mode file sink.
    """

    def __init__(self,
                 sink: Callable[[str], Any] | IO[str] | None = None) -> None:
        self._lock = threading.Lock()
        self._owned: IO[str] | None = None
        if sink is None:
            self._write: Callable[[str], Any] | None = None
        elif callable(sink):
            self._write = sink
        else:
            self._write = self._file_writer(sink)

    @staticmethod
    def _file_writer(stream: IO[str]) -> Callable[[str], Any]:
        def write(line: str) -> None:
            stream.write(line + "\n")
            flush = getattr(stream, "flush", None)
            if flush is not None:
                flush()

        return write

    @classmethod
    def to_path(cls, path: str) -> "EventLog":
        """An event log appending to *path* (opened line-by-line safe)."""
        stream = open(path, "a", encoding="utf-8")
        log = cls(stream)
        log._owned = stream
        return log

    @property
    def enabled(self) -> bool:
        return self._write is not None

    def emit(self, event: str, **fields: Any) -> None:
        """Emit one event line; a no-op when the log is disabled.

        Non-JSON-serializable field values degrade to ``str`` rather
        than raise — the log must never take down the instrumented
        path.
        """
        if self._write is None:
            return
        record = {"ts": round(time.time(), 3), "event": event}
        record.update(fields)
        line = json.dumps(record, sort_keys=False, default=str)
        with self._lock:
            self._write(line)

    def close(self) -> None:
        if self._owned is not None:
            self._owned.close()
            self._owned = None
            self._write = None
