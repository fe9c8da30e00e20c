"""Opt-in request tracing: client-generated ids, per-hop span records.

A trace is requested by the caller (``trace=True`` on the ring client,
or a ``"trace": "<id>"`` field on the wire) and costs nothing when it
is not: servers only build a span object for requests that carried an
id, and ring clients only allocate a :class:`TraceContext` when asked.

The wire shape, end to end:

* request — ``"trace": "f3a9c2d417b8e05a"`` (any non-empty string; ids
  from :func:`new_trace_id` are 16 hex chars).
* server reply — ``"trace": {"id": ..., "span": {...}}`` where the span
  records ``member``, ``op``, ``total_ms``, and the phase timings the
  server measured (``parse_ms``, ``queue_ms``, ``verdict_ms``,
  ``artifact_ms`` — whichever apply).
* ring client reply — the server object is folded into per-hop records:
  ``"trace": {"id": ..., "failovers": N, "hops": [{"member", "elapsed_ms",
  "error"?, "span"?}, ...]}``.  Every member attempted is one hop, in
  order; failed hops carry the error string, the serving hop carries the
  server's span, and ``failovers`` counts the failed hops.
"""

from __future__ import annotations

import binascii
import os
from time import perf_counter
from typing import Any

__all__ = ["TraceContext", "new_trace_id"]


def new_trace_id() -> str:
    """A fresh 16-hex-char client-generated trace id."""
    return binascii.hexlify(os.urandom(8)).decode("ascii")


class TraceContext:
    """Accumulates per-hop span records for one traced ring call."""

    __slots__ = ("id", "hops")

    def __init__(self, trace_id: str | None = None) -> None:
        self.id = trace_id or new_trace_id()
        self.hops: list[dict[str, Any]] = []

    @classmethod
    def make(cls, trace: bool | str | None) -> "TraceContext | None":
        """``None`` for a falsy *trace*; a context otherwise.  A string
        *trace* becomes the id, ``True`` draws a fresh one."""
        if not trace:
            return None
        return cls(trace if isinstance(trace, str) else None)

    def begin_hop(self, member: str) -> dict[str, Any]:
        hop = {"member": member, "_started": perf_counter()}
        self.hops.append(hop)
        return hop

    @staticmethod
    def _finish(hop: dict[str, Any]) -> None:
        started = hop.pop("_started", None)
        if started is not None:
            hop["elapsed_ms"] = round((perf_counter() - started) * 1000.0, 3)

    def fail_hop(self, hop: dict[str, Any], error: object) -> None:
        self._finish(hop)
        hop["error"] = str(error) or type(error).__name__

    def end_hop(self, hop: dict[str, Any], reply: Any) -> None:
        """Close the serving hop, folding the server's span (from the
        reply dict, or a ``(replies, trailer)`` batch result) in."""
        self._finish(hop)
        trailer = reply[1] if isinstance(reply, tuple) else reply
        if isinstance(trailer, dict):
            server = trailer.pop("trace", None)
            if isinstance(server, dict) and "span" in server:
                hop["span"] = server["span"]

    @property
    def failovers(self) -> int:
        return sum(1 for hop in self.hops if "error" in hop)

    def as_dict(self) -> dict[str, Any]:
        hops = []
        for hop in self.hops:
            cleaned = {k: v for k, v in hop.items() if not k.startswith("_")}
            hops.append(cleaned)
        return {"id": self.id, "failovers": self.failovers, "hops": hops}

    def attach(self, reply: Any) -> Any:
        """Set the context as the reply's (or batch trailer's) trace."""
        trailer = reply[1] if isinstance(reply, tuple) else reply
        if isinstance(trailer, dict):
            trailer["trace"] = self.as_dict()
        return reply
