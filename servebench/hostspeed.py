"""Host-speed calibration: fixed work interleaved with the requests.

The virtual CPUs of a shared host do not run at one speed: a fixed
Python loop ran ~15% faster or slower from one minute to the next, and
while other tenants loaded the host the servers' CPU per document rose
by half.  No amount of work in one run averages that out, because it
drifts over minutes.  So the load generator, on the same CPU as the
servers, runs fixed pure-Python slices between its requests, one per
document sent, and each round divides its timings by how much slower than
:data:`REFERENCE_SLICE_S` those slices ran.  A slice walks a small
document with the standard library's pure-Python ``HTMLParser``, work
of the same kind as a verdict.  It never runs the program, so a change
to the program moves the normalised figures exactly as it moves the
raw ones, while the host's drift moves the slices and the requests
alike and cancels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from html.parser import HTMLParser
from time import perf_counter, process_time

#: Wall seconds of one slice on the quiet reference host (the 2-vCPU
#: Xeon VM the bounds were tuned on).  A constant: it only sets the
#: scale, so normalised figures read like that host's raw ones.
REFERENCE_SLICE_S = 130e-6
#: Document walks per slice (one walk is ~65 us on the reference host).
WALKS_PER_SLICE = 2

_DOC = (
    "<doc><front><title>On <em>potential</em> validity</title>"
    "<author id='a1'>A. Author</author></front><sec id='s1'><p>alpha "
    "beta</p><p>gamma &amp; delta</p><list><item>one</item><item>two"
    "</item></list></sec><back/></doc>"
)


class _Walk(HTMLParser):
    """A tag walk with the interpreter work a verdict does: regex
    scanning, per-tag method calls, dict and list updates."""

    def reset(self) -> None:
        super().reset()
        self.stack: list[str] = []
        self.counts: dict[str, int] = {}
        self.depth = 0

    def handle_starttag(self, tag: str, attrs: list) -> None:
        self.stack.append(tag)
        self.counts[tag] = self.counts.get(tag, 0) + len(attrs) + 1
        self.depth = max(self.depth, len(self.stack))

    def handle_endtag(self, tag: str) -> None:
        if self.stack and self.stack[-1] == tag:
            self.stack.pop()

    def handle_data(self, data: str) -> None:
        self.counts["#text"] = self.counts.get("#text", 0) + len(data.split())


def _walk(walker: _Walk) -> int:
    walker.reset()
    walker.feed(_DOC)
    walker.close()
    return walker.depth + len(json.dumps(walker.counts, sort_keys=True))


@dataclass
class Tally:
    """Slices run and the wall and CPU seconds they took."""

    slices: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0

    def minus(self, other: "Tally") -> "Tally":
        return Tally(self.slices - other.slices, self.wall_s - other.wall_s,
                     self.cpu_s - other.cpu_s)

    @property
    def wall_slowdown(self) -> float:
        """Wall time per slice over the reference: divides wall-clock
        figures (it includes the hypervisor's steal)."""
        return self.wall_s / self.slices / REFERENCE_SLICE_S

    @property
    def cpu_slowdown(self) -> float:
        """CPU time per slice over the reference: divides CPU-time
        figures (steal excluded, as it is from theirs)."""
        return self.cpu_s / self.slices / REFERENCE_SLICE_S


class HostSpeed:
    """Runs calibration slices and keeps their running tally."""

    def __init__(self) -> None:
        self.total = Tally()
        self._walker = _Walk(convert_charrefs=False)

    def sample(self, slices: int) -> None:
        walker = self._walker
        wall, cpu = perf_counter(), process_time()
        for _ in range(slices * WALKS_PER_SLICE):
            _walk(walker)
        self.total.cpu_s += process_time() - cpu
        self.total.wall_s += perf_counter() - wall
        self.total.slices += slices

    def mark(self) -> Tally:
        return Tally(self.total.slices, self.total.wall_s, self.total.cpu_s)

    def since(self, mark: Tally) -> Tally:
        return self.total.minus(mark)
