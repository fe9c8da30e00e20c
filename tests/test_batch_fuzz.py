"""Batch-stream fuzzing: a mutated ``check-batch`` stream never costs a shard.

A seeded generator builds ``check-batch`` streams and mutates them:
truncated item lines, non-UTF-8 bytes, non-object JSON, duplicate and
falsy ids (``0``, ``""``, ``false``, ``null``), blank lines inside a
counted batch, an over-limit item line (under a patched
``MAX_LINE_BYTES``) and a hangup at a random byte offset.  Each stream is
sent to a :class:`~repro.server.server.ServerThread` in one write, and a
small model of the batch framing predicts every reply.  Each case asserts

* a structured reply for every item the server read, in item order and
  with the id the item carried (its index when it had none): a verdict,
  or an item error (``bad-item``, ``bad-document``);
* then the trailer, or for a framing defect an error reply (over-limit
  line) or nothing (hangup), followed by a close;
* a live shard afterwards: ``health`` on a fresh connection is ok and
  ``stats`` shows ``inflight`` back at 0.

``REPRO_FUZZ_SEED`` reseeds the streams, as in the admission
differential.
"""

from __future__ import annotations

import json
import os
import random
import socket
from dataclasses import dataclass, field
from typing import Any

import pytest

from repro.server import protocol
from repro.server.client import ValidationClient, correlation_key
from repro.server.server import ServerThread

SEED = int(os.environ.get("REPRO_FUZZ_SEED", "2006"))

#: The patched line limit: every generated line stays far below it
#: except the deliberate over-limit item.
LIMIT = 4096

CASES = 48

DTD = "<!ELEMENT r (a*)><!ELEMENT a (#PCDATA)>"
DOC_OK = "<r><a>one</a><a>two</a></r>"
#: An element inside the text-only ``a``: never potentially valid.
DOC_BAD = "<r><a><a>nested</a></a></r>"
DOC_MALFORMED = "<r><a>"

#: Item mutations; each runs first in a case of every tail, whatever
#: the seed.
ITEM_KINDS = (
    "verdict", "bad-document", "truncated", "non-utf8", "non-object",
    "falsy-id", "duplicate-id", "blank",
)
#: How a stream ends: a counted trailer, a blank-line trailer, an
#: over-limit item line, or a hangup at a random offset.
TAILS = ("counted", "blank-terminated", "overlong", "hangup")


@dataclass
class Outcome:
    """What the server must answer for one item line."""

    code: str  # "ok" or the item error code
    id: Any
    potentially_valid: bool | None = None


@dataclass
class Case:
    name: str
    kinds: list[str]
    header: bytes = b""
    count: int | None = None
    #: (line bytes, outcome); a blank line has no outcome.
    lines: list[tuple[bytes, Outcome | None]] = field(default_factory=list)
    tail: bytes = b""
    end: str = "trailer"  # "trailer", "overlong" or "hangup"
    cut: int | None = None  # hangup: bytes of the stream actually sent

    @property
    def stream(self) -> bytes:
        full = self.header + b"".join(line for line, _ in self.lines) + self.tail
        return full if self.cut is None else full[: self.cut]


#: Falsy ids, one per case in turn.
FALSY_IDS = (0, "", False, None)

_NO_ID = object()


def _verdict_line(
    rng: random.Random, index: int, item_id: Any = _NO_ID, doc: str | None = None
) -> tuple[bytes, Outcome]:
    item: dict[str, Any] = {}
    if item_id is not _NO_ID:
        item["id"] = item_id
    reply_id = index if item.get("id") is None else item["id"]
    if doc == DOC_MALFORMED:
        item["doc"] = doc
        return protocol.encode(item), Outcome("bad-document", reply_id)
    good = rng.random() < 0.6
    item["doc"] = DOC_OK if good else DOC_BAD
    return protocol.encode(item), Outcome("ok", reply_id, good)


def _item_lines(
    rng: random.Random, kind: str, index: int, variant: int
) -> list[tuple[bytes, Outcome | None]]:
    """The line(s) of one mutation whose first item is item *index*."""
    if kind == "blank":
        return [(rng.choice([b"\n", b"   \n", b"\t \n"]), None)]
    if kind == "truncated":
        whole = json.dumps({"doc": DOC_OK, "id": index}).encode()
        line = whole[: rng.randrange(1, len(whole) - 1)]
    elif kind == "non-utf8":
        line = b'{"doc": "<r>\xff\xfe</r>", "id": 7}'
    elif kind == "non-object":
        line = rng.choice([b"[1, 2]", b"42", b'"doc"', b"null", b"true"])
    elif kind == "falsy-id":
        return [_verdict_line(rng, index, FALSY_IDS[variant % len(FALSY_IDS)])]
    elif kind == "duplicate-id":
        return [_verdict_line(rng, index, "dup"), _verdict_line(rng, index + 1, "dup")]
    else:
        item_id = rng.choice([_NO_ID, index, f"item-{index}"])
        doc = DOC_MALFORMED if kind == "bad-document" else None
        return [_verdict_line(rng, index, item_id, doc)]
    return [(line + b"\n", Outcome("bad-item", index))]


def _make_case(rng: random.Random, number: int) -> Case:
    tail = TAILS[number % len(TAILS)]
    counted = tail == "counted" or (tail != "blank-terminated" and rng.random() < 0.5)
    first = ITEM_KINDS[(number // len(TAILS)) % len(ITEM_KINDS)]
    kinds = [first] + [rng.choice(ITEM_KINDS) for _ in range(rng.randrange(2, 9))]
    if not counted:
        # A blank line would end an uncounted batch.
        kinds = [kind for kind in kinds if kind != "blank"] or ["verdict"]
    case = Case(name=f"{number:02d}-{tail}-{first}", kinds=kinds)
    items = 0
    for kind in kinds:
        for line, outcome in _item_lines(rng, kind, items, number):
            items += outcome is not None
            case.lines.append((line, outcome))
    header: dict[str, Any] = {"op": "check-batch", "dtd": DTD, "id": case.name}
    if tail == "blank-terminated":
        case.tail = b"\n"
    elif tail == "overlong":
        case.tail = protocol.encode({"doc": "<r>" + "x" * (2 * LIMIT) + "</r>"})
        case.end = "overlong"
        items += 1 + rng.randrange(3)  # the batch is still reading
    if counted:
        header["count"] = case.count = items
    case.header = protocol.encode(header)
    if tail == "hangup":
        whole = len(case.header) + sum(len(line) for line, _ in case.lines)
        case.cut = rng.randrange(len(case.header), whole)
        case.end = "hangup"
    return case


def _cases() -> list[Case]:
    rng = random.Random(SEED)
    return [_make_case(rng, number) for number in range(CASES)]


def _expected(case: Case) -> tuple[list[Outcome], str]:
    """The item outcomes the server must answer for the bytes it got, and
    how the batch ends."""
    outcomes: list[Outcome] = []
    position = len(case.header)
    for line, outcome in case.lines:
        end = position + len(line)
        if case.cut is not None and end > case.cut:
            fragment = line[: max(0, case.cut - position)]
            if outcome is not None and fragment.strip():
                # The hangup split this line: the fragment is read as the
                # batch's last item line.
                if fragment == line.rstrip(b"\n"):
                    outcomes.append(outcome)
                else:
                    outcomes.append(Outcome("bad-item", len(outcomes)))
            break
        if outcome is not None:
            outcomes.append(outcome)
        position = end
    if case.end == "hangup" and len(outcomes) == case.count:
        return outcomes, "trailer"  # the cut spared every counted item
    return outcomes, case.end


def _exchange(path: str, stream: bytes) -> list[dict[str, Any]]:
    """Send *stream* in one write, half-close, and read every reply."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(10)
        sock.connect(path)
        sock.sendall(stream)
        sock.shutdown(socket.SHUT_WR)
        with sock.makefile("rb") as replies:
            return [protocol.decode_reply(line) for line in replies]


@pytest.fixture(scope="module")
def shard(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "MAX_LINE_BYTES", LIMIT)
        path = str(tmp_path_factory.mktemp("fuzz") / "pv.sock")
        with ServerThread(unix_path=path) as handle:
            yield handle


def test_the_cases_cover_every_mutation():
    cases = _cases()
    assert {kind for case in cases for kind in case.kinds} == set(ITEM_KINDS)
    assert {_expected(case)[1] for case in cases} == {"trailer", "overlong", "hangup"}
    ids = {
        correlation_key(outcome.id) for case in cases for _, outcome in case.lines
        if outcome is not None
    }
    assert ids >= {"0", '""', "false", '"dup"'}


@pytest.mark.parametrize("case", _cases(), ids=lambda case: case.name)
def test_mutated_batch_stream_gets_structured_replies(shard, case):
    replies = _exchange(shard.unix_path, case.stream)
    outcomes, end = _expected(case)
    items, rest = replies[: len(outcomes)], replies[len(outcomes):]
    assert len(items) == len(outcomes), replies
    for outcome, reply in zip(outcomes, items):
        assert reply["op"] == "check-batch-item", reply
        assert correlation_key(reply["id"]) == correlation_key(outcome.id), reply
        if outcome.code == "ok":
            assert reply["ok"] is True, reply
            assert reply["potentially_valid"] is outcome.potentially_valid
        else:
            assert reply["ok"] is False, reply
            assert reply["error"]["code"] == outcome.code, reply
    if end == "trailer":
        [trailer] = rest
        assert trailer["op"] == "check-batch" and trailer["id"] == case.name
        assert trailer["items"] == len(outcomes)
        assert trailer["errors"] == sum(o.code != "ok" for o in outcomes)
    elif end == "overlong":
        [error] = rest
        assert error["ok"] is False and error["error"]["code"] == "bad-request"
        assert "exceeds" in error["error"]["message"]
    else:
        assert rest == []
    # The server closed the connection (the reads above hit EOF) only
    # after the batch's last run left the off-loop hop.
    with ValidationClient.connect_unix(shard.unix_path) as client:
        assert client.health()["status"] == "ok"
        assert client.stats()["server"]["inflight"] == 0
