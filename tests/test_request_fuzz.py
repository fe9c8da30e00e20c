"""Request-frame fuzzing: mutated plain NDJSON requests never cost a shard.

The single-request half of the protocol fuzz (``test_batch_fuzz.py`` is
the ``check-batch`` half).  A seeded generator pipelines several plain
request lines in one write and mutates them: truncated lines, non-UTF-8
bytes, non-object JSON, falsy ids (``0``, ``""``, ``false``, ``null``),
garbage lines between the requests, an over-limit line (under a patched
``MAX_LINE_BYTES``) and a hangup at a random byte offset.  A small model
of the framing predicts every reply: one per non-blank line, in order,
echoing the id of every request that decoded; an over-limit line is
answered ``bad-request`` and closes the connection; after a hangup the
fragment of the last line is read as a line of its own.  Each case then
asserts a live shard: ``health`` on a fresh connection is ok and
``stats`` shows ``inflight`` back at 0.

``REPRO_FUZZ_SEED`` reseeds the streams.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any

import pytest

from repro.server import protocol
from repro.server.client import ValidationClient, correlation_key
from repro.server.server import ServerThread
from test_batch_fuzz import (
    DOC_BAD,
    DOC_MALFORMED,
    DOC_OK,
    DTD,
    FALSY_IDS,
    LIMIT,
    SEED,
    _exchange,
)

CASES = 48

#: Line mutations; each runs first in a case of every tail, whatever
#: the seed.
LINE_KINDS = (
    "verdict", "bad-document", "health", "truncated", "non-utf8",
    "non-object", "falsy-id", "garbage", "blank",
)
#: How a stream ends: every line whole, an over-limit line, or a hangup
#: at a random offset.
TAILS = ("complete", "overlong", "hangup")

#: Lines that are JSON but not a request the server can decode, and the
#: error code each one gets.
GARBAGE = (
    (b"not json at all", "bad-json"),
    (b'{"op": "nope", "id": 3}', "unsupported-op"),
    (b'{"op": "check", "doc": "<r/>", "id": 4}', "bad-request"),
    (b'{"op": "check", "dtd": 7, "doc": "<r/>"}', "bad-request"),
    (b'{"op": "check", "dtd": "<!ELEMENT r EMPTY>", "doc": "<r/>", "epoch": -1}',
     "bad-request"),
)


@dataclass
class Reply:
    """What the server must answer for one line."""

    code: str  # "ok" or the error code
    id: Any = None
    op: str | None = None
    potentially_valid: bool | None = None


@dataclass
class Case:
    name: str
    kinds: list[str]
    #: (line bytes, reply); a blank line has none.
    lines: list[tuple[bytes, Reply | None]] = field(default_factory=list)
    overlong_at: int | None = None  # index of the over-limit line
    cut: int | None = None  # hangup: bytes of the stream actually sent

    @property
    def stream(self) -> bytes:
        full = b"".join(line for line, _ in self.lines)
        return full if self.cut is None else full[: self.cut]


_NO_ID = object()


def _check_line(
    rng: random.Random, request_id: Any = _NO_ID, doc: str | None = None
) -> tuple[bytes, Reply]:
    good = rng.random() < 0.6
    if doc is None:
        doc = DOC_OK if good else DOC_BAD
    request: dict[str, Any] = {"op": "check", "dtd": DTD, "doc": doc}
    if request_id is _NO_ID:
        request_id = None
    else:
        request["id"] = request_id  # an explicit null included
    if doc == DOC_MALFORMED:
        return protocol.encode(request), Reply("bad-document", request_id)
    return protocol.encode(request), Reply("ok", request_id, "check", good)


def _line(
    rng: random.Random, kind: str, number: int, variant: int
) -> tuple[bytes, Reply | None]:
    if kind == "blank":
        return rng.choice([b"\n", b"   \n", b"\t \n"]), None
    if kind == "health":
        return protocol.encode({"op": "health", "id": f"h{number}"}), Reply(
            "ok", f"h{number}", "health"
        )
    if kind == "falsy-id":
        return _check_line(rng, FALSY_IDS[variant % len(FALSY_IDS)])
    if kind in ("verdict", "bad-document"):
        doc = DOC_MALFORMED if kind == "bad-document" else None
        return _check_line(rng, rng.choice([_NO_ID, number, f"req-{number}"]), doc)
    if kind == "truncated":
        whole = _check_line(rng, number)[0].rstrip(b"\n")
        return whole[: rng.randrange(1, len(whole) - 1)] + b"\n", Reply("bad-json")
    if kind == "non-utf8":
        line = b'{"op": "check", "dtd": "\xff\xfe", "doc": "<r/>", "id": 9}'
        return line + b"\n", Reply("bad-json")
    if kind == "non-object":
        line = rng.choice([b"[1, 2]", b"42", b'"check"', b"null", b"true"])
        return line + b"\n", Reply("bad-request")
    line, code = rng.choice(GARBAGE)
    return line + b"\n", Reply(code)


def _make_case(rng: random.Random, number: int) -> Case:
    tail = TAILS[number % len(TAILS)]
    first = LINE_KINDS[(number // len(TAILS)) % len(LINE_KINDS)]
    kinds = [first] + [rng.choice(LINE_KINDS) for _ in range(rng.randrange(2, 9))]
    case = Case(name=f"{number:02d}-{tail}-{first}", kinds=kinds)
    for index, kind in enumerate(kinds):
        case.lines.append(_line(rng, kind, index, number))
    if tail == "overlong":
        case.overlong_at = rng.randrange(1, len(case.lines) + 1)
        overlong = protocol.encode(
            {"op": "check", "dtd": DTD, "doc": "<r>" + "x" * (2 * LIMIT) + "</r>"}
        )
        case.lines.insert(case.overlong_at, (overlong, Reply("bad-request")))
    elif tail == "hangup":
        case.cut = rng.randrange(1, len(case.stream))
    return case


def _cases() -> list[Case]:
    rng = random.Random(SEED)
    return [_make_case(rng, number) for number in range(CASES)]


def _fragment_reply(fragment: bytes, line: bytes, reply: Reply | None) -> Reply | None:
    """The reply to the fragment a hangup left of *line*: the server reads
    it as one more line."""
    if not fragment.strip():
        return None
    if fragment == line.rstrip(b"\n"):
        return reply
    try:
        value = json.loads(fragment.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError is a ValueError too
        return Reply("bad-json")
    # A strict prefix of a request object is never JSON; of a non-object
    # line, it may be (``42`` cut to ``4``).
    assert not isinstance(value, dict), fragment
    return Reply("bad-request")


def _expected(case: Case) -> list[Reply]:
    """The replies the server must answer for the bytes it got."""
    replies: list[Reply] = []
    position = 0
    for index, (line, reply) in enumerate(case.lines):
        end = position + len(line)
        if case.cut is not None and end > case.cut:
            last = _fragment_reply(line[: case.cut - position], line, reply)
            if last is not None:
                replies.append(last)
            break
        if reply is not None:
            replies.append(reply)
        if index == case.overlong_at:
            break  # answered, then the connection closes
        position = end
    return replies


@pytest.fixture(scope="module")
def shard(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "MAX_LINE_BYTES", LIMIT)
        path = str(tmp_path_factory.mktemp("fuzz") / "pv.sock")
        with ServerThread(unix_path=path) as handle:
            yield handle


def test_the_cases_cover_every_mutation():
    cases = _cases()
    assert {kind for case in cases for kind in case.kinds} == set(LINE_KINDS)
    assert {case.name.split("-")[1] for case in cases} == set(TAILS)
    ids = {
        correlation_key(reply.id) for case in cases for _, reply in case.lines
        if reply is not None
    }
    assert ids >= {"0", '""', "false"}
    assert any(b'"id":null' in line for case in cases for line, _ in case.lines)
    codes = {reply.code for case in cases for reply in _expected(case)}
    assert codes >= {
        "ok", "bad-json", "bad-request", "bad-document", "unsupported-op"
    }


@pytest.mark.parametrize("case", _cases(), ids=lambda case: case.name)
def test_mutated_requests_get_structured_replies(shard, case):
    replies = _exchange(shard.unix_path, case.stream)
    expected = _expected(case)
    assert len(replies) == len(expected), replies
    for want, reply in zip(expected, replies):
        if want.id is None:
            assert "id" not in reply, reply
        else:
            assert correlation_key(reply["id"]) == correlation_key(want.id), reply
        if want.code == "ok":
            assert reply["ok"] is True and reply["op"] == want.op, reply
            if want.op == "check":
                assert reply["potentially_valid"] is want.potentially_valid
        else:
            assert reply["ok"] is False, reply
            assert reply["error"]["code"] == want.code, reply
    if case.overlong_at is not None:
        assert "exceeds" in replies[-1]["error"]["message"]
    with ValidationClient.connect_unix(shard.unix_path) as client:
        assert client.health()["status"] == "ok"
        assert client.stats()["server"]["inflight"] == 0
