"""Seeded inputs for the served benchmark's three workloads.

Everything here is a pure function of the workload seed, so two runs
with one seed send byte-identical request sequences.  The servers only
ever receive these generated texts; the verdicts they must return are
computed in process by :func:`workloads.oracle`.

* :func:`bulk_corpus` -- manuscript-DTD documents from the three
  ``corpusgen`` shape presets, ~1 KB each, 25% carrying one mutation,
  no document twice.
* :func:`editor_sequence` -- replayed ``markup_script`` editing
  sessions: one request per state, plus exact re-sends of a recent
  state (an editor re-checking after a cursor move or undo).
* :func:`tenants` / :func:`tenant_batches` -- catalog and random DTDs
  (more than one shard's 64-entry registry holds), and 40-document
  batches of unique documents for Zipf-ranked tenants.

The seed changes every document, but not the properties the per-request
cost depends on: editor sessions come from source documents of a fixed
size band, every repeat follows a fixed schedule, tenant documents lie
in a fixed byte band, and the tenant pool, which tenant holds which
Zipf rank and how many batches each rank sends are the same for every
seed.  Without that, one seed's inputs cost a fifth more than
another's and the metrics measured the seed instead of the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import corpusgen
from repro.dtd import catalog
from repro.dtd.model import DTD
from repro.dtd.random_gen import RandomDTDConfig, random_dtd
from repro.dtd.serialize import dtd_to_text
from repro.editor.document import apply_operation
from repro.workloads.docgen import DocumentGenerator
from repro.workloads.editscript import markup_script
from repro.xmlmodel.serialize import to_xml
from repro.xmlmodel.tree import XmlDocument

#: Share of bulk documents that carry one structural mutation.
BULK_CORRUPT = 0.25
#: Share of tenant documents that carry one structural mutation.
TENANT_CORRUPT = 0.5
#: Documents per tenant batch.
TENANT_BATCH = 40
#: Catalog DTDs in the tenant pool (the differential suites' pool plus
#: TEI Lite); the rest of the pool is ``random_dtd`` output.
TENANT_CATALOG = (
    "paper-figure1",
    "example5-T1",
    "example6-T2",
    "play",
    "dictionary",
    "manuscript",
    "with-any",
    "tei-lite",
)
#: Zipf exponent of the tenant ranks.
TENANT_SKEW = 0.6
#: Seed of the tenant pool and of the tenants' Zipf ranks, fixed: the
#: random DTDs and the hottest tenants set most of a ring batch's cost.
TENANT_POOL_SEED = 1
#: Byte band of tenant documents; a DTD whose documents rarely fit is
#: left out of the pool.
TENANT_DOC_BYTES = (300, 700)
#: Source documents of editor sessions: element count and byte band.
EDITOR_ELEMENTS = (116, 124)
EDITOR_DOC_BYTES = (4800, 5400)
#: Generator passes allowed while collecting distinct documents.
_MAX_ATTEMPTS = 50


@dataclass(frozen=True)
class Schema:
    """One tenant schema as the wire carries it."""

    name: str
    dtd: DTD
    text: str
    root: str


def _schema(name: str, dtd: DTD) -> Schema:
    return Schema(name, dtd, dtd_to_text(dtd), dtd.root)


def manuscript() -> Schema:
    return _schema("manuscript", catalog.manuscript())


def _mixed_texts(
    dtd: DTD, count: int, seed: int, corrupt: float, shape: str
) -> list[str]:
    return [
        to_xml(document)
        for document, _provenance in corpusgen.mixed_corpus(
            dtd, count, seed=seed, corrupt_fraction=corrupt, shape=shape
        )
    ]


def bulk_corpus(seed: int, count: int) -> list[str]:
    """*count* distinct manuscript documents, the three shapes interleaved."""
    dtd = catalog.manuscript()
    shapes = sorted(corpusgen.SHAPES)
    texts: list[str] = []
    seen: set[str] = set()
    attempt = 0
    while len(texts) < count:
        per_shape = [
            _mixed_texts(dtd, count // len(shapes) + 1,
                         seed * 1000 + attempt * 10 + offset,
                         BULK_CORRUPT, shape)
            for offset, shape in enumerate(shapes)
        ]
        for group in zip(*per_shape):
            for text in group:
                if text not in seen and len(texts) < count:
                    seen.add(text)
                    texts.append(text)
        attempt += 1
        if attempt > _MAX_ATTEMPTS:
            raise RuntimeError("the bulk generator ran out of documents")
    return texts


def warmup_document(dtd: DTD, seed: int) -> str:
    """A small valid document outside every timed sequence."""
    generator = DocumentGenerator(dtd, seed=seed * 7 + 3)
    return to_xml(generator.document(target_nodes=6, max_depth=4))


def _session_source(dtd: DTD, seed: int) -> XmlDocument:
    """The first generated document inside the editor size bands."""
    for candidate in range(seed * 1000, seed * 1000 + 1000):
        document = DocumentGenerator(dtd, seed=candidate).document(
            target_nodes=120, max_depth=10
        )
        elements = sum(1 for _ in document.root.iter_elements())
        size = len(to_xml(document))
        if (EDITOR_ELEMENTS[0] <= elements <= EDITOR_ELEMENTS[1]
                and EDITOR_DOC_BYTES[0] <= size <= EDITOR_DOC_BYTES[1]):
            return document
    raise RuntimeError("no editor source document in the size bands")


class _FrontToBack(random.Random):
    """``markup_script``'s victim picker: always the last element in
    document order, so the replayed wraps mark the document up from
    front to back.  A random wrap order made a seed's per-request cost
    differ from another's by up to a third."""

    def choice(self, seq):
        return seq[-1]


def editor_sequence(
    seed: int, sessions: int, repeat_every: int = 3, recent: int = 8,
) -> list[str]:
    """Check requests of *sessions* replayed markup sessions.

    Each session starts from the bare-text skeleton of a valid ~120
    element manuscript document and sends one request per state as the
    wrap operations rebuild it, front to back.  After every
    *repeat_every*-th new state one of the last *recent* states is sent
    again verbatim (an editor re-checking after a cursor move or an
    undo), so a quarter of all requests are exact repeats.
    """
    dtd = catalog.manuscript()
    rng = random.Random(seed * 31 + 1)
    requests: list[str] = []
    for session in range(sessions):
        document = _session_source(dtd, seed * 100 + session)
        skeleton, operations = markup_script(document, _FrontToBack())
        history = [to_xml(skeleton)]
        requests.append(history[0])
        for number, operation in enumerate(operations, start=1):
            apply_operation(skeleton, operation)
            history.append(to_xml(skeleton))
            requests.append(history[-1])
            if number % repeat_every == 0:
                requests.append(rng.choice(history[-recent:]))
    return requests


def repeat_share(requests: list[str]) -> float:
    """Share of *requests* whose exact text was sent earlier."""
    return 1.0 - len(set(requests)) / len(requests)


def _in_band(text: str) -> bool:
    return TENANT_DOC_BYTES[0] <= len(text) <= TENANT_DOC_BYTES[1]


def _fits_band(dtd: DTD, seed: int) -> bool:
    """Whether at least half of a probe corpus lies in the byte band."""
    probe = _mixed_texts(dtd, 6, seed, TENANT_CORRUPT, "mixed")
    return sum(map(_in_band, probe)) >= len(probe) // 2


def tenants(count: int) -> list[Schema]:
    """The tenant pool: catalog DTDs, then seeded random DTDs, each
    joining only when its documents fit the byte band."""
    seed = TENANT_POOL_SEED
    pool = [
        _schema(name, catalog.load(name)) for name in TENANT_CATALOG
        if _fits_band(catalog.load(name), seed)
    ]
    rng = random.Random(seed * 17 + 5)
    for index in range(count * _MAX_ATTEMPTS):
        if len(pool) == count:
            return pool
        config = RandomDTDConfig(
            elements=rng.randint(8, 16),
            seed=seed * 1000 + index,
            recursion=rng.choice(("none", "weak")),
            name_prefix=f"t{index}x",
        )
        dtd = random_dtd(config)
        if _fits_band(dtd, seed * 1000 + index):
            pool.append(_schema(f"random-{index}", dtd))
    raise RuntimeError("too few random DTDs fit the document byte band")


def _zipf_counts(batches: int, tenants: int) -> list[int]:
    """Batches per Zipf rank: largest remainder, so every seed's ranks
    carry the same number of batches."""
    weights = [1.0 / (rank + 1) ** TENANT_SKEW for rank in range(tenants)]
    total = sum(weights)
    exact = [batches * weight / total for weight in weights]
    counts = [int(share) for share in exact]
    by_remainder = sorted(
        range(tenants), key=lambda rank: exact[rank] - counts[rank],
        reverse=True,
    )
    for rank in by_remainder[: batches - sum(counts)]:
        counts[rank] += 1
    return counts


@dataclass(frozen=True)
class TenantPlan:
    """The ring workload's request sequence."""

    #: ``(tenant index, documents)`` per batch, in sending order.
    batches: list[tuple[int, list[str]]]
    #: Tenant indexes from the hottest Zipf rank to the coldest.
    ranked: list[int]
    #: Generated documents the caller's *accept* turned down.
    rejected: int


def tenant_batches(
    seed: int, pool: list[Schema], batches: int,
    accept: Callable[[Schema, str], bool] = lambda schema, text: True,
) -> TenantPlan:
    """*batches* 40-document batches in a seeded order.

    Which schema holds which Zipf rank is a fixed shuffle of the pool,
    and how many batches each rank sends is fixed too; the seed orders
    the batches and makes their documents, which are unique per tenant,
    lie in the byte band and pass *accept*.
    """
    ranked = list(range(len(pool)))
    random.Random(TENANT_POOL_SEED * 13 + 7).shuffle(ranked)
    drawn = [
        tenant
        for tenant, count in zip(ranked, _zipf_counts(batches, len(pool)))
        for _ in range(count)
    ]
    random.Random(seed * 13 + 7).shuffle(drawn)
    seen: dict[int, set[str]] = {}
    rejected = 0
    out: list[tuple[int, list[str]]] = []
    for number, tenant in enumerate(drawn):
        schema = pool[tenant]
        tenant_seen = seen.setdefault(tenant, set())
        docs: list[str] = []
        for attempt in range(_MAX_ATTEMPTS):
            for text in _mixed_texts(
                schema.dtd, TENANT_BATCH,
                seed * 100_000 + number * 100 + attempt,
                TENANT_CORRUPT, "mixed",
            ):
                if (len(docs) == TENANT_BATCH or not _in_band(text)
                        or text in tenant_seen):
                    continue
                tenant_seen.add(text)
                if accept(schema, text):
                    docs.append(text)
                else:
                    rejected += 1
            if len(docs) == TENANT_BATCH:
                break
        else:
            raise RuntimeError(f"tenant {schema.name} ran out of documents")
        out.append((tenant, docs))
    return TenantPlan(out, ranked, rejected)
