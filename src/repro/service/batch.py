"""Parallel batch potential-validity checking.

:class:`BatchChecker` turns the per-document :class:`~repro.core.pv.PVChecker`
into a corpus engine: one compiled artifact, N documents, optionally a
``multiprocessing`` pool.  The design follows the streaming/bulk-validation
literature's cost model — schema compilation is the fixed cost, documents
are the traffic — so the artifact crosses the process boundary exactly
once per worker (via the pool initializer), and each task message carries
only the document text.

Worker protocol
---------------
Documents are shipped as serialized XML rather than pickled DOM trees:
the text form is smaller, immune to recursion-depth pickle hazards on
deep trees, and makes ``check_paths`` a zero-copy dispatch (workers read
and parse locally).  Each task returns just its :class:`BatchItem`, a
plain dataclass around a :class:`~repro.core.pv.PVVerdict`.  A document
that fails to parse does not poison the batch — it yields a
:class:`BatchItem` with ``error`` set and counts as "not potentially
valid" in the aggregate.

Inline and in every pool worker, each document goes through
:func:`~repro.service.dispatch.check_text`, the one text→verdict
function the server runs too — so worker count can never change a
verdict, only the wall time.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterable, Sequence

from repro.core.pv import PVVerdict
from repro.dtd.model import DTD
from repro.service.cache import VerdictCache
from repro.service.compiled import CompiledSchema
from repro.service.dispatch import TextVerdict, check_text
from repro.service.registry import DEFAULT_REGISTRY, SchemaRegistry
from repro.xmlmodel.serialize import to_xml
from repro.xmlmodel.tree import XmlDocument

__all__ = ["BatchItem", "BatchResult", "BatchChecker", "check_batch"]


@dataclass(frozen=True)
class BatchItem:
    """The outcome for one document of a batch."""

    index: int
    label: str
    verdict: PVVerdict | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        """True iff the document parsed and is potentially valid."""
        return self.error is None and bool(self.verdict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.error is not None:
            return f"{self.label}: error: {self.error}"
        assert self.verdict is not None
        if self.verdict.potentially_valid:
            return f"{self.label}: potentially valid"
        return (
            f"{self.label}: NOT potentially valid "
            f"({len(self.verdict.failures)} blocked node(s))"
        )


@dataclass(frozen=True)
class BatchResult:
    """Per-document verdicts plus aggregate throughput statistics."""

    items: tuple[BatchItem, ...]
    elapsed: float
    workers: int
    algorithm: str
    fingerprint: str

    @property
    def total(self) -> int:
        return len(self.items)

    @property
    def ok_count(self) -> int:
        return sum(1 for item in self.items if item.ok)

    @property
    def rejected_count(self) -> int:
        """Documents that parsed but are not potentially valid."""
        return sum(
            1 for item in self.items if item.error is None and not item.ok
        )

    @property
    def error_count(self) -> int:
        return sum(1 for item in self.items if item.error is not None)

    @property
    def all_ok(self) -> bool:
        return self.ok_count == self.total

    @property
    def documents_per_second(self) -> float:
        return self.total / self.elapsed if self.elapsed > 0 else float("inf")

    def summary(self) -> str:
        """One-line aggregate the batch CLI prints after the verdicts."""
        return (
            f"{self.total} document(s): {self.ok_count} potentially valid, "
            f"{self.rejected_count} not, {self.error_count} error(s) — "
            f"{self.elapsed:.3f}s with {self.workers} worker(s) "
            f"({self.documents_per_second:.1f} docs/s, "
            f"algorithm={self.algorithm})"
        )


# -- worker-side state ------------------------------------------------------
#
# Set once per worker process by the pool initializer; tasks then carry only
# (index, label, xml_text).  Top-level (module) names so the fork/spawn
# pickling of the initializer and task function resolves by reference.

_WORKER_SCHEMA: CompiledSchema | None = None
_WORKER_ALGORITHM: str = "auto"


def _init_worker(schema: CompiledSchema, algorithm: str) -> None:
    global _WORKER_SCHEMA, _WORKER_ALGORITHM
    _WORKER_SCHEMA = schema
    _WORKER_ALGORITHM = algorithm


def _check_one(task: tuple[int, str, str]) -> BatchItem:
    index, label, text = task
    assert _WORKER_SCHEMA is not None, "pool initializer did not run"
    return _item(index, label, check_text(_WORKER_SCHEMA, text, _WORKER_ALGORITHM))


def _item(index: int, label: str, checked: TextVerdict) -> BatchItem:
    return BatchItem(
        index=index, label=label, verdict=checked.verdict, error=checked.error
    )


class BatchChecker:
    """Checks document corpora against one compiled schema.

    Parameters
    ----------
    schema:
        A :class:`CompiledSchema`, or a bare :class:`DTD` which is resolved
        through *registry* (the process default unless overridden).
    algorithm:
        Backend for every document: ``auto`` (the default, the kernel) or
        ``machine``/``kernel``/``figure5``/``earley``.
    workers:
        Pool size.  ``1`` (the default) checks inline in this process;
        ``N > 1`` forks a pool whose workers each receive the compiled
        artifact once.
    verdict_cache:
        A :class:`VerdictCache` (or a positive int size; ``0``/``None``
        disables) serving repeat documents in O(1) on the inline path.
        Pool workers never share it — cache state lives in the parent
        process only.
    """

    def __init__(
        self,
        schema: CompiledSchema | DTD,
        algorithm: str = "auto",
        workers: int = 1,
        registry: SchemaRegistry | None = None,
        verdict_cache: VerdictCache | int | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if isinstance(schema, DTD):
            schema = (registry or DEFAULT_REGISTRY).get(schema)
        self.schema = schema
        self.algorithm = algorithm
        self.workers = workers
        if isinstance(verdict_cache, int):
            verdict_cache = VerdictCache(verdict_cache) if verdict_cache > 0 else None
        self.verdict_cache = verdict_cache

    # -- corpus entry points -----------------------------------------------

    def check_texts(
        self, texts: Sequence[str], labels: Sequence[str] | None = None
    ) -> BatchResult:
        """Check serialized documents (the native batch representation)."""
        if labels is None:
            labels = [f"doc[{index}]" for index in range(len(texts))]
        if len(labels) != len(texts):
            raise ValueError("labels must pair 1:1 with texts")
        tasks = [
            (index, label, text)
            for index, (label, text) in enumerate(zip(labels, texts))
        ]
        return self._run(tasks)

    def check_paths(self, paths: Iterable[str | Path]) -> BatchResult:
        """Check documents stored in files; labels are the paths.

        An unreadable file (missing, permissions, a directory) does not
        abort the batch: it yields a :class:`BatchItem` with ``error`` set,
        like a document that fails to parse.
        """
        tasks: list[tuple[int, str, str]] = []
        unreadable: list[BatchItem] = []
        for index, path in enumerate(Path(path) for path in paths):
            try:
                tasks.append((index, str(path), path.read_text()))
            except OSError as error:
                unreadable.append(
                    BatchItem(
                        index=index, label=str(path), verdict=None, error=str(error)
                    )
                )
        return self._run(tasks, pre_errors=unreadable)

    def _run(
        self,
        tasks: list[tuple[int, str, str]],
        pre_errors: list[BatchItem] | None = None,
    ) -> BatchResult:
        started = perf_counter()
        if self.workers == 1 or len(tasks) <= 1:
            used_workers = 1
            items = [
                _item(
                    index,
                    label,
                    check_text(self.schema, text, self.algorithm, self.verdict_cache),
                )
                for index, label, text in tasks
            ]
        else:
            used_workers = self.workers
            items = self._check_parallel(tasks)
        elapsed = perf_counter() - started
        items.extend(pre_errors or ())
        items.sort(key=lambda item: item.index)
        return BatchResult(
            items=tuple(items),
            elapsed=elapsed,
            workers=used_workers,
            algorithm=self.algorithm,
            fingerprint=self.schema.fingerprint,
        )

    def check_documents(self, documents: Sequence[XmlDocument]) -> BatchResult:
        """Check in-memory documents (serialized for worker transport)."""
        return self.check_texts([to_xml(document) for document in documents])

    # -- the pool -----------------------------------------------------------

    def _check_parallel(self, tasks: list[tuple[int, str, str]]) -> list[BatchItem]:
        context = multiprocessing.get_context()
        chunksize = max(1, len(tasks) // (self.workers * 4))
        with context.Pool(
            processes=self.workers,
            initializer=_init_worker,
            initargs=(self.schema, self.algorithm),
        ) as pool:
            return pool.map(_check_one, tasks, chunksize=chunksize)


def check_batch(
    dtd: DTD | CompiledSchema,
    documents: Sequence[XmlDocument],
    algorithm: str = "auto",
    workers: int = 1,
) -> BatchResult:
    """One-call convenience: batch-check *documents* against *dtd*."""
    checker = BatchChecker(dtd, algorithm=algorithm, workers=workers)
    return checker.check_documents(documents)
