"""A persistent on-disk cache of compiled schema artifacts.

:class:`ArtifactStore` is the durability tier below
:class:`~repro.service.registry.SchemaRegistry`: one pickle file per
schema fingerprint, so a restarted process (the ``repro serve`` server in
particular) reloads compiled artifacts instead of recompiling them.  The
registry consults the store on every in-memory miss and writes through on
every compile, which makes the disk the second level of a two-level
cache — memory hit, then disk hit, then compile.

File format
-----------
Each artifact lives at ``<directory>/<fingerprint>.pkl`` as a one-line
versioned ASCII header followed by the pickle payload::

    repro-pv-artifact <format-version>\\n
    <pickle bytes of the CompiledSchema>

The header makes files self-describing: a load rejects a wrong magic, a
future format version, or a payload whose embedded fingerprint does not
match the file name (a renamed or tampered file).

Format versions
---------------
* **1** — original layout: pickled ``CompiledSchema`` without kernel
  tables.
* **2** — the pickle carries the kernel backend's dense integer tables
  (:mod:`repro.core.tables`).
* **3** (current) — the pickle additionally carries the coarse
  summary (:mod:`repro.core.coarse`) once it has been built, so a
  shipped or reloaded artifact serves ``get-coarse`` with zero rebuild.

A *supported older* version (see :data:`SUPPORTED_FORMAT_VERSIONS`) is a
legitimate artifact, not corruption: the load succeeds, the missing
derived data is rebuilt, and the file is rewritten in place at the
current version — counted in :attr:`StoreStats.upgrades` and logged once
per store.  Only a *future* or unknown version is treated as a miss.

Durability rules
----------------
* **Atomic write** — :meth:`ArtifactStore.save` writes to a temp file in
  the store directory and ``os.replace``\\ s it into place, so readers
  never observe a half-written artifact, even across concurrent servers
  sharing one store directory.
* **Corruption-tolerant load** — a truncated, garbled, or wrong-version
  file is treated as a miss (the artifact is recompiled and rewritten),
  never as an error.  The corrupt file is unlinked best-effort so the
  next write-through replaces it.
"""

from __future__ import annotations

import logging
import os
import pickle
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.service.compiled import CompiledSchema

__all__ = [
    "STORE_MAGIC",
    "STORE_FORMAT_VERSION",
    "SUPPORTED_FORMAT_VERSIONS",
    "StoreStats",
    "ArtifactStore",
    "default_store_dir",
    "encode_artifact",
    "decode_artifact",
    "artifact_format_version",
]

logger = logging.getLogger(__name__)

#: First header token of every artifact file.
STORE_MAGIC = "repro-pv-artifact"

#: The version new artifacts are written at.  Bump when the layout grows.
STORE_FORMAT_VERSION = 3

#: Versions a load accepts.  Older-but-supported files decode fine (any
#: missing derived data rebuilds lazily) and are upgraded in place by the
#: store; anything else is treated as a miss.
SUPPORTED_FORMAT_VERSIONS = (1, 2, 3)

_SUFFIX = ".pkl"


def encode_artifact(schema: CompiledSchema) -> bytes:
    """*schema* in the store's self-describing byte format (header + pickle).

    This is both the on-disk file format and the wire transfer format the
    ring's ``put-artifact``/``get-artifact`` ops ship between shards — one
    encoding, verified the same way on every receiving side.
    """
    header = f"{STORE_MAGIC} {STORE_FORMAT_VERSION}\n".encode("ascii")
    return header + pickle.dumps(schema, protocol=pickle.HIGHEST_PROTOCOL)


def artifact_format_version(blob: bytes) -> int | None:
    """The header's format version, or ``None`` for a malformed header.

    Purely syntactic: a well-formed header with an *unsupported* version
    still reports its number, so callers can distinguish "older supported
    layout" (upgradeable) from garbage.
    """
    newline = blob.find(b"\n")
    if newline < 0:
        return None
    try:
        magic, version_text = blob[:newline].decode("ascii").split(" ")
    except (UnicodeDecodeError, ValueError):
        return None
    if magic != STORE_MAGIC or not version_text.isdigit():
        return None
    return int(version_text)


def decode_artifact(blob: bytes, fingerprint: str) -> CompiledSchema | None:
    """Decode :func:`encode_artifact` bytes, or ``None`` on any defect.

    Every defect — missing or bad header, unsupported format version,
    truncated or garbled pickle, an embedded fingerprint that does not
    match the expected one — yields ``None``, never an exception: the disk
    store treats it as a cache miss and the server's ``put-artifact`` op
    turns it into a structured ``bad-artifact`` error.  Supported *older*
    versions decode normally (lazy members absent from the old layout are
    rebuilt on demand).
    """
    newline = blob.find(b"\n")
    version = artifact_format_version(blob)
    if version is None or version not in SUPPORTED_FORMAT_VERSIONS:
        return None
    try:
        schema = pickle.loads(blob[newline + 1 :])
    except Exception:
        # A truncated or garbled payload can raise nearly anything out
        # of the unpickler (EOFError, UnpicklingError, AttributeError,
        # ValueError, ...); every such defect is just a bad blob.
        return None
    if not isinstance(schema, CompiledSchema) or schema.fingerprint != fingerprint:
        return None
    return schema


def default_store_dir() -> Path:
    """The store directory used when the CLI is not given ``--store``.

    ``$REPRO_CACHE_DIR`` wins when set; otherwise a per-user cache
    location (``$XDG_CACHE_HOME`` or ``~/.cache``) under ``repro-pv``.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-pv" / "artifacts"


@dataclass(frozen=True)
class StoreStats:
    """An immutable snapshot of one store's counters and contents."""

    directory: str
    artifacts: int
    total_bytes: int
    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    saves: int = 0
    upgrades: int = 0

    def as_dict(self) -> dict[str, object]:
        """A JSON-ready rendering (the server's ``stats`` op uses this)."""
        return {
            "directory": self.directory,
            "artifacts": self.artifacts,
            "total_bytes": self.total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "saves": self.saves,
            "upgrades": self.upgrades,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.artifacts} artifact(s), {self.total_bytes} byte(s) in "
            f"{self.directory} — {self.hits} hit(s), {self.misses} miss(es), "
            f"{self.corrupt} corrupt, {self.saves} save(s), "
            f"{self.upgrades} upgrade(s)"
        )


class ArtifactStore:
    """Pickle-file persistence for :class:`CompiledSchema` artifacts.

    Parameters
    ----------
    directory:
        Where artifact files live.  Created on first use (not at
        construction, so pointing at a read-only location only fails when
        a save is actually attempted).
    """

    def __init__(self, directory: str | os.PathLike[str]) -> None:
        self.directory = Path(directory)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._corrupt = 0
        self._saves = 0
        self._upgrades = 0
        self._upgrade_logged = False
        # Optional sink; None (the default) costs one attribute check per
        # upgrade.  See attach_observability.
        self._events = None

    def attach_observability(self, events=None) -> None:
        """Emit ``store-upgrade`` events to a
        :class:`repro.obs.events.EventLog`.  A later call rebinds the
        sink (last attach wins); ``None`` detaches it."""
        self._events = events if events is not None and events.enabled else None

    # -- paths --------------------------------------------------------------

    def path_for(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint}{_SUFFIX}"

    def fingerprints(self) -> list[str]:
        """Fingerprints with an artifact file present (sorted)."""
        try:
            names = [
                entry.stem
                for entry in self.directory.iterdir()
                # Hidden names are in-flight ``.tmp-*`` files from save();
                # counting them would report phantom artifacts.
                if entry.suffix == _SUFFIX and not entry.name.startswith(".")
            ]
        except OSError:
            return []
        return sorted(names)

    def __contains__(self, fingerprint: object) -> bool:
        return isinstance(fingerprint, str) and self.path_for(fingerprint).exists()

    def __len__(self) -> int:
        return len(self.fingerprints())

    # -- load / save --------------------------------------------------------

    def load(self, fingerprint: str) -> CompiledSchema | None:
        """The stored artifact for *fingerprint*, or ``None``.

        Any defect — missing file, bad magic, unsupported format version,
        truncated or garbled pickle, fingerprint mismatch — is a miss;
        corrupt files are additionally counted and unlinked best-effort so
        the next write-through replaces them cleanly.  A file at a
        *supported older* format version is a hit: it is decoded, upgraded
        in place to the current version, and counted separately.
        """
        path = self.path_for(fingerprint)
        try:
            blob = path.read_bytes()
        except OSError:
            with self._lock:
                self._misses += 1
            return None
        schema = self._decode(blob, fingerprint)
        if schema is None:
            with self._lock:
                self._corrupt += 1
                self._misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        version = artifact_format_version(blob)
        if version is not None and version < STORE_FORMAT_VERSION:
            self._upgrade_in_place(schema, version)
        with self._lock:
            self._hits += 1
        return schema

    def _upgrade_in_place(self, schema: CompiledSchema, version: int) -> None:
        """Rewrite an older-format artifact at the current version.

        The derived data the old layout lacked is built eagerly so the
        rewritten file is a full current-version artifact; a store that
        cannot be written (read-only mount) still serves the upgraded
        object, it just retries the rewrite on the next load.
        """
        if not schema.has_tables:
            schema.tables  # noqa: B018 - builds the v2 payload
        if not schema.has_coarse:
            schema.coarse  # noqa: B018 - builds the v3 payload
        try:
            self.save(schema)
        except OSError:
            pass
        with self._lock:
            self._upgrades += 1
            already_logged = self._upgrade_logged
            self._upgrade_logged = True
        if self._events is not None:
            self._events.emit(
                "store-upgrade",
                fingerprint=schema.fingerprint,
                from_version=version,
                to_version=STORE_FORMAT_VERSION,
                directory=str(self.directory),
            )
        if not already_logged:
            logger.info(
                "upgraded artifact %s from format version %d to %d in %s "
                "(further upgrades in this store are counted silently)",
                schema.fingerprint[:12],
                version,
                STORE_FORMAT_VERSION,
                self.directory,
            )

    def save(self, schema: CompiledSchema) -> Path:
        """Atomically persist *schema*, returning the artifact path."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(schema.fingerprint)
        blob = encode_artifact(schema)
        fd, temp_name = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=_SUFFIX
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        with self._lock:
            self._saves += 1
        return path

    def _decode(self, blob: bytes, fingerprint: str) -> CompiledSchema | None:
        return decode_artifact(blob, fingerprint)

    # -- maintenance --------------------------------------------------------

    def clear(self) -> int:
        """Delete every artifact file; returns how many were removed.

        Orphaned ``.tmp-*`` files (a saver killed mid-write) are swept
        too, but are not counted as removed artifacts.
        """
        removed = 0
        for fingerprint in self.fingerprints():
            try:
                self.path_for(fingerprint).unlink()
                removed += 1
            except OSError:
                pass
        try:
            leftovers = [
                entry
                for entry in self.directory.iterdir()
                if entry.name.startswith(".tmp-")
            ]
        except OSError:
            leftovers = []
        for entry in leftovers:
            try:
                entry.unlink()
            except OSError:
                pass
        return removed

    @property
    def stats(self) -> StoreStats:
        artifacts = 0
        total_bytes = 0
        for fingerprint in self.fingerprints():
            try:
                total_bytes += self.path_for(fingerprint).stat().st_size
                artifacts += 1
            except OSError:
                pass
        return StoreStats(
            directory=str(self.directory),
            artifacts=artifacts,
            total_bytes=total_bytes,
            **self.counts,
        )

    @property
    def counts(self) -> dict[str, int]:
        """The load and save counts of :attr:`stats`, without its
        directory walk (registry stats and metrics scrapes read these)."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "corrupt": self._corrupt,
                "saves": self._saves,
                "upgrades": self._upgrades,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore({str(self.directory)!r})"
