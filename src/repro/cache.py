"""Content-addressed build cache for the expensive pipeline stages.

Sweeps and test suites compile many :class:`~repro.pipeline.Simulation`\\ s
whose grid rows often differ only in *analysis* knobs (strategies,
probabilities, API tier, countermeasure rules) while the expensive build
stages — catalog generation and panel assembly — are identical.  This
module provides the primitives that let those stages be shared:

* :func:`stable_fingerprint` — the fingerprint contract.  A fingerprint is
  the SHA-256 hex digest of the canonical JSON encoding (sorted keys,
  compact separators) of ``{"kind": <stage or class tag>, "payload":
  <plain data>}``.  Canonical JSON makes the digest independent of dict
  insertion order, process boundaries and ``PYTHONHASHSEED``; the ``kind``
  tag keeps equal payloads of different stages (or config classes) from
  colliding.  Every seed that influences a build is part of the payload,
  so two fingerprints collide exactly when the builds they describe are
  bit-identical.

* :class:`BuildCache` — a thread-safe in-process LRU keyed by such
  fingerprints.  :meth:`BuildCache.get_or_build` runs the builder on a
  miss (at most once per key, even under concurrent callers — per-key
  locks serialise racing builders) and returns the cached artifact on a
  hit; :meth:`BuildCache.cache_info` exposes per-tier hit/miss/eviction
  accounting and :meth:`BuildCache.clear` empties the memory tier and
  resets the counters.

* :class:`DiskCache` — the optional on-disk tier behind the memory LRU.
  Artifacts live as single files named by their stage fingerprint under
  ``<root>/objects/``; lookups go memory → disk → build, and every
  successful build with a registered codec is published back to disk so
  the *next* process cold-starts by loading instead of rebuilding.

Cache invalidation rules
------------------------
Keys are *content* fingerprints: any change to a config field, a seed or
the world population changes the key, so there is no staleness to manage —
a stale entry is simply never looked up again and eventually falls out of
the LRU (disk entries linger until ``repro-facebook cache clear``, which
is garbage collection, not invalidation).  The only explicit invalidation
is :meth:`BuildCache.clear` (used by tests and benchmarks to measure cold
builds); it drops the memory tier only, so a cleared cache backed by a
warm root re-hydrates from disk.  Cached artifacts (catalogs, panels) are
treated as immutable by every consumer; mutable per-run state (APIs,
clocks, click logs, delivery engines) is always rebuilt fresh by
:func:`repro.pipeline.assemble_simulation` and never enters the cache.

Disk-tier contract
------------------
* **Content keys.**  Disk artifacts reuse the in-memory fingerprints, so
  a disk hit is exactly as trustworthy as a memory hit: equal key ⇔
  bit-identical build.  A disk-hydrated run must therefore reproduce an
  in-memory run exactly (catalog, ``PanelColumns`` arrays, downstream
  ResultSets/CallStats) — pinned by ``tests/test_disk_cache.py``.
* **Versioned format.**  Every artifact embeds a header with a format
  version, its kind and a content digest (see :mod:`repro.io.artifacts`).
  A wrong version, wrong kind, bad digest, truncated or otherwise
  unreadable file is a *miss* — the artifact is rebuilt, never trusted —
  so format evolution invalidates cleanly by bumping the version tag.
* **Atomic publication.**  Artifacts are written to a temp file in the
  same directory and ``os.replace``-d into place, so concurrent readers
  never observe a partial artifact and concurrent publishers of the same
  key both succeed (last writer wins with identical content).
* **Graceful degradation.**  A read-only, missing or otherwise flaky
  cache root degrades to in-memory-only behaviour with a single warning;
  load and store failures are counted (``disk_load_errors`` /
  ``disk_store_errors``) but never raised.  Fault plans with
  ``depth="cache"`` inject errors at the :func:`repro.faults.fire_inner`
  sites inside the load/store paths to prove exactly this.
* **``cache clear``.**  ``repro-facebook cache clear`` removes every
  artifact (and any sweep manifests) under the root;
  ``repro-facebook cache info`` reports tier sizes and ``cache warm``
  pre-builds artifacts for a scenario grid.

The disk tier is enabled for the process-global cache whenever the
``REPRO_CACHE_ROOT`` environment variable names a directory (the CLI
``cache`` subcommand defaults to ``~/.cache/repro-facebook``); the
in-process LRU bound comes from ``REPRO_CACHE_SIZE`` (default
:data:`DEFAULT_CACHE_SIZE`).

:func:`build_cache` returns the process-global instance shared by
:class:`~repro.scenarios.sweep.SweepRunner` chunks and the exec layer's
process workers: serial and thread backends share one cache per process,
while each process-pool worker amortises its own across chunks and sweeps
— and, with a cache root, every worker hydrates from the same disk tier
instead of regenerating catalogs from scratch.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Protocol

from .errors import ConfigurationError
from .faults import fire_inner

__all__ = [
    "BuildCache",
    "CacheInfo",
    "DiskCache",
    "SpecMemo",
    "build_cache",
    "catalog_stage_key",
    "reset_build_cache",
    "resolve_cache_root",
    "resolve_cache_size",
    "stable_fingerprint",
]

#: Default bound on the number of cached artifacts.  Entries are whole
#: catalogs and panels, so the cache is sized in dozens, not thousands.
DEFAULT_CACHE_SIZE = 32

#: Environment variable naming the disk-tier root directory.  When set,
#: the process-global cache publishes and hydrates artifacts there.
CACHE_ROOT_ENV = "REPRO_CACHE_ROOT"

#: Environment variable overriding the in-process LRU bound.
CACHE_SIZE_ENV = "REPRO_CACHE_SIZE"

#: Default disk-tier root used by the CLI ``cache`` subcommand when
#: neither an explicit ``--root`` nor ``REPRO_CACHE_ROOT`` is given.
DEFAULT_CACHE_ROOT = Path("~/.cache/repro-facebook")


def stable_fingerprint(kind: str, payload: Any) -> str:
    """The SHA-256 fingerprint of ``payload`` under the ``kind`` tag.

    ``payload`` must be JSON-serialisable plain data (the configs'
    ``to_dict()`` views qualify: dataclass fields of ints, floats, strings,
    bools, ``None`` and nested dicts/lists/tuples).  The encoding is
    canonical — sorted keys, compact separators, no NaN shortcuts — so the
    digest is stable across dict insertion orders, interpreter restarts and
    machines.
    """
    document = {"kind": kind, "payload": payload}
    encoded = json.dumps(
        document, sort_keys=True, separators=(",", ":"), allow_nan=False, default=_coerce
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _coerce(value: Any) -> Any:
    """JSON fallback: sets become sorted lists (tuples the encoder handles
    natively as arrays); anything else is rejected loudly."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"unfingerprintable value in payload: {value!r}")


def catalog_stage_key(
    catalog_config: Any, seed: int | None, world_population: float
) -> str:
    """The fingerprint of one catalog build.

    Shared by :func:`repro.pipeline.build_catalog` and
    :meth:`repro.reach.ReachModelSpec.build` so a sweep's panel stage and a
    process worker's reach-model rebuild hit the same cache entry.
    ``catalog_config`` is duck-typed on ``to_dict()`` to keep this module
    free of :mod:`repro.config` imports (which import this module).
    """
    return stable_fingerprint(
        "stage:catalog",
        {
            "config": catalog_config.to_dict(),
            "seed": None if seed is None else int(seed),
            "world_population": float(world_population),
        },
    )


def resolve_cache_size(explicit: int | None = None) -> int:
    """The in-process LRU bound: explicit > ``REPRO_CACHE_SIZE`` > default."""
    if explicit is not None:
        if explicit < 1:
            raise ConfigurationError("cache size must be >= 1")
        return int(explicit)
    raw = os.environ.get(CACHE_SIZE_ENV)
    if raw is None or not raw.strip():
        return DEFAULT_CACHE_SIZE
    try:
        size = int(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"{CACHE_SIZE_ENV} must be an integer, got {raw!r}"
        ) from exc
    if size < 1:
        raise ConfigurationError(f"{CACHE_SIZE_ENV} must be >= 1, got {size}")
    return size


def resolve_cache_root(explicit: str | Path | None = None) -> Path:
    """The disk-tier root: explicit > ``REPRO_CACHE_ROOT`` > ``~/.cache``.

    Used by the CLI ``cache`` subcommand and the sweep-manifest default
    path; the *process-global* cache only attaches a disk tier when the
    environment variable is actually set (see :func:`build_cache`), so
    library behaviour without the variable is byte-for-byte the pre-disk
    behaviour.
    """
    if explicit is not None:
        return Path(explicit).expanduser()
    env = os.environ.get(CACHE_ROOT_ENV)
    if env:
        return Path(env).expanduser()
    return DEFAULT_CACHE_ROOT.expanduser()


class SpecMemo:
    """Bounded per-process memo of artifacts rebuilt from frozen specs.

    Worker processes resolve shard payloads (reach-model specs, assigner
    specs) to live objects once per process — but long-lived sweep and
    service workers see an unbounded variety of specs over their lifetime,
    so an unbounded ``dict`` memo is a slow leak.  This is the bounded
    replacement: an LRU keyed like the build cache (by the spec's content
    fingerprint), with a second small LRU memoising spec → fingerprint so
    the shard hot path pays a dataclass hash per task, not a SHA-256.

    Not thread-safe by design: worker-side resolution happens on one
    thread per process, and a lost race would only rebuild an artifact
    twice, never corrupt it.
    """

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ConfigurationError("SpecMemo maxsize must be >= 1")
        self._maxsize = int(maxsize)
        self._keys: OrderedDict[Any, str] = OrderedDict()
        self._artifacts: OrderedDict[str, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._artifacts)

    @property
    def maxsize(self) -> int:
        """Bound on memoised artifacts (the key memo holds 4x as many)."""
        return self._maxsize

    def key_for(self, spec: Any) -> str:
        """``spec.fingerprint()``, memoised per spec value."""
        key = self._keys.get(spec)
        if key is None:
            key = spec.fingerprint()
            self._keys[spec] = key
            # Distinct spec values can share a fingerprint (e.g. defaults
            # spelled explicitly), so the key memo gets its own, larger
            # allowance instead of riding the artifact bound.
            if len(self._keys) > 4 * self._maxsize:
                self._keys.popitem(last=False)
        else:
            self._keys.move_to_end(spec)
        return key

    def get_or_build(self, spec: Any, build: Callable[[Any], Any]) -> Any:
        """The artifact for ``spec``, building via ``build(spec)`` on a miss."""
        key = self.key_for(spec)
        artifact = self._artifacts.get(key)
        if artifact is None:
            artifact = build(spec)
            self._artifacts[key] = artifact
            if len(self._artifacts) > self._maxsize:
                self._artifacts.popitem(last=False)
        else:
            self._artifacts.move_to_end(key)
        return artifact

    def clear(self) -> None:
        """Drop every memoised key and artifact (test isolation hook)."""
        self._keys.clear()
        self._artifacts.clear()


class ArtifactCodec(Protocol):
    """How one artifact type serialises to a single disk file.

    Implementations (see :mod:`repro.io.artifacts`) own the on-disk
    format — header, version tag and content digest included.  ``decode``
    must raise on *any* integrity problem; the disk tier maps every
    exception to a miss-and-rebuild.
    """

    #: Artifact type tag, embedded in the header and checked on load.
    kind: str
    #: Filename extension, e.g. ``"catalog.npz"`` — the artifact for key
    #: ``k`` lives at ``<root>/objects/<k>.<extension>``.
    extension: str

    def encode(self, artifact: Any, path: Path) -> None:
        """Write ``artifact`` to ``path`` (a temp file the tier renames)."""

    def decode(self, path: Path) -> Any:
        """Load the artifact at ``path``, raising on any integrity issue."""


class DiskCache:
    """The on-disk artifact tier: fingerprint-named files under a root.

    Every operation degrades instead of raising: a load that fails for
    any reason is a miss, a store that fails is skipped (with one warning
    for unusable roots), and the caller's accounting records the error.
    ``fire_inner("cache")`` sites at the top of both paths let fault plans
    with ``depth="cache"`` chaos-test exactly this degradation.
    """

    def __init__(self, root: str | Path) -> None:
        self._root = Path(root).expanduser()
        self._warned = False
        self._warn_lock = threading.Lock()

    @property
    def root(self) -> Path:
        """The root directory artifacts are published under."""
        return self._root

    @property
    def objects_dir(self) -> Path:
        """Where artifact files live (``<root>/objects``)."""
        return self._root / "objects"

    @property
    def manifests_dir(self) -> Path:
        """Where default sweep manifests live (``<root>/manifests``)."""
        return self._root / "manifests"

    def path_for(self, key: str, codec: ArtifactCodec) -> Path:
        """The artifact file for ``key`` under ``codec``'s format."""
        return self.objects_dir / f"{key}.{codec.extension}"

    def load(self, key: str, codec: ArtifactCodec) -> tuple[str, Any]:
        """``("hit", artifact)``, ``("miss", None)`` or ``("error", None)``."""
        path = self.path_for(key, codec)
        try:
            fire_inner("cache")
            if not path.is_file():
                return "miss", None
            artifact = codec.decode(path)
        except Exception:
            return "error", None
        # Mark the artifact recently-used so :meth:`prune`'s LRU-by-mtime
        # ordering reflects reads, not just writes.  Best-effort: a
        # read-only root still serves hits.
        try:
            os.utime(path)
        except OSError:
            pass
        return "hit", artifact

    def store(self, key: str, codec: ArtifactCodec, artifact: Any) -> bool:
        """Publish ``artifact`` atomically; False (never an error) on failure."""
        path = self.path_for(key, codec)
        tmp = path.parent / f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}"
        try:
            fire_inner("cache")
            path.parent.mkdir(parents=True, exist_ok=True)
            codec.encode(artifact, tmp)
            os.replace(tmp, path)
            return True
        except Exception as exc:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            if isinstance(exc, OSError):
                self._warn_once(exc)
            return False

    def _warn_once(self, exc: BaseException) -> None:
        with self._warn_lock:
            if self._warned:
                return
            self._warned = True
        warnings.warn(
            f"cache root {self._root} is unusable; continuing in-memory only "
            f"({type(exc).__name__}: {exc})",
            RuntimeWarning,
            stacklevel=4,
        )

    # -- maintenance (the CLI ``cache`` subcommand) -----------------------------

    def artifact_paths(self) -> list[Path]:
        """Every published artifact file, sorted (temp files excluded)."""
        if not self.objects_dir.is_dir():
            return []
        return sorted(
            path
            for path in self.objects_dir.iterdir()
            if path.is_file() and ".tmp-" not in path.name
        )

    def manifest_paths(self) -> list[Path]:
        """Every sweep manifest folded into this root, sorted."""
        if not self.manifests_dir.is_dir():
            return []
        return sorted(
            path for path in self.manifests_dir.iterdir() if path.is_file()
        )

    def info(self) -> dict:
        """Artifact counts and byte totals, split by artifact kind."""
        kinds: dict[str, dict[str, int]] = {}
        total_bytes = 0
        paths = self.artifact_paths()
        for path in paths:
            # <key>.<kind>.<ext>: keys are hex digests, so the second
            # dot-separated component is the codec's kind tag.
            parts = path.name.split(".")
            kind = parts[1] if len(parts) >= 3 else "unknown"
            entry = kinds.setdefault(kind, {"count": 0, "bytes": 0})
            size = path.stat().st_size
            entry["count"] += 1
            entry["bytes"] += size
            total_bytes += size
        return {
            "root": str(self._root),
            "artifacts": len(paths),
            "bytes": total_bytes,
            "kinds": kinds,
            "manifests": len(self.manifest_paths()),
        }

    def prune(self, max_bytes: int) -> dict[str, int]:
        """Evict least-recently-used artifacts until the root fits ``max_bytes``.

        Eviction order is by mtime, oldest first — :meth:`load` touches an
        artifact on every hit, so mtime order *is* recency order.  Each
        eviction is a single atomic ``unlink``: a concurrent reader that
        already opened the file keeps its data (POSIX keeps unlinked inodes
        readable), and one that races the unlink sees an ordinary miss and
        rebuilds — an object is never observed half-deleted.  Stray temp
        files and manifests are left alone (temp files belong to in-flight
        stores; manifests are tiny and name-addressed).

        Returns ``{"removed", "freed_bytes", "remaining_bytes"}``.
        """
        if max_bytes < 0:
            raise ConfigurationError("max_bytes must be non-negative")
        entries: list[tuple[int, int, Path]] = []
        total = 0
        for path in self.artifact_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime_ns, stat.st_size, path))
            total += stat.st_size
        entries.sort()
        removed = 0
        freed = 0
        for _, size, path in entries:
            if total - freed <= max_bytes:
                break
            try:
                path.unlink()
            except FileNotFoundError:
                # A racing pruner (or clear) got there first; its bytes are
                # gone either way.
                freed += size
                continue
            except OSError:
                continue
            removed += 1
            freed += size
        return {
            "removed": removed,
            "freed_bytes": freed,
            "remaining_bytes": max(total - freed, 0),
        }

    def clear(self) -> int:
        """Remove every artifact, stray temp file and manifest; return count."""
        removed = 0
        for directory in (self.objects_dir, self.manifests_dir):
            if not directory.is_dir():
                continue
            for path in sorted(directory.iterdir()):
                if path.is_file():
                    path.unlink()
                    removed += 1
        return removed


@dataclass(frozen=True)
class CacheInfo:
    """A snapshot of one :class:`BuildCache`'s accounting.

    ``hits`` counts every lookup served without running the builder —
    ``memory_hits + disk_hits`` — so pre-disk consumers keep their
    meaning; ``misses`` counts builder runs.  The ``disk_*`` fields are
    zero for caches without a disk tier.
    """

    hits: int
    misses: int
    evictions: int
    currsize: int
    maxsize: int
    memory_hits: int = 0
    disk_hits: int = 0
    disk_load_errors: int = 0
    disk_store_errors: int = 0


class BuildCache:
    """Thread-safe in-process LRU of build artifacts keyed by fingerprint.

    ``get_or_build`` guarantees each key's builder runs at most once even
    when several threads miss concurrently: a per-key lock makes the
    racing callers wait for the first builder instead of duplicating the
    work (the property behind the sweep acceptance criterion that an
    analysis-knob-only sweep builds its catalog and panel exactly once).

    With a ``disk`` tier attached, lookups go memory → disk → build and
    fresh builds are published back to disk — but only for calls that
    pass a ``codec`` (catalogs and panels); codec-less keys stay
    memory-only.  ``maxsize=None`` resolves the bound from
    ``REPRO_CACHE_SIZE`` (default :data:`DEFAULT_CACHE_SIZE`).
    """

    def __init__(
        self, maxsize: int | None = DEFAULT_CACHE_SIZE, *, disk: DiskCache | None = None
    ) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self._maxsize = resolve_cache_size(maxsize)
        self._disk = disk
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._key_locks: dict[str, threading.Lock] = {}
        self._memory_hits = 0
        self._disk_hits = 0
        self._misses = 0
        self._evictions = 0
        self._disk_load_errors = 0
        self._disk_store_errors = 0

    @property
    def maxsize(self) -> int:
        """The LRU bound this cache was built with."""
        return self._maxsize

    @property
    def disk(self) -> DiskCache | None:
        """The attached disk tier, if any."""
        return self._disk

    def get_or_build(
        self,
        key: str,
        builder: Callable[[], Any],
        *,
        codec: ArtifactCodec | None = None,
    ) -> Any:
        """Return the artifact for ``key``: memory → disk → build (once).

        ``codec`` opts the key into the disk tier; without one (or
        without an attached :class:`DiskCache`) behaviour is exactly the
        in-memory contract.  Disk loads that fail integrity checks — or
        fail at all — count as ``disk_load_errors`` and fall through to
        the builder, so a flaky root can slow a run down but never
        corrupt it.
        """
        while True:
            with self._lock:
                if key in self._entries:
                    self._memory_hits += 1
                    self._entries.move_to_end(key)
                    return self._entries[key]
                key_lock = self._key_locks.setdefault(key, threading.Lock())
            with key_lock:
                # Double-check: a racing builder may have finished while
                # we waited on the key lock; that wait counts as a hit.
                with self._lock:
                    if key in self._entries:
                        self._memory_hits += 1
                        self._entries.move_to_end(key)
                        return self._entries[key]
                    if self._key_locks.get(key) is not key_lock:
                        # The builder we waited on failed and retired this
                        # lock; restart so every retry serialises on the
                        # current lock instead of racing a fresh one.
                        continue
                use_disk = self._disk is not None and codec is not None
                if use_disk:
                    status, loaded = self._disk.load(key, codec)
                    if status == "hit":
                        with self._lock:
                            self._disk_hits += 1
                            self._insert(key, loaded)
                            self._key_locks.pop(key, None)
                        return loaded
                    if status == "error":
                        with self._lock:
                            self._disk_load_errors += 1
                try:
                    artifact = builder()
                except BaseException:
                    # A failing builder must not leak its per-key lock;
                    # the next caller recreates one and retries the build.
                    with self._lock:
                        if self._key_locks.get(key) is key_lock:
                            del self._key_locks[key]
                    raise
                if use_disk and not self._disk.store(key, codec, artifact):
                    with self._lock:
                        self._disk_store_errors += 1
                with self._lock:
                    self._misses += 1
                    self._insert(key, artifact)
                    self._key_locks.pop(key, None)
                return artifact

    def _insert(self, key: str, artifact: Any) -> None:
        """Insert ``key`` at the LRU head, evicting as needed (lock held)."""
        self._entries[key] = artifact
        self._entries.move_to_end(key)
        while len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
            self._evictions += 1

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def cache_info(self) -> CacheInfo:
        """Per-tier hit/miss/eviction accounting plus current and max size."""
        with self._lock:
            return CacheInfo(
                hits=self._memory_hits + self._disk_hits,
                misses=self._misses,
                evictions=self._evictions,
                currsize=len(self._entries),
                maxsize=self._maxsize,
                memory_hits=self._memory_hits,
                disk_hits=self._disk_hits,
                disk_load_errors=self._disk_load_errors,
                disk_store_errors=self._disk_store_errors,
            )

    def clear(self) -> None:
        """Drop every memory entry and reset the accounting counters.

        The disk tier is untouched (use :meth:`DiskCache.clear` / the CLI
        ``cache clear`` for that), so a cleared cache backed by a warm
        root re-hydrates instead of rebuilding.
        """
        with self._lock:
            self._entries.clear()
            self._key_locks.clear()
            self._memory_hits = 0
            self._disk_hits = 0
            self._misses = 0
            self._evictions = 0
            self._disk_load_errors = 0
            self._disk_store_errors = 0


#: The process-global cache (built lazily; one per process, including each
#: process-pool worker).
_PROCESS_CACHE: BuildCache | None = None
_PROCESS_CACHE_LOCK = threading.Lock()


def _ambient_disk_cache() -> DiskCache | None:
    """A :class:`DiskCache` at ``REPRO_CACHE_ROOT``, or None when unset."""
    env = os.environ.get(CACHE_ROOT_ENV)
    if not env or not env.strip():
        return None
    return DiskCache(env)


def build_cache() -> BuildCache:
    """The process-global :class:`BuildCache` shared by sweeps and workers.

    Built lazily from the environment: ``REPRO_CACHE_SIZE`` bounds the
    memory LRU and ``REPRO_CACHE_ROOT`` (when set) attaches the disk
    tier, so process-pool workers — which inherit the environment —
    hydrate their catalog/panel rebuilds from the same root as the
    coordinator.
    """
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        with _PROCESS_CACHE_LOCK:
            if _PROCESS_CACHE is None:
                _PROCESS_CACHE = BuildCache(
                    maxsize=None, disk=_ambient_disk_cache()
                )
    return _PROCESS_CACHE


def reset_build_cache() -> None:
    """Drop the process-global cache so the next use re-reads the environment.

    For tests and the CLI ``cache`` subcommand; library code never needs
    it (fingerprint keys cannot go stale).
    """
    global _PROCESS_CACHE
    with _PROCESS_CACHE_LOCK:
        _PROCESS_CACHE = None
