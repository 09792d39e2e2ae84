"""Caching primitives for the corpus execution engine.

Two cache shapes live here:

:class:`LRUCache`
    A bounded in-process mapping with hit/miss/eviction counters.
:class:`ContentStore`
    The one content-addressed store behind every engine stage.  Keys are
    SHA-256 digests over (stage name, stage config, code version, input
    identity); values are per-sample results (IR modules, embedding
    rows, program graphs).  Lookups go through a bounded in-memory LRU
    tier per stage, then — when the store has a root directory — a
    persistent on-disk tier.  Disk writes are atomic (tmp file +
    ``os.replace``) so concurrent workers and concurrent engine
    processes can share one tree without locks; a corrupted or truncated
    entry is deleted and treated as a miss, never an error.  The fleet's
    :class:`~repro.fleet.cas.TieredStore` adds the network CAS as a
    third tier behind both.

Neither class imports anything above :mod:`repro`'s leaf layers, so the
frontend and the engine can both depend on this module.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, Optional, Tuple

#: Bump to invalidate every persisted entry after a change to how any
#: stage computes its results (the on-disk layout namespaces on it).
ENGINE_CACHE_VERSION = "2"

#: Store subtrees, one per engine stage.
COMPILE_STAGE = "compile"
FEATURE_STAGE = "features"

#: Memory-tier bound per stage, in entries.  2048 IR modules keep the
#: largest suite (MBI, 1861 programs) resident at one opt level; 8192
#: feature rows keep a paper-profile ``table4_options`` pass (full MBI
#: at three opt levels, 5583 rows) resident with headroom — at 4 KiB
#: per IR2vec row that is at most 32 MiB.
MEMORY_ENTRIES = {COMPILE_STAGE: 2048, FEATURE_STAGE: 8192}
#: Bound for any other stage.
DEFAULT_MEMORY_ENTRIES = 2048

_MISS = object()


def code_version() -> str:
    """The code-version token mixed into every persistent cache key."""
    import repro

    return f"{repro.__version__}+engine{ENGINE_CACHE_VERSION}"


@dataclasses.dataclass
class CacheStats:
    """Counters for one cache tier, or one stage across tiers."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    errors: int = 0          # corrupted entries recovered as misses

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {**dataclasses.asdict(self), "hit_rate": round(self.hit_rate, 4)}


class LRUCache:
    """Bounded mapping with least-recently-used eviction and counters.

    ``maxsize=0`` disables storage entirely (every lookup misses).  Safe
    to share across threads (a server's executor threads share the
    default engine's store).
    """

    def __init__(self, maxsize: int = 2048):
        if maxsize < 0:
            raise ValueError("maxsize must be >= 0")
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.stats.misses += 1
                return default
            self._data.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Any, value: Any) -> None:
        if self.maxsize == 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            self.stats.stores += 1
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.stats.evictions += 1

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data


def digest_parts(parts: Iterable[Any]) -> str:
    """SHA-256 over a canonical encoding of heterogeneous key parts."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            blob = part
        else:
            blob = str(part).encode("utf-8")
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


class ContentStore:
    """Content-addressed store: memory tier, then an optional disk tier.

    ``root=None`` keeps the store in memory only.  Each stage's memory
    tier is an :class:`LRUCache` bounded by :data:`MEMORY_ENTRIES`.
    ``stats`` counts lookups per stage across all tiers; ``memory``
    holds the memory tier itself, with its own counters.

    Disk layout (``version`` namespaces the whole tree, so bumping the
    code version simply orphans old entries rather than corrupting
    reads)::

        <root>/v<version-digest>/<stage>/<digest[:2]>/<digest>.pkl
    """

    def __init__(self, root: Optional[str] = None,
                 version: Optional[str] = None):
        self.root = (os.path.abspath(os.path.expanduser(root))
                     if root else None)
        self.version = version if version is not None else code_version()
        self._tree = (os.path.join(
            self.root, f"v{digest_parts([self.version])[:16]}")
            if self.root else None)
        self.stats: Dict[str, CacheStats] = {}
        self.memory: Dict[str, LRUCache] = {}

    # -- keys ---------------------------------------------------------------
    def key(self, stage: str, parts: Iterable[Any]) -> str:
        """Content address for ``parts`` under ``stage`` at this version."""
        return digest_parts([stage, self.version, *parts])

    def _path(self, stage: str, key: str) -> str:
        return os.path.join(self._tree, stage, key[:2], f"{key}.pkl")

    def _stage_stats(self, stage: str) -> CacheStats:
        return self.stats.setdefault(stage, CacheStats())

    def _memory_tier(self, stage: str) -> LRUCache:
        tier = self.memory.get(stage)
        if tier is None:                 # setdefault: one tier per stage
            tier = self.memory.setdefault(stage, LRUCache(
                MEMORY_ENTRIES.get(stage, DEFAULT_MEMORY_ENTRIES)))
        return tier

    # -- read / write -------------------------------------------------------
    def get(self, stage: str, key: str) -> Tuple[bool, Any]:
        """Return ``(found, value)``, trying each tier in turn; a lower
        tier's hit is promoted into the memory tier."""
        stats = self._stage_stats(stage)
        tier = self._memory_tier(stage)
        value = tier.get(key, _MISS)
        if value is not _MISS:
            stats.hits += 1
            return True, value
        found, value = self._load(stage, key)
        if not found:
            stats.misses += 1
            return False, None
        stats.hits += 1
        tier.put(key, value)
        return True, value

    def put(self, stage: str, key: str, value: Any) -> None:
        """Write ``value`` through every tier."""
        self.remember(stage, key, value)
        self._save(stage, key, value)
        self._stage_stats(stage).stores += 1

    def remember(self, stage: str, key: str, value: Any) -> None:
        """Write the memory tier only (a worker already wrote the rest)."""
        self._memory_tier(stage).put(key, value)

    def _load(self, stage: str, key: str) -> Tuple[bool, Any]:
        """Read below the memory tier; corrupted entries recover as misses."""
        if self._tree is None:
            return False, None
        path = self._path(stage, key)
        try:
            with open(path, "rb") as fh:
                return True, pickle.load(fh)
        except FileNotFoundError:
            return False, None
        except Exception:
            # Truncated write from a killed process, disk corruption, or
            # an unpicklable-for-this-code-version blob: drop the entry
            # and recompute rather than failing the run.
            self._stage_stats(stage).errors += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return False, None

    def _save(self, stage: str, key: str, value: Any) -> None:
        """Write below the memory tier."""
        if self._tree is None:
            return
        path = self._path(stage, key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)        # atomic on POSIX
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- stats --------------------------------------------------------------
    def stats_dict(self) -> Dict[str, Dict[str, Any]]:
        """``{stage: {hits, misses, …, memory: {…}}}``: hits over all
        tiers, with the memory tier's own counters and size inside."""
        out: Dict[str, Dict[str, Any]] = {}
        for stage, stats in self.stats.items():
            entry = out[stage] = stats.as_dict()
            tier = self.memory.get(stage)
            if tier is not None:
                entry["memory"] = {**tier.stats.as_dict(),
                                   "entries": len(tier),
                                   "maxsize": tier.maxsize}
        return out

    def memory_stats(self) -> CacheStats:
        """The memory tier's counters summed over stages."""
        total = CacheStats()
        for tier in self.memory.values():
            for field in dataclasses.fields(CacheStats):
                setattr(total, field.name, getattr(total, field.name)
                        + getattr(tier.stats, field.name))
        return total

    # -- maintenance --------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, int]]:
        """On-disk entry/byte counts per stage, across *all* versions."""
        out: Dict[str, Dict[str, int]] = {}
        if self.root is None or not os.path.isdir(self.root):
            return out
        for version_dir in sorted(os.listdir(self.root)):
            vpath = os.path.join(self.root, version_dir)
            if not os.path.isdir(vpath):
                continue
            for stage in sorted(os.listdir(vpath)):
                spath = os.path.join(vpath, stage)
                if not os.path.isdir(spath):
                    continue
                entry = out.setdefault(stage, {"entries": 0, "bytes": 0})
                for dirpath, _dirnames, filenames in os.walk(spath):
                    for fname in filenames:
                        if not fname.endswith(".pkl"):
                            continue
                        entry["entries"] += 1
                        try:
                            entry["bytes"] += os.path.getsize(
                                os.path.join(dirpath, fname))
                        except OSError:
                            pass
        return out

    def clear(self, stage: Optional[str] = None) -> int:
        """Delete entries (one stage, or everything) from every tier;
        returns the number of on-disk entries removed."""
        for name in ([stage] if stage is not None else list(self.memory)):
            self.memory.pop(name, None)
        removed = 0
        if self.root is None or not os.path.isdir(self.root):
            return removed
        for version_dir in os.listdir(self.root):
            vpath = os.path.join(self.root, version_dir)
            if not os.path.isdir(vpath):
                continue
            stages = [stage] if stage is not None else os.listdir(vpath)
            for stage_name in stages:
                spath = os.path.join(vpath, stage_name)
                if not os.path.isdir(spath):
                    continue
                for dirpath, _dirnames, filenames in os.walk(spath,
                                                             topdown=False):
                    for fname in filenames:
                        try:
                            os.unlink(os.path.join(dirpath, fname))
                            if fname.endswith(".pkl"):
                                removed += 1
                        except OSError:
                            pass
                    try:
                        os.rmdir(dirpath)
                    except OSError:
                        pass
        return removed
