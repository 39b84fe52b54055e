"""Disk-backed campaign/analysis cache.

The paper-scale campaign costs ~15 s per seed; figure sweeps, benchmarks
and the CLI all replay the same handful of configurations.  This module
persists campaign results under ``~/.cache/repro`` so repeated runs —
including runs in *different processes* — skip re-simulation entirely.

Keys
----

An entry is keyed on a SHA-256 digest over:

* the canonical field-by-field rendering of the :class:`CampaignConfig`
  (seed included; the execution fields ``workers``/``backend`` excluded,
  because every backend produces bit-identical results);
* the package version; and
* a fingerprint of the package's own source tree, so *any* code change
  invalidates every cached entry rather than silently serving stale
  simulations.

Storage is pickle — appropriate for a local cache of deterministic
simulation output, not an interchange format.  Unreadable or corrupt
entries are treated as misses.  Set ``REPRO_NO_CACHE=1`` to disable, or
``REPRO_CACHE_DIR`` to relocate the cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from . import __version__

try:  # POSIX advisory locks; Windows falls back to lockfile spinning.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

#: Bump to orphan every existing entry when the on-disk layout changes.
#: Schema 2: campaign archives are stored columnar (see repro.logs.columnar).
CACHE_SCHEMA = 2

#: Config fields that steer execution without affecting results.
EXECUTION_FIELDS = ("workers", "backend")


def cache_root() -> Path:
    """The cache directory (``REPRO_CACHE_DIR`` > XDG > ``~/.cache/repro``)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


def cache_disabled_by_env() -> bool:
    return os.environ.get("REPRO_NO_CACHE", "") not in ("", "0")


def _canonical(obj: Any) -> Any:
    """A JSON-able, order-stable rendering of (nested) config objects."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        rendered = {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        rendered["__type__"] = type(obj).__qualname__
        return rendered
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, float):
        return repr(obj)  # full precision, stable across platforms
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return repr(obj)


_SOURCE_FINGERPRINT: str | None = None


def source_fingerprint() -> str:
    """Digest of every ``.py`` file in the installed ``repro`` package.

    Hashing file *contents* (not mtimes) keeps the fingerprint identical
    across processes and machines for the same code, while any edit to
    the simulation invalidates the whole cache.
    """
    global _SOURCE_FINGERPRINT
    if _SOURCE_FINGERPRINT is None:
        package_dir = Path(__file__).parent
        digest = hashlib.sha256()
        for path in sorted(package_dir.rglob("*.py")):
            digest.update(str(path.relative_to(package_dir)).encode())
            digest.update(path.read_bytes())
        _SOURCE_FINGERPRINT = digest.hexdigest()
    return _SOURCE_FINGERPRINT


def config_digest(config: Any, exclude: tuple[str, ...] = EXECUTION_FIELDS) -> str:
    """Stable cache key for a campaign configuration."""
    payload = _canonical(config)
    if isinstance(payload, dict):
        for name in exclude:
            payload.pop(name, None)
    envelope = {
        "schema": CACHE_SCHEMA,
        "version": __version__,
        "source": source_fingerprint(),
        "config": payload,
    }
    blob = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


class FileLock:
    """Advisory inter-process lock guarding a directory's writers.

    Uses ``flock`` where available (POSIX), else an ``O_EXCL`` lockfile
    with timed spinning.  Concurrent ``repro`` invocations serialize
    their cache and live-archive writes through this, so two processes
    can never interleave a torn entry.  Reentrant within a process is *not*
    supported — hold it for the shortest write possible.
    """

    def __init__(self, path: str | Path, timeout_s: float = 30.0):
        self.path = Path(path)
        self.timeout_s = timeout_s
        self._fd: int | None = None

    def acquire(self) -> None:
        import time as _time

        self.path.parent.mkdir(parents=True, exist_ok=True)
        if fcntl is not None:
            fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            deadline = _time.monotonic() + self.timeout_s
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    self._fd = fd
                    return
                except OSError:
                    if _time.monotonic() >= deadline:
                        os.close(fd)
                        raise TimeoutError(f"could not lock {self.path}")
                    _time.sleep(0.02)
        else:  # pragma: no cover - non-POSIX fallback
            deadline = _time.monotonic() + self.timeout_s
            while True:
                try:
                    self._fd = os.open(
                        self.path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o644
                    )
                    return
                except FileExistsError:
                    if _time.monotonic() >= deadline:
                        raise TimeoutError(f"could not lock {self.path}")
                    _time.sleep(0.02)

    def release(self) -> None:
        if self._fd is None:
            return
        if fcntl is not None:
            try:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            finally:
                os.close(self._fd)
        else:  # pragma: no cover - non-POSIX fallback
            os.close(self._fd)
            try:
                os.unlink(self.path)
            except OSError:
                pass
        self._fd = None

    def __enter__(self) -> "FileLock":
        try:
            self.acquire()
            return self
        except BaseException:
            # Never leak a held lock out of a failed __enter__ —
            # release() is a no-op when acquire() itself failed.
            self.release()
            raise

    def __exit__(self, *exc) -> None:
        self.release()


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0


@dataclass
class CampaignCache:
    """Content-addressed pickle store for campaign results."""

    root: Path = field(default_factory=cache_root)
    enabled: bool = True
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        if cache_disabled_by_env():
            self.enabled = False

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def _lock(self) -> FileLock:
        return FileLock(self.root / ".lock")

    # -- primitives ---------------------------------------------------------

    def load(self, key: str) -> Any | None:
        """The cached value for ``key``, or None on any kind of miss."""
        if not self.enabled:
            return None
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def store(self, key: str, value: Any) -> bool:
        """Persist ``value`` atomically; False if the write failed.

        The write is temp-file + ``os.replace`` (readers never see a torn
        entry) *and* serialized through an inter-process :class:`FileLock`
        so concurrent ``repro`` invocations storing the same key cannot
        interleave — last completed writer wins cleanly.
        """
        if not self.enabled:
            return False
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with self._lock():
                fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
                try:
                    with os.fdopen(fd, "wb") as fh:
                        pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
                        fh.flush()
                        os.fsync(fh.fileno())
                    os.replace(tmp, self.path_for(key))
                finally:
                    if os.path.exists(tmp):
                        os.unlink(tmp)
        except (OSError, TimeoutError):
            return False
        self.stats.stores += 1
        return True

    def get_or_compute(self, config: Any, compute: Callable[[], Any]) -> Any:
        """The cached result for ``config``, computing and storing on miss."""
        key = config_digest(config)
        value = self.load(key)
        if value is None:
            value = compute()
            self.store(key, value)
        return value

    # -- maintenance --------------------------------------------------------

    def entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.pkl"))

    def size_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.entries())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


_DEFAULT_CACHE: CampaignCache | None = None


def default_cache() -> CampaignCache:
    """The process-wide cache instance (honours the env switches)."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = CampaignCache()
    return _DEFAULT_CACHE
