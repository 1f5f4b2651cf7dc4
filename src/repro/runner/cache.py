"""Persistent, content-addressed artifact cache.

Evaluation artifacts (compiled techniques, profiles, reference runs,
emulation outcomes) are deterministic functions of their inputs: the
module text, the platform constants, the technique, the power spec and
the inputs. The cache keys each artifact by a SHA-256 over a canonical
JSON rendering of those inputs plus a schema version and the Python
minor version, and stores the pickled value under::

    <root>/<category>/<key[:2]>/<key>.pkl

Each entry is the SHA-256 digest of the pickle bytes followed by those
bytes.

Properties:

- **self-verifying** — a read checks the entry's digest before it
  unpickles anything, so a flipped bit is a miss, never a different
  value served as a hit;
- **corruption tolerant** — a read that fails for *any* reason (digest
  mismatch, truncated file, stale pickle, wrong schema) is treated as a
  miss and the bad entry is deleted; a crash can never poison future
  runs;
- **atomic writes** — values are written to a temp file and ``os.replace``d
  into place, so concurrent workers racing on the same key are safe (last
  writer wins, both wrote the same bytes anyway);
- **best effort** — an unpicklable value or a read-only filesystem degrades
  to "no caching", never to an error.

The default root is ``$REPRO_CACHE_DIR`` or ``.repro-cache`` in the
current directory; ``REPRO_CACHE=0`` disables caching globally.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
from pathlib import Path
from typing import Any, Dict, Optional

#: Bump whenever the meaning of cached values changes (e.g. a report field
#: is added or an emulator semantic is fixed): old entries become misses.
#: v2 prefixes every entry with the digest of its pickle bytes.
SCHEMA_VERSION = 2

#: Bytes of the SHA-256 digest that heads every entry.
_DIGEST_BYTES = hashlib.sha256().digest_size

_ENV_ROOT = "REPRO_CACHE_DIR"
_ENV_SWITCH = "REPRO_CACHE"


def _jsonable(part: Any) -> Any:
    """Render one key part canonically; unknown objects fall back to repr
    (dataclass reprs are deterministic and capture every field)."""
    if isinstance(part, (str, int, bool)) or part is None:
        return part
    if isinstance(part, float):
        return repr(part)
    if isinstance(part, (list, tuple)):
        return [_jsonable(p) for p in part]
    if isinstance(part, dict):
        return {str(k): _jsonable(v) for k, v in sorted(part.items())}
    return repr(part)


class ArtifactCache:
    """A pickle store addressed by content hashes of the inputs."""

    def __init__(self, root: os.PathLike | str = ".repro-cache",
                 enabled: bool = True):
        self.root = Path(root)
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.pruned = 0
        #: category -> {"hits": n, "misses": n, "stores": n, "pruned": n}.
        self.by_category: Dict[str, Dict[str, int]] = {}

    def _bump(self, category: str, field: str) -> None:
        stats = self.by_category.get(category)
        if stats is None:
            stats = self.by_category[category] = {
                "hits": 0, "misses": 0, "stores": 0, "pruned": 0,
            }
        stats[field] += 1

    @classmethod
    def default(cls, root: Optional[str] = None) -> Optional["ArtifactCache"]:
        """The standard cache for CLIs: honors ``REPRO_CACHE=0`` (returns
        None) and ``REPRO_CACHE_DIR``."""
        if os.environ.get(_ENV_SWITCH, "1") == "0":
            return None
        return cls(root or os.environ.get(_ENV_ROOT) or ".repro-cache")

    # ------------------------------------------------------------- keys

    @staticmethod
    def key(*parts: Any) -> str:
        """Content hash over the canonical rendering of ``parts``. The
        schema version and Python minor version are always mixed in, so a
        semantic change or a cross-version pickle never aliases."""
        payload = json.dumps(
            [SCHEMA_VERSION, sys.version_info[:2], _jsonable(list(parts))],
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @staticmethod
    def text_fingerprint(text: str) -> str:
        """Hash of an arbitrary text blob (module dumps, input vectors)."""
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def _path(self, category: str, key: str) -> Path:
        return self.root / category / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------- access

    def get(self, category: str, key: str) -> Optional[Any]:
        """Load a cached value, or None on a miss. Any failure — missing
        file, digest mismatch, truncated pickle, incompatible class
        layout — is a miss; a corrupt entry is deleted so it cannot fail
        again."""
        if not self.enabled:
            return None
        path = self._path(category, key)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            digest, payload = data[:_DIGEST_BYTES], data[_DIGEST_BYTES:]
            if hashlib.sha256(payload).digest() != digest:
                raise ValueError("cache entry fails its digest check")
            value = pickle.loads(payload)
        except FileNotFoundError:
            self.misses += 1
            self._bump(category, "misses")
            return None
        except Exception:
            self.misses += 1
            self._bump(category, "misses")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        self._bump(category, "hits")
        return value

    def put(self, category: str, key: str, value: Any) -> bool:
        """Store a value atomically; returns False when the value cannot
        be pickled or the filesystem refuses (caching is best effort)."""
        if not self.enabled:
            return False
        path = self._path(category, key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as fh:
                fh.write(hashlib.sha256(payload).digest())
                fh.write(payload)
            os.replace(tmp, path)
        except Exception:
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        self.stores += 1
        self._bump(category, "stores")
        return True

    # ------------------------------------------------------------- upkeep

    def size_bytes(self) -> int:
        return sum(
            p.stat().st_size for p in self.root.rglob("*.pkl") if p.is_file()
        )

    def prune(self, max_bytes: int) -> int:
        """Evict least-recently-used entries until the cache fits in
        ``max_bytes``; returns the number of evicted entries."""
        entries = []
        for p in self.root.rglob("*.pkl"):
            try:
                st = p.stat()
            except OSError:
                continue
            entries.append((st.st_atime, st.st_size, p))
        total = sum(size for _, size, _ in entries)
        evicted = 0
        for _, size, path in sorted(entries):
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
            self.pruned += 1
            # <root>/<category>/<key[:2]>/<key>.pkl
            try:
                category = path.relative_to(self.root).parts[0]
            except (ValueError, IndexError):
                category = "?"
            self._bump(category, "pruned")
        return evicted

    def clear(self) -> None:
        import shutil

        shutil.rmtree(self.root, ignore_errors=True)

    def stats_dict(self) -> Dict[str, Any]:
        """Machine-readable counters for run manifests and traces."""
        return {
            "root": str(self.root),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "pruned": self.pruned,
            "categories": {
                category: dict(stats)
                for category, stats in sorted(self.by_category.items())
            },
        }


def stats_line(stats: Dict[str, Any]) -> str:
    """Render a ``stats_dict()`` as the one-line human summary.

    This is the *only* renderer of cache statistics: the ``--cache-stats``
    stderr line, the run manifest and the metrics rollup
    (:func:`repro.telemetry.rollup.publish_cache_stats`) all derive from
    the same ``stats_dict`` counters, so the numbers can never disagree.
    """
    line = (
        f"cache {stats.get('root', '?')}: {stats.get('hits', 0)} hits, "
        f"{stats.get('misses', 0)} misses, {stats.get('stores', 0)} stores"
    )
    if stats.get("pruned"):
        line += f", {stats['pruned']} pruned"
    categories = stats.get("categories") or {}
    if categories:
        per_cat = ", ".join(
            f"{category} {cat_stats['hits']}/{cat_stats['misses']}"
            f"/{cat_stats['stores']}"
            for category, cat_stats in sorted(categories.items())
        )
        line += f" ({per_cat} h/m/s)"
    return line
