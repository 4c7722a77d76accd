"""Crash-safe on-disk store of MTTKRP execution plans.

The in-memory :class:`~repro.engine.plan.PlanCache` dies with its process:
worker processes of the ``processes`` execution backend cannot see it, and
every fresh CLI invocation replans from scratch. A :class:`PlanStore`
persists each built plan under a **content-fingerprint key** — the SHA-1
content hash the cache already computes per tensor, combined with the
format and mode — so any process that can derive the key (the dispatching
parent, a pool worker, the next CLI run) skips the sort-and-segment
preprocessing entirely.

Write discipline (the checkpoint layer's, through the same writer,
:mod:`repro.utils.npzio`):

- **Atomic publish** — the ``.npz`` payload (stored, not deflated, zip
  members) is written to a ``.tmp`` sibling, flushed and fsynced, then
  moved into place with :func:`os.replace`; readers never observe a
  partial entry, even if the writer is SIGKILLed mid-write.
- **Payload checksum** — the entry's metadata carries a SHA-1 digest over
  every array (name, dtype, shape, bytes); :meth:`PlanStore.load` verifies
  it, plus the stream's structural invariants, before returning a plan.
- **Quarantine, not crash** — an entry that fails any validation is moved
  aside to ``<key>.quarantine`` (kept for post-mortem) and reported as a
  miss, so the caller replans and the next save overwrites the bad key.
  Quarantines are counted (``engine.store.quarantined``) and logged as
  ``plan_repaired`` resilience events.

Store traffic is counted through the ambient telemetry session
(``engine.store.hits`` / ``engine.store.misses`` / ``engine.store.writes``
/ ``engine.store.evictions``) and mirrored on the instance for direct
assertion in tests. An optional ``max_bytes`` budget bounds the on-disk
footprint with LRU-by-mtime eviction (quarantine residue goes first).
"""

from __future__ import annotations

import errno
import json
import os
from pathlib import Path

import numpy as np

from repro.obs import current_telemetry
from repro.resilience.events import PLAN_REPAIRED, STORE_SKIPPED
from repro.utils.npzio import payload_digest, write_npz_atomic

__all__ = ["PlanStore", "store_key"]

STORE_VERSION = 1

#: Event phase used for store-level repairs (quarantine + replan).
_PHASE = "STORE"


def store_key(content_hash: str, fmt: str, mode: int) -> str:
    """The store key of one ``(tensor content, format, mode)`` plan.

    The tensor part reuses the cache's SHA-1 content hash — two equal
    tensors in different processes derive the same key, which is exactly
    what lets a pool worker or a repeated CLI run find the parent's plans.
    """
    return f"{content_hash[:24]}-{fmt}-m{int(mode)}"


class PlanStore:
    """Content-keyed directory of serialized :class:`MttkrpPlan` entries.

    ``max_bytes`` bounds the on-disk footprint: after every save the store
    evicts entries least-recently-*used* first (mtime order — loads *and*
    in-memory plan-cache hits :meth:`touch` the entry, so a hot plan
    survives) until the live ``.npz`` payload
    plus any ``.quarantine`` residue fits the budget. Quarantined files
    count against the budget and are evicted before any live entry — dead
    bytes go first. Evictions are counted (``engine.store.evictions``) and
    surfaced by ``repro perf``; ``max_bytes=None`` (the default) keeps the
    store unbounded.
    """

    def __init__(self, root, max_bytes: int | None = None):
        self.root = Path(root)
        self.max_bytes = int(max_bytes) if max_bytes else None
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0
        self.evictions = 0
        self.write_errors = 0
        #: Chaos arm: the next :meth:`save` fails with a synthetic ENOSPC
        #: and takes the real skip-store path (the ``disk_full`` fault).
        self.fail_next_write = False

    # ------------------------------------------------------------------ #
    def path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def __contains__(self, key: str) -> bool:
        return self.path(key).exists()

    def __len__(self) -> int:
        return len(list(self.root.glob("*.npz"))) if self.root.exists() else 0

    def keys(self) -> list[str]:
        if not self.root.exists():
            return []
        return sorted(p.name[: -len(".npz")] for p in self.root.glob("*.npz"))

    # ------------------------------------------------------------------ #
    def save(self, key: str, plan, *, events=None) -> Path | None:
        """Atomically persist *plan* under *key*; returns the entry path.

        Persistence is a cache tier, never a requirement: a write
        ``OSError`` (ENOSPC, read-only volume, vanished directory) is
        swallowed — the temp file is cleaned up, the failure is counted
        (``engine.store.write_errors``) and logged as a ``store_skipped``
        resilience event, and ``None`` is returned. The caller keeps its
        in-memory plan and the run continues.
        """
        path = self.path(key)
        try:
            if self.fail_next_write:
                self.fail_next_write = False
                raise OSError(errno.ENOSPC, "injected disk_full fault")
            self.root.mkdir(parents=True, exist_ok=True)
            stream = plan.stream
            arrays: dict[str, np.ndarray] = {
                "values": stream.values,
                "starts": stream.starts,
                "out_index": stream.out_index,
            }
            for m, col in enumerate(stream.cols):
                arrays[f"col_{m}"] = col
            meta = {
                "format_version": STORE_VERSION,
                "key": key,
                "mode": int(plan.mode),
                "out_rows": int(plan.out_rows),
                "ncols": len(stream.cols),
                "checksum": payload_digest(arrays),
            }
            arrays["meta_json"] = np.array(json.dumps(meta))
            write_npz_atomic(path, arrays)
        except OSError as exc:
            self.write_errors += 1
            current_telemetry().counter("engine.store.write_errors")
            if events is not None:
                events.record(
                    STORE_SKIPPED, _PHASE,
                    detail=f"plan-store write of {key} failed "
                           f"({type(exc).__name__}: {exc}); keeping the "
                           f"in-memory plan and skipping persistence",
                    key=key, error=str(exc),
                )
            return None
        self.writes += 1
        current_telemetry().counter("engine.store.writes")
        if self.max_bytes is not None:
            self._enforce_budget(keep=path)
        return path

    def _enforce_budget(self, keep: Path | None = None) -> None:
        """Evict entries (LRU by mtime) until the store fits ``max_bytes``.

        Quarantined residue is charged against the budget and evicted
        first; the just-written *keep* entry is never evicted, so a plan
        larger than the whole budget still persists (the store then holds
        exactly that one entry).
        """
        candidates: list[tuple[int, float, int, Path]] = []  # (tier, mtime, size, path)
        total = 0
        for pattern, tier in ((".quarantine", 0), (".npz", 1)):
            for path in self.root.glob(f"*{pattern}"):
                try:
                    st = path.stat()
                except OSError:  # pragma: no cover - racing removal
                    continue
                total += st.st_size
                if keep is not None and path == keep:
                    continue
                candidates.append((tier, st.st_mtime, st.st_size, path))
        if total <= self.max_bytes:
            return
        candidates.sort()  # dead quarantine bytes first, then oldest-used
        for _tier, _mtime, size, path in candidates:
            if total <= self.max_bytes:
                break
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - racing removal
                continue
            total -= size
            self.evictions += 1
            current_telemetry().counter("engine.store.evictions")

    def _total_bytes(self) -> int:
        if not self.root.exists():
            return 0
        return sum(
            p.stat().st_size
            for pattern in ("*.npz", "*.quarantine")
            for p in self.root.glob(pattern)
        )

    def load(self, key: str, *, events=None):
        """The plan stored under *key*, or ``None`` on miss.

        A present-but-invalid entry (torn write that dodged the atomic
        publish, bit rot, an injected ``corrupt_store`` fault) is
        quarantined and reported as a miss — the caller replans, exactly
        like the in-memory cache's self-heal.
        """
        from repro.engine.plan import MttkrpPlan, SegmentStream

        tel = current_telemetry()
        path = self.path(key)
        if not path.exists():
            self.misses += 1
            tel.counter("engine.store.misses")
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                if "meta_json" not in data:
                    raise ValueError("not a plan-store entry (no metadata)")
                meta = json.loads(str(data["meta_json"]))
                if meta.get("format_version") != STORE_VERSION:
                    raise ValueError(
                        f"unsupported entry version {meta.get('format_version')!r}"
                    )
                payload = {name: data[name] for name in data.files}
                digest = payload_digest(payload)
                if digest != meta.get("checksum"):
                    raise ValueError(
                        f"payload checksum mismatch (stored "
                        f"{str(meta.get('checksum'))[:12]}…, computed {digest[:12]}…)"
                    )
                cols = tuple(
                    np.array(data[f"col_{m}"]) for m in range(int(meta["ncols"]))
                )
                stream = SegmentStream(
                    cols,
                    np.array(data["values"]),
                    np.array(data["starts"]),
                    np.array(data["out_index"]),
                )
            if not stream.integrity_ok():
                raise ValueError("stored stream failed its integrity probe")
            plan = MttkrpPlan(int(meta["mode"]), int(meta["out_rows"]), stream)
            plan.store_key = key
        except Exception as exc:
            self._quarantine(key, path, exc, events)
            self.misses += 1
            tel.counter("engine.store.misses")
            return None
        self.hits += 1
        tel.counter("engine.store.hits")
        # LRU touch: a loaded entry is "recently used", so the budget
        # enforcer evicts cold plans before hot ones.
        self.touch(key)
        return plan

    def touch(self, key: str) -> None:
        """Refresh *key*'s recency (mtime) without loading it.

        The eviction order is mtime, so every use of an entry must leave a
        recency mark — loads do this implicitly, and the in-memory
        :class:`~repro.engine.plan.PlanCache` calls this on cache hits
        (which never re-read the disk) so a hot plan does not age like a
        cold one. Missing keys and read-only stores are silent no-ops.
        """
        try:
            os.utime(self.path(key))
        except OSError:
            pass

    def _quarantine(self, key: str, path: Path, exc: Exception, events) -> None:
        """Move a bad entry aside so the next save can republish the key."""
        target = path.with_name(path.name[: -len(".npz")] + ".quarantine")
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - entry vanished under us
            target = None
        self.quarantined += 1
        current_telemetry().counter("engine.store.quarantined")
        if events is not None:
            events.record(
                PLAN_REPAIRED, _PHASE,
                detail=f"plan-store entry {key} failed validation "
                       f"({type(exc).__name__}: {exc}); quarantined"
                       + (f" to {target.name}" if target is not None else "")
                       + " and replanned",
                key=key,
            )

    # ------------------------------------------------------------------ #
    def corrupt(self, key: str, nbytes: int = 64) -> bool:
        """Deliberately damage the entry under *key* (chaos testing).

        Overwrites *nbytes* in the middle of the payload file in place —
        past the zip local-file headers, so the entry still *looks* like an
        archive but fails CRC/checksum validation on load. Returns whether
        an entry existed to corrupt.
        """
        path = self.path(key)
        if not path.exists():
            return False
        pos = max(path.stat().st_size // 2, 0)
        with open(path, "r+b") as fh:
            fh.seek(pos)
            chunk = fh.read(nbytes)
            fh.seek(pos)
            fh.write(bytes((b ^ 0xFF) for b in chunk) or b"\xff")
        return True

    def stats(self) -> dict:
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "quarantined": self.quarantined,
            "evictions": self.evictions,
            "write_errors": self.write_errors,
            "bytes": self._total_bytes(),
            "max_bytes": self.max_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PlanStore({str(self.root)!r}, entries={len(self)})"
