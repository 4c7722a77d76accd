"""Verified, atomic ``.npz`` writes: the one writer behind checkpoints and
``StreamingCstf.save``.

Both need the same guarantees from a file on disk, and both get them from
this module (the payload checksum is the checkpoint layer's):

- **Atomic publish** — the archive is written to a ``<name>.tmp`` sibling,
  flushed and fsynced, and only then moved over the destination with
  :func:`os.replace`; a reader never sees a partial file, even if the
  writer is SIGKILLed mid-save. A write failure (ENOSPC, a vanished
  directory) removes the temp file before re-raising and leaves every
  existing file untouched.
- **Optional rotation** — with ``rotate_to``, the file being replaced is
  first moved there (the checkpoint layer's ``.prev`` generation).
- **Payload checksum** — :func:`payload_digest` is the SHA-1 the caller
  stores in the archive's ``meta_json`` member and re-checks on load.

Members are written **stored** (``np.savez``, ``ZIP_STORED``), not
deflated: deflating float64 and int64 payloads took close to 90% of a
save and only halved the file (measurements in
:mod:`repro.resilience.checkpoint`). Archives written deflated by older
versions load unchanged — :func:`numpy.load` reads both layouts — and the
zip CRC-32 of every stored member is still checked on read.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np

__all__ = ["payload_digest", "write_npz_atomic"]


def payload_digest(arrays: dict) -> str:
    """SHA-1 over every payload array (name, dtype, shape, bytes).

    The ``meta_json`` member is skipped — it is where the digest itself is
    stored. Array bytes go to :mod:`hashlib` as a buffer view (a copy is
    made only for non-contiguous input), so the digest equals a hash of
    ``np.ascontiguousarray(arr).tobytes()`` without materialising it.
    """
    h = hashlib.sha1()
    for name in sorted(arrays):
        if name == "meta_json":
            continue
        arr = np.asarray(arrays[name])
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(repr(tuple(arr.shape)).encode())
        h.update(np.ascontiguousarray(arr).reshape(-1).view(np.uint8))
    return h.hexdigest()


def _write_payload(fh, arrays: dict) -> None:
    """Write *arrays* to *fh* as an archive of stored members."""
    np.savez(fh, **arrays)


def write_npz_atomic(path, arrays: dict, *, rotate_to=None) -> Path:
    """Write *arrays* to *path* via a fsynced ``.tmp`` sibling; returns *path*.

    ``rotate_to`` names where an existing *path* is moved before the new
    file takes its place. On ``OSError`` the temp file is removed and the
    error re-raised; a failed write (ENOSPC mid-archive) happens before
    the rotation, so it leaves *path* and ``rotate_to`` untouched.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            _write_payload(fh, arrays)
            fh.flush()
            os.fsync(fh.fileno())
        if rotate_to is not None and path.exists():
            os.replace(path, rotate_to)
        os.replace(tmp, path)
    except OSError:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    return path
