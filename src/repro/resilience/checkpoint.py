"""Atomic checkpoint/resume of a cSTF campaign.

A checkpoint captures *everything* the AO loop needs to continue a run
bit-identically: the Kruskal factors and weights, the cached Gram matrices,
the update method's per-mode state arrays (ADMM's dual variables), the fit
trace, the outer-iteration counter, and — when a fault injector is active —
its RNG state. Writes are atomic (write to a ``.tmp`` sibling, ``fsync``,
then :func:`os.replace`), so a run killed mid-write never leaves a torn
checkpoint behind; a resumed run continues exactly where the last completed
write left off.

Torn-write protection goes two layers deeper than atomic rename:

- every save first *rotates* the previous checkpoint to ``<name>.prev``,
  so one generation of known-good state always survives the new write;
- the payload carries a SHA-1 checksum in its metadata, and
  :func:`load_checkpoint` verifies it (plus the structural invariants) —
  a checkpoint that fails validation triggers a
  :class:`CheckpointCorrupt` warning and a transparent fallback to the
  rotated ``.prev`` generation. Only when *both* generations are
  unreadable does the load raise
  :class:`~repro.resilience.events.ResilienceError`.

All arrays round-trip through ``.npz`` in binary, so
``cstf(..., max_iters=10)`` and ``cstf(..., max_iters=5)`` →
``cstf(..., resume_from=ck, max_iters=10)`` produce *identical* floats.

The archive holds **stored** (uncompressed) zip members, written by
:func:`repro.utils.npzio.write_npz_atomic`, the same writer
``StreamingCstf.save`` uses. zlib was dropped because a durable run saves
every few iterations and deflating the float64 payload took close to 90%
of each save. On the nips-shaped checkpoint of a 10-iteration rank-32
``cuadmm`` run (factors, ADMM duals and Grams of four modes) the stored
file is 1.9× larger (0.85 → 1.61 MB), while one save falls from
55–69 ms to 6–8 ms and one load from 22–27 ms to 7–10 ms (min–median of
20, 2-vCPU Xeon VM). Checkpoints written deflated by older versions
load and resume unchanged: :func:`numpy.load` reads both layouts, and
the payload checksum covers the array bytes, not their encoding.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.resilience.events import ResilienceError
from repro.utils.npzio import payload_digest, write_npz_atomic
from repro.utils.validation import require

__all__ = ["Checkpoint", "CheckpointCorrupt", "save_checkpoint", "load_checkpoint"]


class CheckpointCorrupt(RuntimeWarning):
    """A checkpoint failed validation and a fallback generation was used."""

CHECKPOINT_VERSION = 1
_STATE_PREFIX = "state__"


@dataclass
class Checkpoint:
    """In-memory image of a saved cSTF run."""

    iteration: int
    factors: list[np.ndarray]
    weights: np.ndarray
    grams: list[np.ndarray]
    fits: list[float]
    state_arrays: dict = field(default_factory=dict)
    """Update-method state: ``name -> ndarray`` or ``name -> [ndarray, ...]``."""

    rng_state: dict | None = None
    """Serialized ``Generator.bit_generator.state`` of the fault injector."""

    meta: dict = field(default_factory=dict)
    """Run identity used to validate a resume: shape, rank, update name."""

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(int(d) for d in self.meta.get("shape", ()))

    @property
    def rank(self) -> int:
        return int(self.meta.get("rank", self.weights.shape[0]))

    @property
    def telemetry_state(self) -> dict | None:
        """Checkpointed :class:`~repro.obs.MetricsRegistry` image (or None
        for checkpoints written by untraced runs / older versions)."""
        return self.meta.get("telemetry")


def save_checkpoint(
    path,
    *,
    iteration: int,
    factors,
    weights,
    grams,
    fits,
    state_arrays: dict | None = None,
    rng_state: dict | None = None,
    telemetry_state: dict | None = None,
    meta: dict | None = None,
) -> Path:
    """Atomically write a checkpoint; returns the final path.

    The archive is first written to ``<path>.tmp`` and moved into place with
    :func:`os.replace` only after the bytes are flushed, so readers never
    observe a partial file even if the process dies mid-save.
    """
    path = Path(path)
    meta = dict(meta or {})
    meta.setdefault("format_version", CHECKPOINT_VERSION)
    meta["iteration"] = int(iteration)
    meta["n_modes"] = len(list(factors))
    if rng_state is not None:
        meta["rng_state"] = rng_state
    if telemetry_state is not None:
        # The metrics-registry image rides in the JSON metadata: it is
        # small, structured, and must survive the same atomic-write
        # guarantees as the numerics it annotates.
        meta["telemetry"] = telemetry_state

    arrays: dict[str, np.ndarray] = {
        "meta_json": np.array(json.dumps(meta, default=_json_default)),
        "weights": np.asarray(weights, dtype=np.float64),
        "fits": np.asarray(list(fits), dtype=np.float64),
    }
    for n, f in enumerate(factors):
        arrays[f"factor_{n}"] = np.asarray(f, dtype=np.float64)
    for n, g in enumerate(grams):
        arrays[f"gram_{n}"] = np.asarray(g, dtype=np.float64)
    state_keys = []
    for key, value in (state_arrays or {}).items():
        if isinstance(value, np.ndarray):
            arrays[f"{_STATE_PREFIX}{key}"] = value
            state_keys.append({"key": key, "list": False})
        elif isinstance(value, (list, tuple)) and all(
            isinstance(v, np.ndarray) for v in value
        ):
            for i, v in enumerate(value):
                arrays[f"{_STATE_PREFIX}{key}__{i}"] = v
            state_keys.append({"key": key, "list": True, "len": len(value)})
        # Non-array state (scalars, residual traces) is reconstructible or
        # diagnostic-only and is intentionally not persisted.
    meta["state_keys"] = state_keys
    meta["checksum"] = payload_digest(arrays)
    arrays["meta_json"] = np.array(json.dumps(meta, default=_json_default))

    # A failed write (ENOSPC) happens before the rotation: both existing
    # generations stay untouched, the partial temp file is removed, and
    # the caller decides to skip this checkpoint. On success the
    # checkpoint being replaced becomes <name>.prev, the load-time
    # fallback for torn writes.
    return write_npz_atomic(path, arrays, rotate_to=_prev_path(path))


def _prev_path(path: Path) -> Path:
    return path.with_name(path.name + ".prev")


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Falls back to the rotated ``<name>.prev`` generation — with a
    :class:`CheckpointCorrupt` warning naming what failed — when the
    primary file is missing, torn, or fails checksum/structure
    validation. Raises :class:`~repro.resilience.events.ResilienceError`
    when no generation is loadable.
    """
    path = Path(path)
    prev = _prev_path(path)
    if not path.exists():
        if prev.exists():
            warnings.warn(
                f"checkpoint {path} is missing; falling back to the rotated "
                f"previous generation {prev}",
                CheckpointCorrupt,
                stacklevel=2,
            )
            return _read_checkpoint(prev)
        require(path.exists(), f"checkpoint {path} does not exist")
    try:
        return _read_checkpoint(path)
    except Exception as exc:
        if prev.exists():
            warnings.warn(
                f"checkpoint {path} is corrupt ({type(exc).__name__}: {exc}); "
                f"falling back to the rotated previous generation {prev}",
                CheckpointCorrupt,
                stacklevel=2,
            )
            try:
                return _read_checkpoint(prev)
            except Exception as prev_exc:
                raise ResilienceError(
                    f"checkpoint {path} is corrupt "
                    f"({type(exc).__name__}: {exc}) and so is its previous "
                    f"generation {prev} "
                    f"({type(prev_exc).__name__}: {prev_exc})"
                ) from prev_exc
        raise ResilienceError(
            f"checkpoint {path} is corrupt and no previous generation "
            f"exists: {type(exc).__name__}: {exc}"
        ) from exc


def _read_checkpoint(path: Path) -> Checkpoint:
    with np.load(path, allow_pickle=False) as data:
        require("meta_json" in data, f"{path} is not a cSTF checkpoint")
        meta = json.loads(str(data["meta_json"]))
        require(
            meta.get("format_version") == CHECKPOINT_VERSION,
            f"unsupported checkpoint version {meta.get('format_version')!r}",
        )
        stored = meta.get("checksum")
        if stored is not None:
            payload = {name: data[name] for name in data.files}
            digest = payload_digest(payload)
            require(
                digest == stored,
                f"{path} payload checksum mismatch "
                f"(stored {stored[:12]}…, computed {digest[:12]}…)",
            )
        n_modes = int(meta["n_modes"])
        factors = [np.array(data[f"factor_{n}"]) for n in range(n_modes)]
        grams = [np.array(data[f"gram_{n}"]) for n in range(n_modes)]
        state_arrays: dict = {}
        for entry in meta.get("state_keys", []):
            key = entry["key"]
            if entry.get("list"):
                state_arrays[key] = [
                    np.array(data[f"{_STATE_PREFIX}{key}__{i}"])
                    for i in range(int(entry["len"]))
                ]
            else:
                state_arrays[key] = np.array(data[f"{_STATE_PREFIX}{key}"])
        return Checkpoint(
            iteration=int(meta["iteration"]),
            factors=factors,
            weights=np.array(data["weights"]),
            grams=grams,
            fits=[float(x) for x in np.array(data["fits"])],
            state_arrays=state_arrays,
            rng_state=meta.get("rng_state"),
            meta=meta,
        )


def _json_default(obj):
    """JSON fallback for NumPy scalars inside RNG state dicts."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} in checkpoint metadata")
