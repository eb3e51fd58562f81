"""Crash-safe checkpoints for the long-lived loops (``checkpoint_layout="v1"``).

:func:`repro.sim.engine.replay` and :class:`repro.sim.churn.ChurnEngine`
(behind ``repro serve``) periodically serialize their *complete*
mid-stream state — accumulator partials, streaming estimators, allocator
caches, RNG bit-generator states — so a killed run resumes from the last
checkpoint **byte-identically** to an uninterrupted one.  This module
owns the file format, the durability contract and the lifecycle both
loops share: the run fingerprint (:func:`run_fingerprint`), the
save-and-prune of the ``{"engine", "approach"}`` sections
(:func:`save_run_state`) and the resume routine
(:func:`resume_run_state`, which re-shares restored strings with the
live trace names).  Each engine owns *what* goes into its "engine"
section and runs the auditor (``sim/audit.py``) right before each write.

File format (``checkpoint_layout="v1"``)::

    MAGIC (8 bytes, b"RPCKPT01")
    header length (4 bytes, big-endian)
    header (UTF-8 JSON): {"layout", "repro_version", "meta",
                          "sections": [{"name", "length", "crc32"}, ...]}
    header CRC32 (4 bytes, big-endian)
    section payloads, concatenated in header order

Durability: checkpoints are written to a temporary file in the same
directory, flushed, ``fsync``'d, then atomically renamed over the final
path (followed by a best-effort directory fsync), so a crash mid-write
can never leave a torn file under the final name.  Every section carries
a CRC32; :func:`load_checkpoint` raises :class:`CheckpointError` on a
bad magic, truncation, checksum mismatch or layout version mismatch —
corruption is *detected and reported*, never silently resumed from.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import pickle
import re
import struct
import sys
import warnings
import zlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.placement import Placement

__all__ = [
    "CHECKPOINT_LAYOUT",
    "Checkpoint",
    "CheckpointError",
    "CheckpointPolicy",
    "checkpoint_file",
    "list_checkpoints",
    "load_checkpoint",
    "load_latest_checkpoint",
    "prune_checkpoints",
    "resume_run_state",
    "run_fingerprint",
    "save_checkpoint",
    "save_run_state",
]

#: Schema version stamped into (and required of) every checkpoint header.
CHECKPOINT_LAYOUT = "v1"

#: File magic; the trailing digits version the *container framing* (the
#: byte layout around the JSON header), while ``CHECKPOINT_LAYOUT``
#: versions the header/section schema itself.
_MAGIC = b"RPCKPT01"

_FILE_PATTERN = re.compile(r"^period_(\d{6,})\.ckpt$")

#: The auditor's accepted ``on_violation`` modes (see ``sim/audit.py``).
_ON_VIOLATION_MODES = ("raise", "warn", "degrade")


class CheckpointError(RuntimeError):
    """A checkpoint file is corrupt, truncated or version-mismatched."""


def _require_positive_int(value, name: str, minimum: int = 1) -> int:
    """Validate an integer-valued field (NaN-safe, mirrors MigrationCostModel)."""
    try:
        numeric = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}") from None
    if not math.isfinite(numeric) or numeric != int(numeric) or numeric < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(numeric)


@dataclass(frozen=True)
class CheckpointPolicy:
    """When and where a replay or churn loop writes checkpoints.

    ``every_periods`` is the emission cadence (a checkpoint lands after
    every K-th completed placement period); ``keep`` bounds the number of
    files retained in ``path`` (older ones are pruned so resume always
    has a fallback if the newest file is corrupt); ``audit`` runs the
    :mod:`repro.sim.audit` invariant checks right before each write (all
    of them in replay, the decision-maker state checks in churn), with
    ``on_violation`` selecting the auditor's failure mode.
    """

    path: str | Path
    every_periods: int = 10
    keep: int = 2
    audit: bool = True
    on_violation: str = "raise"

    def __post_init__(self) -> None:
        if not str(self.path):
            raise ValueError("checkpoint path must be a non-empty directory path")
        object.__setattr__(self, "path", Path(self.path))
        object.__setattr__(
            self,
            "every_periods",
            _require_positive_int(self.every_periods, "every_periods"),
        )
        object.__setattr__(self, "keep", _require_positive_int(self.keep, "keep"))
        if self.on_violation not in _ON_VIOLATION_MODES:
            raise ValueError(
                f"on_violation must be one of {_ON_VIOLATION_MODES}, "
                f"got {self.on_violation!r}"
            )


@dataclass(frozen=True)
class Checkpoint:
    """A loaded checkpoint: JSON-safe metadata plus named binary sections."""

    meta: dict
    sections: dict = field(default_factory=dict)


def checkpoint_file(directory: str | Path, period: int) -> Path:
    """The canonical file name for the checkpoint taken after ``period``."""
    return Path(directory) / f"period_{period:06d}.ckpt"


def list_checkpoints(directory: str | Path) -> list[Path]:
    """Checkpoint files under ``directory``, newest (highest period) first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for entry in directory.iterdir():
        match = _FILE_PATTERN.match(entry.name)
        if match is not None:
            found.append((int(match.group(1)), entry))
    return [path for _, path in sorted(found, reverse=True)]


def prune_checkpoints(directory: str | Path, keep: int) -> None:
    """Remove all but the newest ``keep`` checkpoint files (best effort)."""
    for stale in list_checkpoints(directory)[keep:]:
        # Suppressed OSError: benign race with a concurrent reader.
        with contextlib.suppress(OSError):
            stale.unlink()


def save_checkpoint(path: str | Path, meta: dict, sections: dict) -> Path:
    """Atomically write a v1 checkpoint file.

    ``meta`` must be JSON-serializable; ``sections`` maps section names
    to raw payload bytes.  The write goes to a temporary file in the
    same directory (same filesystem, so the final rename is atomic),
    is flushed and fsync'd, then renamed over ``path``.
    """
    # Import here: ``repro/__init__`` imports ``repro.sim`` which imports
    # this module, so a top-level import would be circular.
    from repro import __version__

    path = Path(path)
    names = list(sections)
    payloads = [bytes(sections[name]) for name in names]
    header = {
        "layout": CHECKPOINT_LAYOUT,
        "repro_version": __version__,
        "meta": meta,
        "sections": [
            {"name": name, "length": len(payload), "crc32": zlib.crc32(payload)}
            for name, payload in zip(names, payloads, strict=True)
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")

    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(_MAGIC)
            handle.write(struct.pack(">I", len(header_bytes)))
            handle.write(header_bytes)
            handle.write(struct.pack(">I", zlib.crc32(header_bytes)))
            for payload in payloads:
                handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
    _fsync_directory(path.parent)
    return path


def _fsync_directory(directory: Path) -> None:
    """Best-effort directory fsync so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open support
        return
    try:
        # Suppressed OSError: some filesystems reject fsync on dirs.
        with contextlib.suppress(OSError):
            os.fsync(fd)
    finally:
        os.close(fd)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read and verify a v1 checkpoint file.

    Raises :class:`CheckpointError` on any corruption: bad magic,
    truncated header or payload, CRC mismatch (header or any section),
    or a ``layout`` stamp other than :data:`CHECKPOINT_LAYOUT`.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") from error

    if len(blob) < len(_MAGIC) + 4 or not blob.startswith(_MAGIC):
        raise CheckpointError(f"{path} is not a checkpoint file (bad magic)")
    offset = len(_MAGIC)
    (header_length,) = struct.unpack_from(">I", blob, offset)
    offset += 4
    if len(blob) < offset + header_length + 4:
        raise CheckpointError(f"{path} is truncated (incomplete header)")
    header_bytes = blob[offset : offset + header_length]
    offset += header_length
    (header_crc,) = struct.unpack_from(">I", blob, offset)
    offset += 4
    if zlib.crc32(header_bytes) != header_crc:
        raise CheckpointError(f"{path} header checksum mismatch")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CheckpointError(f"{path} header is not valid JSON: {error}") from error

    layout = header.get("layout")
    if layout != CHECKPOINT_LAYOUT:
        raise CheckpointError(
            f"{path} has checkpoint_layout {layout!r}; "
            f"this build reads {CHECKPOINT_LAYOUT!r}"
        )

    sections: dict = {}
    for entry in header.get("sections", ()):
        name, length, crc = entry["name"], entry["length"], entry["crc32"]
        payload = blob[offset : offset + length]
        if len(payload) != length:
            raise CheckpointError(f"{path} is truncated (section {name!r} incomplete)")
        if zlib.crc32(payload) != crc:
            raise CheckpointError(f"{path} section {name!r} checksum mismatch")
        sections[name] = payload
        offset += length
    if offset != len(blob):
        raise CheckpointError(f"{path} has {len(blob) - offset} trailing bytes")
    return Checkpoint(meta=dict(header.get("meta", {})), sections=sections)


def load_latest_checkpoint(
    source: str | Path,
) -> tuple[Path, Checkpoint] | None:
    """The newest *valid* checkpoint under a directory (or a single file).

    A corrupt newest file is reported with a warning and the scan falls
    back to the next-newest — never silently wrong, never fatal; callers
    cold-start when nothing valid remains (returns ``None``).
    """
    source = Path(source)
    if source.is_file():
        candidates = [source]
    else:
        candidates = list_checkpoints(source)
    for candidate in candidates:
        try:
            return candidate, load_checkpoint(candidate)
        except CheckpointError as error:
            warnings.warn(
                f"skipping unusable checkpoint: {error}",
                RuntimeWarning,
                stacklevel=2,
            )
    return None


def run_fingerprint(*identity) -> str:
    """Identity hash binding checkpoints to one run: SHA-256 over the
    pickled ``(CHECKPOINT_LAYOUT, *identity)``, where ``identity`` is
    everything the caller's trajectory depends on."""
    blob = pickle.dumps((CHECKPOINT_LAYOUT, *identity), protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(blob).hexdigest()


def _canonicalize(state, names: Sequence[str]):
    """Re-share the string objects of an unpickled checkpoint section.

    The byte-identity contract compares results and snapshots with
    ``pickle.dumps``, whose output depends on object *identity* sharing
    (the pickler memoizes repeated objects).  A live run references the
    trace set's own name strings and interned literal keys; an unpickled
    checkpoint carries equal-valued private copies.  Rewriting the
    restored containers against the canonical ``names`` objects (and
    ``sys.intern`` for other strings) makes a resumed run share strings
    exactly like an uninterrupted one.  Within one call, each unpickled
    :class:`Placement` becomes one rebuilt object, however often it is
    referenced.
    """
    table = dict(zip(names, names, strict=True))
    rebuilt: dict[int, Placement] = {}

    def canon(obj):
        if isinstance(obj, str):
            canonical = table.get(obj)
            return canonical if canonical is not None else sys.intern(obj)
        if isinstance(obj, Placement):
            cached = rebuilt.get(id(obj))
            if cached is None:
                cached = Placement(
                    {canon(vm): server for vm, server in obj.assignment.items()},
                    obj.num_servers,
                )
                rebuilt[id(obj)] = cached
            return cached
        if isinstance(obj, dict):
            return {canon(key): canon(value) for key, value in obj.items()}
        if isinstance(obj, list):
            return [canon(item) for item in obj]
        if isinstance(obj, tuple):
            return tuple(canon(item) for item in obj)
        return obj

    return canon(state)


def _identity(decider) -> tuple[str, str]:
    return type(decider).__qualname__, str(getattr(decider, "name", ""))


def _decider_payload(decider) -> dict:
    """The "approach" section.  Objects with ``snapshot()``/``restore()``
    (every built-in approach, ``PowerManager``) store their snapshot;
    anything else is pickled whole, which also carries the RNG state of
    custom stochastic approaches."""
    cls, name = _identity(decider)
    if hasattr(decider, "snapshot") and hasattr(decider, "restore"):
        return {"class": cls, "name": name, "kind": "snapshot", "state": decider.snapshot()}
    return {"class": cls, "name": name, "kind": "object", "object": decider}


def _restored_decider(decider, payload: dict):
    if (payload["class"], payload["name"]) != _identity(decider):
        raise ValueError(
            f"checkpoint holds {payload['class']}/{payload['name']}, "
            f"resume was asked for {type(decider).__qualname__}"
        )
    if payload["kind"] == "snapshot":
        decider.restore(payload["state"])
        return decider
    return payload["object"]


def save_run_state(
    policy: CheckpointPolicy, period: int, fingerprint: str, meta: dict, state: dict, decider
) -> Path:
    """Write the checkpoint taken after ``period`` — ``meta`` plus the
    ``fingerprint``, the loop's own ``state`` as the "engine" section and
    the decision-maker as the "approach" section — then prune to
    ``policy.keep`` files."""
    sections = {
        "engine": pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL),
        "approach": pickle.dumps(_decider_payload(decider), protocol=pickle.HIGHEST_PROTOCOL),
    }
    path = save_checkpoint(
        checkpoint_file(policy.path, period), {**meta, "fingerprint": fingerprint}, sections
    )
    prune_checkpoints(policy.path, policy.keep)
    return path


def resume_run_state(
    source: str | Path,
    fingerprint: str,
    names: Sequence[str],
    decider,
    load_engine: Callable[[dict, dict], object],
) -> tuple[object, object] | None:
    """Restore a run from the newest valid checkpoint under ``source``.

    Returns ``(load_engine(meta, engine_section), restored decider)`` —
    the decider is the checkpointed object itself under the pickle
    fallback — or ``None`` to cold-start.  A section that no longer
    unpickles, or state that ``load_engine`` or ``restore`` rejects with
    ``KeyError``/``ValueError``/``TypeError``, warns and cold-starts
    (``decider.reset()`` undoes a half-applied restore); ``load_engine``
    must not mutate its caller.  A checkpoint of a different run raises
    ``ValueError``: each engine decides whether that is fatal.
    """
    found = load_latest_checkpoint(source)
    if found is None:
        return None
    path, ckpt = found
    if ckpt.meta.get("fingerprint") != fingerprint:
        raise ValueError(
            f"checkpoint {path} was written by a different run (fingerprint mismatch)"
        )
    try:
        state = pickle.loads(ckpt.sections["engine"])
        payload = pickle.loads(ckpt.sections["approach"])
    except Exception as error:  # noqa: BLE001 - any unpickling failure
        _cold_start(f"checkpoint {path} failed to deserialize ({error})")
        return None
    state, payload = _canonicalize((state, payload), names)
    try:
        return load_engine(ckpt.meta, state), _restored_decider(decider, payload)
    except (KeyError, ValueError, TypeError) as error:
        decider.reset()
        _cold_start(f"checkpoint {path} state rejected ({error})")
        return None


def _cold_start(reason: str) -> None:
    warnings.warn(f"{reason}; cold-starting", RuntimeWarning, stacklevel=4)
