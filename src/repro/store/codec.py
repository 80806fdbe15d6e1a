"""Versioned npz codec — the one serializer for every on-disk artifact.

Everything the artifact store persists (locked netlists, trained attack
results, :class:`~repro.linkpred.trainer.Trainer` checkpoints) goes
through :func:`dump` / :func:`load`: a *payload* — an arbitrary tree of
``dict`` / ``list`` / ``tuple`` / ``str`` / ``int`` / ``float`` /
``bool`` / ``None`` / :class:`numpy.ndarray` — is flattened into one
``.npz`` archive.  Arrays are stored as native npz entries (dtype and
bit pattern preserved exactly, which is what makes optimizer moments and
RNG streams round-trip bit-identically); the tree structure is stored as
a JSON manifest with array placeholders.  JSON is read and written by
Python, so arbitrary-precision ints (PCG64 carries 128-bit state words),
``inf`` and ``nan`` all survive the round trip.

Writes are atomic — the archive is assembled in a same-directory
temporary file and ``os.replace``d into place — so a reader never
observes a torn file, and two writers racing on one path leave whichever
finished last (both wrote the same content-addressed payload anyway).
Reads never unpickle (``allow_pickle=False``): a corrupt or malicious
file can fail, but not execute.

Every archive records the codec version and a caller-chosen *kind*
(``"lock"``, ``"attack"``, ``"checkpoint"``, ...); :func:`load` verifies
both, so a file of the wrong flavour — or from an incompatible writer —
raises :class:`CodecError` instead of decoding into nonsense.
"""

from __future__ import annotations

import errno
import io
import json
import os
import uuid
from pathlib import Path
from typing import Any

import numpy as np

from repro import faults
from repro.errors import ReproError

__all__ = ["CODEC_VERSION", "CodecError", "dump", "dumps", "load", "loads"]

#: Bump when the manifest layout below changes incompatibly.
CODEC_VERSION = 1

_MANIFEST_ENTRY = "__repro_manifest__"


class CodecError(ReproError):
    """An artifact file could not be encoded or decoded."""


def _flatten(node: Any, arrays: list[np.ndarray]) -> Any:
    """Replace every ndarray in the tree with a placeholder reference."""
    if isinstance(node, np.ndarray):
        if node.dtype == object:
            # savez would silently pickle it, and load (allow_pickle=False)
            # could then never read it back: a write-once-hit-never entry.
            raise CodecError("object-dtype arrays cannot be stored")
        arrays.append(node)
        return {"__array__": len(arrays) - 1}
    if isinstance(node, np.generic):
        # Preserve the exact dtype of numpy scalars by storing a 0-d array.
        arrays.append(np.asarray(node))
        return {"__array__": len(arrays) - 1, "scalar": True}
    if isinstance(node, dict):
        for key in node:
            if not isinstance(key, str):
                raise CodecError(
                    f"payload dict keys must be str, got {type(key).__name__}"
                )
            if key in ("__array__", "__tuple__"):
                raise CodecError(f"reserved payload key {key!r}")
        return {key: _flatten(value, arrays) for key, value in node.items()}
    if isinstance(node, tuple):
        return {"__tuple__": [_flatten(item, arrays) for item in node]}
    if isinstance(node, list):
        return [_flatten(item, arrays) for item in node]
    if node is None or isinstance(node, (str, int, float, bool)):
        return node
    raise CodecError(f"unsupported payload type {type(node).__name__}")


def _expand(node: Any, arrays: dict[str, np.ndarray]) -> Any:
    if isinstance(node, dict):
        if "__array__" in node:
            array = arrays[f"a{node['__array__']}"]
            return array[()] if node.get("scalar") else array
        if "__tuple__" in node:
            return tuple(_expand(item, arrays) for item in node["__tuple__"])
        return {key: _expand(value, arrays) for key, value in node.items()}
    if isinstance(node, list):
        return [_expand(item, arrays) for item in node]
    return node


def _manifest(payload: Any, kind: str, arrays: list[np.ndarray]) -> str:
    tree = _flatten(payload, arrays)
    return json.dumps(
        {"codec": CODEC_VERSION, "kind": kind, "tree": tree},
        separators=(",", ":"),
    )


def dumps(payload: Any, kind: str) -> bytes:
    """Serialize *payload* to an in-memory npz archive.

    The byte-for-byte same format as :func:`dump` writes to disk — the
    message flavour of the codec, with the same bit-exact array and
    arbitrary-precision-int round-trip guarantees.  Its one message user
    is the bus wire framing (:mod:`repro.bus.wire`); the remote store
    also ships artifact blobs in this format.
    """
    arrays: list[np.ndarray] = []
    manifest = _manifest(payload, kind, arrays)
    buffer = io.BytesIO()
    np.savez(
        buffer,
        **{_MANIFEST_ENTRY: np.array(manifest)},
        **{f"a{i}": array for i, array in enumerate(arrays)},
    )
    return buffer.getvalue()


def loads(blob: bytes, kind: str) -> Any:
    """Decode a message written by :func:`dumps` (same checks as :func:`load`)."""
    try:
        with np.load(io.BytesIO(blob), allow_pickle=False) as archive:
            manifest, arrays = _read_archive(archive, "<message>")
    except CodecError:
        raise
    except Exception as exc:
        raise CodecError(f"unreadable codec message ({exc})") from exc
    return _check_manifest(manifest, arrays, "<message>", kind)


def dump(payload: Any, path: str | os.PathLike, kind: str) -> None:
    """Serialize *payload* to *path* atomically (tmp file + rename)."""
    arrays: list[np.ndarray] = []
    manifest = _manifest(payload, kind, arrays)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Unique same-directory tmp name: concurrent writers never share a tmp
    # file, and os.replace makes publication atomic on POSIX and Windows.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    if faults.fire("store.write_enospc"):
        raise OSError(
            errno.ENOSPC, "injected fault store.write_enospc", str(tmp)
        )
    try:
        with open(tmp, "wb") as handle:
            np.savez(
                handle,
                **{_MANIFEST_ENTRY: np.array(manifest)},
                **{f"a{i}": array for i, array in enumerate(arrays)},
            )
            if faults.fire("store.write_torn"):
                # Leave a half-written tmp file behind the raise — the
                # shape a crash mid-savez leaves on disk.
                handle.flush()
                handle.truncate(max(handle.tell() // 2, 1))
                raise OSError(
                    errno.EIO, "injected fault store.write_torn", str(tmp)
                )
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # a failed write never leaves a stray tmp behind
            tmp.unlink()


def load(path: str | os.PathLike, kind: str) -> Any:
    """Decode an artifact written by :func:`dump`.

    Raises:
        FileNotFoundError: *path* does not exist (a plain cache miss —
            callers distinguish it from corruption).
        CodecError: the file exists but is torn, corrupt, not a codec
            archive, of a different *kind*, or from an incompatible
            codec version.
    """
    try:
        with np.load(path, allow_pickle=False) as archive:
            manifest, arrays = _read_archive(archive, str(path))
    except FileNotFoundError:
        raise
    except CodecError:
        raise
    except Exception as exc:  # zipfile/json/numpy corruption flavours
        raise CodecError(f"{path}: unreadable artifact ({exc})") from exc
    if faults.fire("store.read_corrupt"):
        # After the successful parse, so a genuinely missing file stays
        # a plain miss — the injected flavour is bit rot on a file that
        # exists, which callers must treat as corruption.
        raise CodecError(f"{path}: injected fault store.read_corrupt")
    return _check_manifest(manifest, arrays, str(path), kind)


def _read_archive(archive, source: str) -> tuple[dict, dict[str, np.ndarray]]:
    if _MANIFEST_ENTRY not in archive:
        raise CodecError(f"{source}: not a repro.store artifact")
    manifest = json.loads(str(archive[_MANIFEST_ENTRY][()]))
    arrays = {
        name: archive[name]
        for name in archive.files
        if name != _MANIFEST_ENTRY
    }
    return manifest, arrays


def _check_manifest(
    manifest: dict, arrays: dict[str, np.ndarray], source: str, kind: str
) -> Any:
    if manifest.get("codec") != CODEC_VERSION:
        raise CodecError(
            f"{source}: codec version {manifest.get('codec')!r} "
            f"(this reader is {CODEC_VERSION})"
        )
    if manifest.get("kind") != kind:
        raise CodecError(
            f"{source}: artifact kind {manifest.get('kind')!r}, expected {kind!r}"
        )
    return _expand(manifest["tree"], arrays)
