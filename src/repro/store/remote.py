"""Network-backed artifact store speaking the serve wire protocol.

``RemoteStore("host:port")`` duck-types the read/write subset of
:class:`repro.store.ArtifactStore` (``get`` / ``put`` / ``has`` +
``stats``) against a ``repro serve`` process, so workers and clients on
other hosts share one artifact pool with **no shared filesystem**.  The
wire format is the job bus framing (4-byte length + codec blob), and the
blobs themselves are byte-for-byte the npz images the server's on-disk
store holds — content addressing makes that exchange trivially cachable,
so the client keeps an LRU of raw blob bytes (capped by total size,
``REPRO_REMOTE_CACHE_BYTES``) and a warm ``get`` decodes locally without
touching the network.

Failure semantics mirror the local store: a corrupt blob warns and reads
as a miss (the caller recomputes and rewrites), transient socket errors
retry on the shared :class:`~repro.faults.RetryPolicy` backoff with a
fresh connection per attempt, and the ``remote_store.read_timeout``
fault site injects exactly the mid-read timeout the chaos drill needs.
"""

from __future__ import annotations

import socket
import threading
import os
import warnings
from collections import OrderedDict
from typing import Any

from repro import faults
from repro.errors import ReproError
from repro.faults.retry import RetryPolicy
from repro.store import StoreStats, codec
from repro.store.codec import CodecError

__all__ = ["RemoteStore", "RemoteStoreError"]

#: Client-side blob-cache budget (total raw bytes).
REMOTE_CACHE_ENV = "REPRO_REMOTE_CACHE_BYTES"
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024


class RemoteStoreError(ReproError):
    """The remote store endpoint misbehaved (bad reply, refused write)."""


class RemoteStore:
    """Read/write artifact access against a ``repro serve`` endpoint."""

    def __init__(
        self,
        address: str,
        retry: RetryPolicy | None = None,
        cache_bytes: int | None = None,
    ) -> None:
        from repro.bus.wire import parse_address

        self.host, self.port = parse_address(address)
        self.root = f"remote://{self.host}:{self.port}"
        self.retry = retry if retry is not None else RetryPolicy.from_env()
        self.stats = StoreStats()
        if cache_bytes is None:
            raw = os.environ.get(REMOTE_CACHE_ENV, "").strip()
            cache_bytes = int(raw) if raw else DEFAULT_CACHE_BYTES
        self._cache_budget = int(cache_bytes)
        self._cache: OrderedDict[tuple[str, str], bytes] = OrderedDict()
        self._cache_bytes = 0
        self._sock: socket.socket | None = None
        self._lock = threading.RLock()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RemoteStore({self.root!r})"

    # -- wire ----------------------------------------------------------------
    def _ensure(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.retry.connect_timeout
            )
            sock.settimeout(self.retry.read_timeout)
            self._sock = sock
        return self._sock

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
            self._sock = None

    def close(self) -> None:
        with self._lock:
            self._drop()

    def _round_trip(self, payload: dict, expect: str) -> dict:
        """One request/reply exchange, reconnect-and-retried on OSError."""
        from repro.bus.wire import recv_message, send_message

        def _attempt() -> dict:
            with self._lock:
                try:
                    sock = self._ensure()
                    send_message(sock, payload)
                    if faults.fire("remote_store.read_timeout"):
                        raise socket.timeout(
                            "injected fault remote_store.read_timeout"
                        )
                    reply = recv_message(sock)
                except OSError:
                    self._drop()
                    raise
                if reply is None:
                    # EOF mid-request (server restarted, accept dropped):
                    # indistinguishable from a socket error — retry.
                    self._drop()
                    raise OSError("remote store connection closed")
            if reply.get("op") != expect:
                raise RemoteStoreError(
                    f"remote store sent {reply.get('op')!r}, "
                    f"expected {expect!r}"
                )
            return reply

        return self.retry.call(
            _attempt,
            retry_on=(OSError,),
            describe=f"remote store {payload.get('op')}",
        )

    # -- blob cache ----------------------------------------------------------
    def _cache_put(self, kind: str, key: str, blob: bytes) -> None:
        if len(blob) > self._cache_budget:
            return
        entry = (kind, key)
        old = self._cache.pop(entry, None)
        if old is not None:
            self._cache_bytes -= len(old)
        self._cache[entry] = blob
        self._cache_bytes += len(blob)
        while self._cache_bytes > self._cache_budget:
            _, evicted = self._cache.popitem(last=False)
            self._cache_bytes -= len(evicted)

    # -- store surface -------------------------------------------------------
    def get(self, kind: str, key: str, decoder=None) -> Any | None:
        """Fetch + decode, LRU-first; corrupt blobs read as misses."""
        with self._lock:
            blob = self._cache.get((kind, key))
            if blob is not None:
                self._cache.move_to_end((kind, key))
        if blob is None:
            reply = self._round_trip(
                {"op": "store-get", "kind": kind, "key": key}, "store-blob"
            )
            if not reply.get("found"):
                self.stats.misses += 1
                return None
            blob = reply["blob"].tobytes()
        try:
            payload = codec.loads(blob, kind=kind)
        except CodecError as exc:
            return self._discard(kind, key, f"unreadable ({exc})")
        if decoder is not None:
            try:
                payload = decoder(payload)
            except Exception as exc:
                return self._discard(kind, key, f"undecodable payload ({exc})")
        self.stats.hits += 1
        self.stats.bytes_read += len(blob)
        with self._lock:
            self._cache_put(kind, key, blob)
        return payload

    def _discard(self, kind: str, key: str, reason: str) -> None:
        with self._lock:
            old = self._cache.pop((kind, key), None)
            if old is not None:
                self._cache_bytes -= len(old)
        warnings.warn(
            f"remote store: discarding unreadable {kind} entry — {reason}; "
            "recomputing",
            RuntimeWarning,
            stacklevel=3,
        )
        self.stats.misses += 1
        self.stats.errors += 1
        return None

    def put(self, kind: str, key: str, payload: Any) -> None:
        """Write-through: the server persists, the client caches bytes."""
        import numpy as np

        blob = codec.dumps(payload, kind=kind)
        reply = self._round_trip(
            {
                "op": "store-put",
                "kind": kind,
                "key": key,
                "blob": np.frombuffer(blob, dtype=np.uint8),
            },
            "store-ok",
        )
        if not reply.get("ok"):
            raise RemoteStoreError(
                f"remote store refused write {kind}/{key[:12]}…: "
                f"{reply.get('error')}"
            )
        self.stats.writes += 1
        self.stats.bytes_written += len(blob)
        with self._lock:
            self._cache_put(kind, key, blob)

    def has(self, kind: str, key: str) -> bool:
        with self._lock:
            if (kind, key) in self._cache:
                return True
        reply = self._round_trip(
            {"op": "store-has", "kind": kind, "key": key}, "store-has"
        )
        return bool(reply.get("has"))
