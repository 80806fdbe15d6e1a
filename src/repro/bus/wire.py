"""Stdlib TCP framing shared by every TCP peer of the system.

Every frame is a 4-byte big-endian length followed by a
:func:`repro.store.codec.dumps` blob of kind ``bus-message``.  The
``repro serve`` front end (:mod:`repro.serve.server`, also embedded in
the coordinator by ``--bus socket``), its clients
(:mod:`repro.client`), the ``remote://`` store
(:mod:`repro.store.remote`) and ``repro worker --serve-addr`` all speak
it; the ops each of them exchanges are documented with the server.

This module holds only the plumbing: address parsing, blocking
send/receive of one frame, and the non-blocking selector server
(:class:`_Server`) with its per-peer receive buffers
(:class:`_Connection`).  A peer that sends an oversized or undecodable
frame is dropped, which the server treats exactly like a disconnect.
"""

from __future__ import annotations

import selectors
import socket

from repro import faults
from repro.bus.protocol import BUS_MESSAGE_KIND, BusError
from repro.store import codec
from repro.store.codec import CodecError

__all__ = ["MAX_FRAME", "parse_address", "recv_message", "send_message"]

_LEN_BYTES = 4
#: Frames above this are refused outright — a desynced or hostile peer
#: must not make the server allocate gigabytes.
MAX_FRAME = 512 * 1024 * 1024


def parse_address(text: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (bare ``":port"`` = localhost).

    Raises :class:`~repro.bus.protocol.BusError` for anything else,
    including a port outside 0-65535, so a typo fails before any
    ``bind()`` or ``connect()`` is attempted.
    """
    host, sep, port = text.rpartition(":")
    if not sep:  # bare port
        host, port = "", text
    if not port.isdigit():
        raise BusError(f"malformed bus address {text!r}; expected host:port")
    if int(port) > 65535:
        raise BusError(
            f"bus address {text!r} has port {port} outside 0-65535"
        )
    return host or "127.0.0.1", int(port)


def send_message(sock: socket.socket, payload: dict) -> None:
    """Write one framed codec message (blocking until fully sent)."""
    blob = codec.dumps(payload, kind=BUS_MESSAGE_KIND)
    sock.sendall(len(blob).to_bytes(_LEN_BYTES, "big") + blob)


def recv_message(sock: socket.socket) -> dict | None:
    """Read one framed message from a blocking socket; ``None`` on EOF."""
    header = _recv_exact(sock, _LEN_BYTES)
    if header is None:
        return None
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME:
        raise BusError(f"oversized bus frame ({length} bytes)")
    blob = _recv_exact(sock, length)
    if blob is None:
        return None
    return codec.loads(blob, kind=BUS_MESSAGE_KIND)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class _Connection:
    """One peer link on the server side and its receive buffer."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = b""

    def feed(self) -> list[dict] | None:
        """Drain readable bytes into complete frames; ``None`` = gone."""
        try:
            data = self.sock.recv(1 << 20)
        except BlockingIOError:  # pragma: no cover - spurious readiness
            return []
        except OSError:
            return None
        if not data:
            return None
        self.buffer += data
        messages = []
        while len(self.buffer) >= _LEN_BYTES:
            length = int.from_bytes(self.buffer[:_LEN_BYTES], "big")
            if length > MAX_FRAME:
                return None  # desynced peer; drop the connection
            if len(self.buffer) < _LEN_BYTES + length:
                break
            blob = self.buffer[_LEN_BYTES : _LEN_BYTES + length]
            self.buffer = self.buffer[_LEN_BYTES + length :]
            try:
                messages.append(codec.loads(blob, kind=BUS_MESSAGE_KIND))
            except CodecError:
                return None
        return messages

    def send(self, payload: dict) -> bool:
        try:
            send_message(self.sock, payload)
            return True
        except OSError:
            return False


class _Server:
    """Selector plumbing under the ``repro serve`` front end.

    *read_timeout* bounds every blocking operation on an accepted
    connection (``sendall`` of a job frame to a wedged peer, a reply
    read) — before it, one hung worker socket could block the
    coordinator forever.  A timeout surfaces as ``OSError`` on the
    operation, which the callers already treat as a dead connection.
    """

    def __init__(
        self, address: str, read_timeout: float | None = None
    ) -> None:
        host, port = parse_address(address)
        self._listener = socket.create_server((host, port), backlog=128)
        self._listener.setblocking(False)
        self.read_timeout = read_timeout
        self.selector = selectors.DefaultSelector()
        self.selector.register(self._listener, selectors.EVENT_READ)
        self.connections: dict[socket.socket, _Connection] = {}
        bound = self._listener.getsockname()
        self.address = f"{bound[0]}:{bound[1]}"

    def poll(self, timeout: float) -> list[tuple[_Connection, list[dict] | None]]:
        """One select cycle → ``(connection, messages-or-EOF)`` events."""
        events = []
        for key, _ in self.selector.select(timeout=timeout):
            sock = key.fileobj
            if sock is self._listener:
                try:
                    conn_sock, _ = self._listener.accept()
                except OSError:  # pragma: no cover - racing close
                    continue
                if faults.fire("serve.accept_drop") is not None:
                    # Injected: the peer sees an immediate EOF and must
                    # reconnect on its retry schedule.
                    conn_sock.close()
                    continue
                # settimeout(None) == setblocking(True); a finite value
                # keeps blocking semantics but bounds each operation.
                conn_sock.settimeout(self.read_timeout)
                connection = _Connection(conn_sock)
                self.connections[conn_sock] = connection
                self.selector.register(conn_sock, selectors.EVENT_READ)
            else:
                connection = self.connections[sock]
                events.append((connection, connection.feed()))
        return events

    def drop(self, connection: _Connection) -> None:
        try:
            self.selector.unregister(connection.sock)
        except (KeyError, ValueError):  # pragma: no cover - already gone
            pass
        self.connections.pop(connection.sock, None)
        try:
            connection.sock.close()
        except OSError:  # pragma: no cover
            pass

    def close(self) -> None:
        for connection in list(self.connections.values()):
            self.drop(connection)
        try:
            self.selector.unregister(self._listener)
        except (KeyError, ValueError):  # pragma: no cover
            pass
        self._listener.close()
        self.selector.close()
