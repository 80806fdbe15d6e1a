"""``--bus socket``: the coordinator embeds an :class:`AttackServer`.

:class:`ServeBus` binds one :class:`~repro.serve.server.AttackServer` to
the bus address and runs its loop on a daemon thread for the bus's
lifetime.  Workers connect with ``repro worker --serve-addr`` and get
pipelined job pushes, requeue on a dropped connection and the attempt
budget exactly as under ``repro serve``.  :meth:`ServeBus.run` is one
more client of that server: it submits each job with the ``submit``
frame :class:`~repro.client.ServeClient` uses (``wait=True``) and yields
the raw artifact payloads as ``result`` frames arrive, in completion
order.

The server stores results in the runner's local
:class:`~repro.store.ArtifactStore` when there is one, so they arrive
``persisted``; otherwise in a private temporary store that
:meth:`ServeBus.close` removes.  When no worker ever shows up, the
server's liveness fail-over executes the queued jobs in-process.
"""

from __future__ import annotations

import select
import socket
import tempfile
import threading
import time
from typing import TYPE_CHECKING, Iterator

from repro.bus.protocol import (
    DEFAULT_POLL,
    BusError,
    JobBus,
    RetryPolicy,
    encode_job,
)
from repro.bus.wire import recv_message, send_message
from repro.serve.server import AttackServer
from repro.store import ArtifactStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import AttackJob

__all__ = ["ServeBus"]


class ServeBus(JobBus):
    """Coordinator-embedded serve loop (``repro figures --bus socket``)."""

    name = "socket"

    def __init__(
        self,
        address: str = "127.0.0.1:0",
        store: "ArtifactStore | None" = None,
        poll: float = DEFAULT_POLL,
        max_attempts: int | None = None,
        timeout: float | None = None,
        liveness: float | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        super().__init__()
        self.retry = retry if retry is not None else RetryPolicy.from_env()
        self.poll = float(poll)
        self.timeout = timeout
        self.liveness = float(liveness) if liveness else None
        self.persisted = isinstance(store, ArtifactStore)
        self._tmp = None
        if not self.persisted:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-socket-bus-")
            store = self._tmp.name
        try:
            self.server = AttackServer(
                address,
                store,
                max_attempts=(
                    self.retry.max_attempts
                    if max_attempts is None
                    else max_attempts
                ),
                liveness=self.liveness,
                poll=self.poll,
                retry=self.retry,
                # Figure transcripts carry only the bus summary line.
                log=lambda *_: None,
            )
        except BaseException:
            if self._tmp is not None:
                self._tmp.cleanup()
            raise
        self.address = self.server.address
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="socket-bus", daemon=True
        )
        self._thread.start()

    def run(
        self, jobs: "list[AttackJob]"
    ) -> "Iterator[tuple[AttackJob, dict, bool]]":
        if not jobs:
            return
        waiting = {job.store_key: job for job in jobs}
        host, port = self.address.rsplit(":", 1)
        sock = socket.create_connection(
            (host, int(port)), timeout=self.retry.connect_timeout
        )
        sock.settimeout(self.retry.read_timeout)
        # Submits go out on their own thread so this one reads results
        # as they arrive: a server blocked sending results to a socket
        # nobody reads could never take the remaining submits.
        sender = threading.Thread(
            target=self._submit, args=(sock, list(waiting.values()))
        )
        sender.start()
        self.stats.submitted += len(jobs)
        try:
            while waiting:
                message = self._next_frame(sock, len(waiting))
                if message.get("op") != "result":
                    continue  # the accept frames carry nothing we need
                job = waiting.pop(str(message.get("key")), None)
                if job is None:
                    continue
                self._sync_stats()
                if not message.get("ok"):
                    raise BusError(
                        f"job {job.store_key[:12]}… failed "
                        f"{self.server.max_attempts} time(s) over the "
                        f"socket bus; last worker traceback:\n"
                        f"{message.get('error')}"
                    )
                yield job, message["result"], self.persisted
        finally:
            try:
                sock.shutdown(socket.SHUT_RDWR)  # wakes a blocked sender
            except OSError:
                pass  # already disconnected
            sender.join()
            sock.close()
            self._sync_stats()

    def _submit(self, sock: socket.socket, jobs: "list[AttackJob]") -> None:
        t0 = time.perf_counter()
        try:
            for job in jobs:
                send_message(
                    sock,
                    {"op": "submit", "key": job.store_key,
                     "job": encode_job(job), "wait": True},
                )
        except OSError:
            return  # the connection is gone; the reader sees that too
        self.stats.submit_seconds += time.perf_counter() - t0

    def _next_frame(self, sock: socket.socket, outstanding: int) -> dict:
        """Block for the server's next frame, enforcing *timeout*.

        A busy fleet counts as progress (the server's ``last_progress``
        advances while any worker holds a job), so only a fleet that is
        silent with work queued trips the timeout.
        """
        while True:
            ready, _, _ = select.select([sock], [], [], self.poll)
            if ready:
                t0 = time.perf_counter()
                message = recv_message(sock)
                self.stats.adopt_seconds += time.perf_counter() - t0
                if message is None:
                    raise BusError("socket bus connection closed")
                return message
            if not self._thread.is_alive():
                raise BusError("socket bus server loop exited")
            quiet = time.monotonic() - self.server.last_progress
            if self.timeout is not None and quiet > self.timeout:
                raise BusError(
                    f"socket bus made no progress for {self.timeout:.0f}s — "
                    f"{outstanding} job(s) outstanding, "
                    f"{len(self.server.workers)} worker connection(s); "
                    f"point workers at `repro worker --serve-addr "
                    f"{self.address}`"
                )

    def _sync_stats(self) -> None:
        served = self.server.stats
        self.stats.completed = served.completed
        self.stats.adopted = served.memory_hits + served.store_hits
        self.stats.requeues = served.requeues
        self.stats.quarantined = served.failed
        self.stats.failed_over = served.failed_over

    def close(self) -> None:
        self.server.stop()
        self._thread.join()
        self.server.close()
        if self._tmp is not None:
            self._tmp.cleanup()
