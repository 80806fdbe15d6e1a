"""Attack-as-a-service: the persistent serving layer over the job bus.

:class:`~repro.serve.server.AttackServer` is the ``repro serve`` loop —
a content-keyed request front end (memory LRU → artifact store →
pipelined worker fleet, with in-flight coalescing) plus the remote end
of :class:`repro.store.remote.RemoteStore`.  Clients live in
:mod:`repro.client`; :class:`~repro.serve.bus.ServeBus` embeds the same
server in a figure coordinator (``--bus socket``).
"""

from repro.serve.bus import ServeBus
from repro.serve.server import AttackServer, ServeError, ServeStats

__all__ = ["AttackServer", "ServeBus", "ServeError", "ServeStats"]
