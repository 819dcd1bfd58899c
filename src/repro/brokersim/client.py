"""Client handle for the simulated Redis broker.

A :class:`BrokerClient` is a thin synchronous RPC stub: each command puts
``(client_id, OP, args)`` on the shared request queue and blocks on its
private response queue.  Instances are picklable (they only hold queues),
so they can be handed to worker processes — each worker must own a
*distinct* client id, exactly like each worker holding its own Redis
connection.
"""

from __future__ import annotations

import queue as queue_mod
from typing import Any

from repro.errors import MappingError


class BrokerClient:
    """Synchronous command interface to the broker process."""

    def __init__(self, client_id: int, request_q: Any, response_q: Any) -> None:
        self.client_id = client_id
        self._request_q = request_q
        self._response_q = response_q

    # ------------------------------------------------------------------
    def _call(self, op: str, args: tuple = (), timeout: float | None = 30.0) -> Any:
        self._request_q.put((self.client_id, op, args))
        try:
            status, value = self._response_q.get(timeout=timeout)
        except queue_mod.Empty as exc:
            raise MappingError(
                f"broker did not answer {op} within {timeout}s",
                params={"op": op, "client": self.client_id},
            ) from exc
        if status == "error":
            raise MappingError(
                f"broker rejected {op}: {value}",
                params={"op": op, "client": self.client_id},
            )
        return value

    # -- connection ------------------------------------------------------
    def ping(self) -> str:
        return self._call("PING")

    def shutdown(self) -> bool:
        return self._call("SHUTDOWN")

    # -- lists -------------------------------------------------------------
    def rpush(self, key: str, *values: Any) -> int:
        return self._call("RPUSH", (key, list(values)))

    def blpop(self, key: str, timeout: float | None = None) -> tuple[str, Any] | None:
        """Blocking left pop; returns ``(key, value)`` or ``None`` on timeout.

        The client-side wait is bounded slightly above the server-side
        timeout so a lost reply surfaces as an error instead of a hang.
        """
        client_wait = None if timeout is None else timeout + 10.0
        return self._call("BLPOP", (key, timeout), timeout=client_wait)
