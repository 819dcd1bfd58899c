"""The load generator: one process, one thread, keep-alive HTTP/1.1 over
raw sockets multiplexed by ``selectors``.

:func:`run_closed` is a closed loop: each connection sends its next op
when the previous reply is in, so a slow server receives less load
instead of an ever longer queue.  Every reply is
checked against the op's ``expect``; an op that fails a check, gets an
unexpected status or times out counts in ``failed`` and contributes no
latency sample.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from .corpus import Op

#: an op unanswered for this long has failed (the compaction stall, the
#: longest thing the server does in the foreground, is under a second)
OP_TIMEOUT_S = 30.0


class Connection:
    """One keep-alive connection; ``send`` then ``receive``."""

    def __init__(self, host: str, port: int) -> None:
        self.address = (host, port)
        self.sock: socket.socket | None = None
        self._buffer = bytearray()
        self.connect()

    def connect(self) -> None:
        self.close()
        self.sock = socket.create_connection(self.address, timeout=OP_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer.clear()

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def send(self, method: str, path: str, body: dict | None,
             token: str | None) -> None:
        payload = b"" if body is None else json.dumps(
            body, separators=(",", ":")).encode()
        head = [f"{method} {path} HTTP/1.1", "Host: bench",
                "Content-Type: application/json",
                f"Content-Length: {len(payload)}"]
        if token:
            head.append(f"Authorization: Bearer {token}")
        self.sock.sendall(("\r\n".join(head) + "\r\n\r\n").encode() + payload)

    def poll(self) -> tuple[int, bytes] | None:
        """Read what has arrived; ``(status, raw body)`` once a whole
        reply is buffered, else ``None``.  Call when readable."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk
        end = self._buffer.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = bytes(self._buffer[:end]).decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        total = end + 4 + length
        if len(self._buffer) < total:
            return None
        raw = bytes(self._buffer[end + 4:total])
        del self._buffer[:total]
        return int(head[0].split()[1]), raw

    def request(self, method: str, path: str, body: dict | None = None,
                token: str | None = None) -> tuple[int, dict, bytes]:
        """Blocking round trip (set-up and restart traffic)."""
        self.send(method, path, body, token)
        while True:
            reply = self.poll()
            if reply is not None:
                status, raw = reply
                return status, (json.loads(raw) if raw else {}), raw


def check_reply(op: Op, status: int, body: dict[str, Any]) -> str | None:
    """Why this reply is wrong, or ``None`` when it is right."""
    expect = op.expect
    if status != expect["status"]:
        return f"status {status}, expected {expect['status']}"
    if "count" in expect and body.get("count") != expect["count"]:
        return f"count {body.get('count')}, expected {expect['count']}"
    if "min_count" in expect and not (
        expect["min_count"] <= body.get("count", 0) <= expect["max_count"]
    ):
        return f"count {body.get('count')} outside expected range"
    if "hit1" in expect:
        hits = body.get("hits") or [{}]
        first = hits[0].get("peName") or hits[0].get("name")
        if first != expect["hit1"]:
            return f"needle {expect['hit1']} not hit 1 (got {first})"
    if "items" in expect:
        items = body.get("items", [])
        if len(items) != expect["items"] or not all(
            item.get("created") for item in items
        ):
            return f"bulk reply created {len(items)} of {expect['items']}"
    elif "name" in expect:
        item = body.get("item") or (body.get("items") or [{}])[0]
        if item.get("peName") != expect["name"]:
            return f"record {item.get('peName')}, expected {expect['name']}"
        if "revision" in expect and item.get("revision") != expect["revision"]:
            return (f"revision {item.get('revision')}, expected "
                    f"{expect['revision']} (read-your-writes)")
    if expect.get("removed") and body.get("removed") is not True:
        return "delete not acknowledged"
    return None


@dataclass
class Results:
    """What one schedule measured (all times in seconds)."""

    #: (op class, latency, completion time) of every correct op, in
    #: completion order
    samples: list[tuple[str, float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)  # first few reasons
    started: float = 0.0
    finished: float = 0.0

    def record(self, op: Op, latency: float, done: float,
               problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(
                    f"{op.cls} {op.method} {op.path}: {problem}")
            return
        self.samples.append((op.cls, latency, done))

    @property
    def latencies(self) -> dict[str, list[float]]:
        by_class: dict[str, list[float]] = {}
        for cls, latency, _ in self.samples:
            by_class.setdefault(cls, []).append(latency)
        return by_class


def _finish(op: Op, reply: tuple[int, bytes]) -> str | None:
    status, raw = reply
    try:
        body = json.loads(raw) if raw else {}
    except ValueError:
        return "reply is not JSON"
    return check_reply(op, status, body)


def run_closed(conns: Sequence[Connection], ops: Sequence[Op],
               tokens: dict[str, str],
               solo: frozenset[str] = frozenset()) -> Results:
    """Closed loop over ``conns``: ops are handed out in schedule order to
    whichever connection is free, each under its user's token.  An op
    whose class is in ``solo`` is sent only once nothing else is in
    flight, and nothing else is sent until it is answered."""
    results = Results()
    results.started = time.perf_counter()
    selector = selectors.DefaultSelector()
    inflight: dict[Connection, tuple[int, float]] = {}
    cursor = 0
    alone = False  # the op in flight is a solo one

    def pump() -> None:
        nonlocal cursor, alone
        while cursor < len(ops) and not alone:
            op = ops[cursor]
            free = [conn for conn in conns if conn not in inflight]
            if not free or (op.cls in solo and inflight):
                return
            inflight[free[0]] = (cursor, time.perf_counter())
            free[0].send(op.method, op.path, op.body, tokens[op.user])
            alone = op.cls in solo
            cursor += 1

    try:
        for conn in conns:
            selector.register(conn.sock, selectors.EVENT_READ, conn)
        pump()
        while inflight:
            events = selector.select(timeout=OP_TIMEOUT_S)
            if not events:
                # nothing for OP_TIMEOUT_S: every in-flight op has failed,
                # and their connections are no longer in a known state
                for conn, (index, _) in list(inflight.items()):
                    results.record(ops[index], 0.0, 0.0, "timed out")
                    selector.unregister(conn.sock)
                    conn.connect()
                    selector.register(conn.sock, selectors.EVENT_READ, conn)
                    del inflight[conn]
                alone = False
                pump()
                continue
            for key, _ in events:
                conn = key.data
                reply = conn.poll()
                if reply is None:
                    continue
                done = time.perf_counter()
                index, sent = inflight.pop(conn)
                alone = False
                results.record(ops[index], done - sent, done,
                               _finish(ops[index], reply))
                pump()
    finally:
        selector.close()
    results.finished = time.perf_counter()
    return results
