"""Real HTTP deployment adapter (stdlib-only) on an asyncio server core.

The in-process transport is the default (and the only option exercised
by the offline benchmarks), but Laminar's architecture is a genuine
server-client split; this module lets a :class:`LaminarServer` listen on
a real socket and a client connect to it over HTTP:

* :func:`serve_http` — mount a server on an asyncio event loop running
  on a background thread.  One coroutine per connection replaces the
  previous thread-per-connection ``ThreadingHTTPServer``, so thousands
  of idle keep-alive sockets cost one task each instead of one OS
  thread each.  Dispatch itself is synchronous (SQLite, BLAS), so each
  parsed request hops to a bounded thread pool, whose size bounds the
  searches in flight.
* :class:`HttpTransport` — a :class:`~repro.net.transport.Transport`
  speaking the same JSON protocol over ``urllib``.  It forwards *all*
  request metadata headers (``Idempotency-Key`` included — previously
  dropped, which silently disabled idempotent replay over real HTTP)
  and surfaces response headers (``Idempotent-Replay``, ``Allow``) on
  the returned :class:`~repro.net.transport.Response`.

Wire protocol: request bodies are JSON (also for GET/DELETE, matching
the in-process transport); the auth token travels as a Bearer header;
an ``Idempotency-Key`` header rides along as request metadata (the v1
write handlers read it, an explicit ``idempotencyKey`` body field
wins); responses are JSON with the dispatch status code plus any
response headers the handler attached.  Response bytes (status line,
header set and order, JSON body) match what the previous
``BaseHTTPRequestHandler`` front end emitted, so clients and recorded
traces see no difference.

Peer disconnects are a fact of life, not an error: a client that drops
the socket mid-request or mid-response used to surface as a spurious
``BrokenPipeError`` traceback from the handler thread; the async core
closes such a connection quietly.  A request line or a header line
longer than the stream limit gets a 414 or a 431 envelope and closes the
connection.  Any other fault that ends a connection closes it too, with
no reply and one ``WARNING`` line on this module's :mod:`logging` logger
naming the peer and the exception.
"""

from __future__ import annotations

import asyncio
import email.utils
import json
import logging
import socket
import sys
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from http.client import responses as _HTTP_PHRASES
from typing import Any

from repro.errors import TransportError, error_envelope
from repro.net.transport import Request, Response, Transport
from repro.server.schema import parse_int

#: mirrors ``BaseHTTPRequestHandler.version_string()`` so the Server
#: header is byte-identical to the previous threaded front end
_SERVER_STRING = "LaminarRepro/1.0 Python/" + sys.version.split()[0]

_SUPPORTED_METHODS = frozenset({"GET", "POST", "PUT", "DELETE"})

_log = logging.getLogger(__name__)

#: the dispatch thread pool's size: the requests that may block in
#: SQLite/BLAS at once; parsing and socket I/O stay on the event loop
#: regardless, so idle keep-alive connections are effectively free
_WORKERS = 32


class _BadBody(ValueError):
    """A request body refused with a 400; the connection reads on."""

    close = False


class _BadFraming(_BadBody):
    """A 400 that closes the connection: where the body ends is unknown,
    so nothing after it can be read as a request."""

    close = True


def _client_url(host: str, port: int) -> str:
    """Normalize a bound address into a URL a client can connect to.

    Binding to all interfaces reports ``0.0.0.0`` (or ``::``), which is
    not a connectable destination — map it to loopback.  IPv6 literals
    must be bracketed inside a URL.
    """
    if host in ("", "0.0.0.0"):
        host = "127.0.0.1"
    elif host == "::":
        host = "::1"
    if ":" in host and not host.startswith("["):
        host = f"[{host}]"
    return f"http://{host}:{port}"


class _AsyncHttpCore:
    """Per-connection HTTP/1.1 state machine feeding ``laminar.dispatch``.

    Parsing happens on the event loop; the blocking dispatch (SQLite,
    BLAS scoring) runs in ``executor``.
    """

    def __init__(self, laminar: Any, executor: ThreadPoolExecutor) -> None:
        self.laminar = laminar
        self.executor = executor

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # headers and body leave in separate writes; without
            # TCP_NODELAY Nagle holds the second segment for the peer's
            # delayed ACK, adding ~40ms to every keep-alive round trip
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
        try:
            while True:
                keep_open = await self._handle_one(reader, writer)
                if not keep_open:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            # a client that dropped the socket mid-request or
            # mid-response closes quietly
            pass
        except Exception as exc:
            # any other fault closes the connection with one line, never
            # a traceback, never a dead loop
            _log.warning(
                "connection from %s closed: %r",
                writer.get_extra_info("peername"),
                exc,
            )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _handle_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Serve one request; return True to keep the connection open."""
        try:
            raw_line = await reader.readline()
        except ValueError:  # request line over the stream limit
            await self._send_json(
                writer,
                414,
                error_envelope("BadRequest", 414, "request line too long"),
                close=True,
            )
            return False
        if not raw_line or not raw_line.strip():
            return False  # clean close between keep-alive requests
        parts = raw_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            await self._send_json(
                writer,
                400,
                error_envelope("BadRequest", 400, "malformed request line"),
                close=True,
            )
            return False
        method, path, version = parts
        try:
            headers = await self._read_headers(reader)
        except ValueError:  # a header line over the stream limit
            await self._send_json(
                writer,
                431,
                error_envelope("BadRequest", 431, "header line too long"),
                close=True,
            )
            return False
        if headers is None:
            await self._send_json(
                writer,
                400,
                error_envelope("BadRequest", 400, "malformed headers"),
                close=True,
            )
            return False
        # HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close
        connection = headers.get("connection", "").lower()
        keep_alive = version != "HTTP/1.0"
        if connection == "close":
            keep_alive = False
        elif version == "HTTP/1.0" and connection == "keep-alive":
            keep_alive = True
        if method not in _SUPPORTED_METHODS:
            await self._send_json(
                writer,
                501,
                error_envelope(
                    "NotImplemented", 501, f"unsupported method {method!r}"
                ),
                close=True,
            )
            return False
        try:
            body = await self._read_body(reader, headers)
        except _BadBody as exc:
            # standardized envelope (paper §3.2.5) for transport-level
            # rejects; a body of unknown framing closes (the next
            # request would desync), a fully-read malformed body keeps
            # the connection alive
            await self._send_json(
                writer,
                400,
                error_envelope("BadRequest", 400, str(exc)),
                close=exc.close,
            )
            return keep_alive and not exc.close
        metadata: dict[str, str] = {}
        idempotency_key = headers.get("idempotency-key")
        if idempotency_key is not None:
            # standard retry-safety header; carried as request metadata
            # (NOT folded into the body — strict v1 read envelopes
            # would reject the extra field), body field wins downstream
            metadata["Idempotency-Key"] = idempotency_key
        if_none_match = headers.get("if-none-match")
        if if_none_match is not None:
            # conditional-read validator for the v1 single-record GETs;
            # metadata for the same reason as Idempotency-Key above
            metadata["If-None-Match"] = if_none_match
        token = None
        auth = headers.get("authorization", "")
        if auth.startswith("Bearer "):
            token = auth[len("Bearer "):].strip()
        request = Request(method, path, body, token, metadata)
        loop = asyncio.get_running_loop()
        response = await loop.run_in_executor(
            self.executor, self.laminar.dispatch, request
        )
        await self._send_json(
            writer,
            response.status,
            response.body,
            extra=response.headers,
            close=not keep_alive,
        )
        return keep_alive

    @staticmethod
    async def _read_headers(
        reader: asyncio.StreamReader,
    ) -> dict[str, str] | None:
        headers: dict[str, str] = {}
        for _ in range(128):  # bounded header count
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                return headers
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                return None
            headers[name.strip().lower()] = value.strip()
        return None

    @staticmethod
    async def _read_body(
        reader: asyncio.StreamReader, headers: dict[str, str]
    ) -> dict[str, Any]:
        """Parse the JSON request body; malformed input is a 400, never
        silently coerced to ``{}``."""
        if headers.get("transfer-encoding"):
            # only Content-Length framing is implemented; silently
            # ignoring a chunked body would desynchronize the
            # kept-alive connection (the unread chunks would be parsed
            # as the next request line)
            raise _BadFraming(
                "Transfer-Encoding is not supported; send a"
                " Content-Length-framed body"
            )
        length = parse_int(headers.get("content-length", "0"))
        if not isinstance(length, int):
            raise _BadFraming(
                f"Content-Length must be 1 to 18 ASCII digits, got {length!r}"
            )
        if length == 0:
            return {}
        raw = await reader.readexactly(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError, RecursionError) as exc:
            # RecursionError: nested deeper than the decoder recurses
            raise _BadBody(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise _BadBody(
                f"request body must be a JSON object, got {type(body).__name__}"
            )
        return body

    @staticmethod
    async def _send_json(
        writer: asyncio.StreamWriter,
        status: int,
        body: dict[str, Any],
        extra: dict[str, str] | None = None,
        close: bool = False,
    ) -> None:
        # RFC 9110 §15.4.5: a 304 carries no content — the client keeps
        # its cached representation; everything else is a JSON document
        payload = b"" if status == 304 else json.dumps(body).encode("utf-8")
        phrase = _HTTP_PHRASES.get(status, "")
        # header names, values and order mirror the BaseHTTPRequestHandler
        # front end this core replaced — response bytes stay identical
        lines = [
            f"HTTP/1.1 {status} {phrase}",
            f"Server: {_SERVER_STRING}",
            f"Date: {email.utils.formatdate(usegmt=True)}",
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
        ]
        for name, value in (extra or {}).items():
            lines.append(f"{name}: {value}")
        if close:
            lines.append("Connection: close")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head)
        writer.write(payload)
        await writer.drain()


class HttpServerHandle:
    """A running HTTP deployment; use as a context manager.

    ``host``/``port`` are the bound address; :attr:`url` is normalized
    to something a client can actually connect to (``0.0.0.0`` → the
    loopback address, IPv6 literals bracketed).
    """

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
        server: asyncio.base_events.Server,
        executor: ThreadPoolExecutor,
    ) -> None:
        self._loop = loop
        self._thread = thread
        self._server = server
        self._executor = executor
        sockname = server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]

    @property
    def url(self) -> str:
        return _client_url(self.host, self.port)

    def shutdown(self) -> None:
        loop = self._loop

        async def _stop() -> None:
            self._server.close()
            await self._server.wait_closed()
            # open keep-alive connections hold one task each; cancel
            # them so the loop can drain instead of waiting forever
            current = asyncio.current_task()
            for task in asyncio.all_tasks():
                if task is not current:
                    task.cancel()

        if loop.is_running():
            asyncio.run_coroutine_threadsafe(_stop(), loop).result(timeout=5.0)
            loop.call_soon_threadsafe(loop.stop)
        self._thread.join(timeout=5.0)
        if not loop.is_closed():
            loop.close()
        self._executor.shutdown(wait=False)

    def __enter__(self) -> "HttpServerHandle":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()


def serve_http(
    laminar_server: Any,
    host: str = "127.0.0.1",
    port: int = 0,
) -> HttpServerHandle:
    """Serve ``laminar_server`` over HTTP on a background event loop.

    ``port=0`` picks a free port; the handle exposes the bound, client-
    usable URL.  ``_WORKERS`` threads dispatch requests.
    """
    executor = ThreadPoolExecutor(
        max_workers=_WORKERS, thread_name_prefix="laminar-http"
    )
    core = _AsyncHttpCore(laminar_server, executor)
    loop = asyncio.new_event_loop()
    started: list[asyncio.base_events.Server] = []
    ready = threading.Event()
    failure: list[BaseException] = []

    async def _start() -> None:
        try:
            server = await asyncio.start_server(
                core.handle_connection, host, port
            )
            started.append(server)
        except BaseException as exc:  # bind failures propagate to caller
            failure.append(exc)
        finally:
            ready.set()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        loop.create_task(_start())
        loop.run_forever()
        # drain cancelled connection tasks after stop()
        pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
        for task in pending:
            task.cancel()
        if pending:
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )

    thread = threading.Thread(
        target=_run, name="laminar-http-loop", daemon=True
    )
    thread.start()
    ready.wait(timeout=10.0)
    if failure:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5.0)
        raise failure[0]
    return HttpServerHandle(loop, thread, started[0], executor)


class HttpTransport(Transport):
    """Client-side transport speaking the Laminar JSON protocol over HTTP.

    Every entry in ``request.headers`` is forwarded as a real HTTP
    header (the in-process transport always passed them through; the
    HTTP path used to drop them, so an ``Idempotency-Key`` never reached
    the server and idempotent replay silently did not work over real
    sockets).  Response headers come back on ``Response.headers`` so
    callers can observe e.g. ``Idempotent-Replay: true``.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def request(self, request: Request) -> Response:
        payload = json.dumps(request.body).encode("utf-8")
        http_request = urllib.request.Request(
            self.base_url + request.path,
            data=payload,
            method=request.method,
            headers={"Content-Type": "application/json"},
        )
        for name, value in request.headers.items():
            http_request.add_header(name, value)
        if request.token:
            http_request.add_header("Authorization", f"Bearer {request.token}")
        try:
            with urllib.request.urlopen(
                http_request, timeout=self.timeout
            ) as reply:
                return Response(
                    reply.status,
                    json.loads(reply.read().decode()),
                    dict(reply.headers.items()),
                )
        except urllib.error.HTTPError as exc:
            try:
                raw = exc.read()
                # a 304 (conditional-read hit) legitimately has no body
                body = json.loads(raw.decode()) if raw else {}
            except Exception:
                body = error_envelope("InternalError", None, str(exc))
            return Response(exc.code, body, dict(exc.headers.items()))
        except urllib.error.URLError as exc:
            raise TransportError(
                f"cannot reach Laminar server at {self.base_url}",
                params={"url": self.base_url},
                details=str(exc),
            ) from exc
