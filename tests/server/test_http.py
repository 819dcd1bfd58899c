"""Tests for the real-HTTP deployment adapter (loopback socket)."""

import asyncio
import json
import logging
import socket
import uuid

import pytest

from repro.client import LaminarClient
from repro.errors import AuthenticationError, TransportError
from repro.net.transport import Request, Response
from repro.server import LaminarServer
from repro.server.http import (
    HttpTransport,
    _AsyncHttpCore,
    _client_url,
    serve_http,
)
from tests.helpers import AddTen, build_pipeline_graph


@pytest.fixture(scope="module")
def http_stack(fast_bundle):
    server = LaminarServer(models=fast_bundle)
    handle = serve_http(server)
    yield handle
    handle.shutdown()


@pytest.fixture()
def http_client(http_stack, fast_bundle):
    import uuid

    client = LaminarClient(
        HttpTransport(http_stack.url), models=fast_bundle, echo=False
    )
    user = f"user-{uuid.uuid4().hex[:8]}"
    client.register(user, "pw")
    client.login(user, "pw")
    return client


class TestHttpRoundTrips:
    def test_register_login_over_http(self, http_client):
        assert http_client.web.token is not None

    def test_pe_lifecycle_over_http(self, http_client):
        http_client.register_PE(AddTen, "adds ten")
        cls = http_client.get_PE("AddTen")
        assert cls().process({"input": 1})[0].value == 11

    def test_serverless_run_over_http(self, http_client):
        outcome = http_client.run(build_pipeline_graph(), input=3, register=False)
        assert outcome.status == "ok"
        assert outcome.results["Collector.output"] == [[11, 12, 13]]

    def test_search_over_http(self, http_client):
        http_client.register_PE(AddTen, "Adds ten to each incoming number")
        hits = http_client.search_Registry("adds ten to a number", "pe", "text")
        assert hits[0]["peName"] == "AddTen"

    def test_url_encoded_search_path(self, http_client):
        http_client.register_PE(AddTen)
        hits = http_client.search_Registry("num + 10", "pe", "code")
        assert hits  # spaces and '+' survive URL encoding


class TestHttpErrors:
    def test_error_envelope_preserves_status(self, http_stack, fast_bundle):
        client = LaminarClient(
            HttpTransport(http_stack.url), models=fast_bundle, echo=False
        )
        with pytest.raises(AuthenticationError):
            client.login("ghost", "nope")

    def test_missing_token_over_http(self, http_stack, fast_bundle):
        client = LaminarClient(
            HttpTransport(http_stack.url), models=fast_bundle, echo=False
        )
        client.web.token = "bogus-token"
        client.web.user_name = "ghost"
        with pytest.raises(AuthenticationError):
            client.get_Registry()

    def test_unreachable_server(self, fast_bundle):
        transport = HttpTransport("http://127.0.0.1:1", timeout=0.5)
        client = LaminarClient(transport, models=fast_bundle, echo=False)
        with pytest.raises(TransportError, match="cannot reach"):
            client.register("x", "y")


class TestClientUrl:
    """The advertised URL must be connectable, not just the bind address."""

    @pytest.mark.parametrize(
        ("host", "port", "want"),
        [
            ("0.0.0.0", 8080, "http://127.0.0.1:8080"),
            ("", 8080, "http://127.0.0.1:8080"),
            ("::", 9090, "http://[::1]:9090"),
            ("::1", 9090, "http://[::1]:9090"),
            ("2001:db8::7", 80, "http://[2001:db8::7]:80"),
            ("192.168.1.5", 80, "http://192.168.1.5:80"),
            ("localhost", 80, "http://localhost:80"),
        ],
    )
    def test_normalization(self, host, port, want):
        assert _client_url(host, port) == want

    def test_all_interfaces_bind_yields_usable_url(self, fast_bundle):
        server = LaminarServer(models=fast_bundle)
        with serve_http(server, host="0.0.0.0") as handle:
            assert handle.url.startswith("http://127.0.0.1:")
            transport = HttpTransport(handle.url, timeout=5.0)
            reply = transport.request(
                Request("POST", "/auth/register", {"userName": "u0", "password": "p"})
            )
            assert reply.status == 201, reply.body


def _auth(transport):
    """Register + login a fresh user over the wire; return (user, token)."""
    user = f"user-{uuid.uuid4().hex[:8]}"
    transport.request(
        Request("POST", "/auth/register", {"userName": user, "password": "pw"})
    )
    reply = transport.request(
        Request("POST", "/auth/login", {"userName": user, "password": "pw"})
    )
    return user, reply.body["token"]


class TestIdempotencyOverHttp:
    """The Idempotency-Key header must survive the real-HTTP round trip.

    Regression: HttpTransport used to drop ``request.headers``, so keyed
    writes silently re-executed on retry over real sockets (idempotent
    replay worked only in-process).
    """

    def test_keyed_write_replays_with_header(self, http_stack):
        transport = HttpTransport(http_stack.url, timeout=10.0)
        user, token = _auth(transport)
        request = Request(
            "PUT",
            f"/v1/registry/{user}/pes/idem",
            {"peCode": "def idem(): pass"},
            token=token,
            headers={"Idempotency-Key": "retry-safe-1"},
        )
        first = transport.request(request)
        assert first.status == 201, first.body
        assert first.body["idempotencyKey"] == "retry-safe-1"
        assert "Idempotent-Replay" not in first.headers

        replay = transport.request(request)
        assert replay.status == 201
        assert replay.headers.get("Idempotent-Replay") == "true"
        assert replay.body == first.body  # stored response, byte-exact

    def test_distinct_keys_are_distinct_writes(self, http_stack):
        transport = HttpTransport(http_stack.url, timeout=10.0)
        user, token = _auth(transport)
        pe_ids = []
        for n, key in enumerate(("key-a", "key-b")):
            reply = transport.request(
                Request(
                    "PUT",
                    f"/v1/registry/{user}/pes/twice",
                    {"peCode": f"def twice(): return {n}", "ifVersion": n},
                    token=token,
                    headers={"Idempotency-Key": key},
                )
            )
            assert reply.status == 201, reply.body
            assert "Idempotent-Replay" not in reply.headers
            pe_ids.append(reply.body["items"][0]["peId"])
        assert pe_ids[0] != pe_ids[1]  # both writes actually executed


class TestPeerDisconnect:
    """A client dropping the socket must not traceback or kill serving."""

    def test_abort_mid_request_leaves_the_server_serving(self, http_stack):
        with socket.create_connection(
            (http_stack.host, http_stack.port), timeout=5.0
        ) as sock:
            # keep-alive connection that promises a body and vanishes
            sock.sendall(
                b"POST /auth/login HTTP/1.1\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 500\r\n"
                b"\r\n"
                b'{"partial'
            )
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                b"\x01\x00\x00\x00\x00\x00\x00\x00",  # RST on close
            )
        # the server keeps serving other connections afterwards
        transport = HttpTransport(http_stack.url, timeout=5.0)
        reply = transport.request(Request("GET", "/v1/backends", {}))
        assert reply.status == 200

    def test_clean_close_between_requests_is_served(self, http_stack):
        with socket.create_connection(
            (http_stack.host, http_stack.port), timeout=5.0
        ) as sock:
            sock.sendall(
                b"GET /v1/backends HTTP/1.1\r\n"
                b"Connection: close\r\n"
                b"\r\n"
            )
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        assert b"200" in reply.split(b"\r\n", 1)[0]


class _Writer:
    """The part of ``asyncio.StreamWriter`` a connection handler uses."""

    def __init__(self):
        self.sent = bytearray()
        self.closed = False

    def get_extra_info(self, name):
        return None

    def write(self, data):
        self.sent += data

    async def drain(self):
        pass

    def close(self):
        self.closed = True

    async def wait_closed(self):
        pass


def handle(feed, laminar=None):
    """Run one connection over a reader that ``feed`` fills; return its
    writer.  A request gets as far as dispatch only with a ``laminar``."""

    async def run():
        reader = asyncio.StreamReader()
        feed(reader)
        writer = _Writer()
        core = _AsyncHttpCore(laminar=laminar, executor=None)
        await core.handle_connection(reader, writer)
        return writer

    return asyncio.run(run())


def replies(writer):
    """Each response the writer sent, as ``(status line, headers, body)``."""
    out = []
    rest = bytes(writer.sent)
    while rest:
        head, _, rest = rest.partition(b"\r\n\r\n")
        status, *headers = head.decode("latin-1").split("\r\n")
        length = next(
            int(h.split(":")[1]) for h in headers
            if h.startswith("Content-Length:")
        )
        out.append((status, headers, json.loads(rest[:length])))
        rest = rest[length:]
    return out


def warnings_of(caplog):
    return [
        record.getMessage() for record in caplog.records
        if record.name == "repro.server.http"
    ]


def promised(length):
    return (
        b"POST /auth/login HTTP/1.1\r\n"
        b"Content-Length: " + length + b"\r\n\r\n"
    )


class TestConnectionFaults:
    """A dropped client closes in silence; any other fault that ends a
    connection is one logged line naming the peer and the exception."""

    def test_a_body_cut_short_is_not_logged(self, caplog):
        def cut(reader):
            reader.feed_data(promised(b"500") + b'{"partial')
            reader.feed_eof()

        with caplog.at_level(logging.DEBUG, logger="repro.server.http"):
            writer = handle(cut)
        assert writer.closed and not writer.sent
        assert warnings_of(caplog) == []

    def test_a_reset_is_not_logged(self, caplog):
        def reset(reader):
            reader.feed_data(promised(b"500"))
            reader.set_exception(ConnectionResetError("reset by peer"))

        with caplog.at_level(logging.DEBUG, logger="repro.server.http"):
            writer = handle(reset)
        assert writer.closed
        assert warnings_of(caplog) == []

    def test_a_fault_that_ends_a_connection_is_logged_once(self, caplog):
        """A response that cannot be encoded as JSON (here a set in the
        body) ends the connection with no reply and one logged line."""

        class Unencodable:
            def dispatch(self, request):
                return Response(200, {"values": {1, 2}})

        def ask(reader):
            reader.feed_data(b"GET /v1/backends HTTP/1.1\r\n\r\n")
            reader.feed_eof()

        with caplog.at_level(logging.DEBUG, logger="repro.server.http"):
            writer = handle(ask, laminar=Unencodable())
        assert writer.closed and not writer.sent
        (record,) = [
            r for r in caplog.records if r.name == "repro.server.http"
        ]
        line = record.getMessage()
        assert "TypeError" in line and "set" in line, line
        assert record.levelno == logging.WARNING and record.exc_info is None

    def test_an_over_long_header_line_is_a_431_that_closes(self, caplog):
        """A header line longer than the stream limit (64 KiB) leaves the
        request's framing unknown: a 431 envelope, and the connection
        closes, as a request line over the limit gets a 414."""

        def pad(reader):
            reader.feed_data(
                b"GET /v1/backends HTTP/1.1\r\n"
                b"X-Pad: " + b"a" * 70_000 + b"\r\n\r\n"
            )
            reader.feed_eof()

        with caplog.at_level(logging.DEBUG, logger="repro.server.http"):
            writer = handle(pad)
        ((status, headers, body),) = replies(writer)
        assert status == "HTTP/1.1 431 Request Header Fields Too Large"
        assert "Connection: close" in headers
        assert body == {
            "error": "BadRequest",
            "code": 431,
            "message": "header line too long",
        }
        assert writer.closed
        assert warnings_of(caplog) == []


class TestDeepBody:
    """A JSON body nested deeper than the decoder recurses is a 400 like
    any other malformed body, and the connection reads on."""

    def test_a_deeply_nested_body_is_a_400_that_keeps_the_connection(
        self, caplog
    ):
        deep = b"[" * 100_000

        def send(reader):
            reader.feed_data(promised(b"%d" % len(deep)) + deep)
            reader.feed_data(b"GET /v1/backends HTTP/1.1\r\n\r\n")
            reader.feed_eof()

        class Backends:
            def dispatch(self, request):
                return Response(200, {"path": request.path})

        with caplog.at_level(logging.DEBUG, logger="repro.server.http"):
            writer = handle(send, laminar=Backends())
        (first, second) = replies(writer)
        status, headers, body = first
        assert status == "HTTP/1.1 400 Bad Request"
        assert "Connection: close" not in headers
        assert body["error"] == "BadRequest"
        assert body["message"].startswith("request body is not valid JSON: ")
        assert "recursion" in body["message"]
        # the next request on the same connection is served
        assert second[0] == "HTTP/1.1 200 OK"
        assert second[2] == {"path": "/v1/backends"}
        assert warnings_of(caplog) == []


class TestContentLength:
    """A ``Content-Length`` that is not 1 to 18 ASCII digits is a 400
    envelope, and the connection closes: where the body ends is
    unknown, so nothing after it can be read as a request."""

    @pytest.mark.parametrize("length", ["abc", "-1", "+5", "1_0", ""])
    def test_a_malformed_length_is_a_400_that_closes(self, http_stack, length):
        with socket.create_connection(
            (http_stack.host, http_stack.port), timeout=5.0
        ) as sock:
            sock.sendall(promised(length.encode()))
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        status, *headers = head.decode("latin-1").split("\r\n")
        assert status == "HTTP/1.1 400 Bad Request"
        assert "Connection: close" in headers
        assert json.loads(body) == {
            "error": "BadRequest",
            "code": 400,
            "message": "Content-Length must be 1 to 18 ASCII digits, "
            f"got {length!r}",
        }

    def test_eighteen_digits_frame_a_body(self, http_stack):
        body = b'{"userName": "nobody", "password": "pw"}'
        with socket.create_connection(
            (http_stack.host, http_stack.port), timeout=5.0
        ) as sock:
            sock.sendall(
                promised(b"%018d" % len(body)).replace(b"HTTP/1.1", b"HTTP/1.0")
                + body
            )
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 401 ")
