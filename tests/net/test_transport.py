"""Tests for the transport layer and latency models."""

import time

import pytest

from repro.errors import TransportError
from repro.net import (
    AZURE_WAN,
    InProcessTransport,
    LatencyModel,
    Request,
    Response,
    Transport,
)
from repro.net.latency import make_latency


class EchoServer:
    def dispatch(self, request: Request) -> Response:
        return Response(200, {"echo": request.body, "path": request.path})


class TestRequestResponse:
    def test_wire_size_counts_json_bytes(self):
        small = Request("GET", "/x", {}).wire_size()
        big = Request("GET", "/x", {"payload": "y" * 1000}).wire_size()
        assert big > small + 900

    def test_non_json_body_rejected(self):
        request = Request("POST", "/x", {"bad": object()})
        with pytest.raises(TransportError, match="not JSON-serializable"):
            request.wire_size()

    def test_response_ok_range(self):
        assert Response(200).ok and Response(204).ok
        assert not Response(404).ok and not Response(500).ok


class TestInProcessTransport:
    def test_round_trip(self):
        transport = InProcessTransport(EchoServer())
        response = transport.request(Request("GET", "/ping", {"a": 1}))
        assert response.ok
        assert response.body["echo"] == {"a": 1}

    def test_json_wire_format_enforced(self):
        """Tuples become lists — exactly as over real HTTP."""
        transport = InProcessTransport(EchoServer())
        response = transport.request(Request("GET", "/x", {"pair": (1, 2)}))
        assert response.body["echo"]["pair"] == [1, 2]

    def test_non_json_body_raises_before_dispatch(self):
        transport = InProcessTransport(EchoServer())
        with pytest.raises(TransportError):
            transport.request(Request("GET", "/x", {"bad": {1, 2}}))

    def test_server_without_dispatch_rejected(self):
        with pytest.raises(TransportError, match="no dispatch"):
            InProcessTransport(object())

    def test_is_a_transport(self):
        assert isinstance(InProcessTransport(EchoServer()), Transport)


class TestLatencyModel:
    def test_zero_model_is_free(self):
        model = LatencyModel(name="zero")
        assert model.delay(10_000) == 0.0

    def test_rtt_and_bandwidth_components(self):
        model = LatencyModel(name="m", rtt_s=0.010, bandwidth_bps=1000.0)
        # 500 bytes at 1000 B/s = 0.5s, plus half the RTT
        assert model.delay(500) == pytest.approx(0.505)

    def test_jitter_bounded(self):
        model = LatencyModel(name="m", rtt_s=0.010, jitter=0.2, seed=1)
        delays = [model.delay(0) for _ in range(100)]
        assert all(0.004 <= d <= 0.006 for d in delays)
        assert len(set(delays)) > 1  # actually jittering

    def test_apply_sleeps_and_accounts(self):
        model = LatencyModel(name="m", rtt_s=0.04)
        t0 = time.perf_counter()
        cost = model.apply(0)
        assert time.perf_counter() - t0 >= 0.015
        assert model.accounted_s == pytest.approx(cost)

    def test_accounting_without_sleep(self):
        model = LatencyModel(name="m", rtt_s=1.0, sleep=False)
        t0 = time.perf_counter()
        model.apply(0)
        assert time.perf_counter() - t0 < 0.1
        assert model.accounted_s == pytest.approx(0.5)

    def test_presets(self):
        lan = make_latency("lan")
        wan = make_latency("azure-wan")
        assert wan.rtt_s > lan.rtt_s
        assert make_latency("local").delay(1000) == 0.0
        with pytest.raises(ValueError, match="unknown latency preset"):
            make_latency("martian")

    def test_transport_charges_latency(self):
        model = LatencyModel(name="m", rtt_s=0.02, jitter=0.0)
        transport = InProcessTransport(EchoServer(), latency=model)
        t0 = time.perf_counter()
        transport.request(Request("GET", "/x", {}))
        elapsed = time.perf_counter() - t0
        assert elapsed >= 0.018  # two directions x rtt/2
        assert model.accounted_s >= 0.018

    def test_wan_slower_than_lan_for_big_payloads(self):
        lan, wan = make_latency("lan"), make_latency("azure-wan")
        assert wan.delay(100_000) > lan.delay(100_000)

    def test_azure_preset_shape(self):
        assert AZURE_WAN.rtt_s == pytest.approx(0.035)
        assert AZURE_WAN.bandwidth_bps > 0
