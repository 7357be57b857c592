"""The gateway observability verbs: ``metrics``, ``traces``, observers.

Pins the scrape contract CI relies on: a live ``metrics`` scrape must
render a parseable, NaN-free Prometheus exposition containing every
family the serving and gateway tiers register; ``traces`` must return
complete gateway-owned span trees; and observer sessions (the scrape
channel) must work on a session-capped gateway without being able to
inject frames.
"""

import numpy as np
import pytest

from repro.api import create_beamformer
from repro.gateway import GatewayClient, GatewayError, GatewayServer
from repro.gateway.protocol import (
    PROTOCOL_VERSION,
    dataset_geometry,
    recv_message,
    send_message,
)
from repro.obs import Observability, span_tree, validate_exposition
from repro.serve import ServeEngine

from .conftest import raw_connect

#: Families that must appear in any post-traffic gateway scrape.
REQUIRED_FAMILIES = (
    "repro_serve_frames_total",
    "repro_serve_stage_seconds",
    "repro_serve_batch_size",
    "repro_serve_queue_depth",
    "repro_gateway_sessions_total",
    "repro_gateway_frames_total",
    "repro_gateway_results_total",
    "repro_traces_total",
)

#: The span names of one gateway-served frame (threaded engine).
GATEWAY_SPAN_NAMES = {
    "frame", "ingress", "queue_wait", "execute", "respond",
}


@pytest.fixture
def traced_gateway(sim_contrast_dataset):
    """A DAS gateway tracing every frame; yields (gateway, dataset)."""
    engine = ServeEngine(
        create_beamformer("das"),
        max_batch=4,
        keep_images=False,
        log_every_s=0,
        observability=Observability.create(sample_rate=1.0),
    )
    with GatewayServer(engine, port=0, max_sessions=2) as gateway:
        yield gateway, sim_contrast_dataset


def stream_frames(gateway, dataset, n=4):
    das = create_beamformer("das")
    with GatewayClient("127.0.0.1", gateway.port) as client:
        client.connect(dataset_geometry(dataset))
        images = list(client.stream([dataset.rf] * n))
    assert len(images) == n
    np.testing.assert_array_equal(images[0], das.beamform(dataset))


class TestMetricsVerb:
    def test_live_scrape_validates_with_required_families(
        self, traced_gateway
    ):
        gateway, dataset = traced_gateway
        stream_frames(gateway, dataset)
        with GatewayClient("127.0.0.1", gateway.port) as observer:
            observer.connect(None)
            scrape = observer.metrics()
        families = validate_exposition(
            scrape["prometheus"], required=REQUIRED_FAMILIES
        )
        # Both export formats come from one registry snapshot.
        assert set(scrape["json"]) == set(families)
        admitted = [
            value
            for name, labels, value in (
                families["repro_gateway_frames_total"]["samples"]
            )
            if labels.get("event") == "admitted"
        ]
        assert admitted == [4.0]

    def test_scrape_counters_track_traffic(self, traced_gateway):
        gateway, dataset = traced_gateway
        stream_frames(gateway, dataset, n=3)
        stream_frames(gateway, dataset, n=2)
        with GatewayClient("127.0.0.1", gateway.port) as observer:
            observer.connect(None)
            view = observer.metrics()["json"]
        samples = {
            labels_value["labels"]["event"]: labels_value["value"]
            for labels_value in (
                view["repro_gateway_results_total"]["samples"]
            )
        }
        assert samples.get("delivered") == 5.0


class TestTracesVerb:
    def test_traces_return_complete_gateway_owned_trees(
        self, traced_gateway
    ):
        gateway, dataset = traced_gateway
        stream_frames(gateway, dataset)
        with GatewayClient("127.0.0.1", gateway.port) as observer:
            observer.connect(None)
            traces = observer.traces(n=32)
        assert len(traces) == 4
        for trace in traces:
            assert trace["owner"] == "gateway"
            assert len(trace["spans"]) >= 5
            assert {s["name"] for s in trace["spans"]} == (
                GATEWAY_SPAN_NAMES
            )
            for span in trace["spans"]:
                assert span["end"] is not None
            root = span_tree(trace)
            assert root["attrs"]["status"] == "ok"
            (respond,) = [
                c for c in root["children"] if c["name"] == "respond"
            ]
            assert respond["attrs"]["delivered"] is True


class TestObserverSessions:
    def test_observer_admitted_on_session_capped_gateway(
        self, traced_gateway
    ):
        """The scrape channel must survive saturation.

        With ``max_sessions`` real sessions parked, a frame-bearing
        session is refused (``session_cap``) — but an observer still
        gets in: an operator diagnosing the saturation needs the
        metrics most exactly then.
        """
        gateway, dataset = traced_gateway
        geometry = dataset_geometry(dataset)
        parked = [
            GatewayClient("127.0.0.1", gateway.port)
            for _ in range(2)
        ]
        try:
            for client in parked:
                client.connect(geometry)
            refused = GatewayClient("127.0.0.1", gateway.port)
            with pytest.raises(GatewayError) as excinfo:
                refused.connect(geometry)
            assert excinfo.value.code == "session_cap"
            refused.close()
            with GatewayClient(
                "127.0.0.1", gateway.port
            ) as observer:
                observer.connect(None)
                scrape = observer.metrics()
            validate_exposition(scrape["prometheus"])
        finally:
            for client in parked:
                client.close()

    def test_observer_frames_are_rejected(self, traced_gateway):
        gateway, dataset = traced_gateway
        with raw_connect(gateway.port) as sock:
            send_message(
                sock,
                {"type": "hello", "v": PROTOCOL_VERSION,
                 "observe": True},
            )
            header, _ = recv_message(sock)
            assert header["type"] == "hello_ok"
            send_message(
                sock,
                {"type": "frame", "seq": 0,
                 "dtype": "float64", "shape": [1, 1]},
                np.zeros((1, 1)).tobytes(),
            )
            header, _ = recv_message(sock)
            assert header["type"] == "error"
            assert header["code"] == "malformed"
        # The gateway is still serving after the protocol violation.
        stream_frames(gateway, dataset, n=1)
