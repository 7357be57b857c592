"""repro.gateway — network serving frontend over the serving engine.

The gateway turns :mod:`repro.serve` into a service: remote probes
stream raw RF frames over TCP and get beamformed IQ images back,
bitwise identical to offline ``beamform`` (the wire round trip is
byte-exact and the engine already guarantees serve/offline parity).

::

    N clients ──TCP──▶ GatewayServer ──feed──▶ ServeEngine
     (sessions)         (admission,             (micro-batching,
                         geometry                worker threads,
                         negotiation)            telemetry)

Pieces:

* protocol — the versioned wire format (length-prefixed JSON header +
  raw ndarray payload) and geometry negotiation,
* server   — :class:`GatewayServer`: asyncio TCP frontend, per-session
  geometry, admission control (session cap, per-session in-flight
  credit, explicit ``reject`` responses), graceful drain, live
  ``stats``,
* client   — :class:`GatewayClient`: blocking pure-Python client with
  pipelined streaming.

Quickstart (in-process loopback)::

    from repro.api import create_beamformer
    from repro.gateway import GatewayClient, GatewayServer
    from repro.gateway.protocol import dataset_geometry
    from repro.serve import ServeEngine

    engine = ServeEngine(create_beamformer("das"), keep_images=False)
    with GatewayServer(engine, port=0) as gateway:
        with GatewayClient("127.0.0.1", gateway.port) as client:
            client.connect(dataset_geometry(dataset))
            images = list(client.stream([dataset.rf]))

CLI: ``python -m repro.gateway --port 7355`` (or
``python -m repro.serve --gateway 7355``); bench:
``benchmarks/bench_gateway.py`` (loopback multi-client throughput vs
in-process serve; emits ``BENCH_gateway.json``).  Wire format and
operator guidance: ``docs/protocol.md`` and ``docs/serving.md``.
"""

from repro.gateway.client import (
    GatewayClient,
    GatewayError,
    GatewayRejected,
)
from repro.gateway.protocol import (
    ERROR_CODES,
    MAX_HEADER_BYTES,
    PROTOCOL_VERSION,
    REJECT_CODES,
    ProtocolError,
    dataset_geometry,
    geometry_from_wire,
    geometry_to_wire,
)
from repro.gateway.server import GatewayFrame, GatewayServer

__all__ = [
    "ERROR_CODES",
    "GatewayClient",
    "GatewayError",
    "GatewayFrame",
    "GatewayRejected",
    "GatewayServer",
    "MAX_HEADER_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "REJECT_CODES",
    "dataset_geometry",
    "geometry_from_wire",
    "geometry_to_wire",
]
