"""The ``python -m repro.gateway`` CLI: flags, engine wiring, drain.

``make_engine`` is what perfbench and the CLI share, so its contract is
pinned in-process: a threaded engine that keeps no images, carries the
CLI's observability bundle, and — with ``--profile-kernels`` — times
kernels through an in-process backend wrapper.  The end-to-end test
starts the real CLI in a child process, streams frames through it and
stops it with SIGTERM, which must drain and print the final stats.
"""

import json
import os
import queue
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.api import create_beamformer
from repro.backend import get_backend
from repro.gateway import GatewayClient, GatewayServer
from repro.gateway.__main__ import build_parser, main, make_engine
from repro.gateway.protocol import dataset_geometry
from repro.obs import Observability
from repro.obs.profile import KERNEL_METRIC, disable_kernel_profiling
from repro.serve import ServeEngine

SRC = Path(__file__).resolve().parents[2] / "src"

#: What ``perfbench/live.py`` passes for a traced run.
PERFBENCH_ARGV = [
    "--beamformer", "tiny_vbf", "--untrained", "--backend", "numpy",
    "--workers", "2", "--port", "0",
    "--trace-sample-rate", "1", "--profile-kernels",
]

#: Flags of the deleted process-sharded engine.
REMOVED_FLAGS = [
    ["--engine", "sharded"],
    ["--transport", "shm"],
    ["--shard-policy", "geometry"],
    ["--restart-workers"],
]

READY_TIMEOUT_S = 60.0


def parse(*argv):
    return build_parser().parse_args(list(argv))


class TestParser:
    def test_perfbench_flags_parse(self):
        args = parse(*PERFBENCH_ARGV)
        assert args.beamformer == "tiny_vbf"
        assert args.untrained
        assert args.backend == "numpy"
        assert args.workers == 2
        assert args.port == 0
        assert args.trace_sample_rate == 1.0
        assert args.profile_kernels

    @pytest.mark.parametrize(
        "argv", REMOVED_FLAGS, ids=lambda argv: argv[0]
    )
    def test_removed_sharding_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse(*argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestMakeEngine:
    def test_threaded_engine_without_image_retention(self):
        engine = make_engine(
            parse("--workers", "2", "--max-batch", "3", "--port", "0")
        )
        assert isinstance(engine, ServeEngine)
        assert engine.n_workers == 2
        assert engine.max_batch == 3
        assert engine.backpressure == "block"
        assert not engine.keep_images
        assert engine.beamformer.describe()["name"] == "das"
        assert isinstance(engine.obs, Observability)

    def test_trace_sample_rate_reaches_the_engine_tracer(self):
        engine = make_engine(parse("--trace-sample-rate", "0.5"))
        assert engine.obs.tracer.sample_rate == 0.5

    def test_gateway_adopts_the_engine_bundle(self):
        engine = make_engine(parse("--port", "0"))
        gateway = GatewayServer(engine, port=0)
        assert gateway.obs is engine.obs

    def test_profile_kernels_times_kernels_in_process(
        self, sim_contrast_dataset
    ):
        engine = make_engine(
            parse("--backend", "numpy", "--profile-kernels")
        )
        try:
            engine.beamformer.beamform(sim_contrast_dataset)
        finally:
            # The backend registry is process-global: unwrap it again.
            disable_kernel_profiling(get_backend("numpy"))
        histogram = engine.obs.metrics.histogram(
            KERNEL_METRIC, labels=("kernel", "backend")
        )
        counts = {
            key[0]: value
            for sample, key, value in histogram.samples()
            if sample == f"{KERNEL_METRIC}_count" and key[1] == "numpy"
        }
        assert counts.get("apply_plan", 0) >= 1
        assert counts.get("das_sum", 0) >= 1


class TestRunGateway:
    def test_rejects_lossy_backpressure(self, capsys):
        assert main(["--port", "0", "--backpressure", "drop_oldest"]) == 2
        assert "requires --backpressure block" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["repro.gateway", "--port", "0"],
            ["repro.serve", "--gateway", "0"],
        ],
        ids=["gateway-cli", "serve-cli"],
    )
    def test_serves_then_drains_on_sigterm(self, argv, frames):
        """Both entry points: serve a session, drain on SIGTERM, exit 0.

        The child announces its ephemeral port on stderr once the
        SIGTERM handler is installed; the session's images must be
        bitwise equal to offline DAS, and the stats printed after the
        drain must account for every frame.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        command = [
            sys.executable, "-m", *argv,
            "--backend", "numpy", "--log-every", "0",
        ]
        das = create_beamformer("das", backend="numpy")
        sent = frames[:3]
        with subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        ) as child:
            lines: queue.Queue = queue.Queue()

            def read_stderr():
                for line in child.stderr:
                    lines.put(line)
                lines.put(None)

            reader = threading.Thread(target=read_stderr, daemon=True)
            reader.start()
            try:
                port = wait_until_ready(lines)
                with GatewayClient("127.0.0.1", port) as client:
                    client.connect(dataset_geometry(sent[0]))
                    images = list(client.stream([f.rf for f in sent]))
                child.send_signal(signal.SIGTERM)
                assert child.wait(timeout=READY_TIMEOUT_S) == 0
                stats = json.loads(child.stdout.read())
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
                reader.join(timeout=READY_TIMEOUT_S)
        for frame, image in zip(sent, images):
            np.testing.assert_array_equal(das.beamform(frame), image)
        gateway = stats["gateway"]
        assert gateway["sessions_opened"] == 1
        assert gateway["frames_admitted"] == len(sent)
        assert gateway["results_delivered"] == len(sent)
        assert gateway["results_orphaned"] == 0


def wait_until_ready(lines: queue.Queue) -> int:
    """Port from the child's ``gateway ready on HOST:PORT`` line."""
    seen = []
    while True:
        line = lines.get(timeout=READY_TIMEOUT_S)
        if line is None:
            raise AssertionError(
                "gateway exited before it was ready:\n" + "".join(seen)
            )
        seen.append(line)
        if line.startswith("gateway ready on "):
            return int(line.rsplit(":", 1)[1])
