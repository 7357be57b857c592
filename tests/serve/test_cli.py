"""The ``python -m repro.serve`` CLI: flags, factories and local runs.

The factories (``make_beamformer``, ``make_source``, ``make_controller``,
``make_observability``) are checked against the library objects their
flags describe; ``main`` runs in-process on a few small frames and its
JSON report is read back from stdout.
"""

import json

import numpy as np
import pytest

from repro.api import create_beamformer
from repro.backend import available_backends, get_backend
from repro.gateway.__main__ import build_parser as gateway_parser
from repro.models.registry import build_model
from repro.obs import parse_event_lines
from repro.obs.profile import ProfilingBackend, disable_kernel_profiling
from repro.serve import (
    ProbeSource,
    ReplaySource,
    ServeEngine,
    ServeTelemetry,
)
from repro.serve.__main__ import (
    PRESETS,
    build_parser,
    main,
    make_beamformer,
    make_controller,
    make_observability,
    make_source,
)
from repro.serve.control import ServoController
from repro.serve.queues import BACKPRESSURE_POLICIES
from repro.ultrasound import stream_gain_drift

#: Flags of the deleted process-sharded engine; both CLIs must refuse
#: them rather than accept and ignore them.
REMOVED_FLAGS = [
    ["--engine", "sharded"],
    ["--transport", "shm"],
    ["--shard-policy", "geometry"],
    ["--restart-workers"],
]


def parse(*argv):
    return build_parser().parse_args(list(argv))


def run_main(capsys, *argv):
    """Run the CLI in-process; return its JSON report."""
    assert main([*argv, "--log-every", "0"]) == 0
    return json.loads(capsys.readouterr().out)


class TestParser:
    def test_defaults_describe_a_local_das_run(self):
        args = parse()
        assert args.beamformer == "das"
        assert args.backend is None
        assert args.source == "replay"
        assert args.preset == "simulation_contrast"
        assert args.frames == 16
        assert args.workers == 1
        assert args.backpressure == "block"
        assert args.gateway is None
        assert args.slo_p99 is None
        assert args.trace_sample_rate == 0.0
        assert not args.profile_kernels

    @pytest.mark.parametrize(
        "argv", REMOVED_FLAGS, ids=lambda argv: argv[0]
    )
    def test_removed_sharding_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse(*argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_pe_emu_flag_is_rejected(self, capsys):
        # The modeled quantized path is the round-at-end integer PE bit
        # for bit on every backend, so the flag that selected the
        # emulator for it is gone.
        with pytest.raises(SystemExit) as excinfo:
            parse("--beamformer", "tiny_vbf@20 bits", "--pe-emu")
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_batching_deadline_is_gone(self, capsys):
        # Workers take frames straight from the ingest queue, so no
        # frame waits on a deadline: both CLIs refuse the old flag and
        # the engine refuses the old argument.
        for parser in (build_parser(), gateway_parser()):
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args(["--max-latency-ms", "25"])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        with pytest.raises(TypeError):
            ServeEngine(create_beamformer("das"), max_latency_ms=25.0)

    @pytest.mark.parametrize("policy", BACKPRESSURE_POLICIES)
    def test_every_backpressure_policy_parses(self, policy):
        assert parse("--backpressure", policy).backpressure == policy

    def test_unknown_backpressure_is_rejected(self):
        with pytest.raises(SystemExit):
            parse("--backpressure", "spill")

    @pytest.mark.parametrize("backend", available_backends())
    def test_backend_flag_binds_the_beamformer(self, backend):
        beamformer = make_beamformer(parse("--backend", backend))
        assert beamformer.describe()["compute_backend"] == backend

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(SystemExit):
            parse("--backend", "cuda")


class TestMakeBeamformer:
    def test_untrained_is_ignored_for_classical_specs(
        self, sim_contrast_dataset
    ):
        beamformer = make_beamformer(parse("--untrained"))
        np.testing.assert_array_equal(
            beamformer.beamform(sim_contrast_dataset),
            create_beamformer("das").beamform(sim_contrast_dataset),
        )

    @pytest.mark.parametrize("name", ["tiny_vbf", "tiny_cnn", "fcnn"])
    def test_untrained_wraps_a_fresh_seeded_model(
        self, name, sim_contrast_dataset
    ):
        beamformer = make_beamformer(
            parse("--beamformer", name, "--untrained", "--seed", "3")
        )
        reference = create_beamformer(
            name, model=build_model(name, "small", seed=3)
        )
        assert beamformer.describe()["seed"] == 3
        np.testing.assert_array_equal(
            beamformer.beamform(sim_contrast_dataset),
            reference.beamform(sim_contrast_dataset),
        )

    def test_quantized_spec_uses_the_modeled_pe_by_default(self):
        beamformer = make_beamformer(
            parse("--beamformer", "tiny_vbf@20 bits", "--untrained")
        )
        assert beamformer.describe()["pe"] == "modeled"

    def test_unknown_beamformer_is_refused(self):
        with pytest.raises(ValueError, match="unknown beamformer"):
            make_beamformer(parse("--beamformer", "nope"))


class TestMakeSource:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_replay_yields_gain_drifted_preset_frames(self, preset):
        source = make_source(
            parse("--preset", preset, "--frames", "3", "--seed", "4")
        )
        assert isinstance(source, ReplaySource)
        expected = stream_gain_drift(
            PRESETS[preset](scale="small"), 3, seed=4
        )
        frames = list(source)
        assert len(frames) == 3
        for frame, reference in zip(frames, expected):
            np.testing.assert_array_equal(frame.rf, reference.rf)

    def test_probe_resimulates_a_drifting_scene(self):
        source = make_source(
            parse(
                "--source", "probe", "--frames", "2",
                "--drift-um", "80",
            )
        )
        assert isinstance(source, ProbeSource)
        assert source.n_frames == 2
        assert source.drift_sigma_m == pytest.approx(80e-6)
        first, second = list(source)
        assert first.rf.shape == second.rf.shape
        assert not np.array_equal(first.rf, second.rf)

    def test_pacing_flags(self):
        unpaced = make_source(parse("--frames", "1"))
        assert unpaced.fps is None
        paced = make_source(
            parse("--frames", "1", "--fps", "10", "--jitter-ms", "2")
        )
        assert paced.fps == 10.0
        assert paced.jitter_s == pytest.approx(0.002)


class TestMakeController:
    def test_no_slo_means_no_controller(self):
        assert make_controller(parse(), ServeTelemetry()) is None

    def test_slo_flags_configure_the_servo(self):
        args = parse(
            "--slo-p99", "0.2", "--control-interval", "0.5",
            "--autoscale",
        )
        engine = ServeEngine(create_beamformer("das"), log_every_s=0)
        controller = make_controller(
            args, ServeTelemetry(), engine=engine
        )
        assert isinstance(controller, ServoController)
        assert controller.slo.p99_latency_s == 0.2
        assert controller.interval_s == 0.5
        assert controller.autoscale
        assert controller.engine is engine


class TestMakeObservability:
    def test_sample_rate_reaches_the_tracer(self):
        obs = make_observability(parse("--trace-sample-rate", "0.25"))
        assert obs.tracer.sample_rate == 0.25

    def test_event_log_appends_json_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        obs = make_observability(parse("--event-log", str(path)))
        try:
            obs.events.emit("worker_added", engine="threaded")
        finally:
            obs.events.close()
        (record,) = parse_event_lines(path.read_text())
        assert record["event"] == "worker_added"
        assert record["engine"] == "threaded"


class TestMain:
    def test_local_run_reports_every_frame(self, capsys):
        report = run_main(capsys, "--frames", "3")
        assert report["completed"] == 3
        assert report["dropped"] == []
        assert report["source"] == "replay"
        assert report["preset"] == "simulation_contrast"
        assert report["workers"] == 1
        assert report["beamformer"]["name"] == "das"
        assert report["stats"]["frames_in"] == 3
        assert report["control"] is None

    def test_max_batch_and_queue_capacity_reach_the_run(self, capsys):
        report = run_main(
            capsys, "--frames", "6", "--max-batch", "2",
            "--queue-capacity", "3",
        )
        stats = report["stats"]
        assert report["completed"] == 6
        assert 1 <= stats["max_batch_size"] <= 2
        assert stats["queue_high_water"]["ingest"] <= 3

    def test_probe_run_with_two_workers(self, capsys):
        report = run_main(
            capsys, "--source", "probe", "--frames", "3",
            "--workers", "2",
        )
        assert report["completed"] == 3
        assert report["workers"] == 2
        assert report["source"] == "probe"

    def test_slo_runs_the_control_loop(self, capsys):
        report = run_main(
            capsys, "--frames", "3", "--slo-p99", "1.5",
            "--control-interval", "0.05",
        )
        assert report["completed"] == 3
        control = report["control"]
        assert control["slo"]["p99_latency_s"] == 1.5
        assert control["engine"]["max_batch"] >= 1

    def test_profile_kernels_wraps_the_backend_in_process(self, capsys):
        try:
            report = run_main(
                capsys, "--frames", "2", "--backend", "numpy",
                "--profile-kernels",
            )
            wrapper = get_backend("numpy")
            assert isinstance(wrapper, ProfilingBackend)
        finally:
            # The backend registry is process-global: unwrap it again.
            backend = get_backend("numpy")
            if isinstance(backend, ProfilingBackend):
                disable_kernel_profiling(backend)
        assert report["completed"] == 2
        assert not isinstance(get_backend("numpy"), ProfilingBackend)

    def test_gateway_mode_requires_block_backpressure(self, capsys):
        code = main(
            ["--gateway", "0", "--backpressure", "drop_oldest"]
        )
        assert code == 2
        assert "requires --backpressure block" in capsys.readouterr().err
