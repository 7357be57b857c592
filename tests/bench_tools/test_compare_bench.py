"""The benchmark-trend gate must actually gate.

``benchmarks/compare_bench.py`` is what turns the BENCH_*.json
artifacts from decoration into CI policy, so its failure behaviour is
pinned here: a synthetic >25 % throughput regression must exit nonzero,
small drift must pass, vanished metrics must fail, and smoke mode must
gate ratios but not absolute throughput.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "compare_bench.py"
)
_spec = importlib.util.spec_from_file_location("compare_bench", _SCRIPT)
compare_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bench)


BASELINE = {
    "bench": "serve_throughput",
    "fps": 10.0,  # pacing config — must not be treated as a metric
    "speedup_floor": 1.5,  # config — must not be treated as a metric
    "results": {
        "das": {
            "offline_fps": 40.0,
            "served_fps": 10.0,
            "speedup": 1.4,
            "latency_ms": {"p50": 90.0},
        },
        "tiny_vbf": {
            "offline_fps": 10.0,
            "served_fps": 8.0,
            "speedup": 1.9,
        },
        "gateway": {
            "gateway_fps": 9.0,
            "gateway_efficiency": 0.95,
        },
    },
}


def _variant(scale_key: str, path: tuple, factor: float) -> dict:
    payload = json.loads(json.dumps(BASELINE))
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = node[path[-1]] * factor
    assert scale_key == path[-1]
    return payload


class TestMetricCollection:
    def test_collects_throughput_and_ratio_leaves_only(self):
        metrics = compare_bench.collect_metrics(BASELINE)
        assert metrics["results.das.offline_fps"] == 40.0
        assert metrics["results.tiny_vbf.speedup"] == 1.9
        # Config echoes and latency numbers are not gated.
        assert "fps" not in metrics
        assert "speedup_floor" not in metrics
        assert not any("latency" in key for key in metrics)

    def test_walks_lists(self):
        metrics = compare_bench.collect_metrics(
            {"runs": [{"served_fps": 5.0}, {"served_fps": 7.0}]}
        )
        assert metrics == {
            "runs[0].served_fps": 5.0,
            "runs[1].served_fps": 7.0,
        }


class TestCompare:
    def test_synthetic_regression_beyond_budget_fails(self):
        current = _variant(
            "served_fps", ("results", "das", "served_fps"), 0.5
        )
        failures, _ = compare_bench.compare(current, BASELINE, 0.25)
        assert len(failures) == 1
        assert "results.das.served_fps" in failures[0]
        assert "-50.0%" in failures[0]

    def test_drift_within_budget_passes(self):
        current = _variant(
            "served_fps", ("results", "das", "served_fps"), 0.80
        )
        failures, _ = compare_bench.compare(current, BASELINE, 0.25)
        assert failures == []

    def test_improvement_never_fails(self):
        current = _variant(
            "offline_fps", ("results", "das", "offline_fps"), 3.0
        )
        failures, notes = compare_bench.compare(current, BASELINE, 0.25)
        assert failures == []
        assert any("improved" in note for note in notes)

    def test_missing_metric_fails_as_lost_coverage(self):
        current = json.loads(json.dumps(BASELINE))
        del current["results"]["tiny_vbf"]["speedup"]
        failures, _ = compare_bench.compare(current, BASELINE, 0.25)
        assert len(failures) == 1
        assert "missing" in failures[0]

    def test_new_metric_is_reported_not_gated(self):
        current = json.loads(json.dumps(BASELINE))
        current["results"]["das"]["gateway_fps"] = 50.0
        failures, notes = compare_bench.compare(current, BASELINE, 0.25)
        assert failures == []
        assert any("new metric" in note for note in notes)

    def test_smoke_mode_does_not_gate_absolute_throughput(self):
        current = _variant(
            "served_fps", ("results", "das", "served_fps"), 0.2
        )
        failures, notes = compare_bench.compare(
            current, BASELINE, 0.25, smoke=True
        )
        assert failures == []
        assert any("not gated in smoke mode" in note for note in notes)

    def test_smoke_mode_still_gates_collapsed_ratios(self):
        current = _variant(
            "speedup", ("results", "tiny_vbf", "speedup"), 0.3
        )
        failures, _ = compare_bench.compare(
            current, BASELINE, 0.25, smoke=True
        )
        assert len(failures) == 1
        assert "speedup" in failures[0]

    def test_gateway_efficiency_is_a_gated_ratio(self):
        metrics = compare_bench.collect_metrics(BASELINE)
        assert metrics["results.gateway.gateway_efficiency"] == 0.95
        current = _variant(
            "gateway_efficiency",
            ("results", "gateway", "gateway_efficiency"),
            0.3,
        )
        failures, _ = compare_bench.compare(
            current, BASELINE, 0.25, smoke=True
        )
        assert len(failures) == 1
        assert "gateway_efficiency" in failures[0]


class TestRatioTolerances:
    """Per-key overrides: the <=5 % tracing-overhead contract."""

    BASELINE = {
        "results": {
            "das": {
                "gateway_fps": 20.0,
                "gateway_traced_fps": 19.8,
                "traced_vs_untraced": 0.99,
            },
        },
    }

    def _traced(self, factor: float) -> dict:
        return compare_bench.json.loads(
            compare_bench.json.dumps(self.BASELINE).replace(
                "0.99", str(0.99 * factor)
            )
        )

    def test_traced_vs_untraced_is_collected_and_tightly_gated(self):
        metrics = compare_bench.collect_metrics(self.BASELINE)
        assert metrics["results.das.traced_vs_untraced"] == 0.99
        assert (
            compare_bench.RATIO_TOLERANCES["traced_vs_untraced"]
            == 0.05
        )

    @pytest.mark.parametrize("smoke", [False, True])
    def test_six_percent_overhead_growth_fails_both_modes(
        self, smoke
    ):
        """A 6 % drop is inside every generic budget but over 5 %.

        The override must beat both the 25 % full-mode and the 60 %
        smoke-mode defaults — the tracing-overhead contract is
        host-independent (two legs of one run), so it gates tightly
        everywhere.
        """
        failures, _ = compare_bench.compare(
            self._traced(0.94), self.BASELINE, 0.25, smoke=smoke
        )
        assert len(failures) == 1
        assert "traced_vs_untraced" in failures[0]
        assert "5%" in failures[0]

    @pytest.mark.parametrize("smoke", [False, True])
    def test_three_percent_drift_passes_both_modes(self, smoke):
        failures, _ = compare_bench.compare(
            self._traced(0.97), self.BASELINE, 0.25, smoke=smoke
        )
        assert failures == []


class TestCNativeRatioTolerance:
    """The compiled-backend forward ratio gates at 35 % in both modes.

    The override must cut both ways: tighter than the 60 % smoke
    default (a 40 % collapse is structural — e.g. a kernel silently
    falling back to un-fused dispatch), and looser than the 25 %
    full-mode default (the numpy numerator swings tens of percent with
    allocator state even on one host).
    """

    BASELINE = {"ratios": {"cnative_vs_numpy_forward": 5.5}}

    def _scaled(self, factor: float) -> dict:
        return {"ratios": {"cnative_vs_numpy_forward": 5.5 * factor}}

    def test_ratio_is_collected(self):
        metrics = compare_bench.collect_metrics(self.BASELINE)
        assert metrics["ratios.cnative_vs_numpy_forward"] == 5.5
        assert (
            compare_bench.RATIO_TOLERANCES["cnative_vs_numpy_forward"]
            == 0.35
        )

    @pytest.mark.parametrize("smoke", [False, True])
    def test_forty_percent_collapse_fails_both_modes(self, smoke):
        failures, _ = compare_bench.compare(
            self._scaled(0.60), self.BASELINE, 0.25, smoke=smoke
        )
        assert len(failures) == 1
        assert "cnative_vs_numpy_forward" in failures[0]

    @pytest.mark.parametrize("smoke", [False, True])
    def test_thirty_percent_drift_passes_both_modes(self, smoke):
        failures, _ = compare_bench.compare(
            self._scaled(0.70), self.BASELINE, 0.25, smoke=smoke
        )
        assert failures == []


class TestControlRatioTolerance:
    """The control-loop benefit ratio gates at 50 % in both modes.

    ``controlled_vs_static_p99`` is static-leg p99 divided by
    controlled-leg p99 from the same process on the same host, so host
    speed cancels — but both numbers are saturation-tail statistics, so
    the budget is the loosest override.  It must still fail the moment
    the controller stops helping (the ratio collapsing toward 1 is a
    >=60 % drop from any healthy baseline).
    """

    BASELINE = {"ratios": {"controlled_vs_static_p99": 4.0}}

    def _scaled(self, factor: float) -> dict:
        return {"ratios": {"controlled_vs_static_p99": 4.0 * factor}}

    def test_ratio_is_collected(self):
        metrics = compare_bench.collect_metrics(self.BASELINE)
        assert metrics["ratios.controlled_vs_static_p99"] == 4.0
        assert (
            compare_bench.RATIO_TOLERANCES["controlled_vs_static_p99"]
            == 0.5
        )

    @pytest.mark.parametrize("smoke", [False, True])
    def test_controller_collapse_fails_both_modes(self, smoke):
        # Ratio 4.0 -> 1.0: the controller no longer beats static
        # config.  Must fail even under the 60 % smoke default.
        failures, _ = compare_bench.compare(
            self._scaled(0.25), self.BASELINE, 0.25, smoke=smoke
        )
        assert len(failures) == 1
        assert "controlled_vs_static_p99" in failures[0]

    @pytest.mark.parametrize("smoke", [False, True])
    def test_tail_noise_drift_passes_both_modes(self, smoke):
        failures, _ = compare_bench.compare(
            self._scaled(0.60), self.BASELINE, 0.25, smoke=smoke
        )
        assert failures == []


class TestEmulatedPeRatioTolerance:
    """The emulated-PE cost ratio gates at 50 % in both modes.

    ``emu_vs_qexec_forward`` (bench_pe_emu) divides the modeled
    forward's seconds by the emulated forward's — both legs of the
    same process on the same host, so host speed cancels.  The
    emulator is a cost model and the healthy ratio sits well below 1;
    the gate only exists to catch a performance cliff (a vectorized
    path degrading to a per-element Python loop collapses the ratio by
    an order of magnitude).
    """

    BASELINE = {"ratios": {"emu_vs_qexec_forward": 0.2}}

    def _scaled(self, factor: float) -> dict:
        return {"ratios": {"emu_vs_qexec_forward": 0.2 * factor}}

    def test_ratio_is_collected(self):
        metrics = compare_bench.collect_metrics(self.BASELINE)
        assert metrics["ratios.emu_vs_qexec_forward"] == 0.2
        assert (
            compare_bench.RATIO_TOLERANCES["emu_vs_qexec_forward"]
            == 0.5
        )

    @pytest.mark.parametrize("smoke", [False, True])
    def test_cliff_fails_both_modes(self, smoke):
        # Ratio 0.2 -> 0.02: the emulator fell off the vectorized
        # path.  Must fail even under the loose smoke default.
        failures, _ = compare_bench.compare(
            self._scaled(0.1), self.BASELINE, 0.25, smoke=smoke
        )
        assert len(failures) == 1
        assert "emu_vs_qexec_forward" in failures[0]

    @pytest.mark.parametrize("smoke", [False, True])
    def test_scheduler_noise_drift_passes_both_modes(self, smoke):
        failures, _ = compare_bench.compare(
            self._scaled(0.60), self.BASELINE, 0.25, smoke=smoke
        )
        assert failures == []


class TestMain:
    def _write(self, tmp_path: Path, name: str, payload: dict) -> Path:
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def test_exit_one_on_regression(self, tmp_path, capsys):
        current = self._write(
            tmp_path,
            "current.json",
            _variant("served_fps", ("results", "das", "served_fps"), 0.5),
        )
        baseline = self._write(tmp_path, "baseline.json", BASELINE)
        code = compare_bench.main(
            ["--current", str(current), "--baseline", str(baseline)]
        )
        assert code == 1
        assert "THROUGHPUT REGRESSION" in capsys.readouterr().err

    def test_exit_zero_within_budget(self, tmp_path, capsys):
        current = self._write(tmp_path, "current.json", BASELINE)
        baseline = self._write(tmp_path, "baseline.json", BASELINE)
        code = compare_bench.main(
            ["--current", str(current), "--baseline", str(baseline)]
        )
        assert code == 0
        assert "no gated metric regressed" in capsys.readouterr().out

    def test_exit_two_on_missing_file(self, tmp_path):
        baseline = self._write(tmp_path, "baseline.json", BASELINE)
        code = compare_bench.main(
            [
                "--current", str(tmp_path / "nope.json"),
                "--baseline", str(baseline),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("mode_args", [[], ["--smoke"]])
    def test_repo_baselines_match_committed_artifacts(self, mode_args):
        """Every committed baseline gates cleanly against itself."""
        baselines = sorted(
            (_SCRIPT.parent / "baselines").rglob("BENCH_*.json")
        )
        assert baselines, "benchmarks/baselines/ must not be empty"
        for baseline in baselines:
            code = compare_bench.main(
                [
                    "--current", str(baseline),
                    "--baseline", str(baseline),
                    *mode_args,
                ]
            )
            assert code == 0
