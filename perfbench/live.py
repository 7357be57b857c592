"""One workload in a fresh process: serve, load, measure, check.

``run.py`` starts this script once per measurement; each mode runs in
its own process so that set-up is always paid from a cold interpreter:

* ``prepare`` — write the workload's base acquisitions (once per
  checkout) and fill the compiled-kernel cache;
* ``setup`` — time process start to the first image of every session;
* ``serve`` — the measured run.  A ``GatewayServer`` fronting the
  threaded ``ServeEngine`` (2 workers) is driven over loopback by one
  load-generator thread: a closed-loop saturation phase, then an
  open-loop phase at the workload's fixed rate.  With ``--trace 1`` the
  saturation phase is split between the untraced engine and a traced
  one, which resends the same frames, and the open-loop phase runs on
  the traced engine, broken down to the layer.

The engine is built through the gateway CLI's own argument parser, so
it has exactly the configuration ``python -m repro.gateway`` deploys.
Nothing here sets a thread count.

Every returned image is compared bitwise with offline ``beamform`` of
the same frame.  The last stdout line is one JSON object; a failed
frame makes the process exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from fingerprint import cpu_steal_s, host_fingerprint
from layers import LayerTrace, group_gops
from loadgen import LoadGenerator, WireSession, array_digest
from repro.backend import available_backends
from repro.beamform.tof import tof_plan_cache_stats
from repro.gateway import GatewayFrame, GatewayServer
from repro.gateway.__main__ import build_parser, make_engine
from repro.gateway.protocol import geometry_from_wire
from repro.obs.profile import KERNEL_METRIC
from workloads import (
    BACKEND,
    OPEN_LOOP_BASE,
    SATURATION_BASE,
    WARMUP_BASE,
    WORKLOADS,
    FrameSource,
    Workload,
    inputs_path,
    prepare_inputs,
)

clock = time.monotonic

#: Share of ``--seconds`` spent in the closed-loop saturation phase;
#: the open-loop phase takes the rest.
SATURATION_SHARE = 0.4
#: Time-ordered windows of the saturation rate estimates, and the
#: fewest completions one window may hold.  The two workers' batches of
#: 4 often finish together, so a window needs three such rounds: with
#: one or two, its slope is dominated by a single burst.
SLOPE_WINDOWS = 5
SLOPE_WINDOW_MIN = 24
#: Latency samples per window of the tail estimate.  A window's highest
#: percentile with 10 samples beyond it is about p75, and the median
#: over windows keeps one burst of stolen CPU from setting the tail.
TAIL_WINDOW = 40
#: Closed-loop warm-up before the measured phases (caches, allocations).
WARMUP_S = 1.0
#: How long a phase waits for its last answers before counting the
#: remaining frames as missing.
ANSWER_TIMEOUT_S = 30.0
#: Engine workers: the 2 usable cores of the reference host.
WORKERS = 2

TOP_SPANS = ("ingress", "queue_wait", "execute", "respond")
STAGES = (
    "beamform.analytic", "beamform.tof_gather", "beamform.das_sum",
    "api.normalize", "api.model_input", "api.iq_assembly",
)
GROUPS = ("pixel_encoder", "patch_embed", "block0", "block1", "decoder",
          "head")
#: Kernels reported per frame (every kernel the three workloads run).
KERNELS = ("asarray", "relu", "softmax", "matmul", "affine", "affine_relu",
           "attention_scores", "attention_context", "attention",
           "apply_plan", "das_sum")


# -- serving -----------------------------------------------------------------


def start_engine(workload: Workload, traced: bool):
    """Parse the gateway CLI flags and build its engine."""
    argv = ["--beamformer", workload.beamformer, "--untrained",
            "--backend", BACKEND, "--workers", str(WORKERS), "--port", "0"]
    if traced:
        argv += ["--trace-sample-rate", "1", "--profile-kernels"]
    args = build_parser().parse_args(argv)
    return args, make_engine(args)


def start_gateway(args, engine):
    """A started ``GatewayServer`` with the CLI's admission settings."""
    return GatewayServer(
        engine,
        host=args.host,
        port=0,
        max_sessions=args.max_sessions,
        max_inflight=args.max_inflight,
        feed_capacity=args.feed_capacity,
    ).start()


def connect(gateway, frames: FrameSource, on_result=None):
    """One wire session per probe, multiplexed by one generator."""
    sessions = [
        WireSession(gateway.port, geometry, index)
        for index, geometry in enumerate(frames.geometries)
    ]
    return LoadGenerator(sessions, frames, on_result=on_result)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- statistics ----------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (0 for an empty sample)."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def tail_percentile(n: int) -> float:
    """Highest percentile with at least 10 of ``n`` samples beyond it."""
    return max(0.0, 100.0 * (1.0 - 10.0 / n)) if n > 10 else 0.0


def windowed_slope(x, y) -> float:
    """Median least-squares slope of ``y`` on ``x`` over up to
    ``SLOPE_WINDOWS`` time-ordered windows.

    Batches complete in bursts of up to ``max_batch`` frames; a slope
    averages over the bursts where a first-to-last difference would be
    off by up to a batch at each end.  The median over windows keeps a
    slow stretch of the host from moving the result.  A phase with
    fewer than two windows' worth of completions gets one window.
    """
    x, y = np.asarray(x), np.asarray(y)
    parts = np.array_split(np.arange(len(x)), max(1, min(
        SLOPE_WINDOWS, len(x) // SLOPE_WINDOW_MIN)))
    return float(np.median([
        np.polyfit(x[part], y[part], 1)[0] for part in parts
    ]))


def saturation_rates(phase) -> tuple[float, float, float]:
    """``(frames/s, program CPU s/frame, generator CPU s/frame)`` of a
    closed-loop phase.

    Counted from the first completion to the end of sending, so neither
    the pipeline fill nor the final drain is included.  Program CPU is
    the process's CPU minus the load generator's own thread.
    """
    done = sorted(
        (r.received, r.cpu - r.loadgen_cpu, r.loadgen_cpu)
        for r in phase.frames
        if r.digest is not None and r.received <= phase.stop_sending
    )
    if len(done) < 2:
        return 0.0, 0.0, 0.0
    times, cpu, loadgen_cpu = zip(*done)
    count = np.arange(1, len(done) + 1)
    return (windowed_slope(times, count), windowed_slope(count, cpu),
            windowed_slope(count, loadgen_cpu))


def tail_latency(latencies) -> tuple[float, float, int]:
    """``(seconds, percentile, windows)``: the median, over windows of
    ``TAIL_WINDOW`` time-ordered samples, of each window's highest
    percentile with at least 10 samples beyond it."""
    parts = np.array_split(np.arange(len(latencies)),
                           max(1, len(latencies) // TAIL_WINDOW))
    q = tail_percentile(len(parts[0]))
    values = np.asarray(latencies)
    return (float(np.median([percentile(values[p], q) for p in parts])),
            q, len(parts))


# -- correctness ---------------------------------------------------------------


def reference_digests(beamformer, frames: FrameSource, keys) -> dict:
    """Digest of offline ``beamform`` for every ``(session, index)``."""
    geometries = [geometry_from_wire(g) for g in frames.geometries]

    def one(key):
        session, index = key
        geometry = geometries[session]
        frame = GatewayFrame(
            name=f"reference/{session}/{index}",
            probe=geometry.probe,
            grid=geometry.grid,
            angle_rad=geometry.angle_rad,
            sound_speed_m_s=geometry.sound_speed_m_s,
            t_start_s=geometry.t_start_s,
            rf=frames.rf(session, index),
            session=session,
            client_seq=index,
        )
        return key, array_digest(beamformer.beamform(frame))

    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        return dict(pool.map(one, sorted(keys)))


def count_failures(phases, references: dict) -> dict:
    """Frames sent, and those rejected, missing or not bitwise equal."""
    counts = {"sent": 0, "rejected": 0, "missing": 0, "mismatched": 0}
    for phase in phases:
        for record in phase.frames:
            counts["sent"] += 1
            if record.rejected is not None:
                counts["rejected"] += 1
            elif record.digest is None:
                counts["missing"] += 1
            elif record.digest != references[(record.session,
                                               record.index)]:
                counts["mismatched"] += 1
    counts["failed"] = (counts["rejected"] + counts["missing"]
                        + counts["mismatched"])
    return counts


def traced_vs_untraced(untraced_phase, traced_phase) -> int:
    """Frames whose traced image differs from the untraced one."""
    untraced = {(r.session, r.index): r.digest for r in untraced_phase.frames}
    return sum(
        r.digest != untraced[(r.session, r.index)]
        for r in traced_phase.frames if (r.session, r.index) in untraced
    )


# -- end-to-end metrics --------------------------------------------------------


def end_to_end(workload: Workload, saturation, open_loop) -> tuple[dict, dict]:
    """The untraced run's user-visible metrics, plus their details."""
    sent = open_loop.frames
    latencies = [r.latency for r in sent if r.latency is not None]
    tail, q_tail, tail_windows = tail_latency(latencies)
    q_whole = tail_percentile(len(latencies))
    good = sum(latency <= workload.slo_ms / 1e3 for latency in latencies)
    last = max((r.received for r in sent if r.received is not None),
               default=open_loop.ended)
    fps, cpu_per_frame, loadgen_cpu = saturation_rates(saturation)
    metrics = {
        "throughput_fps": fps,
        "latency_p50_ms": 1e3 * percentile(latencies, 50.0),
        "latency_tail_ms": 1e3 * tail,
        "slo_goodput": good / (last - sent[0].scheduled),
        "cpu_ms_per_frame": 1e3 * cpu_per_frame,
        "peak_rss_mb": peak_rss_mb(),
    }
    lags = [r.sent - r.scheduled for r in sent]
    details = {
        "tail_percentile": q_tail,
        "tail_windows": tail_windows,
        "latency_samples": len(latencies),
        "whole_phase_tail_percentile": q_whole,
        "whole_phase_tail_ms": 1e3 * percentile(latencies, q_whole),
        "loadgen_cpu_ms_per_frame": 1e3 * loadgen_cpu,
        "slo_ms": workload.slo_ms,
        "slo_share": good / len(sent),
        "offered_fps": workload.rate_fps,
        "lag_p99_ms": 1e3 * percentile(lags, 99.0),
        "lag_max_ms": 1e3 * max(lags),
        "saturation_frames": len(saturation.frames),
    }
    return metrics, details


# -- traced run ----------------------------------------------------------------


def kernel_totals(metrics) -> dict:
    """``{kernel: [seconds, calls]}`` from the kernel-profiling histogram."""
    totals: dict = defaultdict(lambda: [0.0, 0])
    for sample in metrics.as_dict().get(KERNEL_METRIC, {}).get(
        "samples", []
    ):
        kernel = sample["labels"].get("kernel")
        if sample["sample"].endswith("_sum"):
            totals[kernel][0] += sample["value"]
        elif sample["sample"].endswith("_count"):
            totals[kernel][1] += int(sample["value"])
    return totals


def layer_metrics(phase, traced: dict, gops: dict) -> tuple[dict, dict]:
    """Per-layer metrics and closure shares of the traced open loop.

    ``traced`` holds what the traced engine recorded during ``phase``:
    the frame ``traces`` by client seq, the layer ``batches``, the
    gateway ``stats`` and the ``kernels`` and plan ``cache`` deltas.
    """
    batch_of = {seq: batch for batch in traced["batches"]
                for seq in batch.seqs}
    samples: dict = defaultdict(list)
    frame_gap = client_total = execute_gap = execute_total = 0.0
    without_trace = 0
    served = [r for r in phase.frames if r.digest is not None]
    for record in served:
        trace = traced["traces"].get(record.seq)
        batch = batch_of.get(record.seq)
        if trace is None or batch is None:
            without_trace += 1
            continue
        root = trace["spans"][0]["duration"]
        spans: dict = defaultdict(float)
        for span in trace["spans"][1:]:
            spans[span["name"]] += span["duration"]
        client = record.received - record.sent
        samples["gateway.wire_ms"].append(client - root)
        samples["gateway.ingress_ms"].append(spans["ingress"])
        samples["gateway.respond_ms"].append(spans["respond"])
        samples["serve.queue_wait_ms"].append(spans["queue_wait"])
        samples["serve.execute_ms"].append(spans["execute"])
        frame_gap += root - sum(spans[name] for name in TOP_SPANS)
        client_total += client
        execute_gap += spans["execute"] - batch.staged
        execute_total += spans["execute"]
        share = 1.0 / len(batch.seqs)
        for name in STAGES:
            samples[f"{name}_ms"].append(share * batch.self_s.get(name, 0.0))
        for prefix in ("nn", "quant"):
            forward = 0.0
            for group in GROUPS:
                seconds = share * batch.self_s.get(f"{prefix}.{group}", 0.0)
                samples[f"{prefix}.{group}_ms"].append(seconds)
                forward += seconds
            samples[f"{prefix}.forward"].append(forward)
        samples["quant.quantize_ms"].append(share * batch.quantize_s)
        samples["quant.quantize_calls"].append(share * batch.quantize_calls)

    lags = [r.sent - r.scheduled for r in phase.frames]
    metrics = {"loadgen.lag_p99_ms": 1e3 * percentile(lags, 99.0)}
    for name, values in samples.items():
        if name.endswith("_ms"):
            metrics[name] = 1e3 * percentile(values, 50.0)
    forward_s = percentile(samples["nn.forward"], 50.0)
    metrics["nn.forward_gflop_per_s"] = (
        sum(gops.values()) / forward_s if forward_s > 0 else 0.0
    )
    for group in GROUPS:
        metrics[f"nn.{group}_gop"] = gops.get(group, 0.0)
    metrics["quant.quantize_calls"] = percentile(
        samples["quant.quantize_calls"], 50.0
    )
    engine = traced["stats"]["engine"]
    metrics["serve.batch_size_mean"] = engine["mean_batch_size"] or 0.0
    high_water = engine["queue_high_water"]
    metrics["serve.queue_depth_max"] = max(
        high_water.get("ingest", 0), high_water.get("batch", 0)
    )
    cache = traced["cache"]
    lookups = cache["hits"] + cache["misses"]
    metrics["beamform.plan_hit_rate"] = (
        cache["hits"] / lookups if lookups else 0.0
    )
    n_frames = max(1, len(served))
    for kernel in KERNELS:
        seconds, calls = traced["kernels"].get(kernel, (0.0, 0))
        metrics[f"backend.{kernel}_ms"] = 1e3 * seconds / n_frames
        metrics[f"backend.{kernel}_calls"] = calls / n_frames
    metrics["closure.frame_unattributed_share"] = (
        frame_gap / client_total if client_total else 0.0
    )
    metrics["closure.execute_unattributed_share"] = (
        execute_gap / execute_total if execute_total else 0.0
    )
    details = {
        "frames_without_trace": without_trace,
        "kernels_seen": sorted(traced["kernels"]),
        "queue_high_water": high_water,
        "group_gops": gops,
    }
    return metrics, details


class TracedEngine:
    """A second engine with every frame traced and kernels profiled."""

    def __init__(self, workload: Workload, frames: FrameSource) -> None:
        self.workload = workload
        self.frames = frames
        self.args, self.engine = start_engine(workload, traced=True)
        self.layers = LayerTrace()
        self.traces: dict = {}
        model = getattr(self.engine.beamformer, "model", None)
        self.gops = group_gops(model.root) if model is not None else {}

    def _collect(self) -> None:
        for trace in self.engine.obs.tracer.drain():
            seq = trace["spans"][0]["attrs"].get("client_seq")
            self.traces[seq] = trace

    def _phase(self, run, layers: bool = False):
        """Run ``run(generator)`` on a fresh gateway.

        A fresh gateway gives the phase its own telemetry.  With
        ``layers`` the layer spans are installed for the phase, so the
        other phases cost only the program's own tracing.
        """
        if layers:
            self.layers.install(self.engine.beamformer)
        gateway = start_gateway(self.args, self.engine)
        try:
            generator = connect(gateway, self.frames,
                                on_result=self._collect)
            self._collect()
            self.traces.clear()
            self.layers.batches.clear()
            phase = run(generator)
            generator.close()
            stats = gateway.stats()
        finally:
            gateway.stop()
            self.layers.uninstall()
        self._collect()
        return phase, stats

    def warm_up(self) -> list:
        """First frames and a short closed loop, as on the untraced engine."""
        return [self._phase(lambda generator: generator.one_each(
                    WARMUP_BASE + 500_000, ANSWER_TIMEOUT_S))[0],
                self._phase(lambda generator: generator.closed_loop(
                    WARMUP_S, WARMUP_BASE + 500_001, ANSWER_TIMEOUT_S))[0]]

    def saturation(self, seconds: float, base: int):
        """A traced closed-loop phase (for ``trace_overhead``)."""
        return self._phase(lambda generator: generator.closed_loop(
            seconds, base, ANSWER_TIMEOUT_S))[0]

    def open_loop(self, seconds: float, base: int):
        """A traced open-loop phase and what the engine recorded in it."""
        kernels_before = kernel_totals(self.engine.obs.metrics)
        cache_before = tof_plan_cache_stats()
        phase, stats = self._phase(lambda generator: generator.open_loop(
            seconds, self.workload.rate_fps, base, ANSWER_TIMEOUT_S),
            layers=True)
        kernels_after = kernel_totals(self.engine.obs.metrics)
        cache_after = tof_plan_cache_stats()
        return phase, {
            "traces": self.traces,
            "batches": self.layers.batches,
            "stats": stats,
            "kernels": {
                kernel: [after[0] - kernels_before[kernel][0],
                         after[1] - kernels_before[kernel][1]]
                for kernel, after in kernels_after.items()
            },
            "cache": {key: cache_after[key] - cache_before[key]
                      for key in ("hits", "misses")},
        }


# -- modes ---------------------------------------------------------------------


def first_image(workload: Workload, frames: FrameSource):
    """Build and start serving; return once every session has an image."""
    args, engine = start_engine(workload, traced=False)
    gateway = start_gateway(args, engine)
    generator = connect(gateway, frames)
    first = generator.one_each(WARMUP_BASE, ANSWER_TIMEOUT_S)
    return engine, gateway, generator, first


def serve(opts, workload: Workload, frames: FrameSource) -> int:
    """The measured run; prints the result JSON line."""
    load_at_start = os.getloadavg()
    engine, gateway, generator, first = first_image(workload, frames)
    setup_s = clock() - opts.t0
    steal_at_start = cpu_steal_s()
    saturation_s = SATURATION_SHARE * opts.seconds
    open_s = opts.seconds - saturation_s
    phases = [first, generator.closed_loop(WARMUP_S, WARMUP_BASE + 1,
                                           ANSWER_TIMEOUT_S)]
    if not opts.trace:
        saturation = generator.closed_loop(
            saturation_s, SATURATION_BASE, ANSWER_TIMEOUT_S)
        open_loop = generator.open_loop(
            open_s, workload.rate_fps, OPEN_LOOP_BASE, ANSWER_TIMEOUT_S)
        metrics, details = end_to_end(workload, saturation, open_loop)
        phases += [saturation, open_loop]
    else:
        # Half the saturation time on each engine, on the same frames:
        # their images must be identical.
        saturation = generator.closed_loop(
            saturation_s / 2, SATURATION_BASE, ANSWER_TIMEOUT_S)
        traced = TracedEngine(workload, frames)
        phases += traced.warm_up()
        traced_saturation = traced.saturation(
            saturation_s / 2, SATURATION_BASE)
        open_loop, recorded = traced.open_loop(open_s, OPEN_LOOP_BASE)
        metrics, details = layer_metrics(open_loop, recorded, traced.gops)
        untraced_fps = saturation_rates(saturation)[0]
        traced_fps = saturation_rates(traced_saturation)[0]
        metrics["trace_overhead"] = untraced_fps / traced_fps
        metrics["gateway.rejects"] = sum(
            r.rejected is not None
            for r in traced_saturation.frames + open_loop.frames
        )
        details.update(
            untraced_fps=untraced_fps, traced_fps=traced_fps,
            traced_vs_untraced_mismatches=traced_vs_untraced(
                saturation, traced_saturation),
        )
        phases += [saturation, traced_saturation, open_loop]
    if steal_at_start is not None:
        details["cpu_steal_s"] = cpu_steal_s() - steal_at_start
    generator.close()
    gateway.stop()
    references = reference_digests(
        engine.beamformer, frames,
        {(r.session, r.index) for phase in phases for r in phase.frames},
    )
    counts = count_failures(phases, references)
    counts["failed"] += details.get("traced_vs_untraced_mismatches", 0)
    details.update(counts)
    details["failed_ratio"] = counts["failed"] / counts["sent"]
    details["fingerprint"] = host_fingerprint(
        Path.cwd(), BACKEND, load_at_start
    )
    print(json.dumps({"setup_s": setup_s, "metrics": metrics,
                      "details": details, "attempted": counts["sent"],
                      "failed": counts["failed"]}), flush=True)
    return 0 if counts["failed"] == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "setup", "serve"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="monotonic time the parent started this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    workload = WORKLOADS[opts.workload]
    if opts.mode == "prepare":
        prepare_inputs(opts.work, workload)
        if BACKEND not in available_backends():
            print(f"backend {BACKEND} is unavailable", file=sys.stderr)
            return 1
        print(json.dumps({"prepared": workload.name}), flush=True)
        return 0
    frames = FrameSource(inputs_path(opts.work, workload), opts.seed)
    if opts.mode == "serve":
        return serve(opts, workload, frames)
    _, gateway, generator, first = first_image(workload, frames)
    setup_s = clock() - opts.t0
    generator.close()
    gateway.stop()
    if any(record.digest is None for record in first.frames):
        print("first image missing", file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": setup_s}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
