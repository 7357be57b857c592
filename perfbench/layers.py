"""Per-layer spans of the traced run, recorded from the benchmark's side.

The program's own frame trace ends at one ``execute`` span per frame.
Below it, this module times the public calls each layer makes, by
wrapping them for the traced open-loop phase only:

* ``repro.beamform`` — ``analytic_rf``, ``TofPlan.apply`` (the ToF
  gather) and ``das_beamform`` (the aperture sum),
* ``repro.api`` — ``normalized_tofc``, ``model_input`` and
  ``stacked_to_complex`` as the adapters call them,
* ``repro.nn`` / ``repro.models`` — ``forward`` of each top-level
  Tiny-VBF layer group (float path),
* ``repro.quant`` — ``quantized_forward`` of the same layer groups and
  every ``FixedPointFormat.quantize`` call (quantized path).

Spans nest per worker thread; each records its *self* time (its
duration minus the spans opened inside it), so the stage times of one
batch add up to the time spent under the batch's ``beamform_batch``
call.  ``quantize`` calls are counted and timed but are not stages:
the layer-group times include them.  A batch's times are shared out
equally among its frames.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import repro.api.adapters as adapters
import repro.beamform.tof as tof
import repro.quant.qexec as qexec
from repro.nn.flops import count_flops
from repro.quant.fixed_point import FixedPointFormat

clock = time.monotonic


@dataclass
class Batch:
    """Stage self-times of one ``beamform_batch`` call."""

    seqs: list[int]
    staged: float = 0.0
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    quantize_s: float = 0.0
    quantize_calls: int = 0


def model_groups(network) -> dict[str, list]:
    """Top-level layer groups of a Tiny-VBF network, in execution order."""
    context = network.context.layers
    n_blocks = network.config.n_blocks
    groups = {"pixel_encoder": [network.pixel_encoder],
              "patch_embed": context[:3]}
    for index in range(n_blocks):
        groups[f"block{index}"] = [context[3 + index]]
    groups["decoder"] = context[3 + n_blocks:]
    groups["head"] = [network.head]
    return groups


def group_gops(network) -> dict[str, float]:
    """Per-frame GOPs of each layer group (``repro.nn.flops`` count)."""
    config = network.config
    gops = {}
    shape = (1, *config.frame_shape)
    for name, layers in model_groups(network).items():
        if name == "head":
            shape = (1, *config.image_shape, config.head_input)
        total = 0.0
        for layer in layers:
            flops, shape = count_flops(layer, shape)
            total += flops
        gops[name] = total / 1e9
    return gops


class LayerTrace:
    """Installs the layer spans on one beamformer and collects batches."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._undo: list = []
        self.batches: list[Batch] = []

    # -- wrappers ----------------------------------------------------------

    def _stage(self, name: str, fn):
        local = self._local

        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if not stack:
                return fn(*args, **kwargs)
            entry = [0.0]
            stack.append(entry)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                local.batch.self_s[name] += elapsed - entry[0]
                stack[-1][0] += elapsed

        return timed

    def _batch(self, fn):
        local = self._local

        def traced(datasets):
            datasets = list(datasets)
            batch = Batch(seqs=[frame.client_seq for frame in datasets])
            local.batch, local.stack = batch, [[0.0]]
            try:
                return fn(datasets)
            finally:
                batch.staged = local.stack[0][0]
                local.batch, local.stack = None, None
                self.batches.append(batch)

        return traced

    def _counted(self, fn):
        local = self._local

        def counted(*args, **kwargs):
            batch = getattr(local, "batch", None)
            if batch is None:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                batch.quantize_s += clock() - start
                batch.quantize_calls += 1

        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        # Modules and classes get their own attribute back; an instance
        # loses its override, which re-exposes the class's method.
        self._undo.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    # -- lifecycle ---------------------------------------------------------

    def install(self, beamformer) -> None:
        """Wrap every layer call ``beamformer`` makes."""
        stage = self._stage
        self._patch(tof, "analytic_rf",
                    stage("beamform.analytic", tof.analytic_rf))
        self._patch(tof.TofPlan, "apply",
                    stage("beamform.tof_gather", tof.TofPlan.apply))
        self._patch(adapters, "das_beamform",
                    stage("beamform.das_sum", adapters.das_beamform))
        for attr, name in (("normalized_tofc", "api.normalize"),
                           ("model_input", "api.model_input"),
                           ("stacked_to_complex", "api.iq_assembly")):
            self._patch(adapters, attr, stage(name, getattr(adapters, attr)))
        self._patch(beamformer, "beamform_batch",
                    self._batch(beamformer.beamform_batch))

        model = getattr(beamformer, "model", None)
        if model is None:
            return
        groups = model_groups(model.root)
        if getattr(beamformer, "accelerator", None) is None:
            for name, layers in groups.items():
                for layer in layers:
                    self._patch(layer, "forward",
                                stage(f"nn.{name}", layer.forward))
            return
        original = qexec.quantized_forward
        timed = {
            id(layer): stage(f"quant.{name}", original)
            for name, layers in groups.items() for layer in layers
        }

        def quantized_forward(layer, x, scheme):
            return timed.get(id(layer), original)(layer, x, scheme)

        self._patch(qexec, "quantized_forward", quantized_forward)
        self._patch(FixedPointFormat, "quantize",
                    self._counted(FixedPointFormat.quantize))

    def uninstall(self) -> None:
        """Restore every wrapped call."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
