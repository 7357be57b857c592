"""Accelerator model of one Tiny-VBF deployment.

:class:`TinyVbfAccelerator` binds a trained Tiny-VBF model to a
quantization scheme and reports what the paper reports about the FPGA
deployment (the images themselves come from
:class:`repro.quant.qexec.QuantizedModel`):

* the cycle schedule and frame latency at 100 MHz,
* the BRAM plan for weights, activations and attention scores,
* the resource/power estimate for the scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fpga.memory import BramPlan
from repro.fpga.resources import ResourceEstimate, estimate_resources
from repro.fpga.scheduler import ScheduleReport, schedule_tiny_vbf
from repro.models.tiny_vbf import TinyVbfNetwork
from repro.nn import Model
from repro.quant.schemes import QuantizationScheme

_FLOAT_BITS = 32


@dataclass
class AcceleratorReport:
    """Everything observable about one accelerator configuration."""

    scheme: str
    schedule: ScheduleReport
    bram: BramPlan
    resources: ResourceEstimate

    @property
    def latency_s(self) -> float:
        return self.schedule.latency_s

    def summary(self) -> str:
        return "\n".join(
            [
                f"Tiny-VBF accelerator @100 MHz, scheme: {self.scheme}",
                self.schedule.table(),
                self.bram.report(),
                f"resources: {self.resources.as_dict()}",
            ]
        )


class TinyVbfAccelerator:
    """Simulated 4-PE Tiny-VBF accelerator (paper Figs. 5-8)."""

    def __init__(self, model: Model, scheme: QuantizationScheme) -> None:
        if not isinstance(model.root, TinyVbfNetwork):
            raise TypeError(
                "TinyVbfAccelerator requires a Tiny-VBF model, got "
                f"{type(model.root).__name__}"
            )
        self.model = model
        self.scheme = scheme
        self.config = model.root.config

    def plan_memory(self) -> BramPlan:
        """BRAM allocation: weights, ping-pong activations, scores."""
        config = self.config
        scheme = self.scheme
        weight_bits = (
            _FLOAT_BITS if scheme.weights is None
            else scheme.weights.total_bits
        )
        inter_bits = (
            _FLOAT_BITS if scheme.intermediate is None
            else scheme.intermediate.total_bits
        )
        arith_bits = (
            _FLOAT_BITS if scheme.arithmetic is None
            else scheme.arithmetic.total_bits
        )

        plan = BramPlan()
        plan.allocate("weights", self.model.n_parameters, weight_bits)
        pixels = config.image_shape[0] * config.image_shape[1]
        widest = max(
            config.input_channels,
            (config.channel_hidden or 0),
            config.channel_projection,
            config.head_input,
        )
        # Double-buffered activation storage for the widest pixel map.
        plan.allocate("activations", 2 * pixels * widest, inter_bits)
        tokens = config.n_tokens
        plan.allocate("tokens", 2 * tokens * config.d_model, inter_bits)
        plan.allocate(
            "attention_scores",
            config.n_heads * tokens * tokens,
            arith_bits,
        )
        plan.allocate("io", 2 * pixels * 2, inter_bits)
        return plan

    def report(self) -> AcceleratorReport:
        return AcceleratorReport(
            scheme=self.scheme.name,
            schedule=schedule_tiny_vbf(self.config),
            bram=self.plan_memory(),
            resources=estimate_resources(self.scheme),
        )
