"""Emulated-vs-modeled conformance for every quantization scheme.

The paper's accuracy tables (Table IV-VI) were produced by the modeled
fake-quantized path in :mod:`repro.quant.qexec`; the emulated PE claims
to compute the *same* numbers on an integer datapath.  This suite pins
that claim for every scheme in the registry: a full Tiny-VBF forward
pass under the round-at-end oracle (``pe_rounding("round_at_end")``)
must be bitwise identical to the plain ``quantized_forward`` result,
and ``pe="emu-per-level"`` must stay within the documented per-product
rounding envelope.
"""

import threading

import numpy as np
import pytest

from repro.quant.qexec import (
    PE_MODES,
    QuantizedModel,
    pe_rounding,
    quantized_forward,
)
from repro.quant.schemes import SCHEMES
from tests.golden.cases import golden_model, golden_model_input

QUANTIZED = [name for name, s in SCHEMES.items() if not s.is_float]


@pytest.fixture(scope="module")
def model_and_input():
    return golden_model(), golden_model_input()


class TestEmulatedAgreement:
    @pytest.mark.parametrize("name", QUANTIZED)
    def test_emu_bitwise_equals_modeled_forward(self, name,
                                                model_and_input):
        model, x = model_and_input
        scheme = SCHEMES[name]
        modeled = quantized_forward(model.root, x, scheme)
        with pe_rounding("round_at_end"):
            emulated = QuantizedModel(model, scheme)(x)
        assert emulated.dtype == modeled.dtype
        assert np.array_equal(emulated, modeled), (
            f"{name}: emulated forward diverged from qexec "
            f"(max abs diff {np.abs(emulated - modeled).max():.3e})"
        )

    @pytest.mark.parametrize("name", QUANTIZED)
    def test_per_level_stays_near_the_modeled_path(self, name,
                                                   model_and_input):
        # Per-level rounding is a *different* datapath, so bitwise
        # equality is not expected — but on the miniature golden model
        # it must stay within a small multiple of the arithmetic
        # resolution (divergence grows with dot length; d_model is 16
        # here).
        model, x = model_and_input
        scheme = SCHEMES[name]
        modeled = quantized_forward(model.root, x, scheme)
        per_level = QuantizedModel(model, scheme, pe="emu-per-level")(x)
        assert np.isfinite(per_level).all()
        assert np.abs(per_level - modeled).max() <= 0.05

    def test_float_scheme_ignores_the_emulator_grid(self,
                                                    model_and_input):
        model, x = model_and_input
        scheme = SCHEMES["float"]
        with pe_rounding("round_at_end"):
            emulated = QuantizedModel(model, scheme)(x)
        assert np.array_equal(emulated, model.forward(x, training=False))

    def test_pe_knob_is_validated(self, model_and_input):
        model, _ = model_and_input
        for pe in ("fpga", "emu"):
            with pytest.raises(ValueError, match="pe must be one of"):
                QuantizedModel(model, SCHEMES["16 bits"], pe=pe)
        assert set(PE_MODES) == {None, "emu-per-level"}


class TestRoundingHook:
    def test_unknown_mode_is_refused(self):
        with pytest.raises(ValueError, match="rounding mode must be"):
            with pe_rounding("round_per_lane"):
                pass

    def test_mode_is_restored_and_thread_local(self, model_and_input):
        model, x = model_and_input
        scheme = SCHEMES["16 bits"]
        modeled = quantized_forward(model.root, x, scheme)
        per_level = QuantizedModel(model, scheme, pe="emu-per-level")(x)
        assert not np.array_equal(per_level, modeled)
        seen = {}

        def other_thread():
            seen["other"] = quantized_forward(model.root, x, scheme)

        with pe_rounding("per_level"):
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join()
            assert np.array_equal(
                quantized_forward(model.root, x, scheme), per_level
            )
        assert np.array_equal(seen["other"], modeled)
        assert np.array_equal(
            quantized_forward(model.root, x, scheme), modeled
        )
