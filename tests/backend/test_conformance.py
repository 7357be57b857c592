"""Backend conformance suite.

Every test here runs once per *registered* backend (the ``backend_name``
fixture), so these are the contracts a new backend must satisfy to be a
drop-in for the hot paths:

* shape/dtype invariants of the ToFC cube, DAS image and model forward,
* bitwise batch-invariance (``beamform_batch`` == per-frame loop),
* serve-vs-offline parity through the streaming engine,
* quantized-execution contracts (float scheme is the identity, outputs
  live on the quantization grid, quantization error is bounded, every
  quantized scheme is bitwise the ``numpy`` result and the round-at-end
  PE emulator's, and so is the per-level PE; a three-argument wrapper
  of ``quantized_forward`` sees every layer group and the same number
  of ``FixedPointFormat.quantize`` calls),
* DAS point-target focus (the physics smoke test: delays must actually
  delay),
* cross-backend agreement with the ``numpy`` reference within each
  backend's documented ``rtol``/``atol``.
"""

import numpy as np
import pytest

from repro.api import DasBeamformer, QuantizedBeamformer, dataset_tofc
from repro.backend import get_backend, use_backend
from repro.quant import QuantizedModel, qexec
from repro.quant.fixed_point import FixedPointFormat
from repro.quant.schemes import SCHEMES
from repro.serve import ReplaySource, ServeEngine

from tests.backend.conftest import FakeDataset, point_target_rf
from tests.golden import cases

QUANTIZED = [name for name, s in SCHEMES.items() if not s.is_float]


def _close(backend, actual, reference, context: str) -> None:
    """Assert agreement within the backend's documented tolerances.

    The reference backend documents zeros, which makes this a bitwise
    comparison for it — tolerances are part of the backend contract,
    not a per-test judgement call.
    """
    actual = np.asarray(actual, dtype=np.complex128)
    reference = np.asarray(reference, dtype=np.complex128)
    scale = max(np.abs(reference).max(), 1e-30)
    error = np.abs(actual - reference).max()
    allowed = backend.atol * scale + backend.rtol * np.abs(reference)
    assert np.all(np.abs(actual - reference) <= allowed), (
        f"{context}: backend {backend.name!r} deviates from the "
        f"reference by {error:.3e} (scale {scale:.3e}), beyond its "
        f"documented rtol={backend.rtol}/atol={backend.atol}"
    )


class TestShapeDtypeInvariants:
    def test_tofc_cube(self, backend_name, tiny_world):
        frame = tiny_world["frames"][0]
        with use_backend(backend_name):
            cube = dataset_tofc(frame)
        nz, nx = frame.grid.nz, frame.grid.nx
        assert cube.shape == (nz, nx, frame.probe.n_elements)
        assert np.iscomplexobj(cube)  # analytic signal stays complex
        assert np.isfinite(cube).all()

    def test_real_rf_keeps_real_cube(self, backend_name, tiny_world):
        frame = tiny_world["frames"][0]
        from repro.api.base import dataset_tof_plan

        with use_backend(backend_name):
            plan = dataset_tof_plan(frame)
            cube = plan.apply(frame.rf)
        assert not np.iscomplexobj(cube)
        assert np.issubdtype(cube.dtype, np.floating)

    def test_das_image(self, backend_name, tiny_world):
        frame = tiny_world["frames"][0]
        beamformer = DasBeamformer(backend=backend_name)
        image = beamformer.beamform(frame)
        assert image.shape == (frame.grid.nz, frame.grid.nx)
        assert np.iscomplexobj(image)

    def test_learned_image(self, backend_name, tiny_world, tiny_learned):
        frame = tiny_world["frames"][0]
        image = tiny_learned(backend_name).beamform(frame)
        assert image.shape == (frame.grid.nz, frame.grid.nx)
        assert np.iscomplexobj(image)
        assert np.isfinite(image).all()


class TestKernelContracts:
    def test_asarray_preserves_complex(self, backend_name, rng):
        """``asarray`` must keep complex input complex on every backend.

        Regression: numpy-fast's ``asarray`` blind-cast to float32,
        which silently discarded the imaginary part (numpy only emits a
        ComplexWarning) — analytic-signal phase was destroyed anywhere
        ``asarray`` met IQ data.  Backends may narrow the precision
        (complex64 on float32 backends) but never the domain.
        """
        backend = get_backend(backend_name)
        x = rng.standard_normal((5, 3)) + 1j * rng.standard_normal(
            (5, 3)
        )
        out = backend.asarray(x)
        assert np.iscomplexobj(out), (
            f"backend {backend_name!r} dropped the imaginary part in "
            f"asarray (got dtype {np.asarray(out).dtype})"
        )
        _close(backend, out, x, "complex asarray")

    def test_matmul_preserves_complex(self, backend_name, rng):
        """The GEMM kernels must keep complex inputs complex (IQ-domain
        layers are a legitimate future user), matching the reference."""
        backend = get_backend(backend_name)
        x = rng.standard_normal((3, 5, 4)) + 1j * rng.standard_normal(
            (3, 5, 4)
        )
        weight = rng.standard_normal((4, 2))
        actual = backend.matmul(x, weight)
        assert np.iscomplexobj(actual)
        reference = get_backend("numpy").matmul(x, weight)
        _close(backend, actual, reference, "complex matmul")

    def test_affine_preserves_complex(self, backend_name, rng):
        backend = get_backend(backend_name)
        x = rng.standard_normal((6, 4)) * (1 + 1j)
        weight = rng.standard_normal((4, 3))
        bias = rng.standard_normal(3)
        actual = backend.affine(x, weight, bias)
        assert np.iscomplexobj(actual)
        reference = get_backend("numpy").affine(x, weight, bias)
        _close(backend, actual, reference, "complex affine")


class TestBatchInvariance:
    """Stacked execution must be bitwise identical to the frame loop —
    per backend (float32 backends must be float32-deterministic)."""

    def test_das_batch(self, backend_name, tiny_world):
        frames = tiny_world["frames"]
        beamformer = DasBeamformer(backend=backend_name)
        batched = beamformer.beamform_batch(frames)
        for frame, image in zip(frames, batched):
            single = beamformer.beamform(frame)
            assert image.dtype == single.dtype
            assert np.array_equal(image, single)

    def test_learned_batch(self, backend_name, tiny_world, tiny_learned):
        frames = tiny_world["frames"]
        beamformer = tiny_learned(backend_name)
        batched = beamformer.beamform_batch(frames)
        for frame, image in zip(frames, batched):
            assert np.array_equal(image, beamformer.beamform(frame))


class TestServeOfflineParity:
    def test_served_images_match_offline(
        self, backend_name, tiny_world, tiny_learned
    ):
        frames = tiny_world["frames"]
        beamformer = tiny_learned(backend_name)
        engine = ServeEngine(
            beamformer, max_batch=2, n_workers=2, log_every_s=0
        )
        report = engine.serve(ReplaySource(frames))
        assert report.completed == len(frames)
        for frame, served in zip(frames, report.images):
            assert np.array_equal(served, beamformer.beamform(frame))


class TestQuantContracts:
    def test_float_scheme_is_identity(
        self, backend_name, tiny_world, tiny_learned
    ):
        frame = tiny_world["frames"][0]
        learned = tiny_learned(backend_name)
        quantized = QuantizedBeamformer(
            "float", model=learned.model, backend=backend_name
        )
        assert np.array_equal(
            quantized.beamform(frame), learned.beamform(frame)
        )

    def test_output_lies_on_quant_grid(
        self, backend_name, tiny_world, tiny_learned
    ):
        frame = tiny_world["frames"][0]
        learned = tiny_learned(backend_name)
        quantized = QuantizedBeamformer(
            "20 bits", model=learned.model, backend=backend_name
        )
        image = quantized.beamform(frame)
        fmt = SCHEMES["20 bits"].intermediate
        stacked = np.stack([image.real, image.imag])
        assert np.allclose(
            fmt.quantize(stacked), stacked, rtol=0.0, atol=1e-9
        )

    def test_quantization_error_is_bounded(
        self, backend_name, tiny_world, tiny_learned
    ):
        """Round trip through the 20-bit datapath stays close to the
        same backend's float forward (relative to the image scale)."""
        frame = tiny_world["frames"][0]
        learned = tiny_learned(backend_name)
        quantized = QuantizedBeamformer(
            "20 bits", model=learned.model, backend=backend_name
        )
        float_image = learned.beamform(frame)
        quant_image = quantized.beamform(frame)
        scale = np.abs(float_image).max()
        error = np.abs(quant_image - float_image).max()
        assert error <= 0.05 * scale, (
            f"20-bit quantization error {error:.3e} exceeds 5% of the "
            f"image scale {scale:.3e} on backend {backend_name!r}"
        )

    @pytest.mark.parametrize("name", QUANTIZED)
    def test_quantized_forward_is_the_integer_datapath(
        self, backend_name, name, serving_tiny_vbf, quantized_reference
    ):
        """The quantized forward is bitwise the ``numpy`` result on
        every backend, and so is the round-at-end PE emulator."""
        model, x = serving_tiny_vbf
        reference, oracle = quantized_reference(name)
        with use_backend(backend_name):
            actual = QuantizedModel(model, SCHEMES[name])(x)
        assert actual.dtype == reference.dtype
        assert np.array_equal(actual, reference), (
            f"{name} on backend {backend_name!r}: "
            f"{np.mean(actual != reference):.1%} of output elements "
            f"differ from the numpy reference"
        )
        assert np.array_equal(oracle, reference), (
            f"{name}: the round-at-end PE emulator differs from the "
            f"numpy reference"
        )

    @pytest.mark.parametrize("name", QUANTIZED)
    def test_per_level_forward_is_the_numpy_result(
        self, backend_name, name, per_level_reference
    ):
        """``pe="emu-per-level"`` gives the same bits on every backend:
        its GEMMs run on the integer PE and everything else on the
        reference kernels."""
        model, x, reference = per_level_reference
        with use_backend(backend_name):
            actual = QuantizedModel(
                model, SCHEMES[name], pe="emu-per-level"
            )(x)
        expected = reference(name)
        assert np.array_equal(actual, expected), (
            f"{name} on backend {backend_name!r}: "
            f"{np.mean(actual != expected):.1%} of per-level output "
            f"elements differ from the numpy reference"
        )

    def test_wrapped_forward_sees_every_layer_group(
        self, backend_name, monkeypatch, serving_tiny_vbf,
        quantized_reference,
    ):
        """Instrumentation may replace the module-level
        ``quantized_forward`` with a three-argument wrapper: the
        recursion reaches every top-level layer through it, and the
        bits do not change."""
        model, x = serving_tiny_vbf
        network = model.root
        original = qexec.quantized_forward
        seen = set()

        def wrapper(layer, x, scheme):
            seen.add(id(layer))
            return original(layer, x, scheme)

        monkeypatch.setattr(qexec, "quantized_forward", wrapper)
        with use_backend(backend_name):
            actual = QuantizedModel(model, SCHEMES["20 bits"])(x)
        groups = [network.pixel_encoder, *network.context.layers,
                  network.head]
        missed = [type(layer).__name__ for layer in groups
                  if id(layer) not in seen]
        assert not missed, f"the wrapper never saw {missed}"
        assert np.array_equal(actual, quantized_reference("20 bits")[0])

    def test_quantize_calls_do_not_depend_on_the_backend(
        self, backend_name, monkeypatch, serving_tiny_vbf
    ):
        """Every quantization outside the GEMM epilogue goes through
        ``FixedPointFormat.quantize`` on every backend, so a counter on
        it sees one figure."""
        model, x = serving_tiny_vbf
        original = FixedPointFormat.quantize
        calls = []

        def counted(fmt, values):
            calls.append(fmt)
            return original(fmt, values)

        monkeypatch.setattr(FixedPointFormat, "quantize", counted)
        counts = {}
        for name in ("numpy", backend_name):
            calls.clear()
            with use_backend(name):
                QuantizedModel(model, SCHEMES["20 bits"])(x)
            counts[name] = len(calls)
        assert counts["numpy"] > 0
        assert counts[backend_name] == counts["numpy"], counts


class TestPointTargetFocus:
    def test_das_focuses_point_target(self, backend_name, tiny_world):
        probe, grid = tiny_world["probe"], tiny_world["grid"]
        iz_true, ix_true = 9, 5
        x0 = float(grid.x_m[ix_true])
        z0 = float(grid.z_m[iz_true])
        rf = point_target_rf(probe, x0, z0, cases.GOLDEN_N_SAMPLES)
        frame = FakeDataset(rf=rf, probe=probe, grid=grid)
        image = DasBeamformer(backend=backend_name).beamform(frame)
        envelope = np.abs(image)
        iz, ix = np.unravel_index(envelope.argmax(), envelope.shape)
        assert abs(int(iz) - iz_true) <= 1, (iz, iz_true)
        assert abs(int(ix) - ix_true) <= 1, (ix, ix_true)


class TestCrossBackendAgreement:
    """Every backend reproduces the reference within its documented
    tolerances — the quantitative half of the conformance contract."""

    def test_das(self, backend_name, tiny_world):
        frame = tiny_world["frames"][0]
        backend = get_backend(backend_name)
        reference = DasBeamformer(backend="numpy").beamform(frame)
        actual = DasBeamformer(backend=backend_name).beamform(frame)
        _close(backend, actual, reference, "das image")

    def test_learned_forward(self, backend_name, tiny_world, tiny_learned):
        frame = tiny_world["frames"][0]
        backend = get_backend(backend_name)
        reference = tiny_learned("numpy").beamform(frame)
        actual = tiny_learned(backend_name).beamform(frame)
        _close(backend, actual, reference, "tiny_vbf forward")

    def test_mvdr(self, backend_name, tiny_world):
        from repro.api import MvdrBeamformer
        from repro.beamform.mvdr import MvdrConfig

        frame = tiny_world["frames"][0]
        backend = get_backend(backend_name)
        config = MvdrConfig(subaperture=4, axial_smoothing=1)
        reference = MvdrBeamformer(
            config=config, backend="numpy"
        ).beamform(frame)
        actual = MvdrBeamformer(
            config=config, backend=backend_name
        ).beamform(frame)
        _close(backend, actual, reference, "mvdr image")
