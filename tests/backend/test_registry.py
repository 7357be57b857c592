"""Registry, selection precedence and extensibility of repro.backend."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.api import create_beamformer
from repro.backend import (
    NumpyBackend,
    NumpyFastBackend,
    available_backends,
    backend_names_and_tolerances,
    get_backend,
    register_backend,
    resolve_backend,
    set_backend,
    unregister_backend,
    use_backend,
)

SRC = Path(__file__).resolve().parents[2] / "src"

# The process default is environment-dependent (the CI backend matrix
# runs this suite under REPRO_BACKEND=numpy-fast on purpose), so the
# precedence tests assert against it rather than hard-coding "numpy".
AMBIENT_DEFAULT = os.environ.get("REPRO_BACKEND", "numpy")


class TestRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        assert "numpy" in names
        assert "numpy-fast" in names

    def test_reference_is_exact_by_contract(self):
        tolerances = backend_names_and_tolerances()
        assert tolerances["numpy"] == (0.0, 0.0)
        rtol, atol = tolerances["numpy-fast"]
        assert 0.0 < rtol <= 1e-2 and 0.0 < atol <= 1e-2

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(NumpyBackend())

    def test_register_unregister_roundtrip(self):
        class Custom(NumpyBackend):
            name = "test-custom"

        register_backend(Custom())
        try:
            assert "test-custom" in available_backends()
            assert get_backend("test-custom").name == "test-custom"
        finally:
            unregister_backend("test-custom")
        assert "test-custom" not in available_backends()

    def test_builtins_cannot_be_unregistered(self):
        with pytest.raises(ValueError, match="cannot be removed"):
            unregister_backend("numpy")

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="numpy-fast"):
            resolve_backend("cuda")

    def test_resolve_passthrough(self):
        backend = get_backend("numpy")
        assert resolve_backend(backend) is backend
        assert resolve_backend(None) is None
        with pytest.raises(TypeError):
            resolve_backend(123)


class TestSelectionPrecedence:
    def test_default_matches_environment(self):
        assert get_backend().name == AMBIENT_DEFAULT

    def test_explicit_name_wins(self):
        with use_backend("numpy-fast"):
            assert get_backend("numpy").name == "numpy"

    def test_use_backend_nests_and_restores(self):
        assert get_backend().name == AMBIENT_DEFAULT
        with use_backend("numpy-fast"):
            assert get_backend().name == "numpy-fast"
            with use_backend("numpy"):
                assert get_backend().name == "numpy"
            assert get_backend().name == "numpy-fast"
        assert get_backend().name == AMBIENT_DEFAULT

    def test_use_backend_none_is_noop(self):
        with use_backend("numpy-fast"):
            with use_backend(None):
                assert get_backend().name == "numpy-fast"

    def test_set_backend_changes_process_default(self):
        try:
            set_backend("numpy-fast")
            assert get_backend().name == "numpy-fast"
            set_backend("numpy")
            assert get_backend().name == "numpy"
        finally:
            set_backend(AMBIENT_DEFAULT)
        assert get_backend().name == AMBIENT_DEFAULT

    def test_context_is_thread_local(self):
        seen = {}
        inner = "numpy" if AMBIENT_DEFAULT == "numpy-fast" else "numpy-fast"

        def probe():
            seen["worker"] = get_backend().name

        with use_backend(inner):
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        # The sibling thread never entered the context: it sees the
        # process default, not the caller's thread-local selection.
        assert seen["worker"] == AMBIENT_DEFAULT

    def test_env_var_selects_default(self):
        env = dict(os.environ, REPRO_BACKEND="numpy-fast")
        env["PYTHONPATH"] = str(SRC)
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.backend import get_backend; "
                "print(get_backend().name)",
            ],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "numpy-fast"


class TestApiIntegration:
    def test_create_beamformer_backend_kwarg(self, tiny_world):
        frame = tiny_world["frames"][0]
        beamformer = create_beamformer("das", backend="numpy-fast")
        assert beamformer.describe()["compute_backend"] == "numpy-fast"
        image = beamformer.beamform(frame)
        assert image.dtype == np.complex64  # float32 pipeline end to end

    def test_default_backend_label(self):
        assert (
            create_beamformer("das").describe()["compute_backend"]
            == "default"
        )

    def test_unknown_backend_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown backend"):
            create_beamformer("das", backend="cuda")

    def test_serve_cli_exposes_backend_flag(self):
        from repro.serve.__main__ import build_parser

        args = build_parser().parse_args(
            ["--backend", "numpy-fast", "--frames", "2"]
        )
        assert args.backend == "numpy-fast"

    def test_quantized_network_leaves_the_bound_backend(
        self, tiny_world, tiny_learned
    ):
        # The ToF gather runs on the bound backend; the quantized
        # network runs on the float64 reference, so none of its GEMMs
        # reach the bound one.
        calls = []

        class Spy(NumpyFastBackend):
            name = "test-spy"

            def apply_plan(self, plan, rf):
                calls.append("apply_plan")
                return super().apply_plan(plan, rf)

            def matmul(self, x, weight):
                calls.append("matmul")
                return super().matmul(x, weight)

        frame = tiny_world["frames"][0]
        model = tiny_learned("numpy").model
        create_beamformer(
            "tiny_vbf@20 bits", model=model, backend=Spy()
        ).beamform(frame)
        assert calls == ["apply_plan"]
        create_beamformer("tiny_vbf", model=model, backend=Spy()).beamform(
            frame
        )
        assert "matmul" in calls[1:]

    def test_bound_backend_does_not_leak(self, tiny_world):
        frame = tiny_world["frames"][0]
        bound = "numpy" if AMBIENT_DEFAULT == "numpy-fast" else "numpy-fast"
        create_beamformer("das", backend=bound).beamform(frame)
        assert get_backend().name == AMBIENT_DEFAULT
