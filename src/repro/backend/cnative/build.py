"""Compiler detection and the generate-and-cache build step for `cnative`.

The C source (``kernels.c``, shipped as package data) is compiled once
per (source, flags, compiler) combination into a content-addressed
shared library under the build cache; every later import — in this
process or any other — dlopens the cached artifact without touching
the compiler again.  The build is atomic (compile to a temp name, then
``os.replace``) so concurrent first imports cannot observe a torn
library.

Environment knobs:

* ``REPRO_CNATIVE_CC`` — explicit compiler executable.  Takes
  precedence over ``CC`` and the ``cc``/``gcc``/``clang`` probe; a
  value that does not resolve makes the backend unavailable (this is
  how the no-compiler degradation path is exercised in tests).
* ``REPRO_CNATIVE_CACHE`` — cache directory (default
  ``~/.cache/repro-cnative``).
* ``REPRO_CNATIVE_DISABLE`` — any non-empty value skips the backend
  entirely (useful to benchmark the pure-python backends on a host
  that has a compiler).

Raises :class:`CNativeBuildError` for every failure mode; the caller
(:func:`repro.backend.cnative.register_cnative_backend`) converts that
into a *graceful* absence from the registry rather than an import
error.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

#: Flag sets tried in order; the first one the compiler accepts wins.
#: ``-ffast-math`` is deliberate: these kernels document float32
#: tolerances (see ``CNativeBackend.rtol``), and the vectorized
#: ``expf`` it unlocks is most of the softmax win.
_FLAG_SETS: tuple[tuple[str, ...], ...] = (
    ("-O3", "-march=native", "-funroll-loops", "-ffast-math"),
    ("-O3", "-ffast-math"),
    ("-O2",),
)

_COMMON_FLAGS: tuple[str, ...] = ("-fPIC", "-std=c11")
_LINK_FLAGS: tuple[str, ...] = ("-lm", "-lpthread")


class CNativeBuildError(RuntimeError):
    """The compiled backend could not be built on this host."""


def source_path() -> Path:
    """Location of the shipped C source."""
    return Path(__file__).resolve().parent / "kernels.c"


def cache_dir() -> Path:
    """Directory holding built shared libraries."""
    override = os.environ.get("REPRO_CNATIVE_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-cnative"


def find_compiler() -> str:
    """Resolve the C compiler executable, or raise.

    Precedence: ``REPRO_CNATIVE_CC``, ``CC``, then the conventional
    names.  An explicitly configured compiler that does not exist is
    an error (never silently fall back past an operator's choice).
    """
    explicit = os.environ.get("REPRO_CNATIVE_CC")
    if explicit:
        resolved = shutil.which(explicit)
        if resolved is None:
            raise CNativeBuildError(
                f"REPRO_CNATIVE_CC={explicit!r} does not resolve to an "
                f"executable"
            )
        return resolved
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate:
            resolved = shutil.which(candidate)
            if resolved is not None:
                return resolved
    raise CNativeBuildError(
        "no C compiler found (tried $CC, cc, gcc, clang); install one "
        "or set REPRO_CNATIVE_CC"
    )


def _cache_key(source: bytes, compiler: str, flags: tuple[str, ...]) -> str:
    digest = hashlib.sha256()
    digest.update(source)
    digest.update(compiler.encode())
    digest.update(" ".join(flags).encode())
    return digest.hexdigest()[:24]


def build_library() -> Path:
    """Compile (or reuse) the kernel library; returns the ``.so`` path."""
    if os.environ.get("REPRO_CNATIVE_DISABLE"):
        raise CNativeBuildError("disabled via REPRO_CNATIVE_DISABLE")
    src = source_path()
    if not src.exists():
        raise CNativeBuildError(f"kernel source missing: {src}")
    source = src.read_bytes()

    # The cache key includes the compiler path, so detection happens
    # before the first cache probe.
    compiler = find_compiler()
    errors: list[str] = []
    cache = cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    for flags in _FLAG_SETS:
        key = _cache_key(source, compiler, flags)
        out = cache / f"repro_cnative_{key}.so"
        if out.exists():
            return out
        fd, tmp_name = tempfile.mkstemp(
            suffix=".so", prefix="repro_cnative_build_", dir=cache
        )
        os.close(fd)
        obj_name = tmp_name + ".o"
        # Compile and link SEPARATELY: -ffast-math on a *link* line
        # makes the driver add crtfastmath.o, whose constructor flips
        # FTZ/DAZ in the FPU control register for the whole process at
        # dlopen — silently breaking subnormal arithmetic in numpy and
        # everything else.  Restricting fast-math to the compile step
        # keeps it a code-gen option (vectorized expf etc.) with no
        # global state.
        compile_cmd = [
            compiler, "-c", *_COMMON_FLAGS, *flags, "-o", obj_name, str(src),
        ]
        link_cmd = [
            compiler, "-shared", "-o", tmp_name, obj_name, *_LINK_FLAGS,
        ]
        failed: str | None = None
        for cmd in (compile_cmd, link_cmd):
            try:
                proc = subprocess.run(
                    cmd, capture_output=True, text=True, timeout=120
                )
            except (OSError, subprocess.TimeoutExpired) as exc:
                failed = str(exc)
                break
            if proc.returncode != 0:
                failed = (
                    f"exit {proc.returncode}: {proc.stderr.strip()[:500]}"
                )
                break
        if os.path.exists(obj_name):
            os.unlink(obj_name)
        if failed is not None:
            os.unlink(tmp_name)
            errors.append(f"{' '.join(flags)}: {failed}")
            continue
        os.replace(tmp_name, out)
        return out
    raise CNativeBuildError(
        f"compilation failed with {compiler}:\n  " + "\n  ".join(errors)
    )
