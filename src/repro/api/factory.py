"""String-spec factory and registry for beamformers.

A *spec* selects a beamformer the way a config file or CLI flag would:

====================  ===============================================
spec                  beamformer
====================  ===============================================
``"das"``             :class:`~repro.api.adapters.DasBeamformer`
``"mvdr"``            :class:`~repro.api.adapters.MvdrBeamformer`
``"tiny_vbf"``        :class:`~repro.api.adapters.LearnedBeamformer`
``"tiny_cnn"``        (idem, Tiny-CNN baseline)
``"fcnn"``            (idem, FCNN baseline)
``"tiny_vbf@float"``  :class:`~repro.api.adapters.QuantizedBeamformer`
``"tiny_vbf@20 bits"``  (idem, any Table-III scheme after ``@``)
====================  ===============================================

The registry is extensible: :func:`register_beamformer` adds new names
(experimental models, remote backends, ...) without touching callers
that dispatch through :func:`create_beamformer`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.api.adapters import (
    DasBeamformer,
    LearnedBeamformer,
    MvdrBeamformer,
    QuantizedBeamformer,
)
from repro.api.base import Beamformer
from repro.models.registry import MODEL_KINDS

#: A factory receives the parsed spec parts plus passthrough kwargs and
#: returns a ready :class:`Beamformer`.
BeamformerFactory = Callable[..., Beamformer]

_REGISTRY: dict[str, BeamformerFactory] = {}


def register_beamformer(
    name: str, factory: BeamformerFactory, overwrite: bool = False
) -> None:
    """Register ``factory`` under ``name`` for :func:`create_beamformer`.

    The factory is called as ``factory(scheme=..., scale=..., seed=...,
    model=..., **kwargs)``; ``scheme`` is the part after ``@`` in the
    spec (``None`` when absent) and factories that do not support
    quantized execution must reject a non-``None`` scheme.
    """
    if not name or "@" in name:
        raise ValueError(f"invalid beamformer name {name!r}")
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"beamformer {name!r} already registered")
    _REGISTRY[name] = factory


def registered_beamformers() -> tuple[str, ...]:
    """Names currently creatable through :func:`create_beamformer`."""
    return tuple(sorted(_REGISTRY))


def parse_spec(spec: str) -> tuple[str, str | None]:
    """Split ``"name"`` / ``"name@scheme"`` into its parts."""
    if not isinstance(spec, str) or not spec:
        raise ValueError(f"beamformer spec must be a non-empty str, "
                         f"got {spec!r}")
    name, sep, scheme = spec.partition("@")
    name = name.strip()
    scheme = scheme.strip()
    if not name or (sep and not scheme):
        raise ValueError(f"malformed beamformer spec {spec!r}")
    return name, (scheme if sep else None)


def create_beamformer(
    spec: str,
    scale: str = "small",
    seed: int = 0,
    model: Any = None,
    **kwargs: Any,
) -> Beamformer:
    """Build any registered beamformer from its string spec.

    Args:
        spec: ``"name"`` or ``"name@scheme"`` (see module docstring).
        scale: model scale for learned/quantized specs (``"small"`` or
            ``"paper"``); ignored by classical ones.
        seed: training seed for learned/quantized specs.
        model: optional pre-trained :class:`~repro.nn.Model` to wrap
            instead of loading from the weight cache.
        **kwargs: forwarded to the factory (e.g. ``f_number`` for DAS,
            ``config`` for MVDR, ``backend=`` — a registered
            :mod:`repro.backend` name such as ``"numpy-fast"`` — for
            every built-in adapter, and ``pe=`` — ``None`` (the
            modeled datapath) or ``"emu-per-level"`` (the
            per-level-rounding integer PE emulator) — for a quantized
            ``tiny_vbf@<scheme>`` spec).

    Returns:
        A ready-to-use :class:`Beamformer`.
    """
    name, scheme = parse_spec(spec)
    if name not in _REGISTRY:
        known = ", ".join(registered_beamformers())
        raise ValueError(
            f"unknown beamformer {name!r}; registered: {known}"
        )
    return _REGISTRY[name](
        scheme=scheme, scale=scale, seed=seed, model=model, **kwargs
    )


# --------------------------------------------------------------------------
# Built-in registrations
# --------------------------------------------------------------------------


def _classical_factory(cls: type[Beamformer]) -> BeamformerFactory:
    def factory(
        scheme: str | None = None,
        scale: str | None = None,
        seed: int | None = None,
        model: Any = None,
        **kwargs: Any,
    ) -> Beamformer:
        if scheme is not None:
            raise ValueError(
                f"{cls.name!r} has no quantized datapath; '@{scheme}' "
                "specs apply to 'tiny_vbf' only"
            )
        if model is not None:
            raise ValueError(f"{cls.name!r} does not take a model")
        if kwargs.get("pe") is not None:
            raise ValueError(
                f"{cls.name!r} has no PE datapath; pe= applies to "
                "quantized 'tiny_vbf@<scheme>' specs only"
            )
        kwargs.pop("pe", None)
        return cls(**kwargs)

    return factory


def _learned_factory(kind: str) -> BeamformerFactory:
    def factory(
        scheme: str | None = None,
        scale: str = "small",
        seed: int = 0,
        model: Any = None,
        **kwargs: Any,
    ) -> Beamformer:
        if scheme is not None:
            if kind != "tiny_vbf":
                raise ValueError(
                    f"quantized execution exists for 'tiny_vbf' only, "
                    f"not {kind!r}"
                )
            return QuantizedBeamformer(
                scheme, model=model, scale=scale, seed=seed, **kwargs
            )
        if kwargs.get("pe") is not None:
            raise ValueError(
                "pe= selects the emulated PE datapath and requires a "
                f"quantized spec ('{kind}@<scheme>'), not {kind!r}"
            )
        kwargs.pop("pe", None)
        return LearnedBeamformer(
            kind, model=model, scale=scale, seed=seed, **kwargs
        )

    return factory


register_beamformer("das", _classical_factory(DasBeamformer))
register_beamformer("mvdr", _classical_factory(MvdrBeamformer))
for _kind in MODEL_KINDS:
    register_beamformer(_kind, _learned_factory(_kind))
