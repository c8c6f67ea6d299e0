"""Backend names for the batched fixed-point decoders.

A backend is a name, not an object.  The quantized decoders in
:mod:`repro.decode.batch_quantized` make one decision with it at
construction:

``numpy``
    The default and the reference: the decoders' own vectorized numpy
    loops run every iteration.
``cnative``
    A :class:`~repro.decode.batch_quantized.BatchQuantizedZigzagDecoder`
    asks :func:`repro.decode._cnative.fused_plan` whether its format
    fits the compiled kernel; when it does, every untraced batch is one
    call to ``_cnative.zigzag_decode``.  Traced decodes, the
    ``quantized-minsum`` schedule and declined plans run the numpy
    loop, so results never depend on the backend.  The kernel is built
    lazily with the system compiler; without a working one the backend
    is unavailable, with the captured reason.

Both run on the calling thread.  Worker processes — Monte-Carlo
shards, the serve pool, the fabric — are the only parallel layer.

Every backend is bound by the bit-identity contract: for identical
inputs it must reproduce the serial quantized golden models exactly
(integer arithmetic is exact in any grouping, so this is a matter of
preserving operation semantics, not tolerances).  The equivalence
sweeps in ``tests/test_batch_quantized.py`` run on every available
backend to enforce it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from . import _cnative

#: Backend name -> kind (``"fused"``: decodes through the compiled
#: kernel when its plan engages), in listing order.
_KINDS = {"numpy": "numpy", "cnative": "fused"}


def _unavailable_reason(name: str) -> Optional[str]:
    return _cnative.unavailable_reason() if name == "cnative" else None


def backend_status() -> "Dict[str, tuple]":
    """name -> (kind, unavailable_reason-or-None) for every backend."""
    return {
        name: (kind, _unavailable_reason(name))
        for name, kind in _KINDS.items()
    }


def available_backends() -> List[str]:
    """Names of the backends usable in this environment."""
    return [
        name for name in _KINDS if _unavailable_reason(name) is None
    ]


def check_backend_name(spec=None) -> str:
    """Validate a backend spec by name alone and return the name.

    ``None`` means numpy.  Never builds the kernel, so a configuration
    can be checked without a compile; :func:`resolve_backend` adds the
    availability check.
    """
    if spec is None:
        return "numpy"
    if not isinstance(spec, str):
        raise TypeError(
            f"backend must be a name, got {type(spec).__name__}"
        )
    if spec not in _KINDS:
        raise ValueError(
            f"unknown backend {spec!r}; available backends: "
            f"{', '.join(available_backends())}"
        )
    return spec


def resolve_backend(spec=None) -> str:
    """Validate a backend spec (``None`` or a name) and return the name
    of a backend usable here."""
    name = check_backend_name(spec)
    reason = _unavailable_reason(name)
    if reason is not None:
        raise ValueError(
            f"backend {name!r} is not available in this environment: "
            f"{reason}"
        )
    return name
