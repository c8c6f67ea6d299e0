"""Array backends for the batched fixed-point decoders.

The paper's partly-parallel core gets its throughput from mapping the
min-sum/zigzag update onto wide parallel functional units; the software
analogue — the ``(frames, edges)`` vectorized engines in
:mod:`repro.decode.batch_quantized` — runs its dominant kernels through
the small seam defined here:

* a named scratch arena (:meth:`ArrayBackend.buf`),
* segment sums and fused segment ``(min1, min2, argmin)``
  (the two ``reduceat`` shapes of the check phase),
* the serial-dependency t-major forward chain scan
  (:meth:`ArrayBackend.zigzag_forward_scan`),
* an optional whole-batch fused decode
  (:meth:`ArrayBackend.fused_zigzag_plan` /
  :meth:`ArrayBackend.fused_zigzag_decode`).

Two backends ship:

``numpy``
    The default and the reference.  Bit-identical to the historical
    implementation by construction — the decoders' own vectorized numpy
    loops *are* this backend's implementation; it never overrides a
    kernel hook.
``cnative``
    Compiled C kernels (:mod:`repro.decode._cnative`), built lazily from
    ``_zigzag_kernels.c`` with the system compiler.  Provides the fused
    min1/min2/argmin sweep, the compiled forward scan, and a fused
    whole-batch zigzag decode.  Unavailable (with a captured reason)
    when no working C compiler exists.

Both run on the calling thread.  Worker processes — Monte-Carlo
shards, the serve pool, the fabric — are the only parallel layer.

``resolve_backend`` also accepts any :class:`ArrayBackend` instance
(the serve engine's :class:`InstrumentedBackend`, or a subclass that
overrides a hook), returned as-is.

Every backend is bound by the bit-identity contract: for identical
inputs it must reproduce the serial quantized golden models exactly
(integer arithmetic is exact in any grouping, so this is a matter of
preserving operation semantics, not tolerances).  The equivalence
sweeps in ``tests/test_batch_quantized.py`` run on every available
backend to enforce it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from . import _cnative


def mask_into(cond: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with 0 where ``cond`` is False and -1 where True.

    ``np.where`` on byte-sized operands is memory-bound and an order of
    magnitude slower than the arithmetic it gates at full-frame batch
    shapes; an all-ones/all-zeros mask turns every select into a couple
    of in-place bitwise ops (``b ^ ((a ^ b) & mask)``) that stay exact
    for two's-complement integers.
    """
    if out.dtype == np.int8:
        np.negative(cond.view(np.int8), out=out)
    else:
        np.multiply(cond, -1, out=out, casting="unsafe")
    return out


class ArrayBackend:
    """Base array backend: the numpy implementations of every primitive.

    Subclasses override the kernel hooks they accelerate and leave the
    rest inherited; any hook may *decline* at runtime (unsupported
    dtype, non-contiguous input) and the decoder falls back to its own
    numpy path, so partial backends stay bit-identical by construction.
    """

    #: Registry name (``resolve_backend(name)``).
    name = "numpy"
    #: ``"numpy"`` (pure fallback) or ``"fused"`` (compiled kernels: the
    #: zigzag decoder asks for the scan hook and a fused decode plan).
    kind = "numpy"

    @classmethod
    def available(cls) -> bool:
        return True

    @classmethod
    def unavailable_reason(cls) -> Optional[str]:
        return None

    def __init__(self) -> None:
        #: Named reusable scratch arrays (see :meth:`buf`).
        self._scratch: dict = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} kind={self.kind!r}>"

    # -- scratch arena --------------------------------------------------
    def buf(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """Named scratch array, grown on demand and sliced per batch.

        At full-frame batch sizes the per-iteration temporaries exceed
        the allocator's mmap threshold, so fresh allocations pay a page
        fault per written page every iteration — reuse removes that.
        """
        arr = self._scratch.get(name)
        if (
            arr is None
            or arr.dtype != np.dtype(dtype)
            or arr.shape[1:] != tuple(shape[1:])
            or arr.shape[0] < shape[0]
        ):
            arr = np.empty(shape, dtype)
            self._scratch[name] = arr
        return arr if arr.shape[0] == shape[0] else arr[: shape[0]]

    # -- segment reductions ----------------------------------------------
    @staticmethod
    def segment_sum(values, starts, dtype=None, out=None):
        """Per-segment sums over a sorted edge axis (VN totals)."""
        return np.add.reduceat(values, starts, axis=1, dtype=dtype, out=out)

    def segment_min1_min2(
        self, mags, starts, seg_of_sorted, edge_index, n_edges_val
    ):
        """Per-segment ``(min1, min2, argmin)`` over sorted magnitudes.

        ``argmin`` is the *global sorted position* of the first minimum
        (first occurrence on ties) and ``min2`` the minimum of the
        remaining entries — the dtype's max when a segment has a single
        edge.  ``mags`` is scratch: this numpy fallback masks the first
        minimum in place for the second ``reduceat``; fused backends
        return all three in one sweep without the second pass.
        """
        min1 = np.minimum.reduceat(mags, starts, axis=1)
        is_min = mags == min1[:, seg_of_sorted]
        positions = np.where(is_min, edge_index, n_edges_val)
        argmin = np.minimum.reduceat(positions, starts, axis=1)
        rows = np.arange(mags.shape[0])[:, None]
        mags[rows, argmin] = np.iinfo(mags.dtype).max
        min2 = np.minimum.reduceat(mags, starts, axis=1)
        return min1, min2, argmin

    # -- kernel hooks ------------------------------------------------------
    def zigzag_forward_scan(
        self, n1, parity_neg, ch_pn, f_old, seg, mi, lut, f, a_norm, a_neg
    ) -> bool:
        """Fill ``(f, a_norm, a_neg)`` for the zigzag forward chain scan.

        Return ``True`` when handled; returning ``False`` declines and
        the decoder runs its own vectorized t-major numpy scan.  All
        arrays are ``(m, n_par)`` in linear parity-node order.
        """
        return False

    def fused_zigzag_plan(self, decoder) -> Optional[dict]:
        """Precompute a whole-batch fused decode plan for ``decoder``.

        Called once at decoder construction (fused-kind backends only).
        Return ``None`` when the decoder's format/normalization falls
        outside what the fused kernel supports — the decoder then uses
        the per-iteration hooks instead.
        """
        return None

    def fused_zigzag_decode(self, decoder, plan, ch, budgets, early_stop):
        """Decode a whole quantized batch under a plan from
        :meth:`fused_zigzag_plan`; returns ``(bits, converged,
        iterations)`` exactly as the numpy loop would produce them.
        ``ch`` is the ``(frames, n)`` C-contiguous int8 matrix of
        quantized channel LLRs."""
        raise NotImplementedError(
            f"backend {self.name!r} published no fused decode plan"
        )


class CNativeBackend(ArrayBackend):
    """Compiled C kernels built lazily with the system compiler.

    Fuses the check-phase min1/min2/argmin into one sweep, runs the
    forward chain scan as a compiled loop, and — for formats whose
    ``floor(alpha*m)`` table admits an exact multiply-shift — decodes
    whole batches to completion in a single C call (the dominant win:
    no per-iteration python/numpy dispatch at all).
    """

    name = "cnative"
    kind = "fused"

    @classmethod
    def available(cls) -> bool:
        return _cnative.available()

    @classmethod
    def unavailable_reason(cls) -> Optional[str]:
        return _cnative.unavailable_reason()

    def segment_min1_min2(
        self, mags, starts, seg_of_sorted, edge_index, n_edges_val
    ):
        if mags.dtype != np.int8 or not mags.flags.c_contiguous:
            return super().segment_min1_min2(
                mags, starts, seg_of_sorted, edge_index, n_edges_val
            )
        # No copy when already int64-contiguous (the cached tables are).
        starts64 = np.ascontiguousarray(starts, dtype=np.int64)
        return _cnative.segment_min_scan(mags, starts64)

    def zigzag_forward_scan(
        self, n1, parity_neg, ch_pn, f_old, seg, mi, lut, f, a_norm, a_neg
    ) -> bool:
        if n1.dtype != np.int8:
            return False
        for arr in (n1, parity_neg, ch_pn, f_old, lut, f, a_norm, a_neg):
            if not arr.flags.c_contiguous:
                return False
        _cnative.zigzag_forward_scan(
            n1,
            parity_neg.view(np.uint8),
            ch_pn,
            f_old,
            seg,
            mi,
            lut,
            f,
            a_norm,
            a_neg.view(np.uint8),
        )
        return True

    def fused_zigzag_plan(self, decoder) -> Optional[dict]:
        mi = int(decoder.fmt.max_int)
        if decoder._mdt != np.int8 or not decoder._narrow_vn:
            return None
        if np.dtype(decoder._adt).itemsize > 2:
            return None
        ms = _cnative.find_mulshift(decoder._norm_lut, mi)
        # The kernel forms the normalization product mult*m in int16.
        if ms is None or ms[0] * mi > np.iinfo(np.int16).max:
            return None
        # Pass C adds two slots of a check into their posterior rows in
        # one vector step, so a check naming one VN twice would lose an
        # add.  No DVB-S2 code does; anything else takes the numpy path.
        slots = np.sort(
            decoder._in_vn_i32.reshape(decoder._width, -1), axis=0
        )
        if (slots[1:] == slots[:-1]).any():
            return None
        return {
            "in_vn": decoder._in_vn_i32,
            "mult": int(ms[0]),
            "shift": int(ms[1]),
        }

    def fused_zigzag_decode(self, decoder, plan, ch, budgets, early_stop):
        return _cnative.zigzag_decode(
            ch,
            plan["in_vn"],
            decoder._k,
            decoder._width,
            decoder.segments,
            int(decoder.fmt.max_int),
            plan["mult"],
            plan["shift"],
            budgets,
            early_stop,
        )


class InstrumentedBackend(ArrayBackend):
    """Wraps any backend, timing its kernel primitives into a registry.

    The timed surface is the set of hooks a backend can accelerate —
    ``segment_sum``, ``segment_min1_min2``, ``zigzag_forward_scan`` and
    ``fused_zigzag_decode`` — recorded as ``<prefix>.<kernel>`` timers
    (default ``decode.kernel.*``), which ``repro obs profile`` renders
    as the decode-stage breakdown.

    The wrapper changes timing only, never values, so the bit-identity
    contract of the wrapped backend carries over unchanged.
    """

    def __init__(
        self, inner: ArrayBackend, registry, prefix: str = "decode.kernel"
    ) -> None:
        super().__init__()
        self.inner = inner
        self.registry = registry
        self.prefix = prefix
        self._scratch = inner._scratch  # share the inner arena
        self.name = inner.name
        self.kind = inner.kind

    def _timer(self, kernel: str):
        return self.registry.timer(f"{self.prefix}.{kernel}")

    def buf(self, name, shape, dtype):
        return self.inner.buf(name, shape, dtype)

    def segment_sum(self, values, starts, dtype=None, out=None):
        with self._timer("segment_sum"):
            return self.inner.segment_sum(
                values, starts, dtype=dtype, out=out
            )

    def segment_min1_min2(
        self, mags, starts, seg_of_sorted, edge_index, n_edges_val
    ):
        with self._timer("segment_min1_min2"):
            return self.inner.segment_min1_min2(
                mags, starts, seg_of_sorted, edge_index, n_edges_val
            )

    def zigzag_forward_scan(self, *args) -> bool:
        with self._timer("zigzag_forward_scan"):
            return self.inner.zigzag_forward_scan(*args)

    def fused_zigzag_plan(self, decoder):
        return self.inner.fused_zigzag_plan(decoder)

    def fused_zigzag_decode(self, decoder, plan, ch, budgets, early_stop):
        with self._timer("fused_zigzag_decode"):
            return self.inner.fused_zigzag_decode(
                decoder, plan, ch, budgets, early_stop
            )


def instrument_backend(
    spec, registry, prefix: str = "decode.kernel"
) -> InstrumentedBackend:
    """Resolve ``spec`` (as :func:`resolve_backend`) and wrap it with
    kernel timers recording into ``registry``."""
    return InstrumentedBackend(
        resolve_backend(spec), registry, prefix=prefix
    )


# ---------------------------------------------------------------------------
#: name -> backend class, in listing order.
_BACKENDS = {"numpy": ArrayBackend, "cnative": CNativeBackend}


def backend_status() -> "Dict[str, tuple]":
    """name -> (kind, unavailable_reason-or-None) for every backend."""
    return {
        name: (cls.kind, cls.unavailable_reason())
        for name, cls in _BACKENDS.items()
    }


def available_backends() -> List[str]:
    """Names of the backends usable in this environment."""
    return [name for name, cls in _BACKENDS.items() if cls.available()]


def resolve_backend(spec=None) -> ArrayBackend:
    """Turn a backend spec into a ready :class:`ArrayBackend` instance.

    ``spec`` may be ``None`` (numpy), a backend name, or an
    :class:`ArrayBackend` instance (returned as-is).
    """
    if spec is None:
        spec = "numpy"
    if isinstance(spec, ArrayBackend):
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            f"backend must be a name or ArrayBackend instance, "
            f"got {type(spec).__name__}"
        )
    cls = _BACKENDS.get(spec)
    if cls is None:
        raise ValueError(
            f"unknown backend {spec!r}; available backends: "
            f"{', '.join(available_backends())}"
        )
    if not cls.available():
        raise ValueError(
            f"backend {spec!r} is not available in this environment: "
            f"{cls.unavailable_reason()}"
        )
    return cls()
