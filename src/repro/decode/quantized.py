"""Fixed-point decoders (the bit widths behind paper Table 3).

The synthesis results of the paper assume a 6-bit quantization of both the
channel values and the exchanged messages; ref [9] puts the loss at
~0.1 dB versus infinite precision, ref [6] at ~0.15–0.2 dB for 5 bits.
Two decoders live here:

* :class:`QuantizedMinSumDecoder` — conventional two-phase schedule,
* :class:`QuantizedZigzagDecoder` — the paper's optimized schedule with
  integer arithmetic; this is the *golden model* the cycle-accurate
  hardware core (:mod:`repro.hw.decoder_core`) is checked against
  bit-exactly.

All arithmetic follows decoder-hardware conventions: wide accumulation in
the variable nodes with a single saturation at the output, saturating adds
along the zigzag chain, and magnitude normalization by truncating
shift-adds (``floor(alpha * m)``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..codes.construction import LdpcCode
from ..codes.matrix import syndrome
from ..quantize.fixed_point import MESSAGE_6BIT, FixedPointFormat
from .result import DecodeResult
from .zigzag import resolve_segments

_SENTINEL = np.int64(1 << 40)


def _int_min1_min2(
    mags: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First/second minimum and first-min index along the last axis.

    Works on any leading batch shape — ``(rows, width)`` for the
    single-frame decoders, ``(frames, rows, width)`` for the batched
    ones — and any signed integer dtype: the batched decoders store
    messages in the narrowest dtype that holds them, so the first-min
    mask value is the dtype's own maximum (an upper bound on every
    magnitude, which is all the ``min2`` reduction needs).  ``mags`` is
    treated as scratch: instead of copying the whole array to mask out
    the first minimum (a hot-path allocation), the first-min positions
    are overwritten in place.  All callers pass a fresh ``np.abs``
    result that is not read afterwards.
    """
    argmin_col = np.argmin(mags, axis=-1)
    idx = argmin_col[..., None]
    min1 = np.take_along_axis(mags, idx, axis=-1)[..., 0]
    np.put_along_axis(mags, idx, np.iinfo(mags.dtype).max, axis=-1)
    min2 = mags.min(axis=-1)
    return min1, min2, argmin_col


class QuantizedMinSumDecoder:
    """Two-phase min-sum decoder on saturating fixed-point messages."""

    def __init__(
        self,
        code: LdpcCode,
        fmt: FixedPointFormat = MESSAGE_6BIT,
        normalization: float = 1.0,
        channel_scale: float = 1.0,
        iteration_trace=None,
    ) -> None:
        if not 0.0 < normalization <= 1.0:
            raise ValueError("normalization must be in (0, 1]")
        self.code = code
        self.fmt = fmt
        self.normalization = normalization
        self.channel_scale = channel_scale
        self.iteration_trace = iteration_trace
        graph = code.graph
        self._vn_order = graph.vn_order
        self._vn_ptr = graph.vn_ptr
        self._cn_order = graph.cn_order
        self._cn_ptr = graph.cn_ptr
        self._vn_of_edge = graph.edge_vn
        self._cn_of_edge = graph.edge_cn

    # ------------------------------------------------------------------
    def quantize_channel(self, channel_llrs: np.ndarray) -> np.ndarray:
        """Scale and quantize float channel LLRs into the message format.

        Vectorized over any leading batch shape: ``(n,)`` frames and
        ``(frames, n)`` batches quantize elementwise identically.
        Non-finite LLRs raise (see :meth:`FixedPointFormat.quantize`).
        """
        llrs = np.asarray(channel_llrs, dtype=np.float64)
        if self.channel_scale != 1.0:  # x * 1.0 is x: skip the copy
            llrs = llrs * self.channel_scale
        return self.fmt.quantize(llrs)

    def decode(
        self,
        channel_llrs: np.ndarray,
        max_iterations: int = 40,
        early_stop: bool = True,
        iteration_trace=None,
    ) -> DecodeResult:
        """Decode one frame of float channel LLRs (quantized internally)."""
        graph = self.code.graph
        ch = self.quantize_channel(channel_llrs).astype(np.int64)
        if ch.shape != (graph.n_vns,):
            raise ValueError(f"expected {graph.n_vns} LLRs")
        hook = (
            iteration_trace
            if iteration_trace is not None
            else self.iteration_trace
        )
        c2v = np.zeros(graph.n_edges, dtype=np.int64)
        posteriors = ch.copy()
        bits = (posteriors < 0).astype(np.uint8)
        iterations = 0
        if hook is not None:
            prev_bits = bits
            hook.record(
                type(self).__name__,
                0,
                int(syndrome(graph, bits).sum()),
                float(np.abs(posteriors).mean() * self.fmt.scale),
                0,
            )
        converged = early_stop and not syndrome(graph, bits).any()
        while not converged and iterations < max_iterations:
            # VN phase: wide totals, saturate each outgoing message.
            totals = np.add.reduceat(c2v[self._vn_order], self._vn_ptr[:-1])
            wide = ch + totals
            v2c = self.fmt.saturate(wide[self._vn_of_edge] - c2v).astype(
                np.int64
            )
            # CN phase: min-sum with truncating normalization.
            c2v = self._check_phase(v2c)
            iterations += 1
            totals = np.add.reduceat(c2v[self._vn_order], self._vn_ptr[:-1])
            posteriors = ch + totals
            bits = (posteriors < 0).astype(np.uint8)
            if hook is not None:
                hook.record(
                    type(self).__name__,
                    iterations,
                    int(syndrome(graph, bits).sum()),
                    float(np.abs(posteriors).mean() * self.fmt.scale),
                    int(np.count_nonzero(bits != prev_bits)),
                )
                prev_bits = bits
            if early_stop and not syndrome(graph, bits).any():
                converged = True
        return DecodeResult(
            bits=bits,
            converged=bool(converged),
            iterations=iterations,
            posteriors=posteriors.astype(np.float64) * self.fmt.scale,
        )

    # ------------------------------------------------------------------
    def _check_phase(self, v2c: np.ndarray) -> np.ndarray:
        mags = np.abs(v2c)
        sorted_mags = mags[self._cn_order].astype(np.int64)
        starts = self._cn_ptr[:-1]
        n_edges = v2c.size
        min1 = np.minimum.reduceat(sorted_mags, starts)
        seg_lengths = np.diff(self._cn_ptr)
        seg_of_sorted = np.repeat(np.arange(len(starts)), seg_lengths)
        is_min = sorted_mags == min1[seg_of_sorted]
        positions = np.where(is_min, np.arange(n_edges), n_edges)
        argmin_pos = np.minimum.reduceat(positions, starts)
        masked = sorted_mags.copy()
        masked[argmin_pos] = _SENTINEL
        min2 = np.minimum.reduceat(masked, starts)
        out_sorted = min1[seg_of_sorted].copy()
        out_sorted[argmin_pos] = min2[seg_of_sorted[argmin_pos]]
        out_mags = np.empty(n_edges, dtype=np.int64)
        out_mags[self._cn_order] = out_sorted
        if self.normalization != 1.0:
            out_mags = np.floor(self.normalization * out_mags).astype(
                np.int64
            )
        negatives = (v2c[self._cn_order] < 0).astype(np.int64)
        neg_counts = np.add.reduceat(negatives, starts)
        parity = 1 - 2 * (neg_counts & 1)
        own_sign = np.where(v2c < 0, -1, 1)
        return parity[self._cn_of_edge] * own_sign * out_mags


class QuantizedZigzagDecoder:
    """Zigzag-scheduled min-sum on fixed-point messages (golden model).

    Mirrors :class:`~repro.decode.zigzag.ZigzagDecoder` with integer
    arithmetic.  ``segments`` models the forward-chain cut at functional
    unit boundaries exactly as in the IP core.
    """

    def __init__(
        self,
        code: LdpcCode,
        fmt: FixedPointFormat = MESSAGE_6BIT,
        normalization: float = 1.0,
        channel_scale: float = 1.0,
        segments: Optional[int] = None,
        iteration_trace=None,
    ) -> None:
        self.code = code
        self.fmt = fmt
        self.normalization = normalization
        self.channel_scale = channel_scale
        self.segments = resolve_segments(code, segments)
        self.iteration_trace = iteration_trace
        graph = code.graph
        sl = code.information_edge_slice()
        self._in_vn = graph.edge_vn[sl]
        self._in_cn = graph.edge_cn[sl]
        self._e_in = code.e_in
        self._n_parity = code.n_parity
        self._k = code.k
        self._width = code.profile.check_degree - 2
        self._cn_sort = np.argsort(self._in_cn, kind="stable")
        self._cn_unsort = np.empty_like(self._cn_sort)
        self._cn_unsort[self._cn_sort] = np.arange(self._e_in)
        self._vn_order = graph.vn_order[: self._e_in]
        self._vn_ptr = graph.vn_ptr[: self._k + 1]

    # ------------------------------------------------------------------
    def quantize_channel(self, channel_llrs: np.ndarray) -> np.ndarray:
        """Scale and quantize float channel LLRs into the message format.

        Vectorized over any leading batch shape: ``(n,)`` frames and
        ``(frames, n)`` batches quantize elementwise identically.
        Non-finite LLRs raise (see :meth:`FixedPointFormat.quantize`).
        """
        llrs = np.asarray(channel_llrs, dtype=np.float64)
        if self.channel_scale != 1.0:  # x * 1.0 is x: skip the copy
            llrs = llrs * self.channel_scale
        return self.fmt.quantize(llrs)

    def decode(
        self,
        channel_llrs: np.ndarray,
        max_iterations: int = 30,
        early_stop: bool = True,
        iteration_trace=None,
    ) -> DecodeResult:
        """Decode one frame of float channel LLRs (quantized internally)."""
        ch = self.quantize_channel(channel_llrs).astype(np.int64)
        return self.decode_quantized(
            ch, max_iterations, early_stop, iteration_trace
        )

    def decode_quantized(
        self,
        ch: np.ndarray,
        max_iterations: int = 30,
        early_stop: bool = True,
        iteration_trace=None,
    ) -> DecodeResult:
        """Decode already-quantized integer channel LLRs."""
        n_par = self._n_parity
        ch = np.asarray(ch, dtype=np.int64)
        if ch.shape != (self.code.n,):
            raise ValueError(f"expected {self.code.n} quantized LLRs")
        hook = (
            iteration_trace
            if iteration_trace is not None
            else self.iteration_trace
        )
        ch_in = ch[: self._k]
        ch_pn = ch[self._k :]
        c2v_in = np.zeros(self._e_in, dtype=np.int64)
        b_old = np.zeros(n_par + 1, dtype=np.int64)
        f_old = np.zeros(n_par, dtype=np.int64)
        posteriors = ch.copy()
        bits = (posteriors < 0).astype(np.uint8)
        iterations = 0
        graph = self.code.graph
        if hook is not None:
            prev_bits = bits
            hook.record(
                type(self).__name__,
                0,
                int(syndrome(graph, bits).sum()),
                float(np.abs(posteriors).mean() * self.fmt.scale),
                0,
            )
        converged = early_stop and not syndrome(graph, bits).any()
        while not converged and iterations < max_iterations:
            totals = np.add.reduceat(c2v_in[self._vn_order], self._vn_ptr[:-1])
            wide = ch_in + totals
            v2c_in = self.fmt.saturate(wide[self._in_vn] - c2v_in).astype(
                np.int64
            )
            c2v_in, f_old, b_old, pn_post = self._check_phase(
                v2c_in, ch_pn, b_old, f_old
            )
            iterations += 1
            totals = np.add.reduceat(c2v_in[self._vn_order], self._vn_ptr[:-1])
            posteriors = np.concatenate([ch_in + totals, pn_post])
            bits = (posteriors < 0).astype(np.uint8)
            if hook is not None:
                hook.record(
                    type(self).__name__,
                    iterations,
                    int(syndrome(graph, bits).sum()),
                    float(np.abs(posteriors).mean() * self.fmt.scale),
                    int(np.count_nonzero(bits != prev_bits)),
                )
                prev_bits = bits
            if early_stop and not syndrome(graph, bits).any():
                converged = True
        return DecodeResult(
            bits=bits,
            converged=bool(converged),
            iterations=iterations,
            posteriors=posteriors.astype(np.float64) * self.fmt.scale,
        )

    # ------------------------------------------------------------------
    def _normalize(self, mags: np.ndarray) -> np.ndarray:
        if self.normalization == 1.0:
            return mags
        return np.floor(self.normalization * mags).astype(np.int64)

    def _check_phase(self, v2c_in, ch_pn, b_old, f_old):
        n_par = self._n_parity
        width = self._width
        seg = self.segments
        q = n_par // seg

        rows = v2c_in[self._cn_sort].reshape(n_par, width)
        row_sign = np.where(rows < 0, -1, 1).astype(np.int64)
        parity = np.prod(row_sign, axis=1)
        mags = np.abs(rows)
        min1, min2, argmin_col = _int_min1_min2(mags)

        c_in = self.fmt.add(ch_pn, b_old[1 : n_par + 1]).astype(np.int64)
        c_sign = np.where(c_in < 0, -1, 1).astype(np.int64)
        c_mag = np.abs(c_in)

        # Sequential forward scan, vectorized across segments.
        min1_s = min1.reshape(seg, q)
        parity_s = parity.reshape(seg, q)
        ch_s = ch_pn.reshape(seg, q)
        f = np.empty((seg, q), dtype=np.int64)
        a_used = np.empty((seg, q), dtype=np.int64)
        starts = np.arange(seg) * q
        # Neutral chain input for segment 0: saturation magnitude with
        # positive sign (min() is unaffected because min1 <= max_int).
        a = np.empty(seg, dtype=np.int64)
        a[0] = self.fmt.max_int
        if seg > 1:
            a[1:] = self.fmt.add(
                ch_pn[starts[1:] - 1], f_old[starts[1:] - 1]
            )
        for t in range(q):
            a_used[:, t] = a
            a_sign = np.where(a < 0, -1, 1)
            mag = self._normalize(np.minimum(min1_s[:, t], np.abs(a)))
            f_t = parity_s[:, t] * a_sign * mag
            f[:, t] = f_t
            a = self.fmt.add(ch_s[:, t], f_t).astype(np.int64)
        f = f.reshape(-1)
        a_used = a_used.reshape(-1)
        a_sign = np.where(a_used < 0, -1, 1).astype(np.int64)
        a_mag = np.abs(a_used)

        b_mag = self._normalize(np.minimum(min1, c_mag))
        b = parity * c_sign * b_mag

        other = np.broadcast_to(min1[:, None], (n_par, width)).copy()
        other[np.arange(n_par), argmin_col] = min2
        chain_min = np.minimum(a_mag, c_mag)
        out_mag = self._normalize(np.minimum(other, chain_min[:, None]))
        out_sign = (parity * a_sign * c_sign)[:, None] * row_sign
        c2v_in = (out_sign * out_mag).reshape(-1)[self._cn_unsort]

        pn_post = ch_pn + f
        pn_post[:-1] += b[1:]

        b_store = np.zeros(n_par + 1, dtype=np.int64)
        b_store[1:n_par] = b[1:]
        return c2v_in, f, b_store, pn_post
