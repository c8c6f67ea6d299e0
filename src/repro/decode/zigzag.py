"""Optimized degree-2 parity-node update schedule (paper Section 2.2).

The accumulator structure of DVB-S2 makes every parity node a degree-2
relay between consecutive check nodes.  The paper's optimized schedule
(Fig. 2b) processes check nodes sequentially from left to right and passes
the freshly updated chain message *immediately* to the next check node
("forward update, sequential"), while the chain messages flowing the other
way are updated in parallel from stored values ("backward update,
parallel").  Two benefits, both reproduced here:

* **iteration savings** — the same communications performance in ~30
  instead of ~40 iterations (reproduced in ``bench_fig2_update_schemes``),
* **memory savings** — only the backward chain messages are stored, i.e.
  ``E_PN / 2`` messages instead of ``E_PN`` (accounted in the area model).

Hardware reality: 360 functional units each own ``q`` consecutive check
nodes, so the forward chain is cut into 360 segments whose boundary
messages come from the previous iteration.  The ``segments`` parameter
models exactly that; ``segments=1`` is the ideal uncut scan, and
``segments=P`` reproduces the IP core's behaviour (and is also the fast,
vectorized path).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..codes.construction import LdpcCode
from ..codes.matrix import syndrome
from .messages import min1_min2, phi, segment_sums
from .result import DecodeResult

#: Iteration budget of the IP core (paper Section 5: "30 iterations are
#: assumed").
DEFAULT_MAX_ITERATIONS = 30

_NEUTRAL_MAG = np.inf  # min-sum neutral element (no chain input)


def resolve_segments(code: LdpcCode, segments: Optional[int] = None) -> int:
    """The forward-chain segment count of a zigzag decoder on ``code``.

    ``None`` means ``code.profile.parallelism`` (one segment per
    functional unit, as in the IP core).  A count that does not divide
    ``code.n_parity`` raises ``ValueError``.  Builds nothing, so a
    pooled service checks its routes with it before any worker starts.
    """
    if segments is None:
        segments = code.profile.parallelism
    if segments < 1 or code.n_parity % segments != 0:
        raise ValueError(
            f"segments={segments} must divide n_parity={code.n_parity}"
        )
    return segments


class ZigzagDecoder:
    """Decoder using the paper's optimized zigzag schedule.

    Parameters
    ----------
    code:
        The (IRA) LDPC code; its zigzag structure is mandatory.
    cn_kernel:
        ``"tanh"`` (exact, paper Eq. 5) or ``"minsum"``.
    normalization, offset:
        Min-sum corrections applied to every check-node output.
    segments:
        Number of independent forward-chain segments.  Must divide the
        number of parity nodes.  ``1`` = ideal sequential scan;
        the IP core uses ``code.profile.parallelism`` (one segment per
        functional unit).
    iteration_trace:
        Optional :class:`~repro.obs.iteration.IterationTrace` hook
        called once per iteration (read-only; results unchanged).
    """

    def __init__(
        self,
        code: LdpcCode,
        cn_kernel: str = "minsum",
        normalization: float = 1.0,
        offset: float = 0.0,
        segments: int = 1,
        record_trace: bool = False,
        iteration_trace=None,
    ) -> None:
        if cn_kernel not in ("tanh", "minsum"):
            raise ValueError("cn_kernel must be 'tanh' or 'minsum'")
        self.code = code
        self.cn_kernel = cn_kernel
        self.normalization = normalization
        self.offset = offset
        self.segments = resolve_segments(code, segments)
        self.record_trace = record_trace
        self.iteration_trace = iteration_trace
        self._prepare()

    # ------------------------------------------------------------------
    def _prepare(self) -> None:
        code = self.code
        graph = code.graph
        sl = code.information_edge_slice()
        self._in_vn = graph.edge_vn[sl]
        self._in_cn = graph.edge_cn[sl]
        self._e_in = code.e_in
        self._n_parity = code.n_parity
        self._k = code.k
        self._row_width = code.profile.check_degree - 2
        # CN-major sorted view of the information edges.  Every check has
        # exactly k-2 information edges, so the sorted view reshapes into
        # a dense (n_parity, k-2) array — the key to full vectorization.
        self._cn_sort = np.argsort(self._in_cn, kind="stable")
        self._cn_unsort = np.empty_like(self._cn_sort)
        self._cn_unsort[self._cn_sort] = np.arange(self._e_in)
        # VN-side segment structure for the information nodes (their
        # edges are exactly the information edges).
        self._vn_order = graph.vn_order[: self._e_in]
        self._vn_ptr = graph.vn_ptr[: self._k + 1]
        self._seg_len = self._n_parity // self.segments

    # ------------------------------------------------------------------
    def decode(
        self,
        channel_llrs: np.ndarray,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        early_stop: bool = True,
        iteration_trace=None,
    ) -> DecodeResult:
        """Decode one frame of ``N`` channel LLRs."""
        channel_llrs = np.asarray(channel_llrs, dtype=np.float64)
        if channel_llrs.shape != (self.code.n,):
            raise ValueError(
                f"expected {self.code.n} LLRs, got {channel_llrs.shape}"
            )
        ch_in = channel_llrs[: self._k]
        ch_pn = channel_llrs[self._k :]
        n_par = self._n_parity

        c2v_in = np.zeros(self._e_in, dtype=np.float64)
        # Stored chain state: backward messages b[j] = CN j -> PN j-1
        # (defined for j >= 1; index 0 unused) and the forward messages of
        # the previous iteration, needed at segment boundaries.
        b_old = np.zeros(n_par + 1, dtype=np.float64)
        f_old = np.zeros(n_par, dtype=np.float64)

        hook = (
            iteration_trace
            if iteration_trace is not None
            else self.iteration_trace
        )
        posteriors = channel_llrs.copy()
        bits = (posteriors < 0).astype(np.uint8)
        iterations = 0
        trace = []
        if self.record_trace:
            trace.append(int(syndrome(self.code.graph, bits).sum()))
        if hook is not None:
            prev_bits = bits
            hook.record(
                type(self).__name__,
                0,
                int(syndrome(self.code.graph, bits).sum()),
                float(np.abs(posteriors).mean()),
                0,
            )
        converged = early_stop and not syndrome(self.code.graph, bits).any()

        while not converged and iterations < max_iterations:
            # ---- variable-node phase (information nodes, Eq. 4) ----
            totals = segment_sums(c2v_in[self._vn_order], self._vn_ptr)
            in_posteriors = ch_in + totals
            v2c_in = in_posteriors[self._in_vn] - c2v_in

            # ---- check-node phase with zigzag schedule ----
            c2v_in, f_new, b_new, pn_posteriors = self._check_phase(
                v2c_in, ch_pn, b_old, f_old
            )
            f_old = f_new
            b_old = b_new
            iterations += 1

            # ---- decisions ----
            totals = segment_sums(c2v_in[self._vn_order], self._vn_ptr)
            posteriors = np.concatenate([ch_in + totals, pn_posteriors])
            bits = (posteriors < 0).astype(np.uint8)
            if self.record_trace:
                trace.append(int(syndrome(self.code.graph, bits).sum()))
            if hook is not None:
                hook.record(
                    type(self).__name__,
                    iterations,
                    int(syndrome(self.code.graph, bits).sum()),
                    float(np.abs(posteriors).mean()),
                    int(np.count_nonzero(bits != prev_bits)),
                )
                prev_bits = bits
            if early_stop and not syndrome(self.code.graph, bits).any():
                converged = True

        result = DecodeResult(
            bits=bits,
            converged=bool(converged),
            iterations=iterations,
            posteriors=posteriors,
        )
        if self.record_trace:
            result.extra["syndrome_trace"] = trace
        return result

    # ------------------------------------------------------------------
    def _check_phase(
        self,
        v2c_in: np.ndarray,
        ch_pn: np.ndarray,
        b_old: np.ndarray,
        f_old: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One zigzag check-node phase.

        Returns ``(c2v_in, f, b, pn_posteriors)`` where ``f[j]`` is the
        fresh forward message CN j → PN j, ``b[j]`` the fresh backward
        message CN j → PN j-1 (index 0 unused, length n_parity + 1 with a
        trailing 0 for the chain end).
        """
        n_par = self._n_parity
        seg, q = self.segments, self._seg_len
        width = self._row_width

        sorted_vals = v2c_in[self._cn_sort]
        rows = sorted_vals.reshape(n_par, width)
        row_sign = np.where(rows < 0, -1.0, 1.0)
        parity = np.prod(row_sign, axis=1)
        mags = np.abs(rows)

        # Chain input from the parity node on the *self* edge: PN j feeds
        # CN j with channel + stored backward message from CN j+1.
        c_in = ch_pn + b_old[1 : n_par + 1]
        c_sign = np.where(c_in < 0, -1.0, 1.0)
        c_mag = np.abs(c_in)

        if self.cn_kernel == "minsum":
            flat_min1, flat_min2, flat_argmin = min1_min2(
                mags.reshape(-1),
                np.arange(0, n_par * width + 1, width),
            )
            min1 = flat_min1
            min2 = flat_min2
            argmin_col = flat_argmin - np.arange(n_par) * width
            f, a_vals = self._forward_scan_minsum(
                min1, parity, ch_pn, f_old, seg, q
            )
            a_sign = np.where(a_vals < 0, -1.0, 1.0)
            a_mag = np.abs(a_vals)
            # Backward messages (parallel): exclude the backward edge,
            # include the stored chain input c.
            b_mag = self._correct(np.minimum(min1, c_mag))
            b = np.where(parity * c_sign < 0, -b_mag, b_mag)
            # Outputs to the information nodes: exclude self IN input,
            # include both chain inputs.
            other = np.broadcast_to(min1[:, None], (n_par, width)).copy()
            other[np.arange(n_par), argmin_col] = min2
            chain_min = np.minimum(a_mag, c_mag)
            out_mag = self._correct(np.minimum(other, chain_min[:, None]))
            out_sign = (
                (parity * a_sign * c_sign)[:, None] * row_sign
            )
            out_rows = out_sign * out_mag
        else:  # tanh kernel in the phi domain
            phis = phi(mags)
            phi_sum = phis.sum(axis=1)
            f, a_vals = self._forward_scan_tanh(
                phi_sum, parity, ch_pn, f_old, seg, q
            )
            a_sign = np.where(a_vals < 0, -1.0, 1.0)
            a_phi = phi(np.abs(a_vals))
            c_phi = phi(c_mag)
            b_mag = phi(phi_sum + c_phi)
            b = np.where(parity * c_sign < 0, -b_mag, b_mag)
            chain_phi = a_phi + c_phi
            out_mag = phi(
                phi_sum[:, None] - phis + chain_phi[:, None]
            )
            out_sign = (parity * a_sign * c_sign)[:, None] * row_sign
            out_rows = out_sign * out_mag

        c2v_in = out_rows.reshape(-1)[self._cn_unsort]

        # Parity-node posteriors: channel + both incident chain messages.
        # PN j hears f[j] (from CN j) and b[j+1] (from CN j+1); the last
        # parity node has degree 1 and hears only f.
        pn_posteriors = ch_pn + f
        pn_posteriors[:-1] += b[1:]

        b_store = np.zeros(n_par + 1, dtype=np.float64)
        b_store[1:n_par] = b[1:]
        return c2v_in, f, b_store, pn_posteriors

    # ------------------------------------------------------------------
    def _correct(self, mags: np.ndarray) -> np.ndarray:
        """Apply normalization/offset to check-node output magnitudes."""
        out = self.normalization * mags - self.offset
        return np.maximum(out, 0.0)

    def _forward_scan_minsum(
        self,
        min1: np.ndarray,
        parity: np.ndarray,
        ch_pn: np.ndarray,
        f_old: np.ndarray,
        seg: int,
        q: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sequential forward update, vectorized across chain segments.

        Returns the fresh forward messages ``f`` (CN j → PN j) and the
        chain inputs ``a`` (PN j-1 → CN j) actually used, both length
        ``n_parity`` in global CN order.
        """
        min1_s = min1.reshape(seg, q)
        parity_s = parity.reshape(seg, q)
        ch_s = ch_pn.reshape(seg, q)
        f = np.empty((seg, q), dtype=np.float64)
        a_used = np.empty((seg, q), dtype=np.float64)
        # Boundary chain input: segment p starts at CN p*q, whose chain
        # input comes from PN p*q - 1, i.e. channel + previous iteration's
        # forward message.  Segment 0 has no predecessor (CN 0 sees only
        # its self edge): neutral input.
        starts = np.arange(seg) * q
        a = np.empty(seg, dtype=np.float64)
        a[0] = _NEUTRAL_MAG  # sign +, infinite magnitude = neutral
        if seg > 1:
            a[1:] = ch_pn[starts[1:] - 1] + f_old[starts[1:] - 1]
        for t in range(q):
            a_used[:, t] = a
            a_sign = np.where(a < 0, -1.0, 1.0)
            mag = self._correct(np.minimum(min1_s[:, t], np.abs(a)))
            f_t = parity_s[:, t] * a_sign * mag
            f[:, t] = f_t
            a = ch_s[:, t] + f_t
        return f.reshape(-1), a_used.reshape(-1)

    def _forward_scan_tanh(
        self,
        phi_sum: np.ndarray,
        parity: np.ndarray,
        ch_pn: np.ndarray,
        f_old: np.ndarray,
        seg: int,
        q: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Forward scan for the tanh kernel (phi-domain combine)."""
        phi_s = phi_sum.reshape(seg, q)
        parity_s = parity.reshape(seg, q)
        ch_s = ch_pn.reshape(seg, q)
        f = np.empty((seg, q), dtype=np.float64)
        a_used = np.empty((seg, q), dtype=np.float64)
        starts = np.arange(seg) * q
        a = np.full(seg, _NEUTRAL_MAG)
        if seg > 1:
            a[1:] = ch_pn[starts[1:] - 1] + f_old[starts[1:] - 1]
        for t in range(q):
            a_used[:, t] = a
            a_sign = np.where(a < 0, -1.0, 1.0)
            mag = phi(phi_s[:, t] + phi(np.abs(a)))
            f_t = parity_s[:, t] * a_sign * mag
            f[:, t] = f_t
            a = ch_s[:, t] + f_t
        return f.reshape(-1), a_used.reshape(-1)
