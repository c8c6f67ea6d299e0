"""Fast Monte-Carlo path using the batched decoder.

For BER curves the generic :class:`~repro.sim.ber.BerSimulator` accepts
any decoder; when plain normalized min-sum statistics are wanted, this
module's batched path decodes whole frame blocks as one matrix and is
typically 5-10x faster — full 64800-bit waterfalls become practical.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..channel.awgn import AwgnChannel
from ..codes.construction import LdpcCode
from ..decode.batch import DecoderSpec
from ..obs.iteration import IterationTraceRecorder
from .ber import BerResult


def fast_ber(
    code: LdpcCode,
    ebn0_db: float,
    frames: int = 100,
    max_iterations: int = 30,
    seed: int = 0,
    batch_size: int = 32,
    decoder=None,
    iteration_trace: Optional[IterationTraceRecorder] = None,
    channel=None,
    **recipe,
) -> BerResult:
    """All-zero-codeword BER measurement with batched decoding.

    Parameters mirror :func:`repro.sim.ber.measure_ber`; information-bit
    errors are counted (systematic prefix).  The decoder is ``decoder``
    when given, else the one built from ``recipe``:
    :class:`~repro.decode.batch.DecoderSpec` keywords with the spec's
    defaults (the paper's 6-bit fixed-point zigzag decoder); giving
    both is a ``TypeError``.  Results are bit-identical across
    backends.
    When an ``iteration_trace`` recorder is given, each batch's
    per-iteration convergence records are emitted with globally numbered
    frames (the recorder's ``frame_offset`` is advanced per batch);
    tracing does not change decoder outputs.
    ``channel`` overrides the default seeded AWGN channel with any
    object exposing ``llrs_all_zero(n, size=...)`` (e.g. a
    :func:`repro.channel.build_channel` fading or higher-order-
    modulation cell); when given, ``ebn0_db`` only labels the result
    and ``seed`` is ignored — the channel carries its own stream.
    """
    if frames < 1:
        raise ValueError("need at least one frame")
    if decoder is None:
        decoder = DecoderSpec(**recipe).build(code)
    elif recipe:
        raise TypeError("pass a decoder or recipe keywords, not both")
    if channel is None:
        channel = AwgnChannel(
            ebn0_db=ebn0_db, rate=float(code.profile.rate), seed=seed
        )
    k, n = code.k, code.n
    bit_errors = frame_errors = 0
    total_iterations = converged_frames = 0
    done = 0
    while done < frames:
        size = min(batch_size, frames - done)
        llrs = channel.llrs_all_zero(n, size=size)
        if iteration_trace is not None:
            iteration_trace.frame_offset = done
        result = decoder.decode_batch(
            llrs,
            max_iterations=max_iterations,
            early_stop=True,
            iteration_trace=iteration_trace,
        )
        info = result.bits[:, :k]
        errs = np.count_nonzero(info, axis=1)
        bit_errors += int(errs.sum())
        frame_errors += int((errs > 0).sum())
        total_iterations += int(result.iterations.sum())
        converged_frames += int(result.converged.sum())
        done += size
    return BerResult(
        ebn0_db=ebn0_db,
        frames=frames,
        bit_errors=bit_errors,
        frame_errors=frame_errors,
        total_bits=frames * k,
        total_iterations=total_iterations,
        converged_frames=converged_frames,
    )
