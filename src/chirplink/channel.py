"""Multipath channel model: Rician first tap, Rayleigh echoes.

The default profile is a three-tap power-delay profile of {0, -10, -20} dB
at consecutive sample delays, first tap Rician with K = 10 (linear), the
rest Rayleigh.  Tap powers are normalized so the average channel energy is
one.  A realization is held constant over a symbol and redrawn per frame.

A realization may carry one frame's taps, shape (L,), or a block of B
frames' taps, (B, L); ``apply`` and ``freq_response`` then act on each
frame along the last axis, row for row as the single-frame calls would.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class ChannelProfile:
    tap_powers_db: tuple = (0.0, -10.0, -20.0)
    rician_k: float = 10.0
    tap_delays: tuple = (0, 1, 2)

    def __post_init__(self):
        powers = tuple(float(p) for p in self.tap_powers_db)
        delays = tuple(int(d) for d in self.tap_delays)
        object.__setattr__(self, "tap_powers_db", powers)
        object.__setattr__(self, "tap_delays", delays)
        if len(powers) != len(delays) or not powers:
            raise ValueError("need matching, nonempty tap powers and delays")
        if not all(np.isfinite(powers)):
            raise ValueError("tap powers must be finite")
        if any(d < 0 for d in delays) or any(
            b <= a for a, b in zip(delays, delays[1:])
        ):
            raise ValueError("tap delays must be non-negative and strictly increasing")
        if not (np.isfinite(self.rician_k) and self.rician_k >= 0):
            raise ValueError(f"rician_k must be finite and >= 0, got {self.rician_k}")

    @property
    def tap_powers(self) -> np.ndarray:
        """Linear tap powers normalized to unit total."""
        p = 10.0 ** (np.asarray(self.tap_powers_db) / 10.0)
        return p / p.sum()

    @property
    def max_delay(self) -> int:
        return self.tap_delays[-1]


@dataclass(frozen=True)
class ChannelRealization:
    taps: np.ndarray
    delays: tuple

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=complex)
        delays = tuple(int(d) for d in self.delays)
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps must be finite")
        if taps.shape[-1:] != (len(delays),) or not delays or min(delays) < 0:
            raise ValueError("need one non-negative delay per tap")
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "delays", delays)

    @cached_property
    def impulse(self) -> np.ndarray:
        """Impulse response over delays 0 .. max delay (taps summed per delay)."""
        h = np.zeros(self.taps.shape[:-1] + (max(self.delays) + 1,), dtype=complex)
        for i, d in enumerate(self.delays):
            h[..., d] += self.taps[..., i]
        return h


def draw(
    profile: ChannelProfile, rng: np.random.Generator, count: int | None = None
) -> ChannelRealization:
    """Draw one channel realization, or ``count`` of them as (count, L) taps.

    Tap 0 is Rician: deterministic component sqrt(p0*K/(K+1)) plus circular
    complex Gaussian of variance p0/(K+1).  Remaining taps are circular
    complex Gaussian (Rayleigh envelopes) with variances p_i.  All normals
    come from one ``standard_normal((count, L, 2))`` call, so row i equals
    the (i+1)-th of ``count`` single draws from the same generator.
    """
    p = profile.tap_powers
    k = profile.rician_k
    scale = np.sqrt(p / 2.0)
    scale[0] = np.sqrt(p[0] / (k + 1.0) / 2.0)
    lead = () if count is None else (count,)
    normals = rng.standard_normal(lead + (len(p), 2))
    taps = scale * (normals[..., 0] + 1j * normals[..., 1])
    taps[..., 0] += np.sqrt(p[0] * k / (k + 1.0))
    return ChannelRealization(taps, profile.tap_delays)


def apply(signal, ch: ChannelRealization) -> np.ndarray:
    """Tapped-delay-line filtering (no noise), truncated to the input length.

    The discarded convolution tail is what the cyclic prefix absorbs.  The
    result is a fresh array.
    """
    x = np.asarray(signal, dtype=complex)
    h = ch.impulse
    length = x.shape[-1]
    if length < h.shape[-1] - 1:
        raise ValueError("signal shorter than the channel memory")
    # y_k = sum_d h_d x_{k-d}, one shifted multiply-add per delay.
    y = h[..., :1] * x
    for d in range(1, h.shape[-1]):
        y[..., d:] += h[..., d : d + 1] * x[..., : length - d]
    return y


def freq_response(ch: ChannelRealization, n: int) -> np.ndarray:
    """Frequency response H_k = sum_i tap_i e^{-j 2 pi k d_i / n}, natural order.

    Shape (n,) for one realization, (B, n) for B.  For any frame whose CP
    covers the channel memory, the DFT of the channel output equals H_k
    times the DFT of the body bin by bin.
    """
    if n <= max(ch.delays):
        raise ValueError(f"need n > the channel memory {max(ch.delays)}, got n = {n}")
    return np.fft.fft(ch.impulse, n, axis=-1)
