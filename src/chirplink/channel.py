"""Multipath channel model: Rician first tap, Rayleigh echoes, AWGN.

The default profile is a three-tap power-delay profile of {0, -10, -20} dB
at consecutive sample delays, first tap Rician with K = 10 (linear), the
rest Rayleigh.  Tap powers are normalized so the average channel energy is
one.  A realization is held constant over a symbol and redrawn per frame.
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
        if self.rician_k < 0:
            raise ValueError("rician_k must be >= 0")

    @property
    def tap_powers(self) -> np.ndarray:
        """Linear tap powers normalized to unit total."""
        p = 10.0 ** (np.asarray(self.tap_powers_db) / 10.0)
        return p / p.sum()

    @property
    def max_delay(self) -> int:
        return self.tap_delays[-1]


def awgn_profile() -> ChannelProfile:
    """Single unit tap at delay zero: the channel reduces to pure AWGN."""
    return ChannelProfile((0.0,), 0.0, (0,))


@dataclass(frozen=True)
class ChannelRealization:
    taps: np.ndarray
    delays: tuple

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=complex)
        delays = tuple(int(d) for d in self.delays)
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps must be finite")
        if taps.shape != (len(delays),) or not delays or min(delays) < 0:
            raise ValueError("need one non-negative delay per tap")
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "delays", delays)

    @cached_property
    def impulse(self) -> np.ndarray:
        """Impulse response over delays 0 .. max delay (taps summed per delay)."""
        h = np.zeros(max(self.delays) + 1, dtype=complex)
        np.add.at(h, list(self.delays), self.taps)
        return h


def draw(profile: ChannelProfile, rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization.

    Tap 0 is Rician: deterministic component sqrt(p0*K/(K+1)) plus circular
    complex Gaussian of variance p0/(K+1).  Remaining taps are circular
    complex Gaussian (Rayleigh envelopes) with variances p_i.
    """
    p = profile.tap_powers
    k = profile.rician_k
    scale = np.sqrt(p / 2.0)
    scale[0] = np.sqrt(p[0] / (k + 1.0) / 2.0)
    normals = rng.standard_normal((len(p), 2))
    taps = scale * (normals[:, 0] + 1j * normals[:, 1])
    taps[0] += np.sqrt(p[0] * k / (k + 1.0))
    return ChannelRealization(taps, profile.tap_delays)


def apply(
    signal, ch: ChannelRealization, noise_var: float, rng: np.random.Generator
) -> np.ndarray:
    """Tapped-delay-line filtering plus AWGN, truncated to the input length.

    The discarded convolution tail is what the cyclic prefix absorbs.
    ``noise_var`` is the complex noise variance per time-domain sample.
    """
    x = np.asarray(signal, dtype=complex)
    if len(x) < ch.delays[-1]:
        raise ValueError("signal shorter than the channel memory")
    y = np.convolve(x, ch.impulse)[: len(x)]
    if noise_var > 0:
        scale = np.sqrt(noise_var / 2.0)
        y = y + scale * (rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x)))
    return y


def freq_response(ch: ChannelRealization, n: int) -> np.ndarray:
    """Frequency response H_k = sum_i tap_i e^{-j 2 pi k d_i / n}, natural order.

    For any frame whose CP covers the channel memory, the DFT of the
    channel output equals H_k times the DFT of the body bin by bin.
    """
    if n <= max(ch.delays):
        raise ValueError(f"need n > the channel memory {max(ch.delays)}, got n = {n}")
    return np.fft.fft(ch.impulse, n)
