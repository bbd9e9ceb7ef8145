"""Multipath channel model: Rician first tap, Rayleigh echoes.

The default profile is a three-tap power-delay profile of {0, -10, -20} dB
at consecutive sample delays, first tap Rician with K = 10 (linear), the
rest Rayleigh.  Tap powers are normalized so the average channel energy is
one.  A realization is held constant over a symbol and redrawn per frame.

A realization is its impulse response: a complex array over delays
0 .. max_delay, each tap at its delay.  It may hold one frame, shape
(max_delay + 1,), or a block of B frames, (B, max_delay + 1); ``apply`` and
``freq_response`` then act on each frame along the last axis, row for row
as the single-frame calls would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelProfile:
    tap_powers_db: tuple = (0.0, -10.0, -20.0)
    rician_k: float = 10.0
    tap_delays: tuple = (0, 1, 2)

    def __post_init__(self):
        if not all(float(d).is_integer() for d in self.tap_delays):
            raise ValueError(f"tap_delays must be whole samples, got {list(self.tap_delays)}")
        powers = tuple(float(p) for p in self.tap_powers_db)
        delays = tuple(int(d) for d in self.tap_delays)
        object.__setattr__(self, "tap_powers_db", powers)
        object.__setattr__(self, "tap_delays", delays)
        if len(powers) != len(delays) or not powers:
            raise ValueError("tap_powers_db and tap_delays must be nonempty and of equal length")
        if not all(np.isfinite(powers)):
            raise ValueError("tap_powers_db must be finite")
        if any(d < 0 for d in delays) or any(
            b <= a for a, b in zip(delays, delays[1:])
        ):
            raise ValueError("tap_delays must be non-negative and strictly increasing")
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


def _impulse(h) -> np.ndarray:
    """The caller's impulse response as a complex array, checked nonempty and finite."""
    h = np.asarray(h, dtype=complex)
    if h.ndim < 1 or h.shape[-1] == 0 or not np.all(np.isfinite(h)):
        raise ValueError(f"impulse response must be nonempty and finite, got shape {h.shape}")
    return h


def draw(
    profile: ChannelProfile, rng: np.random.Generator, count: int | None = None
) -> np.ndarray:
    """Draw one impulse response, shape (max_delay + 1,), or ``count`` as (count, ·).

    Tap 0 is Rician: deterministic component sqrt(p0*K/(K+1)) plus circular
    complex Gaussian of variance p0/(K+1).  Remaining taps are circular
    complex Gaussian (Rayleigh envelopes) with variances p_i.  Each tap is
    written to its delay; delays without a tap are zero.  All normals come
    from one ``standard_normal((count, L, 2))`` call, so row i equals the
    (i+1)-th of ``count`` single draws from the same generator.
    """
    p = profile.tap_powers
    k = profile.rician_k
    scale = np.sqrt(p / 2.0)
    scale[0] = np.sqrt(p[0] / (k + 1.0) / 2.0)
    lead = () if count is None else (count,)
    normals = rng.standard_normal(lead + (len(p), 2))
    delays = list(profile.tap_delays)
    h = np.zeros(lead + (profile.max_delay + 1,), dtype=complex)
    h[..., delays] = scale * (normals[..., 0] + 1j * normals[..., 1])
    h[..., delays[0]] += np.sqrt(p[0] * k / (k + 1.0))
    return h


def apply(signal, h) -> np.ndarray:
    """Tapped-delay-line filtering (no noise), truncated to the input length.

    The discarded convolution tail is what the cyclic prefix absorbs.  The
    result is a fresh array.
    """
    x = np.asarray(signal, dtype=complex)
    h = _impulse(h)
    length = x.shape[-1]
    if length < h.shape[-1] - 1:
        raise ValueError("signal shorter than the channel memory")
    # y_k = sum_d h_d x_{k-d}, one shifted multiply-add per delay.
    y = h[..., :1] * x
    for d in range(1, h.shape[-1]):
        y[..., d:] += h[..., d : d + 1] * x[..., : length - d]
    return y


def freq_response(h, n: int) -> np.ndarray:
    """Frequency response H_k = sum_d h_d e^{-j 2 pi k d / n}, natural order.

    Shape (n,) for one impulse response, (B, n) for B.  For any frame whose
    CP covers the channel memory, the DFT of the channel output equals H_k
    times the DFT of the body bin by bin.
    """
    h = _impulse(h)
    memory = h.shape[-1] - 1
    if n <= memory:
        raise ValueError(f"need n > the channel memory {memory}, got n = {n}")
    return np.fft.fft(h, n, axis=-1)
