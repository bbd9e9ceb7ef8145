"""Multipath channel model: Rician first tap, Rayleigh echoes.

The default profile is a three-tap power-delay profile of {0, -10, -20} dB
at consecutive sample delays, first tap Rician with K = 10 (linear), the
rest Rayleigh.  Tap powers are normalized so the average channel energy is
one.  A realization is held constant over a symbol and redrawn per frame.

A realization is its impulse response: a complex array over delays
0 .. max_delay, each tap at its delay.  It may hold one frame, shape
(max_delay + 1,), or a block of B frames, (B, max_delay + 1); ``apply`` and
``freq_response`` then act on each frame along the last axis, row for row
as the single-frame calls would.  ``steering`` gives the frequency response
on a few bins from the taps alone, as the BER sweep takes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import require_number, require_numbers


@dataclass(frozen=True)
class ChannelProfile:
    tap_powers_db: tuple = (0.0, -10.0, -20.0)
    rician_k: float = 10.0
    tap_delays: tuple = (0, 1, 2)

    def __post_init__(self):
        powers = tuple(float(p) for p in require_numbers("tap_powers_db", self.tap_powers_db))
        delays = require_numbers("tap_delays", self.tap_delays, count=True)
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
        require_number("rician_k", self.rician_k)
        if not (np.isfinite(self.rician_k) and self.rician_k >= 0):
            raise ValueError(f"rician_k must be finite and >= 0, got {self.rician_k}")

    @property
    def tap_powers(self) -> np.ndarray:
        """Linear tap powers normalized to unit total (relative to the strongest tap first)."""
        top = max(self.tap_powers_db)  # in floats, a span past their range is -inf: no warning
        p = 10.0 ** (np.array([d - top for d in self.tap_powers_db]) / 10.0)
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

    ``draw_taps``' gains, each written to its delay; delays without a tap
    are zero.  Row i equals the (i+1)-th of ``count`` single draws from the
    same generator.
    """
    taps = draw_taps(profile, rng, count)
    h = np.zeros(taps.shape[:-1] + (profile.max_delay + 1,), dtype=complex)
    h[..., list(profile.tap_delays)] = taps
    return h


def draw_taps(
    profile: ChannelProfile, rng: np.random.Generator, count: int | None = None
) -> np.ndarray:
    """Draw the complex gains of the profile's K taps, shape (K,), or (count, K).

    Tap 0 is Rician: deterministic component sqrt(p0*K/(K+1)) plus circular
    complex Gaussian of variance p0/(K+1).  Remaining taps are circular
    complex Gaussian (Rayleigh envelopes) with variances p_i.  All normals
    come from one ``standard_normal((count, K, 2))`` call, so ``draw`` and
    ``draw_taps`` take the same numbers from a generator.
    """
    p = profile.tap_powers
    k = profile.rician_k
    scale = np.sqrt(p / 2.0)
    scale[0] = np.sqrt(p[0] / (k + 1.0) / 2.0)
    lead = () if count is None else (count,)
    normals = rng.standard_normal(lead + (len(p), 2))
    taps = scale * (normals[..., 0] + 1j * normals[..., 1])
    taps[..., 0] += np.sqrt(p[0] * k / (k + 1.0))
    return taps


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


def steering(delays, bins, n: int) -> np.ndarray:
    """e^{-j 2 pi (d k mod n) / n} for each delay d (rows) and bin k (columns).

    ``h[..., delays] @ steering(delays, bins, n)`` equals
    ``freq_response(h, n)[..., bins]`` for an impulse response that is zero
    off ``delays``, in O(len(delays) * len(bins)) time and memory whatever
    n and the largest delay.  The phase index d k mod n is exact: it is
    taken in Python integers, as d k can exceed int64.
    """
    index = np.outer(np.array([int(d) for d in delays], dtype=object),
                     np.asarray(bins).astype(object)) % int(n)
    return np.exp(-2j * np.pi * (index / int(n)).astype(float))
