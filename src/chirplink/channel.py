"""Multipath channel model: Rician first tap, Rayleigh echoes.

The default profile is a three-tap power-delay profile of {0, -10, -20} dB
at consecutive sample delays, first tap Rician with K = 10 (linear), the
rest Rayleigh.  Tap powers are normalized so the average channel energy is
one.  A realization is held constant over a symbol and redrawn per frame.

A realization is the complex gains of the profile's K taps: shape (K,) for
one frame, or (B, K) for a block of B frames; ``apply`` and
``freq_response`` then act on each frame along the last axis, row for row
as the single-frame calls would.  The profile holds the delays, so neither
builds an array over delays 0 .. max_delay: ``apply`` is a tapped delay
line over the K taps and ``freq_response`` gives the response on a few
bins, as the BER sweep takes it.
"""

from __future__ import annotations

import math
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
        if not (math.isfinite(self.rician_k) and self.rician_k >= 0):
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


def _taps(profile: ChannelProfile, taps) -> np.ndarray:
    """The caller's tap gains as a complex array, checked: K finite gains on the last axis."""
    taps = np.asarray(taps, dtype=complex)
    k = len(profile.tap_delays)
    if taps.ndim < 1 or taps.shape[-1] != k or not np.all(np.isfinite(taps)):
        raise ValueError(f"taps must be finite, {k} on the last axis, got shape {taps.shape}")
    return taps


def draw(
    profile: ChannelProfile, rng: np.random.Generator, count: int | None = None
) -> np.ndarray:
    """Draw the complex gains of the profile's K taps, shape (K,), or (count, K).

    Tap 0 is Rician: deterministic component sqrt(p0*K/(K+1)) plus circular
    complex Gaussian of variance p0/(K+1).  Remaining taps are circular
    complex Gaussian (Rayleigh envelopes) with variances p_i.  All normals
    come from one ``standard_normal((count, K, 2))`` call, so row i equals
    the (i+1)-th of ``count`` single draws from the same generator.
    ``count`` is None or an integer >= 0.
    """
    if count is not None and require_number("count", count, count=True) < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    p = profile.tap_powers
    k = profile.rician_k
    scale = np.sqrt(p / 2.0)
    scale[0] = np.sqrt(p[0] / (k + 1.0) / 2.0)
    lead = () if count is None else (count,)
    normals = rng.standard_normal(lead + (len(p), 2))
    taps = scale * (normals[..., 0] + 1j * normals[..., 1])
    taps[..., 0] += np.sqrt(p[0] * k / (k + 1.0))
    return taps


def apply(signal, profile: ChannelProfile, taps) -> np.ndarray:
    """Tapped-delay-line filtering (no noise), truncated to the input length.

    y_t = sum_i g_i x_{t - d_i} over the K taps.  The discarded convolution
    tail is what the cyclic prefix absorbs.  The result is a fresh array.
    """
    x = np.asarray(signal, dtype=complex)
    taps = _taps(profile, taps)
    length = x.shape[-1]
    if length < profile.max_delay:
        raise ValueError("signal shorter than the channel memory")
    y = np.zeros(np.broadcast_shapes(taps.shape[:-1] + (1,), x.shape), dtype=complex)
    for i, d in enumerate(profile.tap_delays):
        y[..., d:] += taps[..., i : i + 1] * x[..., : length - d]
    return y


def freq_response(profile: ChannelProfile, taps, bins, n: int) -> np.ndarray:
    """H_k = sum_i g_i e^{-j 2 pi (d_i k mod n) / n} on each of ``bins``.

    Shape (len(bins),) for one realization, (B, len(bins)) for B, in
    O(K * len(bins)) time and memory whatever n and the largest delay.
    ``bins`` is a 1-d sequence or array of integers.  The phase index
    d k mod n is exact: it is taken in Python integers, as d k can exceed
    int64.  For any frame whose CP covers the channel memory, the n-point
    DFT of the channel output equals H_k times the DFT of the body bin by
    bin.
    """
    taps = _taps(profile, taps)
    require_number("n", n, count=True)
    memory = profile.max_delay
    if n <= memory:
        raise ValueError(f"n must be > the channel memory {memory}, got {n}")
    bins = np.array([int(k) for k in require_numbers("bins", bins, count=True)], dtype=object)
    delays = np.array([int(d) for d in profile.tap_delays], dtype=object)
    index = np.outer(delays, bins) % int(n)
    steer = np.exp(-2j * np.pi * (index / int(n)).astype(float))
    return np.sum(taps[..., None] * steer, axis=-2)  # one order of sums: rows are single calls
