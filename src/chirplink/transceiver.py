"""DFT-spread-OFDM modulator and single-tap MMSE frequency-domain receiver.

Transmit chain: map QPSK symbols onto every R-th input of an M-point DFT,
weight the DFT output with the shaping filter, place the M shaped values
on an N-point grid (natural FFT order: subcarrier k sits at bin k mod N,
guard bins zero), N-point IDFT, prepend a cyclic prefix.

Receive chain (channel response and shaping filter known): drop the CP,
N-point DFT, extract the occupied band, maximal-ratio combine the R
frequency copies, single-tap MMSE equalize, despread with an (M/R)-point
IDFT, slice.

Both chains meet at the equalizer reference plane, the occupied band
scaled to unit average data power: ``TxSignal.band`` on the way out (the
time samples are built only when read), ``equalize`` on the way in, after
``demodulate``'s DFT and band extraction.

Every function works along the last axis: one frame is a 1-d array, a
block of B frames is the same call with a leading axis of length B, and
each row of a block is bit-identical to the single-frame call on it.

Conventions fixed here because they matter for reproducibility:

* Subcarrier-to-bin alignment is natural FFT order with negative indices
  wrapped modulo the transform size (k <-> k mod M and k mod N).
* The IDFT output is scaled so a frame of unit-energy data symbols has
  unit average sample power for every unit-average-power filter and any
  repetition factor.
* ``noise_var`` at the receiver is the per-subcarrier noise variance at
  the equalizer reference plane where the data spectrum has unit average
  power; the per-subcarrier SNR is its reciprocal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics
from .fdss import FdssFilter, band_limits


@dataclass(frozen=True)
class FrameConfig:
    """Numerology of one symbol: band size, transform size, CP, repetition.

    Defaults follow the 802.11ay OFDM PHY: 336 occupied subcarriers on a
    512-point transform, and a 96-sample CP (36.3 ns at the 512-sample
    symbol body of 193.4 ns).
    """

    subcarriers: int = 336
    idft_size: int = 512
    cp_len: int = 96
    repetition: int = 1

    def __post_init__(self):
        m, n = self.subcarriers, self.idft_size
        if not 1 <= m <= n:
            raise ValueError(f"need 1 <= subcarriers <= idft_size, got {m} and {n}")
        if not 0 <= self.cp_len < n:
            raise ValueError(f"need 0 <= cp_len < idft_size, got {self.cp_len} and {n}")
        if self.repetition < 1 or m % self.repetition:
            raise ValueError(f"repetition must divide the {m} subcarriers, got {self.repetition}")

    @property
    def symbols_per_frame(self) -> int:
        return self.subcarriers // self.repetition

    @property
    def bits_per_frame(self) -> int:
        return 2 * self.symbols_per_frame

    @property
    def samples_per_frame(self) -> int:
        return self.idft_size + self.cp_len


@dataclass(frozen=True)
class DataFrame:
    """Payload of one symbol, ``symbols`` of shape (S,), or of B symbols, (B, S)."""

    symbols: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "symbols", np.asarray(self.symbols, dtype=complex))

    @classmethod
    def from_bits(cls, bits) -> "DataFrame":
        return cls(qpsk_map(bits))


@dataclass(frozen=True)
class TxSignal:
    """Transmitted symbols: the shaped spectrum, and CP + body built from it.

    ``freq_symbols[..., i]`` is the post-shaping value on subcarrier
    l_down + i, shape (M,) for one frame or (B, M) for B.  ``band`` is the
    same spectrum at the equalizer reference plane: what ``demodulate``'s
    DFT and band extraction recover from ``samples`` over a noiseless flat
    channel.  ``samples``, shape (N + CP,) or (B, N + CP), are synthesized
    (IDFT, CP) on first access, so a caller that stays in the band never
    pays for them.
    """

    freq_symbols: np.ndarray
    cfg: FrameConfig

    @property
    def band(self) -> np.ndarray:
        """``freq_symbols * sqrt(R/M)``: the data spectrum at unit average power."""
        return self.freq_symbols * np.sqrt(self.cfg.repetition / self.cfg.subcarriers)

    @cached_property
    def samples(self) -> np.ndarray:
        cfg = self.cfg
        n = cfg.idft_size
        low, high = band_limits(cfg.subcarriers)
        grid = np.zeros(self.freq_symbols.shape[:-1] + (n,), dtype=complex)
        grid[..., np.arange(low, high + 1) % n] = self.freq_symbols
        body = numerics.dft(grid, inverse=True) * _amplitude(cfg)
        return np.concatenate([body[..., n - cfg.cp_len :], body], axis=-1)


#: Component level (1 - 2b)/sqrt(2) of bit b, at index b.
_LEVEL = np.array([1.0, -1.0]) / np.sqrt(2)


def qpsk_map(bits) -> np.ndarray:
    """Gray-mapped QPSK: bit pair (b0, b1) -> ((1-2*b0) + j(1-2*b1))/sqrt(2).

    Pairs are taken along the last axis, so (B, 2S) bits give (B, S) symbols.
    Every value must be 0 or 1, in any bool, integer or float dtype;
    unsigned input such as ``uint8`` needs only its maximum checked.
    """
    bits = np.asarray(bits)
    if bits.ndim == 0 or bits.shape[-1] % 2:
        raise ValueError("bit count must be even")
    if bits.dtype.kind in "bu":
        valid = bits.max(initial=0) <= 1
    else:
        valid = bits.dtype.kind in "if" and np.all((bits == 0) | (bits == 1))
    if not valid:
        raise ValueError("bits must be 0 or 1")
    # Each bit becomes one component level; a pair's two levels, adjacent in
    # memory, are the real and imaginary parts of its symbol.
    return _LEVEL.take(bits.astype(np.uint8, copy=False)).view(complex)


def qpsk_demap(symbols) -> np.ndarray:
    """Hard quadrant slicing back to ``uint8`` bits; inverse of :func:`qpsk_map`.

    Bit 2i is ``real(s_i) < 0`` and bit 2i + 1 is ``imag(s_i) < 0``.
    """
    symbols = np.ascontiguousarray(symbols, dtype=complex)
    return (symbols.view(float) < 0).view(np.uint8)


def _amplitude(cfg: FrameConfig) -> float:
    # Makes E|sample|^2 = 1: the body is (1/N) sum_k c_k U_k e^{...} with
    # E|U_k|^2 = M/R and sum |c_k|^2 = M, i.e. raw mean power (M/N)^2 / R.
    return cfg.idft_size * np.sqrt(cfg.repetition) / cfg.subcarriers


def modulate(data: DataFrame, filt: FdssFilter, cfg: FrameConfig) -> TxSignal:
    """Shape the spectrum of a data frame; the CP-prefixed symbols follow on demand.

    The M-point DFT of the sparse input (data on every R-th bin) is R tiled
    copies of the (M/R)-point DFT of the data, computed directly in that
    form so the repetition structure is exact.  The returned ``TxSignal``
    holds the shaped spectrum; its ``samples`` are synthesized when read.
    """
    if filt.m != cfg.subcarriers:
        raise ValueError("filter band does not match the frame configuration")
    d = np.asarray(data.symbols, dtype=complex)
    if d.shape[-1:] != (cfg.symbols_per_frame,):
        raise ValueError(
            f"expected {cfg.symbols_per_frame} symbols per frame, got shape {d.shape}"
        )
    if not np.all(np.isfinite(d)):
        raise ValueError("data symbols must be finite")
    spread = np.tile(numerics.dft(d), cfg.repetition)  # M-point DFT of the sparse input
    return TxSignal(filt.coeffs * spread[..., filt.subcarriers % cfg.subcarriers], cfg)


def demodulate(
    rx,
    channel_freq,
    filt: FdssFilter,
    cfg: FrameConfig,
    noise_var: float,
) -> np.ndarray:
    """Recover the data symbols of received symbols.

    Drops the CP, takes the N-point DFT, extracts the occupied band at the
    equalizer reference plane and hands it to :func:`equalize`.

    Parameters
    ----------
    rx : array
        ``idft_size + cp_len`` received samples, shape (N + CP,) for one
        frame or (B, N + CP) for B frames.
    channel_freq, noise_var
        As for :func:`equalize`.

    Returns
    -------
    symbols
        MMSE symbol estimates (biased, as usual for MMSE), with the leading
        shape of ``rx``.
    """
    rx = np.asarray(rx, dtype=complex)
    if rx.ndim == 0 or rx.size == 0:
        raise ValueError("rx must be a nonempty sample array")
    if rx.shape[-1] != cfg.samples_per_frame:
        raise ValueError(f"expected {cfg.samples_per_frame} samples, got {rx.shape[-1]}")
    if not np.all(np.isfinite(rx)):
        raise ValueError("rx must be finite")
    n = cfg.idft_size
    spectrum = numerics.dft(rx[..., cfg.cp_len :])
    # Undo the transmit scaling so the data spectrum has unit average power.
    band = spectrum[..., filt.subcarriers % n] * (np.sqrt(cfg.subcarriers) / n)
    return equalize(band, channel_freq, filt, cfg, noise_var)


def equalize(
    band,
    channel_freq,
    filt: FdssFilter,
    cfg: FrameConfig,
    noise_var: float,
) -> np.ndarray:
    """MRC, single-tap MMSE and despreading of occupied-band values.

    Parameters
    ----------
    band : array
        Received values on the occupied band at the equalizer reference
        plane, aligned with ``filt.subcarriers``: shape (M,) for one frame
        or (B, M) for B.  A noiseless flat channel gives ``TxSignal.band``.
    channel_freq : array
        Channel frequency response on the occupied band, aligned with
        ``filt.subcarriers`` (genie knowledge; all-ones for AWGN): shape
        (M,) for every frame alike, or (B, M), one row per frame of ``band``.
    noise_var : float
        Per-subcarrier noise variance at the equalizer plane; ``1/noise_var``
        is the per-subcarrier SNR.  Zero selects the zero-forcing limit,
        which needs a nonzero combined gain on every bin.

    Returns
    -------
    symbols
        MMSE symbol estimates (biased, as usual for MMSE), with the leading
        shape of ``band``.
    """
    if filt.m != cfg.subcarriers:
        raise ValueError("filter band does not match the frame configuration")
    m, r = cfg.subcarriers, cfg.repetition
    band = np.asarray(band, dtype=complex)
    if band.ndim == 0 or band.shape[-1] != m:
        raise ValueError(f"band must hold {m} values per frame, got shape {band.shape}")
    if not np.all(np.isfinite(band)):
        raise ValueError("band must be finite")
    if not (np.isfinite(noise_var) and noise_var >= 0):
        raise ValueError(f"noise_var must be finite and >= 0, got {noise_var}")
    h = np.asarray(channel_freq, dtype=complex)
    if h.shape not in ((m,), band.shape[:-1] + (m,)):
        raise ValueError("channel_freq must cover the occupied band, once or per frame")
    if not np.all(np.isfinite(h)):
        raise ValueError("channel_freq must be finite")
    gain = h * filt.coeffs
    combined = _fold(np.conj(gain) * band, r)
    combined_gain = _fold(np.abs(gain) ** 2, r)
    if noise_var == 0 and not np.all(combined_gain > 0):
        raise ValueError(
            "noise_var = 0 (zero-forcing) needs nonzero combined gain on every bin;"
            f" {int(np.sum(combined_gain == 0))} of {combined_gain.size} bins have none"
        )
    equalized = combined * (1.0 / (combined_gain + noise_var))
    # Despread: subcarrier kappa = l_down + i carries bin kappa mod (M/R) of
    # the data DFT, so the combined bins are that DFT rotated by l_down.
    per_group = m // r
    despread_in = np.roll(equalized, filt.l_down % per_group, axis=-1)
    return numerics.dft(despread_in, inverse=True) * np.sqrt(per_group)


def _fold(values: np.ndarray, r: int) -> np.ndarray:
    """Sum the R spectral copies: (..., M) -> (..., M/R)."""
    if r == 1:
        return values
    return values.reshape(values.shape[:-1] + (r, -1)).sum(axis=-2)
