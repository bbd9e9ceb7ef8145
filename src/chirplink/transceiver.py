"""DFT-spread-OFDM modulator and single-tap MMSE frequency-domain receiver.

Transmit chain: (M/R)-point DFT of the QPSK symbols, subcarrier k takes
bin k mod M/R times its shaping-filter weight, the M shaped values go on
an N-point grid (natural FFT order: subcarrier k sits at bin k mod N,
guard bins zero), N-point IDFT, prepend a cyclic prefix.

Receive chain (effective channel H_k * c_k known; the shaping filter is
part of it, not a receiver input): drop the CP, N-point DFT, extract the
occupied band, maximal-ratio combine the R frequency copies, single-tap
MMSE equalize, despread with an (M/R)-point IDFT, slice.

Both chains meet at the equalizer reference plane, the occupied band
at unit average data power: ``TxSignal.band`` on the way out (the time
samples are built only when read), ``equalize`` on the way in, after
``demodulate``'s DFT and band extraction.  ``equalize`` is MRC
(``_combine``, into data-bin order) then MMSE and despreading
(``_mmse_weights``, ``_despread``); the BER sweep forms its combined bins
with ``_combine``'s gain rule, ``_combined_gain``, and despreads them the same way.

Every function works along the last axis: one frame is a 1-d array, a
block of B frames is the same call with a leading axis of length B, and
each row of a block is bit-identical to the single-frame call on it.

Conventions fixed here because they matter for reproducibility:

* ``FrameConfig.bins`` is the one map of subcarrier k to grid bin k mod N.
* Every DFT is unitary.  The one other scale is sqrt(N/M) on the IDFT
  (sqrt(M/N) after the receiver DFT): it gives unit-energy data unit
  average sample power for every unit-average-power filter and any
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


#: Random frames in the ``chirplink analyze --mode papr`` report: the
#: largest array any command builds is these frames' N + CP samples.
PAPR_FRAMES = 100

#: Largest ``idft_size``: ``PAPR_FRAMES`` frames of N + CP < 2N complex
#: samples stay within numpy's largest array (intp-max bytes), 2882303761517117
#: on a 64-bit platform.  Whether such an array fits in memory is the
#: machine's limit, not a rule of the configuration.
MAX_IDFT_SIZE = np.iinfo(np.intp).max // (PAPR_FRAMES * 2 * np.dtype(complex).itemsize)


@dataclass(frozen=True)
class FrameConfig:
    """Numerology of one symbol: band size, transform size, CP, repetition.

    Defaults follow the 802.11ay OFDM PHY: 336 occupied subcarriers on a
    512-point transform, and a 96-sample CP (36.3 ns at the 512-sample
    symbol body of 193.4 ns).  ``idft_size`` is at most ``MAX_IDFT_SIZE``.
    """

    subcarriers: int = 336
    idft_size: int = 512
    cp_len: int = 96
    repetition: int = 1

    def __post_init__(self):
        for name in ("subcarriers", "idft_size", "cp_len", "repetition"):
            numerics.require_number(name, getattr(self, name), count=True)
        m, n = self.subcarriers, self.idft_size
        if n > MAX_IDFT_SIZE:
            raise ValueError(f"idft_size must be <= {MAX_IDFT_SIZE}, got {n}")
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

    @property
    def bins(self) -> np.ndarray:
        """Grid bin k mod N of each occupied subcarrier k = l_down .. l_up."""
        low, high = band_limits(self.subcarriers)
        return np.arange(low, high + 1) % self.idft_size


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

    ``band[..., i]`` is the post-shaping value on subcarrier l_down + i at
    the equalizer reference plane (unit average power), shape (M,) for one
    frame or (B, M) for B: what ``demodulate``'s DFT and band extraction
    recover from ``samples`` over a noiseless flat channel.  ``samples``,
    shape (N + CP,) or (B, N + CP), are synthesized (sqrt(N/M) times the
    IDFT, CP) on first access, so a caller that stays in the band never
    pays for them.
    """

    band: np.ndarray
    cfg: FrameConfig

    @cached_property
    def samples(self) -> np.ndarray:
        cfg = self.cfg
        n = cfg.idft_size
        grid = np.zeros(self.band.shape[:-1] + (n,), dtype=complex)
        grid[..., cfg.bins] = self.band
        body = numerics.dft(grid, inverse=True) * np.sqrt(n / cfg.subcarriers)
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


def modulate(data: DataFrame, filt: FdssFilter, cfg: FrameConfig) -> TxSignal:
    """Shape the spectrum of a data frame; the CP-prefixed symbols follow on demand.

    Subcarrier k carries bin k mod (M/R) of the unitary (M/R)-point data
    DFT, the rule that ``_in_data_order``'s roll by l_down mod (M/R) inverts, so
    the R copies are exact and each has unit average power.  The returned
    ``TxSignal`` holds the shaped band; its ``samples`` are synthesized when read.
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
    spread = numerics.dft(d)[..., filt.subcarriers % cfg.symbols_per_frame]
    return TxSignal(filt.coeffs * spread, cfg)


def demodulate(rx, gain, cfg: FrameConfig, noise_var: float) -> np.ndarray:
    """Recover the data symbols of received symbols.

    Drops the CP, takes the N-point DFT, extracts the occupied band times
    sqrt(M/N) (the equalizer reference plane) and hands it to :func:`equalize`.

    Parameters
    ----------
    rx : array
        ``idft_size + cp_len`` received samples, shape (N + CP,) for one
        frame or (B, N + CP) for B frames.
    gain, noise_var
        As for :func:`equalize`.

    Returns
    -------
    symbols
        MMSE symbol estimates (biased, as usual for MMSE), with the leading
        shape of ``rx``.
    """
    rx, length = np.asarray(rx, dtype=complex), cfg.samples_per_frame
    if rx.size == 0 or rx.shape[-1:] != (length,) or not np.all(np.isfinite(rx)):
        raise ValueError(f"rx must hold {length} finite samples per frame, got shape {rx.shape}")
    spectrum = numerics.dft(rx[..., cfg.cp_len :])
    band = spectrum[..., cfg.bins] * np.sqrt(cfg.subcarriers / cfg.idft_size)
    return equalize(band, gain, cfg, noise_var)


def equalize(band, gain, cfg: FrameConfig, noise_var: float) -> np.ndarray:
    """MRC, single-tap MMSE and despreading of occupied-band values.

    Parameters
    ----------
    band : array
        Received values on the occupied band at the equalizer reference
        plane, subcarriers k = l_down .. l_up in order: shape (M,) for one
        frame or (B, M) for B.  A noiseless flat channel gives ``TxSignal.band``.
    gain : array
        Effective channel H_k * c_k on the same subcarriers (genie channel
        times shaping filter; ``filt.coeffs`` for AWGN): shape (M,) for
        every frame alike, or (B, M), one row per frame of ``band``.
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
    m = cfg.subcarriers
    band = np.asarray(band, dtype=complex)
    if band.shape[-1:] != (m,) or not np.all(np.isfinite(band)):
        raise ValueError(f"band must hold {m} finite values per frame, got shape {band.shape}")
    if not (np.isfinite(noise_var) and noise_var >= 0):
        raise ValueError(f"noise_var must be finite and >= 0, got {noise_var}")
    gain = np.asarray(gain, dtype=complex)
    if gain.shape not in ((m,), band.shape) or not np.all(np.isfinite(gain)):
        raise ValueError(f"gain must be finite, of shape {(m,)} or {band.shape}, got {gain.shape}")
    combined, combined_gain = _combine(band, gain, cfg)
    return _despread(combined, _mmse_weights(combined_gain, noise_var))


def _combine(band: np.ndarray, gain: np.ndarray, cfg: FrameConfig) -> tuple[np.ndarray, np.ndarray]:
    """MRC over the R copies: the combined values sum conj(gain) * band, their gain |gain|^2.

    Both come back on the M/R combined bins in data-bin order (see
    ``_in_data_order``), so a noiseless band gives G_j * X_j at index j.
    """
    return _in_data_order(np.conj(gain) * band, cfg), _combined_gain(gain, cfg)


def _combined_gain(gain: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """G_j, the sum of |gain|^2 over the R copies of data bin j: (..., M) -> (..., M/R)."""
    return _in_data_order(np.abs(gain) ** 2, cfg)


def _in_data_order(values: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """Sum the R copies, (..., M) -> (..., M/R), into data-bin order.

    The fold starts at bin l_down mod (M/R); rolling by that shift is the one
    place the rotation of ``modulate``'s subcarrier-to-data-bin map is undone.
    """
    shift = band_limits(cfg.subcarriers)[0] % cfg.symbols_per_frame
    return np.roll(_fold(values, cfg.repetition), shift, axis=-1)


def _mmse_weights(combined_gain: np.ndarray, noise_var: float) -> np.ndarray:
    """The single-tap MMSE weights 1/(G + noise_var) of the combined bins."""
    if noise_var == 0 and not np.all(combined_gain > 0):
        raise ValueError(
            "noise_var = 0 (zero-forcing) needs nonzero combined gain on every bin;"
            f" {int(np.sum(combined_gain == 0))} of {combined_gain.size} bins have none"
        )
    return 1.0 / (combined_gain + noise_var)


def _despread(combined: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The combined bins times ``_mmse_weights``, then the (M/R)-point despreading IDFT."""
    return numerics.dft(combined * weights, inverse=True)


def _fold(values: np.ndarray, r: int) -> np.ndarray:
    """Sum the R spectral copies: (..., M) -> (..., M/R)."""
    if r == 1:
        return values
    return values.reshape(values.shape[:-1] + (r, -1)).sum(axis=-2)
