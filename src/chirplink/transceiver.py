"""DFT-spread-OFDM modulator and single-tap MMSE frequency-domain receiver.

Transmit chain: map QPSK symbols onto every R-th input of an M-point DFT,
weight the DFT output with the shaping filter, place the M shaped values
on an N-point grid (natural FFT order: subcarrier k sits at bin k mod N,
guard bins zero), N-point IDFT, prepend a cyclic prefix.

Receive chain (channel response and shaping filter known): drop the CP,
N-point DFT, extract the occupied band, maximal-ratio combine the R
frequency copies, single-tap MMSE equalize, despread with an (M/R)-point
IDFT, slice.

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

import numpy as np

from . import numerics
from .fdss import FdssFilter


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
        if self.subcarriers < 1 or self.subcarriers > self.idft_size:
            raise ValueError("need 1 <= subcarriers <= idft_size")
        if not 0 <= self.cp_len < self.idft_size:
            raise ValueError("need 0 <= cp_len < idft_size")
        if self.repetition < 1 or self.subcarriers % self.repetition:
            raise ValueError("repetition must divide the subcarrier count")

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
    """Payload of one symbol: its complex data symbols."""

    symbols: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "symbols", np.asarray(self.symbols, dtype=complex))

    @classmethod
    def from_bits(cls, bits) -> "DataFrame":
        return cls(qpsk_map(bits))


@dataclass(frozen=True)
class TxSignal:
    """One transmitted symbol: CP + body, plus the shaped spectrum.

    ``freq_symbols[i]`` is the post-shaping value on subcarrier l_down + i,
    kept for diagnostics and tests.
    """

    samples: np.ndarray
    freq_symbols: np.ndarray


def qpsk_map(bits) -> np.ndarray:
    """Gray-mapped QPSK: bit pair (b0, b1) -> ((1-2*b0) + j(1-2*b1))/sqrt(2)."""
    bits = np.asarray(bits, dtype=int)
    if bits.ndim != 1 or bits.size % 2:
        raise ValueError("bit count must be even")
    pairs = bits.reshape(-1, 2)
    return ((1 - 2 * pairs[:, 0]) + 1j * (1 - 2 * pairs[:, 1])) / np.sqrt(2)


def qpsk_demap(symbols) -> np.ndarray:
    """Hard quadrant slicing back to bits; inverse of :func:`qpsk_map`."""
    symbols = np.asarray(symbols, dtype=complex)
    bits = np.empty(2 * len(symbols), dtype=int)
    bits[0::2] = symbols.real < 0
    bits[1::2] = symbols.imag < 0
    return bits


def _amplitude(cfg: FrameConfig) -> float:
    # Makes E|sample|^2 = 1: the body is (1/N) sum_k c_k U_k e^{...} with
    # E|U_k|^2 = M/R and sum |c_k|^2 = M, i.e. raw mean power (M/N)^2 / R.
    return cfg.idft_size * np.sqrt(cfg.repetition) / cfg.subcarriers


def modulate(data: DataFrame, filt: FdssFilter, cfg: FrameConfig) -> TxSignal:
    """Synthesize one CP-prefixed symbol from a data frame.

    The M-point DFT of the sparse input (data on every R-th bin) is R tiled
    copies of the (M/R)-point DFT of the data, computed directly in that
    form so the repetition structure is exact.
    """
    if filt.m != cfg.subcarriers:
        raise ValueError("filter band does not match the frame configuration")
    d = np.asarray(data.symbols, dtype=complex)
    if len(d) != cfg.symbols_per_frame:
        raise ValueError(f"expected {cfg.symbols_per_frame} symbols, got {len(d)}")
    if not np.all(np.isfinite(d)):
        raise ValueError("data symbols must be finite")
    n, m = cfg.idft_size, cfg.subcarriers
    spread = np.tile(numerics.dft(d), cfg.repetition)  # M-point DFT of the sparse input
    ks = filt.subcarriers
    shaped = filt.coeffs * spread[ks % m]
    grid = np.zeros(n, dtype=complex)
    grid[ks % n] = shaped
    body = numerics.dft(grid, inverse=True) * _amplitude(cfg)
    samples = np.concatenate([body[n - cfg.cp_len :], body])
    return TxSignal(samples, shaped)


def demodulate(
    rx,
    channel_freq,
    filt: FdssFilter,
    cfg: FrameConfig,
    noise_var: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Recover data symbols and soft bits from one received symbol.

    Parameters
    ----------
    rx : array
        ``idft_size + cp_len`` received samples.
    channel_freq : array
        Channel frequency response on the occupied band, aligned with
        ``filt.subcarriers`` (genie knowledge; all-ones for AWGN).
    noise_var : float
        Per-subcarrier noise variance at the equalizer plane; ``1/noise_var``
        is the per-subcarrier SNR.  Zero selects the zero-forcing limit,
        which needs a nonzero combined gain on every bin.

    Returns
    -------
    (symbols, soft_bits)
        MMSE symbol estimates (biased, as usual for MMSE) and
        LLR-proportional soft bit values, two per symbol (real then imag).
    """
    rx = np.asarray(rx, dtype=complex)
    if rx.ndim != 1 or len(rx) == 0:
        raise ValueError("rx must be a nonempty sample vector")
    if len(rx) != cfg.samples_per_frame:
        raise ValueError(f"expected {cfg.samples_per_frame} samples, got {len(rx)}")
    if not np.all(np.isfinite(rx)):
        raise ValueError("rx must be finite")
    if filt.m != cfg.subcarriers:
        raise ValueError("filter band does not match the frame configuration")
    if not (np.isfinite(noise_var) and noise_var >= 0):
        raise ValueError(f"noise_var must be finite and >= 0, got {noise_var}")
    h = np.asarray(channel_freq, dtype=complex)
    if h.shape != (cfg.subcarriers,):
        raise ValueError("channel_freq must cover the occupied band")
    if not np.all(np.isfinite(h)):
        raise ValueError("channel_freq must be finite")
    n, m, r = cfg.idft_size, cfg.subcarriers, cfg.repetition
    ks = filt.subcarriers
    spectrum = numerics.dft(rx[cfg.cp_len :])
    # Undo the transmit scaling so the data spectrum has unit average power.
    band = spectrum[ks % n] * (np.sqrt(m) / n)
    gain = h * filt.coeffs
    per_group = m // r
    combined = (np.conj(gain) * band).reshape(r, per_group).sum(axis=0)
    combined_gain = (np.abs(gain) ** 2).reshape(r, per_group).sum(axis=0)
    if noise_var == 0 and not np.all(combined_gain > 0):
        raise ValueError(
            "noise_var = 0 (zero-forcing) needs nonzero combined gain on every bin;"
            f" {int(np.sum(combined_gain == 0))} of {per_group} bins have none"
        )
    equalized = combined / (combined_gain + noise_var)
    # Despread: subcarrier kappa carries bin kappa mod (M/R) of the data DFT.
    kappa = ks[:per_group]
    despread_in = np.zeros(per_group, dtype=complex)
    despread_in[kappa % per_group] = equalized
    symbols = numerics.dft(despread_in, inverse=True) * np.sqrt(per_group)
    soft = np.empty(2 * per_group)
    soft[0::2] = symbols.real
    soft[1::2] = symbols.imag
    return symbols, soft
