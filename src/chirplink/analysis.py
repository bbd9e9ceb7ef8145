"""Closed-form link performance and signal diagnostics.

``snr_post`` evaluates the effective post-equalization SNR of the MMSE
receive chain for a given shaping filter: non-flat shaping enhances noise
on weak subcarriers and the biased equalizer leaves residual interference
after despreading, both captured by the unbiased-MMSE relation

    beta = mean_k  g_k / (g_k + R/snr),   SNR_post = beta / (1 - beta),   alpha = beta^2,

where g_k sums |c|^2 over the R copies of bin k (see ``snr_post``).
``snr`` is referenced at the combined level: for a flat filter SNR_post
equals snr exactly, for any repetition factor (for R = 1 it is simply the
per-subcarrier SNR).  Every SNR that ``usable_snr`` admits gives
0 < beta <= 1, so SNR_post > 0.

Diagnostics: Bartlett PSD (averaged periodogram), short-time spectrogram and PAPR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fdss import FdssFilter
from .transceiver import _fold


@dataclass(frozen=True)
class SnrPostReport:
    """``snr_post`` results; arrays of the SNR grid's shape for an array input.

    The inputs (SNR grid, repetition factor) are the caller's and are not
    echoed back.
    """

    alpha_mmse: float
    snr_post: float  # inf where beta rounds to 1


def usable_snr(snr: float, repetition: int) -> bool:
    """Whether ``snr_post`` is defined at combined-level SNR ``snr`` and repetition R.

    It is when snr and R/snr are finite and positive (a NaN fails).  R/snr
    is a Python float division, which overflows to inf without the warning
    a numpy float64 division gives.
    """
    return 0.0 < snr < math.inf and 0.0 < repetition / float(snr) < math.inf


def snr_post(filt: FdssFilter, snr, repetition: int = 1) -> SnrPostReport:
    """Post-equalization, post-despreading SNR for a shaping filter.

    Over AWGN the filter is the effective channel (``equalize``'s ``gain``):
    g_k folds |c|^2 over the R copies as ``equalize`` folds |gain|^2.
    ``snr`` is the combined-level SNR (per-subcarrier SNR times the
    repetition factor); every value must pass ``usable_snr``.  A scalar
    gives a report of floats, an array a report of arrays of its shape,
    element for element equal to scalar calls.
    """
    r = int(repetition)
    if r < 1 or filt.m % r:
        raise ValueError("repetition must divide the filter band size")
    snr_arr = np.asarray(snr, dtype=float)
    if not all(usable_snr(s, r) for s in snr_arr.flat):
        raise ValueError("snr and repetition/snr must be finite and positive")
    grouped = _fold(np.abs(filt.coeffs) ** 2, r)
    ratio = grouped / (grouped + r / snr_arr[..., None])
    beta = np.add.reduce(ratio, axis=-1) / ratio.shape[-1]
    if snr_arr.ndim == 0:  # floats, and ~15% less time per call than the array path
        beta = float(beta)
        return SnrPostReport(beta * beta, beta / (1.0 - beta) if beta < 1.0 else math.inf)
    with np.errstate(divide="ignore"):
        return SnrPostReport(np.square(beta), beta / (1.0 - beta))  # inf where beta is 1


def _ber_qpsk(snr_post_value: float) -> float:
    if snr_post_value < 0:
        raise ValueError("snr_post must be >= 0")
    return 0.5 * math.erfc(math.sqrt(snr_post_value / 2.0))


# math.erfc element by element: scipy.special.erfc is up to ~1e-14 off in
# relative terms where math.erfc stays within ~3e-16.
_ber_qpsk_array = np.frompyfunc(_ber_qpsk, 1, 1)


def theoretical_ber_qpsk(snr_post_value):
    """Uncoded Gray-QPSK bit error rate Q(sqrt(SNR_post)).

    With symbol SNR rho, each quadrature rail carries rho/2 against noise
    variance rho-normalized likewise, so the per-bit error is Q(sqrt(rho)).
    A scalar gives a float, an array an array of its shape.
    """
    if np.ndim(snr_post_value) == 0:
        return _ber_qpsk(float(snr_post_value))
    return _ber_qpsk_array(np.asarray(snr_post_value, dtype=float)).astype(float)


def psd(signal, nfft: int, n_avg: int) -> np.ndarray:
    """Averaged periodogram in dB, rectangular window, non-overlapping segments.

    Normalized by :func:`in_band_db`.  Bins are in natural FFT order.
    """
    x = np.asarray(signal, dtype=complex)
    if nfft < 1 or n_avg < 1:
        raise ValueError("nfft and n_avg must be positive")
    if len(x) < nfft * n_avg:
        raise ValueError(f"need at least {nfft * n_avg} samples, got {len(x)}")
    segs = x[: nfft * n_avg].reshape(n_avg, nfft)
    return in_band_db(np.mean(np.abs(np.fft.fft(segs, axis=1)) ** 2, axis=0))


def in_band_db(power: np.ndarray) -> np.ndarray:
    """Power spectrum in dB, in-band (within 30 dB of the peak) average at 0 dB."""
    p = power / np.mean(power[power >= power.max() * 1e-3])
    return 10.0 * np.log10(np.maximum(p, 1e-300))


def spectrogram(signal, win_len: int = 64, hop: int = 8) -> np.ndarray:
    """Short-time power grid in dB, shape (num_slices, win_len).

    Rectangular window, natural FFT bin order along the frequency axis.
    """
    x = np.asarray(signal, dtype=complex)
    if win_len < 1 or hop < 1:
        raise ValueError("win_len and hop must be positive")
    if win_len > len(x):
        raise ValueError("win_len exceeds the signal length")
    frames = np.lib.stride_tricks.sliding_window_view(x, win_len)[::hop]
    power = np.abs(np.fft.fft(frames, axis=1)) ** 2
    return 10.0 * np.log10(np.maximum(power, 1e-300))


def papr(signal) -> float:
    """Peak-to-average power ratio in dB."""
    x = np.asarray(signal, dtype=complex)
    if x.size == 0:
        raise ValueError("empty signal")
    p = np.abs(x) ** 2
    return float(10.0 * np.log10(p.max() / p.mean()))
