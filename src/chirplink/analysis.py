"""Closed-form link performance and signal diagnostics.

``snr_post`` evaluates the effective post-equalization SNR of the MMSE
receive chain for a given shaping filter: non-flat shaping enhances noise
on weak subcarriers and the biased equalizer leaves residual interference
after despreading, both captured by

    alpha = ( mean_k  g_k / (g_k + R/snr) )^2,   SNR_post = 1 / (sqrt(1/alpha) - 1),

where g_k sums |c|^2 over the R repeated copies of bin k.  ``snr`` is
referenced at the combined level: for a flat filter SNR_post equals snr
exactly, for any repetition factor (for R = 1 it is simply the
per-subcarrier SNR).

Diagnostics: Welch-style PSD, short-time spectrogram with ridge
extraction, PAPR, and NMSE between signals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fdss import FdssFilter


@dataclass(frozen=True)
class SnrPostReport:
    """``snr_post`` results; arrays of the SNR grid's shape for an array input.

    The inputs (SNR grid, repetition factor) are the caller's and are not
    echoed back.
    """

    alpha_mmse: float
    snr_post: float  # inf where alpha saturates at 1


def snr_post(filt: FdssFilter, snr, repetition: int = 1) -> SnrPostReport:
    """Post-equalization, post-despreading SNR for a shaping filter.

    ``snr`` is the combined-level SNR (per-subcarrier SNR times the
    repetition factor); every value must be positive and finite.  A scalar
    gives a report of floats, an array a report of arrays of its shape,
    element for element equal to scalar calls.
    """
    scalar = np.ndim(snr) == 0
    snr_arr = np.asarray(snr, dtype=float)
    if scalar:
        valid = math.isfinite(snr) and snr > 0
    else:
        valid = np.all(np.isfinite(snr_arr) & (snr_arr > 0))
    if not valid:
        raise ValueError("snr must be positive and finite")
    r = int(repetition)
    if r < 1 or filt.m % r:
        raise ValueError("repetition must divide the filter band size")
    grouped = (np.abs(filt.coeffs) ** 2).reshape(r, filt.m // r).sum(axis=0)
    ratio = grouped / (grouped + r / snr_arr[..., None])
    alpha = np.square(np.add.reduce(ratio, axis=-1) / ratio.shape[-1])
    if scalar:
        alpha = float(alpha)
        if alpha >= 1.0:
            return SnrPostReport(1.0, math.inf)
        return SnrPostReport(alpha, 1.0 / (math.sqrt(1.0 / alpha) - 1.0))
    alpha = np.minimum(alpha, 1.0)
    with np.errstate(divide="ignore"):
        post = 1.0 / (np.sqrt(1.0 / alpha) - 1.0)  # inf where saturated
    return SnrPostReport(alpha, post)


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
    starts = np.arange(0, len(x) - win_len + 1, hop)
    frames = np.stack([x[s : s + win_len] for s in starts])
    power = np.abs(np.fft.fft(frames, axis=1)) ** 2
    return 10.0 * np.log10(np.maximum(power, 1e-300))


def spectrogram_ridge(spec_db: np.ndarray, sample_rate_bins: float) -> np.ndarray:
    """Peak frequency per time slice, in subcarrier units (signed).

    ``sample_rate_bins`` is the number of subcarrier units spanned by the
    sampling rate (the IDFT size when one symbol body is one period).
    """
    win_len = spec_db.shape[1]
    freqs = np.fft.fftfreq(win_len) * sample_rate_bins
    return freqs[np.argmax(spec_db, axis=1)]


def papr(signal) -> float:
    """Peak-to-average power ratio in dB."""
    x = np.asarray(signal, dtype=complex)
    if x.size == 0:
        raise ValueError("empty signal")
    p = np.abs(x) ** 2
    return float(10.0 * np.log10(p.max() / p.mean()))


def nmse_db(x, ref, optimize_scale: bool = True) -> float:
    """Normalized mean-square error of x against ref, in dB.

    With ``optimize_scale`` the complex least-squares gain is applied to x
    first, so bookkeeping amplitude/phase conventions do not count as error.
    """
    x = np.asarray(x, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    if x.shape != ref.shape:
        raise ValueError("shape mismatch")
    if optimize_scale:
        x = x * (np.vdot(x, ref) / np.vdot(x, x))
    err = np.sum(np.abs(x - ref) ** 2)
    if err == 0.0:
        return -math.inf
    return float(10.0 * np.log10(err / np.sum(np.abs(ref) ** 2)))
