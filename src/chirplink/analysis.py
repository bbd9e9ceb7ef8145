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
from .numerics import require_number, require_numbers
from .transceiver import _fold


@dataclass(frozen=True)
class SnrPostReport:
    """``snr_post`` results for one SNR.

    The inputs (SNR, repetition factor) are the caller's and are not
    echoed back.
    """

    alpha_mmse: float
    snr_post: float  # inf where beta rounds to 1


def usable_snr(snr: float, repetition: int) -> bool:
    """Whether ``snr_post`` is defined at combined-level SNR ``snr`` and repetition R.

    It is when snr and R/snr are finite and positive (a NaN fails).  R/snr
    is a Python float division, which overflows to inf without the warning
    a numpy float64 division gives; an R too large for a float fails.
    ``snr`` must be a real number and ``repetition`` an integer; anything
    else raises ``ValueError`` naming it.
    """
    s = float(require_number("snr", snr))
    r = int(require_number("repetition", repetition, count=True))
    try:
        return 0.0 < s < math.inf and 0.0 < r / s < math.inf
    except OverflowError:  # r / s converts r to a float first
        return False


def usable_grid(name: str, grid_db, repetition: int, to_snr) -> tuple[tuple, list]:
    """A grid in dB as a tuple of floats, and its combined-level SNRs ``to_snr(value)``.

    Raises ``ValueError`` naming ``name`` unless the grid is a nonempty
    1-d sequence of numbers and ``usable_snr`` admits every SNR at
    ``repetition``; the message lists the values it does not admit.
    """
    grid_db = tuple(float(v) for v in require_numbers(name, grid_db))
    if not grid_db:
        raise ValueError(f"{name} must be nonempty")
    snr = [to_snr(v) for v in grid_db]
    bad = [v for v, s in zip(grid_db, snr) if not usable_snr(s, repetition)]
    if bad:
        raise ValueError(f"{name} values {bad} do not give a combined SNR s with s and R/s"
                         f" finite and positive (R = {repetition})")
    return grid_db, snr


def snr_post(filt: FdssFilter, snr: float, repetition: int = 1) -> SnrPostReport:
    """Post-equalization, post-despreading SNR for a shaping filter, as floats.

    Over AWGN the filter is the effective channel (``equalize``'s ``gain``):
    g_k folds |c|^2 over the R copies as ``equalize`` folds |gain|^2.
    ``snr`` is one combined-level SNR (per-subcarrier SNR times the
    repetition factor), a real number that must pass ``usable_snr``;
    ``repetition`` is an integer that divides the band size.  Anything else
    raises ``ValueError`` naming the argument.
    """
    if not usable_snr(snr, repetition):
        raise ValueError("snr and repetition/snr must be finite and positive")
    r, s = int(repetition), float(snr)  # so r / s is float64 for a numpy float32 snr too
    if filt.m % r:
        raise ValueError("repetition must divide the filter band size")
    grouped = _fold(np.abs(filt.coeffs) ** 2, r)
    ratio = grouped / (grouped + r / s)
    beta = float(np.add.reduce(ratio) / ratio.size)
    return SnrPostReport(beta * beta, beta / (1.0 - beta) if beta < 1.0 else math.inf)


def theoretical_ber_qpsk(snr_post_value: float) -> float:
    """Uncoded Gray-QPSK bit error rate Q(sqrt(SNR_post)) for one SNR_post >= 0.

    With symbol SNR rho, each quadrature rail carries rho/2 against noise
    variance rho-normalized likewise, so the per-bit error is Q(sqrt(rho)).
    Anything but a real number >= 0 (a NaN, an array) raises ``ValueError``
    naming ``snr_post``.
    """
    x = float(require_number("snr_post", snr_post_value))
    if not x >= 0:  # NaN fails too
        raise ValueError(f"snr_post must be >= 0, got {x}")
    return 0.5 * math.erfc(math.sqrt(x / 2.0))


def psd(signal, nfft: int, n_avg: int) -> np.ndarray:
    """Averaged periodogram in dB, rectangular window, non-overlapping segments.

    Normalized by :func:`in_band_db`.  Bins are in natural FFT order.
    ``nfft`` and ``n_avg`` must be integers.
    """
    x = np.asarray(signal, dtype=complex)
    if (require_number("nfft", nfft, count=True) < 1
            or require_number("n_avg", n_avg, count=True) < 1):
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
    ``win_len`` and ``hop`` must be integers.
    """
    x = np.asarray(signal, dtype=complex)
    if (require_number("win_len", win_len, count=True) < 1
            or require_number("hop", hop, count=True) < 1):
        raise ValueError("win_len and hop must be positive")
    if win_len > len(x):
        raise ValueError("win_len exceeds the signal length")
    frames = np.lib.stride_tricks.sliding_window_view(x, win_len)[::hop]
    power = np.abs(np.fft.fft(frames, axis=1)) ** 2
    return 10.0 * np.log10(np.maximum(power, 1e-300))


def papr(signal) -> float:
    """Peak-to-average power ratio in dB.

    Magnitudes are divided by the peak before they are squared, so every
    finite signal that is not all zero has a PAPR, at any scale.
    """
    x = np.asarray(signal, dtype=complex)
    if x.size == 0:
        raise ValueError("empty signal")
    magnitude = np.abs(x)
    peak = magnitude.max()
    if not 0.0 < peak < math.inf:  # NaN fails too
        raise ValueError("signal must be finite and not all zero")
    return float(10.0 * np.log10(1.0 / np.mean(np.square(magnitude / peak))))
