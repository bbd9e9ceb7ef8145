"""Reference functions the tests compare the package against; no test collects here."""

import math

import numpy as np

from chirplink.transceiver import DataFrame, modulate


def piecewise_triangle(x):
    """Piecewise-quadratic triangular profile f(x), down-chirp first, period 2 pi.

    f(x) = x^2/pi + x on [-pi, 0) and -x^2/pi + x on [0, pi): the trajectory
    whose sine series ``fdss.triangular_trajectory`` truncates.
    """
    x = np.mod(np.asarray(x, dtype=float) + np.pi, 2 * np.pi) - np.pi
    return np.where(x < 0, x**2 / np.pi + x, -(x**2) / np.pi + x)


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


def render_frames(filt, n_frames, seed, cfg):
    """Symbol bodies (CP dropped) of ``n_frames`` random QPSK frames, end to end.

    Its ``analysis.psd`` over ``n_frames`` segments of ``cfg.idft_size`` is
    the periodogram the closed-form PSD |c_k|^2 is checked against.
    """
    rng = np.random.default_rng(seed)
    out = np.empty(n_frames * cfg.idft_size, dtype=complex)
    for i in range(n_frames):
        frame = DataFrame.from_bits(rng.integers(0, 2, cfg.bits_per_frame))
        out[i * cfg.idft_size : (i + 1) * cfg.idft_size] = modulate(
            frame, filt, cfg
        ).samples[cfg.cp_len :]
    return out
