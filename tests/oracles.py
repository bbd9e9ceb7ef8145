"""Reference functions and random inputs the tests share; no test collects here."""

import math

import numpy as np
from hypothesis import strategies as st

from chirplink import numerics
from chirplink.channel import ChannelProfile
from chirplink.fdss import FdssFilter, band_limits
from chirplink.transceiver import DataFrame, FrameConfig, modulate

#: Bessel orders whose magnitude falls below this are cut from a harmonic factor.
BESSEL_TAIL_EPS = 1e-16


def piecewise_triangle(x):
    """Piecewise-quadratic triangular profile f(x), down-chirp first, period 2 pi.

    f(x) = x^2/pi + x on [-pi, 0) and -x^2/pi + x on [0, pi): the trajectory
    whose sine series ``fdss.triangular_trajectory`` truncates.
    """
    x = np.mod(np.asarray(x, dtype=float) + np.pi, 2 * np.pi) - np.pi
    return np.where(x < 0, x**2 / np.pi + x, -(x**2) / np.pi + x)


def _harmonic_factor(harmonic, z, phi):
    """Centred coefficient array of exp(j z sin(n x + phi)), z > 0, n = ``harmonic``.

    By the Jacobi-Anger expansion the order-m coefficient is J_m(z) e^{j m phi};
    it sits at index n*m (the factor has period 2 pi/n).  Orders whose
    |J_m(z)| falls below ``BESSEL_TAIL_EPS`` are cut.
    """
    max_order = int(np.ceil(z)) + 40 + int(6 * z ** (1 / 3))
    seq = numerics.bessel_j_sequence(max_order, z)
    m_max = int(np.nonzero(np.abs(seq[max_order:]) >= BESSEL_TAIL_EPS)[0][-1])
    orders = np.arange(-m_max, m_max + 1)
    out = np.zeros(2 * m_max * harmonic + 1, dtype=complex)
    out[::harmonic] = seq[max_order - m_max : max_order + m_max + 1] * np.exp(1j * phi * orders)
    return out


def bessel_product(traj, m):
    """Unit-power in-band coefficients of exp(j (D/2) f(x)) by the paper's Bessel product.

    Harmonic n contributes exp(j (D/2)(a_n cos nx + b_n sin nx)) = exp(j z sin(nx + phi))
    with z = (D/2) hypot(a_n, b_n) and phi = atan2(a_n, b_n): one upsampled
    Bessel coefficient sequence.  The chirp's Fourier series is the linear
    convolution of all of them (``numerics.convolve_full``) times the constant
    phase exp(j D a0/4), cut to the band k = l_down .. l_up of ``m`` subcarriers.
    """
    half_dev = traj.deviation / 2.0
    factors = [
        _harmonic_factor(n, half_dev * np.hypot(a, b), np.arctan2(a, b))
        for n, (a, b) in enumerate(zip(traj.cos_coeffs, traj.sin_coeffs), start=1)
        if np.hypot(a, b) > 0
    ]
    seq = np.pad(numerics.convolve_full(*factors), m)  # zeros past the last kept order
    lo, hi = band_limits(m)
    raw = seq[len(seq) // 2 + np.arange(lo, hi + 1)] * np.exp(1j * traj.deviation * traj.a0 / 4.0)
    return raw * np.sqrt(m / np.sum(np.abs(raw) ** 2))


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


def impulse(profile: ChannelProfile, taps) -> np.ndarray:
    """The impulse responses over delays 0 .. max_delay that hold ``taps`` at the tap delays."""
    taps = np.asarray(taps)
    h = np.zeros(taps.shape[:-1] + (profile.max_delay + 1,), dtype=complex)
    h[..., list(profile.tap_delays)] = taps
    return h


def fft_response(profile: ChannelProfile, taps, n: int) -> np.ndarray:
    """H_k on all n bins in natural order: ``np.fft.fft`` of the dense impulse response.

    The N-point reference ``channel.freq_response`` and the sweep's channel
    are checked against.
    """
    return np.fft.fft(impulse(profile, taps), n, axis=-1)


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


@st.composite
def numerologies(draw):
    """(FrameConfig, ChannelProfile or None): M <= N, R | M, CP >= channel memory."""
    n = draw(st.integers(2, 256))
    m = draw(st.integers(1, n))
    r = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    cp = draw(st.integers(0, n - 1))
    cfg = FrameConfig(subcarriers=m, idft_size=n, cp_len=cp, repetition=r)
    if draw(st.booleans()):
        return cfg, None
    taps = draw(st.integers(1, min(4, cp + 1)))
    delays = sorted(draw(st.sets(st.integers(0, cp), min_size=taps, max_size=taps)))
    powers = draw(st.lists(st.floats(-30.0, 0.0), min_size=taps, max_size=taps))
    return cfg, ChannelProfile(tuple(powers), draw(st.floats(0.0, 100.0)), tuple(delays))


def random_filter(rng, m):
    """Unit-average-power filter of complex Gaussian coefficients (almost surely no zero bin)."""
    parts = rng.standard_normal((2, m))
    coeffs = parts[0] + 1j * parts[1]
    return FdssFilter(coeffs * np.sqrt(m / np.sum(np.abs(coeffs) ** 2)))
