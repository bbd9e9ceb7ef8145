"""Spectral-shaping filter design for circularly-shifted chirp synthesis.

A length-M shaping filter holds one complex weight per occupied subcarrier
k = floor(M/2)-M+1 .. floor(M/2).  Choosing the weights as the Fourier
coefficients of one chirp period turns a DFT-spread-OFDM transmitter into
a bank of M circularly time-shifted chirps.  This module provides:

* ``design_plain``       flat (all-ones) reference filter,
* ``design_sinusoidal``  closed form via Bessel functions of the first kind,
* ``design_linear``      closed form via Fresnel integrals,
* ``design_arbitrary``   any periodic frequency trajectory, as one FFT of
  the sampled chirp (the paper's product of Bessel factors, one per
  trajectory harmonic, evaluated by the convolution theorem),
* ``triangular_trajectory``  the classic down-then-up triangular sweep.

Every design returns coefficients rescaled to ``sum |c_k|^2 = M`` so that
filters of different shapes are power-comparable and the all-ones filter
is the exact no-shaping case.  The fraction of chirp energy falling
outside the occupied band (truncation loss) is recorded on the filter: a
chirp has unit modulus, so by Parseval its Fourier coefficients carry unit
energy, and the loss is one minus the in-band energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len

from . import numerics

#: Default frequency-deviation parameter; with M = 336 subcarriers it keeps
#: the chirp spectrum essentially inside the occupied band.
DEFAULT_DEVIATION = 318.0

#: Points of the uniform phase grid on which a trajectory's slope span is checked.
SLOPE_GRID = 4096


def band_limits(m: int) -> tuple[int, int]:
    """Occupied-band subcarrier limits (lower, upper) for m >= 1 subcarriers."""
    if m < 1:
        raise ValueError(f"subcarriers must be >= 1, got {m}")
    return m // 2 - m + 1, m // 2


@dataclass(frozen=True)
class FdssFilter:
    """Unit-average-power shaping coefficients over subcarriers k = l_down .. l_up.

    ``coeffs[i]`` is the weight of subcarrier ``l_down + i``; the band size
    ``m`` is ``len(coeffs)``.  A filter is always unit-average-power: the
    constructor rejects coefficients unless ``sum |c_k|^2 = m`` (relative
    tolerance 1e-9).  ``truncation_loss`` is keyword-only.
    """

    coeffs: np.ndarray
    truncation_loss: float = field(default=0.0, kw_only=True)

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 1 or len(coeffs) == 0:
            raise ValueError(f"need a nonempty 1-d coefficient array, got shape {coeffs.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        power = float(np.sum(np.abs(coeffs) ** 2))
        if abs(power - self.m) > 1e-9 * self.m:
            raise ValueError(f"unit-average-power filter has sum |c|^2 = {power}, want {self.m}")

    @property
    def m(self) -> int:
        return len(self.coeffs)

    @property
    def l_down(self) -> int:
        return band_limits(self.m)[0]

    @property
    def l_up(self) -> int:
        return band_limits(self.m)[1]

    @property
    def subcarriers(self) -> np.ndarray:
        """Subcarrier indices k = l_down .. l_up, aligned with ``coeffs``."""
        return np.arange(self.l_down, self.l_up + 1)

    def magnitude_ratio(self) -> float:
        """max |c_k| / min |c_k| over the occupied band."""
        mags = np.abs(self.coeffs)
        lo = mags.min()
        if lo == 0.0:
            return np.inf
        return float(mags.max() / lo)


def _band(m: int) -> tuple[int, int]:
    """``band_limits`` at a design's entry, with ``m`` checked to be an integer."""
    return band_limits(numerics.require_number("subcarriers", m, count=True))


def design_plain(m: int) -> FdssFilter:
    """All-ones filter: plain DFT-spread-OFDM, no spectral shaping."""
    _band(m)  # the designs' band-size rule, before np.ones sees m
    return FdssFilter(np.ones(m, dtype=complex))


def _from_fourier(raw: np.ndarray, m: int) -> FdssFilter:
    """Rescale in-band Fourier coefficients of a chirp to ``sum |c|^2 = m``.

    The chirp's coefficients over all subcarriers carry unit energy
    (Parseval), so the in-band energy's shortfall from 1 is the truncation
    loss.
    """
    power = float(np.sum(np.abs(raw) ** 2))
    return FdssFilter(raw * np.sqrt(m / power), truncation_loss=max(0.0, 1.0 - power))


def _check_deviation(deviation: float, m: int) -> None:
    numerics.require_number("deviation", deviation)
    if not np.isfinite(deviation):
        raise ValueError("deviation must be finite")
    if deviation > m:
        raise ValueError(f"deviation {deviation} exceeds the occupied band of {m} subcarriers")


def design_sinusoidal(deviation: float, m: int) -> FdssFilter:
    """Shaping filter whose chirp sweeps frequency as a sinusoid.

    The Fourier coefficients of exp(j (D/2) sin theta) are J_k(D/2), so the
    raw filter is the Bessel sequence over the occupied band.
    """
    lo, hi = _band(m)  # hi >= -lo, so orders -hi..hi cover the band
    _check_deviation(deviation, m)
    if deviation < 0:
        raise ValueError("deviation must be >= 0")
    seq = numerics.bessel_j_sequence(hi, deviation / 2.0)
    return _from_fourier(seq[hi + lo :], m)


def design_linear(deviation: float, m: int) -> FdssFilter:
    """Shaping filter for a linear sweep from -D/2T to +D/2T over one period.

    Closed form, obtained by completing the square in the Fourier integral
    of exp(j pi D (u^2 - u)), u in [0, 1):

        c_k = e^{-j pi D/4} e^{-j pi k} e^{-j pi k^2 / D} / sqrt(2 D)
              * [C(x1) + C(x2) + j (S(x1) + S(x2))],

    with x1 = (D - 2k)/sqrt(2D), x2 = (D + 2k)/sqrt(2D) and C, S the
    pi/2-normalized Fresnel integrals of :func:`chirplink.numerics.fresnel`.
    """
    lo, hi = _band(m)
    _check_deviation(deviation, m)
    if deviation <= 0:
        raise ValueError("deviation must be > 0")
    d = float(deviation)
    ks = np.arange(lo, hi + 1)
    c1, s1 = numerics.fresnel((d - 2 * ks) / np.sqrt(2 * d))
    c2, s2 = numerics.fresnel((d + 2 * ks) / np.sqrt(2 * d))
    phase = np.exp(-1j * np.pi * d / 4) * np.exp(-1j * np.pi * ks) * np.exp(-1j * np.pi * ks**2 / d)
    raw = phase / np.sqrt(2 * d) * ((c1 + c2) + 1j * (s1 + s2))
    return _from_fourier(raw, m)


@dataclass(frozen=True)
class ChirpTrajectory:
    """Periodic frequency trajectory described by a Fourier series.

    The phase of the chirp is (D/2) f(2 pi t / T) with

        f(x) = a0/2 + sum_n a_n cos(n x) + b_n sin(n x),

    and the trajectory must be slope-normalized: max |df/dx| = 1 so the
    instantaneous frequency sweeps exactly +/- D/(2T).  The constructor
    verifies the normalization within 1% on the ``SLOPE_GRID``-point grid
    x_l = 2 pi l / SLOPE_GRID (see :meth:`_grid_slope`).
    """

    a0: float = 0.0
    cos_coeffs: np.ndarray = field(default_factory=lambda: np.zeros(1))
    sin_coeffs: np.ndarray = field(default_factory=lambda: np.zeros(1))
    deviation: float = DEFAULT_DEVIATION

    def __post_init__(self):
        a = np.asarray(self.cos_coeffs, dtype=float)
        b = np.asarray(self.sin_coeffs, dtype=float)
        if a.shape != b.shape or a.ndim != 1 or len(a) < 1:
            raise ValueError("cos_coeffs and sin_coeffs must be 1-d arrays of equal length >= 1")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.isfinite(self.a0)):
            raise ValueError("trajectory coefficients must be finite")
        numerics.require_number("deviation", self.deviation)
        if not (np.isfinite(self.deviation) and self.deviation > 0):
            raise ValueError("deviation must be positive")
        object.__setattr__(self, "cos_coeffs", a)
        object.__setattr__(self, "sin_coeffs", b)
        sl = self._grid_slope()
        hi, lo = sl.max(), sl.min()
        if abs(hi - 1.0) > 0.01 or abs(lo + 1.0) > 0.01:
            raise ValueError(
                f"trajectory slope with n_harmonics = {self.n_harmonics} spans"
                f" [{lo:.4f}, {hi:.4f}]; must reach -1 and +1 within 1%"
            )

    @property
    def n_harmonics(self) -> int:
        return len(self.cos_coeffs)

    def _grid_slope(self) -> np.ndarray:
        """df/dx = Re sum_n (n b_n + j n a_n) e^{j n x} on the ``SLOPE_GRID``-point grid."""
        n = np.arange(1, self.n_harmonics + 1)
        return _series_on_grid(n * (self.sin_coeffs + 1j * self.cos_coeffs), SLOPE_GRID).real


def _series_on_grid(coeffs: np.ndarray, size: int) -> np.ndarray:
    """sum_n coeffs[n-1] e^{j n x_l} on the grid x_l = 2 pi l / size, by one inverse FFT.

    On the grid, harmonic n is indistinguishable from n mod size, so every
    harmonic is folded onto that bin before the unscaled inverse transform.
    """
    bins = np.arange(1, len(coeffs) + 1) % size
    spectrum = np.bincount(bins, coeffs.real, size) + 1j * np.bincount(bins, coeffs.imag, size)
    return np.fft.ifft(spectrum, norm="forward")


def triangular_trajectory(
    n_harmonics: int, deviation: float = DEFAULT_DEVIATION
) -> ChirpTrajectory:
    """Triangular sweep: a down-chirp then an up-chirp.

    One period of the trajectory is the odd piecewise-quadratic

        f(x) = x^2/pi + x   on [-pi, 0),      f(x) = -x^2/pi + x  on [0, pi),

    whose sine-series coefficients reduce to b_n = 8/(pi^2 n^3) for odd n
    and 0 for even n.

    The truncated series undershoots the +/-1 slope span by roughly 0.4/N_h,
    so about 41 harmonics are needed to satisfy the trajectory normalization
    check; ``simulation.TRIANGULAR_HARMONICS`` leaves comfortable margin.
    """
    if numerics.require_number("n_harmonics", n_harmonics, count=True) < 1:
        raise ValueError("n_harmonics must be >= 1")
    n = np.arange(1, n_harmonics + 1)
    # (4 - 2 pi n sin(pi n) - 4 cos(pi n)) / (pi^2 n^3) at integer n, exactly
    b = np.where(n % 2 == 1, 8.0 / (np.pi**2 * n**3), 0.0)
    return ChirpTrajectory(0.0, np.zeros(n_harmonics), b, deviation)


def design_arbitrary(traj: ChirpTrajectory, m: int) -> FdssFilter:
    """Shaping filter for an arbitrary periodic trajectory.

    The filter is the in-band Fourier series of the chirp exp(j (D/2) f(x)).
    The paper writes it as a product of Bessel factors, one per harmonic, all
    convolved; by the convolution theorem that product is the spectrum of the
    sampled chirp, so this takes one FFT of the chirp on the grid
    x_l = 2 pi l / size with

        size = next_fast_len(4 * max(m, ceil(D) + 2 * n_harmonics)),

    wide enough that the chirp's spectrum does not alias onto the band.  The
    grid holds the whole unit-modulus chirp, so the energy lost by
    restricting to the band (one minus the in-band energy, by Parseval) is
    reported as ``truncation_loss`` and callers can detect overflow.
    """
    lo, hi = _band(m)
    _check_deviation(traj.deviation, m)
    size = next_fast_len(4 * max(m, int(np.ceil(traj.deviation)) + 2 * traj.n_harmonics))
    f = traj.a0 / 2.0 + _series_on_grid(traj.cos_coeffs - 1j * traj.sin_coeffs, size).real
    spectrum = np.fft.fft(np.exp(0.5j * traj.deviation * f), norm="forward")
    return _from_fourier(spectrum[np.arange(lo, hi + 1) % size], m)
