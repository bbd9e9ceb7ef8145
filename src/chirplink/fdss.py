"""Spectral-shaping filter design for circularly-shifted chirp synthesis.

A length-M shaping filter holds one complex weight per occupied subcarrier
k = floor(M/2)-M+1 .. floor(M/2).  Choosing the weights as the Fourier
coefficients of one chirp period turns a DFT-spread-OFDM transmitter into
a bank of M circularly time-shifted chirps.  This module provides:

* ``design_plain``       flat (all-ones) reference filter,
* ``design_sinusoidal``  closed form via Bessel functions of the first kind,
* ``design_linear``      closed form via Fresnel integrals,
* ``design_arbitrary``   any periodic frequency trajectory, as the product
  of upsampled Bessel coefficient sequences (one per trajectory harmonic),
  convolved in one FFT product,
* ``triangular_trajectory``  the classic down/up triangular sweep.

Every design returns coefficients rescaled to ``sum |c_k|^2 = M`` so that
filters of different shapes are power-comparable and the all-ones filter
is the exact no-shaping case.  The fraction of chirp energy falling
outside the occupied band (truncation loss) is recorded on the filter: a
chirp has unit modulus, so by Parseval its Fourier coefficients carry unit
energy, and the loss is one minus the in-band energy.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from . import numerics

#: Default frequency-deviation parameter; with M = 336 subcarriers it keeps
#: the chirp spectrum essentially inside the occupied band.
DEFAULT_DEVIATION = 318.0

#: Factors whose Bessel argument is below this act as identities and are skipped.
HARMONIC_SKIP_EPS = 1e-8

#: Bessel orders whose magnitude falls below this are cut from a harmonic factor.
BESSEL_TAIL_EPS = 1e-12

#: Points of the uniform phase grid on which a trajectory's slope span is checked.
SLOPE_GRID = 4096


def band_limits(m: int) -> tuple[int, int]:
    """Occupied-band subcarrier limits (lower, upper) for m subcarriers."""
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

    def export_csv(self, path) -> None:
        """Write ``k,re,im`` rows at 17 significant digits (lossless)."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self._csv_text())

    def _csv_text(self) -> str:
        buf = io.StringIO()
        buf.write("k,re,im\n")
        for k, c in zip(self.subcarriers, self.coeffs):
            buf.write(f"{k},{c.real:.17g},{c.imag:.17g}\n")
        return buf.getvalue()


def load_filter_csv(path) -> FdssFilter:
    """Read a filter written by :meth:`FdssFilter.export_csv`."""
    ks, vals = [], []
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "k,re,im":
            raise ValueError(f"unexpected filter CSV header: {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            k, re, im = line.split(",")
            ks.append(int(k))
            vals.append(complex(float(re), float(im)))
    m = len(vals)
    lo, hi = band_limits(m)
    if ks != list(range(lo, hi + 1)):
        raise ValueError("filter CSV subcarrier indices are not the contiguous occupied band")
    return FdssFilter(np.array(vals))


def design_plain(m: int) -> FdssFilter:
    """All-ones filter: plain DFT-spread-OFDM, no spectral shaping."""
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
    if not np.isfinite(deviation):
        raise ValueError("deviation must be finite")
    if deviation > m:
        raise ValueError(f"deviation {deviation} exceeds the occupied band of {m} subcarriers")


def design_sinusoidal(deviation: float, m: int) -> FdssFilter:
    """Shaping filter whose chirp sweeps frequency as a sinusoid.

    The Fourier coefficients of exp(j (D/2) sin theta) are J_k(D/2), so the
    raw filter is the Bessel sequence over the occupied band.
    """
    _check_deviation(deviation, m)
    if deviation < 0:
        raise ValueError("deviation must be >= 0")
    lo, hi = band_limits(m)
    z = deviation / 2.0
    max_abs = max(-lo, hi)
    seq = numerics.bessel_j_sequence(max_abs, z)
    ks = np.arange(lo, hi + 1)
    raw = seq[np.abs(ks)] * np.where((ks < 0) & (ks % 2 != 0), -1.0, 1.0)
    return _from_fourier(raw, m)


def design_linear(deviation: float, m: int) -> FdssFilter:
    """Shaping filter for a linear sweep from -D/2T to +D/2T over one period.

    Closed form, obtained by completing the square in the Fourier integral
    of exp(j pi D (u^2 - u)), u in [0, 1):

        c_k = e^{-j pi D/4} e^{-j pi k} e^{-j pi k^2 / D} / sqrt(2 D)
              * [C(x1) + C(x2) + j (S(x1) + S(x2))],

    with x1 = (D - 2k)/sqrt(2D), x2 = (D + 2k)/sqrt(2D) and C, S the
    pi/2-normalized Fresnel integrals of :func:`chirplink.numerics.fresnel`.
    """
    if deviation <= 0:
        raise ValueError("deviation must be > 0")
    _check_deviation(deviation, m)
    d = float(deviation)
    lo, hi = band_limits(m)
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

    def f(self, x) -> np.ndarray:
        """Evaluate the trajectory Fourier series at phase x (radians)."""
        x = np.asarray(x, dtype=float)
        n = np.arange(1, self.n_harmonics + 1)
        return (
            self.a0 / 2.0
            + self.cos_coeffs @ np.cos(np.outer(n, x))
            + self.sin_coeffs @ np.sin(np.outer(n, x))
        )

    def slope(self, x) -> np.ndarray:
        """df/dx; the normalized instantaneous-frequency profile in [-1, 1]."""
        x = np.asarray(x, dtype=float)
        n = np.arange(1, self.n_harmonics + 1)
        return (self.sin_coeffs * n) @ np.cos(np.outer(n, x)) - (
            self.cos_coeffs * n
        ) @ np.sin(np.outer(n, x))

    def _grid_slope(self) -> np.ndarray:
        """df/dx on the grid x_l = 2 pi l / SLOPE_GRID, by one inverse FFT.

        df/dx = Re sum_n (n b_n + j n a_n) e^{j n x}.  On the grid, harmonic n
        is indistinguishable from n mod SLOPE_GRID, so every harmonic is
        folded onto that bin before the unscaled inverse transform.
        """
        n = np.arange(1, self.n_harmonics + 1)
        bins = n % SLOPE_GRID
        spectrum = np.bincount(bins, n * self.sin_coeffs, SLOPE_GRID) + 1j * np.bincount(
            bins, n * self.cos_coeffs, SLOPE_GRID
        )
        return np.fft.ifft(spectrum, norm="forward").real


def triangular_trajectory(
    n_harmonics: int = 64, down_first: bool = True, deviation: float = DEFAULT_DEVIATION
) -> ChirpTrajectory:
    """Triangular sweep: a down-chirp then an up-chirp (or the reverse).

    One period of the trajectory is the odd piecewise-quadratic

        f(x) = x^2/pi + x   on [-pi, 0),      f(x) = -x^2/pi + x  on [0, pi),

    whose sine-series coefficients reduce to b_n = 8/(pi^2 n^3) for odd n
    and 0 for even n.  ``down_first=False`` negates the series.

    The truncated series undershoots the +/-1 slope span by roughly 0.4/N_h,
    so about 41 harmonics are needed to satisfy the trajectory normalization
    check; the default of 64 leaves comfortable margin.
    """
    if n_harmonics < 1:
        raise ValueError("n_harmonics must be >= 1")
    n = np.arange(1, n_harmonics + 1)
    # (4 - 2 pi n sin(pi n) - 4 cos(pi n)) / (pi^2 n^3) at integer n, exactly
    b = np.where(n % 2 == 1, 8.0 / (np.pi**2 * n**3), 0.0)
    if not down_first:
        b = -b
    return ChirpTrajectory(0.0, np.zeros(n_harmonics), b, deviation)


def triangular_phase_profile(x, down_first: bool = True) -> np.ndarray:
    """Exact piecewise-quadratic trajectory f(x) of the triangular sweep."""
    x = np.mod(np.asarray(x, dtype=float) + np.pi, 2 * np.pi) - np.pi
    f = np.where(x < 0, x**2 / np.pi + x, -(x**2) / np.pi + x)
    return f if down_first else -f


def _harmonic_factor(harmonic: int, z: float, phi: float) -> np.ndarray:
    """Centred coefficient array of exp(j z sin(n x + phi)), z >= 0.

    By the Jacobi-Anger expansion the order-m coefficient is J_m(z) e^{j m phi};
    it sits at subcarrier index n*m (the factor has period 2*pi/n, so its
    spectrum lives on multiples of n).  Orders whose |J_m(z)| falls below
    ``BESSEL_TAIL_EPS`` are cut.
    """
    max_order = int(np.ceil(z)) + 40 + int(6 * z ** (1 / 3))
    seq = numerics.bessel_j_sequence(max_order, z)
    keep = np.nonzero(np.abs(seq) >= BESSEL_TAIL_EPS)[0]
    m_max = int(keep[-1]) if len(keep) else 0
    orders = np.arange(-m_max, m_max + 1)
    vals = seq[np.abs(orders)] * np.where((orders < 0) & (orders % 2 != 0), -1.0, 1.0)
    out = np.zeros(2 * m_max * harmonic + 1, dtype=complex)
    out[(orders + m_max) * harmonic] = vals * np.exp(1j * phi * orders)
    return out


def design_arbitrary(traj: ChirpTrajectory, m: int) -> FdssFilter:
    """Shaping filter for an arbitrary periodic trajectory.

    The chirp exponential factors over the trajectory harmonics.  Harmonic n
    contributes exp(j (D/2)(a_n cos nx + b_n sin nx)) = exp(j z sin(nx + phi))
    with z = (D/2) hypot(a_n, b_n) and phi = atan2(a_n, b_n): one upsampled
    Bessel coefficient sequence.  The filter is the convolution of all factor
    sequences, taken in one FFT product by :func:`numerics.convolve_full`,
    restricted to the occupied band.  Harmonics whose z is below
    ``HARMONIC_SKIP_EPS`` act as Kronecker deltas and are skipped.  The
    energy lost by restricting to the band (one minus the in-band energy, by
    Parseval) is reported as ``truncation_loss`` so callers can detect
    overflow.
    """
    _check_deviation(traj.deviation, m)
    half_dev = traj.deviation / 2.0
    factors = []
    for n, (a, b) in enumerate(zip(traj.cos_coeffs, traj.sin_coeffs), start=1):
        z = half_dev * np.hypot(a, b)
        if z >= HARMONIC_SKIP_EPS:
            factors.append(_harmonic_factor(n, z, np.arctan2(a, b)))
    seq = numerics.convolve_full(*factors)
    phase = np.exp(1j * traj.deviation * traj.a0 / 4.0)
    lo, hi = band_limits(m)
    # seq is centred on index 0; zero-pad it to cover the band, then cut the band out.
    half = len(seq) // 2
    pad = max(0, max(-lo, hi) - half)
    centre = half + pad
    raw = phase * np.pad(seq, pad)[centre + lo : centre + hi + 1]
    return _from_fourier(raw, m)
