"""Special functions and spectral transforms used by the waveform modules.

Bessel functions of the first kind come from ``scipy.special.jv``.  This
module adds the integer-order reflection identities (exact as computed)
and the argument-domain checks, and ``bessel_j_sequence`` returns the whole
order sequence J_0 .. J_K that the filter designs sweep in one call.

Fresnel integrals come from ``scipy.special.fresnel``, take scalars or
arrays, and follow the pi/2-normalized convention

    C(x) = int_0^x cos(pi u^2 / 2) du,   S(x) = int_0^x sin(pi u^2 / 2) du,

which is the convention that makes the linear-chirp shaping closed form
agree with a direct Fourier-integral evaluation.

``dft`` fixes the transform scaling.  ``convolve_full`` multiplies any
number of Fourier series given as coefficient arrays centred on index 0,
as one FFT product over a length that holds the whole linear convolution,
so the circular product cannot wrap around.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _special

_MAX_ARG = 1e6


def _check_bessel_arg(x: float) -> None:
    if not np.isfinite(x):
        raise ValueError("bessel argument must be finite")
    if abs(x) > _MAX_ARG:
        raise ValueError(f"bessel argument out of supported range (|x| <= {_MAX_ARG:g})")


def bessel_j_sequence(max_order: int, x: float) -> np.ndarray:
    """Return ``[J_0(x), J_1(x), ..., J_max_order(x)]`` for x >= 0."""
    _check_bessel_arg(x)
    if x < 0:
        raise ValueError("bessel_j_sequence expects x >= 0")
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    return _special.jv(np.arange(max_order + 1), x)


def bessel_j(order: int, x: float) -> float:
    """Bessel function of the first kind J_order(x), integer order.

    Satisfies the reflection identities J_{-k}(x) = (-1)^k J_k(x) and
    J_k(-x) = (-1)^k J_k(x) exactly as computed.
    """
    _check_bessel_arg(x)
    order = int(order)
    value = float(_special.jv(abs(order), abs(x)))
    # Each reflection flips the sign of an odd order; two flips cancel.
    if order % 2 and (order < 0) != (x < 0):
        return -value
    return value


def fresnel(x):
    """Fresnel integrals (C(x), S(x)) with the pi/2 normalization.

    C(x) = int_0^x cos(pi u^2/2) du, S(x) = int_0^x sin(pi u^2/2) du.
    Both are odd in x, exactly as computed.  A scalar argument gives a
    pair of floats, an array argument a pair of arrays of its shape.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("fresnel argument must be finite")
    s, c = _special.fresnel(np.abs(arr))
    neg = arr < 0
    c, s = np.where(neg, -c, c), np.where(neg, -s, s)
    if arr.ndim == 0:
        return float(c), float(s)
    return c, s


def dft(values, inverse: bool = False) -> np.ndarray:
    """DFT with the unnormalized-forward convention, along the last axis.

    Forward: X_k = sum_n x_n exp(-j 2 pi k n / L).
    Inverse: x_n = (1/L) sum_k X_k exp(+j 2 pi k n / L).
    Callers check their inputs where they enter the package.
    """
    return np.fft.ifft(values) if inverse else np.fft.fft(values)


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length the FFT handles at full speed."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power-of-two multiple of p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def convolve_full(*factors: np.ndarray) -> np.ndarray:
    """Linear (aperiodic) convolution of any number of centred coefficient arrays.

    A centred array of odd length L holds the coefficients at indices
    -(L-1)/2 .. (L-1)/2.  The output, of length ``sum(L_i) - (count - 1)``,
    is centred again: its start index is the sum of the input start indices.
    No factors give ``[1]``.

    Every factor is laid out circularly (index k at FFT position k mod size)
    on one fast FFT length of at least the output length, so the product of
    the spectra is the linear convolution with no wrap-around; one inverse
    FFT returns it.  With index 0 at position 0 a factor close to a unit
    delta has a spectrum close to 1 rather than a phase ramp, which keeps
    the roundoff of the product at the level of a direct sum.
    """
    if any(len(f) % 2 == 0 for f in factors):
        raise ValueError("centred coefficient arrays must have odd length")
    half = sum(len(f) // 2 for f in factors)
    size = _fast_len(2 * half + 1)
    spectrum = np.ones(size, dtype=complex)
    for f in factors:
        h = len(f) // 2
        circular = np.zeros(size, dtype=complex)
        circular[: h + 1] = f[h:]
        circular[size - h :] = f[:h]
        spectrum *= np.fft.fft(circular)
    out = np.fft.ifft(spectrum)
    return np.concatenate((out[size - half :], out[: half + 1]))
