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

``dft`` fixes the transform scaling and ``convolve_full`` multiplies two
Fourier series given as coefficient arrays centred on index 0.
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


def convolve_full(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear (aperiodic) convolution of two centred coefficient arrays.

    A centred array of odd length L holds the coefficients at indices
    -(L-1)/2 .. (L-1)/2.  The output, of length ``len(a) + len(b) - 1``,
    is centred again: its start index is the sum of the input start indices.
    """
    return np.convolve(a, b)
