"""Special functions and spectral transforms used by the waveform modules.

Bessel functions of the first kind come from ``scipy.special.jv``.
``bessel_j_sequence`` returns the signed order sequence J_-K .. J_K that the
filter designs take, the negative orders by the one reflection rule
J_-k = (-1)^k J_k, with the argument-domain checks.

Fresnel integrals come from ``scipy.special.fresnel`` (exactly odd in x),
take scalars or arrays, and follow the pi/2-normalized convention

    C(x) = int_0^x cos(pi u^2 / 2) du,   S(x) = int_0^x sin(pi u^2 / 2) du,

which is the convention that makes the linear-chirp shaping closed form
agree with a direct Fourier-integral evaluation.

``dft`` is unitary both ways, so it keeps power.  ``convolve_full``
multiplies any number of Fourier series given as coefficient arrays
centred on index 0, as one FFT product over a length that holds the
whole linear convolution, so the circular product cannot wrap around.

``require_number`` and ``require_numbers`` are the one type check of a
config value: the numbers of ``FrameConfig``, ``ChannelProfile`` and
``LinkConfig`` and the ``design_filter`` arguments go through them.
"""

from __future__ import annotations

import numbers
from collections.abc import Sequence

import numpy as np
from scipy import special as _special
from scipy.fft import next_fast_len

_MAX_ARG = 1e6


def require_number(name: str, value, count: bool = False):
    """Return ``value`` if it is a real number a float can hold, or an integer if ``count``.

    Otherwise raise ``ValueError`` naming ``name``.  Python and numpy
    numbers pass; a bool, a str, None or a date does not, a float is not a
    count, even a whole one, and an integer too large for a float (1 followed
    by 400 zeros) is no real number.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if count else numbers.Real):
        raise ValueError(f"{name} must be {'an integer' if count else 'a real number'}, got {value!r}")
    if not count:
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"{name} must be a real number, got one too large for a float") from None
    return value


def require_numbers(name: str, values, count: bool = False) -> tuple:
    """``values``, a 1-d sequence or numpy array, as a tuple checked by :func:`require_number`.

    A str, a scalar or a mapping is no such sequence: ``ValueError`` naming ``name``.
    """
    sequence = isinstance(values, Sequence) and not isinstance(values, (str, bytes))
    if not (sequence or isinstance(values, np.ndarray) and values.ndim == 1):
        raise ValueError(f"{name} must be a 1-d sequence or array, got {values!r}")
    return tuple(require_number(name, v, count) for v in values)


def bessel_j_sequence(max_order: int, x: float) -> np.ndarray:
    """Return ``[J_-K(x), ..., J_0(x), ..., J_K(x)]``, K = max_order, for x >= 0.

    Order k sits at index K + k.  ``jv`` evaluates orders 0..K only; the
    negative half mirrors them by J_-k = (-1)^k J_k, exact as computed.
    """
    if not 0 <= x <= _MAX_ARG:  # NaN fails too
        raise ValueError(f"bessel argument must be in [0, {_MAX_ARG:g}], got {x}")
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    orders = np.arange(max_order + 1)
    pos = _special.jv(orders, x)
    return np.concatenate((np.where(orders % 2, -pos, pos)[:0:-1], pos))


def fresnel(x):
    """Fresnel integrals (C(x), S(x)) with the pi/2 normalization.

    C(x) = int_0^x cos(pi u^2/2) du, S(x) = int_0^x sin(pi u^2/2) du.
    Both are odd in x, exactly as computed.  A scalar argument gives a
    pair of floats (``numpy.float64``), an array argument a pair of arrays
    of its shape.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("fresnel argument must be finite")
    s, c = _special.fresnel(arr)
    return c, s


def dft(values, inverse: bool = False) -> np.ndarray:
    """Unitary DFT along the last axis: sum |X_k|^2 = sum |x_n|^2.

    Forward: X_k = (1/sqrt(L)) sum_n x_n exp(-j 2 pi k n / L).
    Inverse: x_n = (1/sqrt(L)) sum_k X_k exp(+j 2 pi k n / L).
    Callers check their inputs where they enter the package.
    """
    return np.fft.ifft(values, norm="ortho") if inverse else np.fft.fft(values, norm="ortho")


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
    size = next_fast_len(2 * half + 1, real=True)
    spectrum = np.ones(size, dtype=complex)
    for f in factors:
        h = len(f) // 2
        circular = np.zeros(size, dtype=complex)
        circular[: h + 1] = f[h:]
        circular[size - h :] = f[:h]
        spectrum *= np.fft.fft(circular)
    out = np.fft.ifft(spectrum)
    return np.concatenate((out[size - half :], out[: half + 1]))
