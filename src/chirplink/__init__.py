"""chirplink: chirp waveforms over DFT-spread-OFDM, with a link simulator.

Shaping the spectrum of a DFT-spread-OFDM symbol with the Fourier
coefficients of one chirp period turns the transmitter into a bank of
circularly time-shifted chirps, one per data symbol.  This package designs
those shaping filters analytically (sinusoidal, linear, triangular, or any
periodic frequency trajectory), runs the matching single-tap MMSE receiver,
and evaluates uncoded link performance against closed-form theory.
"""

__version__ = "0.1.0"

from .analysis import SnrPostReport, papr, psd, snr_post, spectrogram, theoretical_ber_qpsk
from .channel import ChannelProfile, draw, freq_response
from .fdss import (
    ChirpTrajectory,
    FdssFilter,
    design_arbitrary,
    design_linear,
    design_plain,
    design_sinusoidal,
    triangular_trajectory,
)
from .numerics import bessel_j_sequence, convolve_full, dft, fresnel
from .simulation import BerCurve, BerPoint, LinkConfig, ebn0_to_subcarrier_snr, run_ber_sweep
from .transceiver import (DataFrame, FrameConfig, TxSignal, demodulate, equalize, modulate,
                          qpsk_demap, qpsk_map)

__all__ = [
    "__version__",
    "BerCurve",
    "BerPoint",
    "ChannelProfile",
    "ChirpTrajectory",
    "DataFrame",
    "FdssFilter",
    "FrameConfig",
    "LinkConfig",
    "SnrPostReport",
    "TxSignal",
    "bessel_j_sequence",
    "convolve_full",
    "demodulate",
    "design_arbitrary",
    "design_linear",
    "design_plain",
    "design_sinusoidal",
    "dft",
    "draw",
    "ebn0_to_subcarrier_snr",
    "equalize",
    "freq_response",
    "fresnel",
    "modulate",
    "papr",
    "psd",
    "qpsk_demap",
    "qpsk_map",
    "run_ber_sweep",
    "snr_post",
    "spectrogram",
    "theoretical_ber_qpsk",
    "triangular_trajectory",
]
