"""Monte Carlo BER sweeps over the waveform/channel configurations.

Noise calibration: the per-subcarrier SNR is rho = (2/R) * Eb/N0 for QPSK
(two bits per symbol, symbol energy spread over R repeated subcarriers of
unit average power).  Theory curves use the combined-level SNR R*rho, i.e.
2 * Eb/N0 regardless of R.

The sweep runs in the band.  ``LinkConfig`` keeps the channel memory
within the CP, so after CP removal and the N-point DFT each occupied bin
is exactly H_k * X_k + W_k, with X_k the transmit band at the equalizer
reference plane (``TxSignal.band``).  Time-domain noise of variance
(N/M)/rho per sample (the unit-power signal sits on M of the N bins) has
iid unitary-DFT bins of the same variance, and ``demodulate``'s sqrt(M/N)
scales that by M/N at the reference plane: 1/rho.  So each frame draws
W_k ~ CN(0, 1/rho) directly on its M occupied bins, and no IDFT, CP,
channel filtering or receiver DFT runs per frame; the BER has the same
distribution as the time-domain chain's.

Sweeps are deterministic: every grid point draws its random stream from a
child of the configured seed, spawned up front in grid order, so results
do not depend on scheduling or on how many frames other points consumed.

Frames run in blocks of ``FRAME_BLOCK``, whose random numbers all come
from ``_draw_block``.  The stopping rule is exact: a point ends at the
first frame that meets both ``min_bits`` and ``min_errors`` (or at
``max_frames``), and the frames after it in its block are not counted, so
the counts are those of a frame-by-frame loop over the same stream.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import __version__
from . import analysis, channel, fdss, transceiver
from .transceiver import DataFrame, FrameConfig

WAVEFORMS = ("plain", "linear", "sinusoidal", "triangular")

#: Default number of trajectory harmonics for the triangular design.
TRIANGULAR_HARMONICS = 64

#: Frames per block of the Monte Carlo loop; fixes the random stream.
FRAME_BLOCK = 16


def design_filter(
    waveform: str,
    deviation: float,
    m: int,
    n_harmonics: int = TRIANGULAR_HARMONICS,
) -> fdss.FdssFilter:
    """Build the shaping filter for one of the named waveforms."""
    if not (np.isfinite(deviation) and deviation > 0):
        raise ValueError(f"deviation must be finite and > 0, got {deviation}")
    if n_harmonics < 1:
        raise ValueError(f"n_harmonics must be >= 1, got {n_harmonics}")
    if waveform == "plain":
        return fdss.design_plain(m)
    if waveform == "linear":
        return fdss.design_linear(deviation, m)
    if waveform == "sinusoidal":
        return fdss.design_sinusoidal(deviation, m)
    if waveform == "triangular":
        traj = fdss.triangular_trajectory(n_harmonics, deviation=deviation)
        return fdss.design_arbitrary(traj, m)
    raise ValueError(f"unknown waveform {waveform!r}; expected one of {WAVEFORMS}")


@dataclass(frozen=True)
class LinkConfig:
    """Everything one BER sweep needs, including its random seed.

    Construction checks every rule of a run, the filter design included, and
    raises ``ValueError`` naming the field; a config that constructs can run.
    """

    frame: FrameConfig = field(default_factory=FrameConfig)
    waveform: str = "plain"
    deviation: float = fdss.DEFAULT_DEVIATION
    channel_profile: Optional[channel.ChannelProfile] = None  # None = AWGN
    ebn0_grid_db: Sequence[float] = (0.0, 2.0, 4.0, 6.0, 8.0)
    min_bits: int = 100_000
    min_errors: int = 100
    max_frames: int = 100_000
    seed: int = 0
    n_harmonics: int = TRIANGULAR_HARMONICS

    def __post_init__(self):
        if not self.ebn0_grid_db:
            raise ValueError("ebn0_grid_db (config sweep/ebn0_db) must be nonempty")
        r = self.frame.repetition
        bad = [e for e in self.ebn0_grid_db
               if not analysis.usable_snr(r * ebn0_to_subcarrier_snr(e, self.frame), r)]
        if bad:
            raise ValueError(f"ebn0_grid_db (config sweep/ebn0_db) values {bad} do not give a"
                             f" combined SNR s = R*rho with s, R/s finite and positive (R = {r})")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.min_bits < 10_000:
            raise ValueError(f"min_bits must be >= 10000, got {self.min_bits}")
        if self.min_errors < 1:
            raise ValueError(f"min_errors must be >= 1, got {self.min_errors}")
        if self.max_frames < 1:
            raise ValueError(f"max_frames must be >= 1, got {self.max_frames}")
        memory = 0 if self.channel_profile is None else self.channel_profile.max_delay
        if memory > self.frame.cp_len:
            raise ValueError(f"channel memory {memory} exceeds the cyclic prefix cp_len")
        object.__setattr__(self, "ebn0_grid_db", tuple(float(e) for e in self.ebn0_grid_db))
        self.filter  # the waveform, deviation, harmonics and design rules fail here

    @cached_property
    def filter(self) -> fdss.FdssFilter:
        """The shaping filter this configuration names, designed at construction."""
        return design_filter(self.waveform, self.deviation, self.frame.subcarriers, self.n_harmonics)


@dataclass(frozen=True)
class BerPoint:
    ebn0_db: float
    snr_db: float  # per-subcarrier SNR, 10*log10(rho)
    simulated_ber: float
    theoretical_ber: float
    bit_count: int
    frame_count: int
    error_count: int
    converged: bool


@dataclass(frozen=True)
class BerCurve:
    config: LinkConfig
    points: tuple

    @property
    def under_converged(self) -> tuple:
        return tuple(p for p in self.points if not p.converged)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.csv_text())

    def csv_text(self) -> str:
        """Deterministic CSV body with a config-echo comment header."""
        cfg = self.config
        buf = io.StringIO()
        buf.write(f"# chirplink {__version__}\n")
        buf.write(f"# waveform: {cfg.waveform}\n")
        buf.write(f"# deviation: {cfg.deviation:g}\n")
        f = cfg.frame
        buf.write(
            f"# frame: subcarriers={f.subcarriers} idft_size={f.idft_size}"
            f" cp_len={f.cp_len} repetition={f.repetition} constellation=qpsk\n"
        )
        if cfg.channel_profile is None:
            buf.write("# channel: awgn\n")
        else:
            ch = cfg.channel_profile
            buf.write(
                f"# channel: multipath powers_db={list(ch.tap_powers_db)}"
                f" rician_k={ch.rician_k:g} delays={list(ch.tap_delays)}\n"
            )
        buf.write(f"# seed: {cfg.seed}\n")
        buf.write(
            f"# stopping: min_bits={cfg.min_bits} min_errors={cfg.min_errors}"
            f" max_frames={cfg.max_frames}\n"
        )
        buf.write("# snr convention: rho = (2/R) * Eb/N0 per subcarrier;"
                  " theory evaluated at R*rho\n")
        flagged = [f"{p.ebn0_db:g}" for p in self.under_converged]
        buf.write(f"# under_converged_ebn0_db: {','.join(flagged) if flagged else 'none'}\n")
        buf.write("ebn0_db,snr_db,sim_ber,theory_ber,bits,frames\n")
        for p in self.points:
            buf.write(
                f"{p.ebn0_db:.6f},{p.snr_db:.6f},{p.simulated_ber:.9e},"
                f"{p.theoretical_ber:.9e},{p.bit_count},{p.frame_count}\n"
            )
        return buf.getvalue()


def db_to_linear(db: float) -> float:
    """10^(db/10); inf where Python's float power raises instead of overflowing."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def ebn0_to_subcarrier_snr(ebn0_db: float, cfg: FrameConfig) -> float:
    """Per-subcarrier SNR (linear) at a given Eb/N0 in dB, for QPSK."""
    return (2.0 / cfg.repetition) * db_to_linear(ebn0_db)


def _draw_block(cfg: LinkConfig, rng: np.random.Generator, b: int):
    """``(bits, h, noise)``: every random number of ``b`` frames, in stream order.

    The bits, ``integers(0, 256, (b, ceil(bits_per_frame / 8)), uint8)``
    bytes unpacked along each row (most significant bit first) to
    ``bits_per_frame`` uint8 bits; for multipath only, the (b, max_delay + 1)
    impulse responses ``h = channel.draw(profile, rng, b)`` (else None);
    then the real and the imaginary band noise, each (b, M) standard
    normals, as ``noise[0]`` and ``noise[1]``: times sqrt(1/(2 rho)) they
    make the CN(0, 1/rho) noise on the occupied bins.  This order and
    ``FRAME_BLOCK`` fix the BER CSV bytes.
    """
    n_bits = cfg.frame.bits_per_frame
    octets = rng.integers(0, 256, (b, -(-n_bits // 8)), dtype=np.uint8)
    bits = np.unpackbits(octets, axis=-1, count=n_bits)
    h = None if cfg.channel_profile is None else channel.draw(cfg.channel_profile, rng, b)
    noise = rng.standard_normal((2, b, cfg.frame.subcarriers))
    return bits, h, noise


def _simulate_point(
    cfg: LinkConfig,
    filt: fdss.FdssFilter,
    ebn0_db: float,
    rng: np.random.Generator,
) -> BerPoint:
    frame = cfg.frame
    rho = ebn0_to_subcarrier_snr(ebn0_db, frame)
    noise_scale = np.sqrt(0.5 / rho)
    report = analysis.snr_post(filt, frame.repetition * rho, frame.repetition)
    theory = analysis.theoretical_ber_qpsk(report.snr_post)
    bins = filt.subcarriers % frame.idft_size
    h_band = np.ones(frame.subcarriers)

    errors = bits_sent = frames = 0
    while frames < cfg.max_frames and (
        bits_sent < cfg.min_bits or errors < cfg.min_errors
    ):
        block = min(FRAME_BLOCK, cfg.max_frames - frames)
        bits, h, noise = _draw_block(cfg, rng, block)
        rx = transceiver.modulate(DataFrame.from_bits(bits), filt, frame).band
        if h is not None:
            h_band = channel.freq_response(h, frame.idft_size)[:, bins]
            rx = h_band * rx
        rx.real += noise_scale * noise[0]  # rx is a fresh array
        rx.imag += noise_scale * noise[1]
        symbols = transceiver.equalize(rx, h_band, filt, frame, 1.0 / rho)
        frame_errors = np.sum(transceiver.qpsk_demap(symbols) != bits, axis=1)
        # Count frames up to the first one that meets both targets.
        cum_errors = errors + np.cumsum(frame_errors)
        cum_bits = bits_sent + frame.bits_per_frame * np.arange(1, block + 1)
        met = (cum_bits >= cfg.min_bits) & (cum_errors >= cfg.min_errors)
        used = int(np.argmax(met)) + 1 if met.any() else block
        errors, bits_sent = int(cum_errors[used - 1]), int(cum_bits[used - 1])
        frames += used
    return BerPoint(
        ebn0_db=float(ebn0_db),
        snr_db=float(10.0 * np.log10(rho)),
        simulated_ber=errors / bits_sent,
        theoretical_ber=theory,
        bit_count=bits_sent,
        frame_count=frames,
        error_count=errors,
        converged=bits_sent >= cfg.min_bits and errors >= cfg.min_errors,
    )


def run_ber_sweep(cfg: LinkConfig) -> BerCurve:
    """Run the Monte Carlo sweep over the Eb/N0 grid.

    Identical configs (seed included) produce bit-identical curves.  Grid
    point i draws from child i of ``SeedSequence(seed)``, in blocks of
    ``FRAME_BLOCK`` frames drawn by ``_draw_block`` and run in the band
    (``modulate(...).band``, channel gain, band noise, ``equalize``);
    frames drawn after a point's stopping frame are not counted.
    Under-converged points (``max_frames`` ran out before both ``min_bits``
    and ``min_errors`` were met) are flagged on the curve, not raised.
    """
    filt = cfg.filter
    streams = np.random.SeedSequence(cfg.seed).spawn(len(cfg.ebn0_grid_db))
    points = tuple(
        _simulate_point(cfg, filt, ebn0, np.random.default_rng(stream))
        for ebn0, stream in zip(cfg.ebn0_grid_db, streams)
    )
    return BerCurve(cfg, points)


def ebn0_at_ber(
    points: Sequence[BerPoint], target: float = 1e-3, theory: bool = False
) -> float:
    """Eb/N0 (dB) where the curve crosses ``target``, by log-BER interpolation.

    Raises if the target is not bracketed by the grid, or if the first point
    at or below it has BER 0 (no errors, so no log-BER to interpolate).
    """
    xs = np.array([p.ebn0_db for p in points])
    ys = np.array([p.theoretical_ber if theory else p.simulated_ber for p in points])
    order = np.argsort(xs)
    xs, ys = xs[order], ys[order]
    below = np.nonzero(ys <= target)[0]
    if len(below) == 0 or below[0] == 0:
        raise ValueError(f"BER {target:g} not bracketed by the sweep grid")
    i = below[0]
    if ys[i] == 0:
        raise ValueError(f"BER 0 at Eb/N0 {xs[i]:g} dB: no errors to interpolate {target:g} from")
    y0, y1 = np.log10(ys[i - 1]), np.log10(ys[i])
    t = (np.log10(target) - y0) / (y1 - y0)
    return float(xs[i - 1] + t * (xs[i] - xs[i - 1]))
