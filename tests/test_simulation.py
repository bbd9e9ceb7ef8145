"""Sweep harness: SNR conversions, determinism, convergence accounting."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirplink import analysis, channel, simulation
from chirplink.channel import ChannelProfile
from chirplink.fdss import design_plain
from chirplink.simulation import (
    BerPoint,
    LinkConfig,
    ebn0_at_ber,
    ebn0_to_subcarrier_snr,
    run_ber_sweep,
)
from chirplink.transceiver import (DataFrame, FrameConfig, demodulate, equalize, modulate,
                                    qpsk_demap)


class TestSnrConversions:
    def test_qpsk_factor(self):
        rho = ebn0_to_subcarrier_snr(0.0, FrameConfig())
        assert 10 * np.log10(rho) == pytest.approx(3.0103, abs=1e-3)

    def test_repetition_shares_energy(self):
        rho = ebn0_to_subcarrier_snr(0.0, FrameConfig(repetition=4))
        assert 10 * np.log10(rho) == pytest.approx(-3.0103, abs=1e-3)

    def test_guard_band_noise_factor(self):
        # time-domain noise of variance (N/M)/rho per sample reaches the plain
        # zero-forcing receiver's symbols at 1/rho, the band noise the sweep draws
        cfg, rho = FrameConfig(), 4.0
        rng = np.random.default_rng(5)
        parts = rng.standard_normal((2, 400, cfg.samples_per_frame))
        noise = np.sqrt((512 / 336) / rho / 2.0) * (parts[0] + 1j * parts[1])
        est = demodulate(noise, np.ones(336), design_plain(336), cfg, 0.0)
        assert np.mean(np.abs(est) ** 2) == pytest.approx(1.0 / rho, rel=0.02)


class TestLinkConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinkConfig(waveform="chirpy")
        with pytest.raises(ValueError):
            LinkConfig(ebn0_grid_db=())
        with pytest.raises(ValueError):
            LinkConfig(min_bits=5000)
        with pytest.raises(ValueError):
            LinkConfig(channel_profile=ChannelProfile((0.0,), 10.0, (200,)))

    @pytest.mark.parametrize("cp_len", [0, 4])
    def test_channel_memory_up_to_the_cp(self, cp_len):
        profile = ChannelProfile((0.0,) * (cp_len + 1), 0.0, tuple(range(cp_len + 1)))
        LinkConfig(frame=FrameConfig(cp_len=cp_len), channel_profile=profile)
        longer = ChannelProfile((0.0, -3.0), 0.0, (0, cp_len + 1))
        with pytest.raises(ValueError, match="cyclic prefix"):
            LinkConfig(frame=FrameConfig(cp_len=cp_len), channel_profile=longer)

    @pytest.mark.parametrize("field, value", [
        ("ebn0_grid_db", (4.0, float("nan"))),
        ("ebn0_grid_db", (float("inf"),)),
        ("ebn0_grid_db", (float("-inf"), 4.0)),
        ("ebn0_grid_db", (4000.0,)),  # rho overflows to inf
        ("ebn0_grid_db", (4.0, -4000.0)),  # rho underflows to 0
        ("seed", -1),
    ])
    def test_rejection_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            LinkConfig(**{field: value})

    # both sides of each edge of the combined SNR R*rho = 2*Eb/N0 and of R/(R*rho)
    @pytest.mark.parametrize("repetition, ebn0, usable", [
        (4, 3079.0, True), (4, 3080.0, False),  # R*rho overflows while rho does not
        (4, -3079.0, True), (4, -3080.0, False),
        (1, 3079.0, True), (1, 3080.0, False),
        (1, -3085.0, True), (1, -3086.0, False),
    ])
    def test_combined_snr_edges(self, repetition, ebn0, usable):
        frame = FrameConfig(repetition=repetition)
        if usable:
            assert LinkConfig(frame=frame, ebn0_grid_db=(ebn0,)).ebn0_grid_db == (ebn0,)
        else:
            with pytest.raises(ValueError, match="ebn0_grid_db"):
                LinkConfig(frame=frame, ebn0_grid_db=(ebn0,))

    @pytest.mark.parametrize("kwargs, field", [
        pytest.param({"waveform": "triangular", "n_harmonics": 5}, "n_harmonics",
                     id="slope_span_missed"),
        pytest.param({"waveform": "sinusoidal", "deviation": 400.0}, "deviation",
                     id="deviation_above_m"),
        pytest.param({"waveform": "plain", "deviation": float("nan")}, "deviation",
                     id="nan_deviation"),
        pytest.param({"waveform": "plain", "deviation": 0.0}, "deviation", id="zero_deviation"),
        pytest.param({"n_harmonics": 0}, "n_harmonics", id="zero_harmonics"),
    ])
    def test_unrunnable_config_fails_at_construction(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            LinkConfig(**kwargs)


class TestSweep:
    def test_deterministic_and_matches_theory(self):
        cfg = LinkConfig(
            waveform="plain",
            ebn0_grid_db=(5.0, 6.0, 7.0),
            min_bits=100_000,
            seed=99,
        )
        a = run_ber_sweep(cfg)
        b = run_ber_sweep(cfg)
        assert a.points == b.points
        assert a.csv_text() == b.csv_text()
        for p in a.points:
            assert p.converged
            assert p.bit_count >= cfg.min_bits
            assert p.simulated_ber == pytest.approx(p.theoretical_ber, rel=0.25)

    def test_plain_anchor_value_at_6db(self):
        cfg = LinkConfig(waveform="plain", ebn0_grid_db=(6.0,), min_bits=200_000, seed=1)
        point = run_ber_sweep(cfg).points[0]
        # Q(sqrt(2 * 10^0.6)) = 2.388e-3
        assert point.simulated_ber == pytest.approx(2.388e-3, rel=0.15)

    def test_under_convergence_flagged(self):
        cfg = LinkConfig(
            waveform="plain",
            ebn0_grid_db=(11.0,),  # BER ~ 2e-9: no errors in 40 frames
            min_bits=10_000,
            max_frames=40,
            seed=3,
        )
        curve = run_ber_sweep(cfg)
        assert not curve.points[0].converged
        assert curve.under_converged == (curve.points[0],)
        assert "under_converged_ebn0_db: 11" in curve.csv_text()

    def test_csv_layout(self, tmp_path):
        cfg = LinkConfig(waveform="plain", ebn0_grid_db=(4.0,), min_bits=10_000,
                         min_errors=10, seed=5)
        curve = run_ber_sweep(cfg)
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        lines = path.read_text().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")]
        assert header[0] == "ebn0_db,snr_db,sim_ber,theory_ber,bits,frames"
        assert len(header) == 2
        assert "# seed: 5" in lines
        first = header[1].split(",")
        assert float(first[0]) == 4.0
        assert float(first[1]) == pytest.approx(4.0 + 10 * np.log10(2), abs=1e-4)

    def test_awgn_noise_enhancement_ordering(self):
        # common seed gives common per-frame randomness across waveforms
        bers = {}
        for waveform in ("plain", "linear", "sinusoidal", "triangular"):
            cfg = LinkConfig(
                waveform=waveform,
                ebn0_grid_db=(4.0, 6.0, 8.0),
                min_bits=100_000,
                seed=314,
            )
            bers[waveform] = [p.simulated_ber for p in run_ber_sweep(cfg).points]
        for i in range(3):
            assert bers["plain"][i] <= bers["linear"][i]
            assert bers["linear"][i] <= bers["sinusoidal"][i]
            assert bers["linear"][i] <= bers["triangular"][i]

    def test_repetition_reduces_error_rate_for_shaped_waveforms(self):
        for waveform in ("sinusoidal", "triangular"):
            out = {}
            for repetition in (1, 4):
                cfg = LinkConfig(
                    frame=FrameConfig(repetition=repetition),
                    waveform=waveform,
                    ebn0_grid_db=(6.0,),
                    min_bits=50_000,
                    seed=271,
                )
                out[repetition] = run_ber_sweep(cfg).points[0].simulated_ber
            assert out[4] < out[1]

    def test_fading_sweep_runs(self):
        cfg = LinkConfig(
            waveform="plain",
            channel_profile=ChannelProfile(),
            ebn0_grid_db=(8.0,),
            min_bits=20_000,
            min_errors=20,
            seed=7,
        )
        point = run_ber_sweep(cfg).points[0]
        assert point.converged
        # frequency-selective fading degrades vs AWGN theory
        assert point.simulated_ber > point.theoretical_ber


def replay_point(cfg: LinkConfig, counts: list | None = None) -> BerPoint:
    """The first grid point of ``cfg``, one single-frame band-domain call at a time.

    Takes each block from ``simulation._draw_block``, forms each frame's
    occupied band as H * band + sqrt(1/(2 rho)) * (n_re + j n_im), and stops
    at the first frame that meets the targets or the frame cap.  ``counts``,
    if given, receives the running (bits, errors) after every frame.
    """
    frame, filt, ebn0 = cfg.frame, cfg.filter, cfg.ebn0_grid_db[0]
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(len(cfg.ebn0_grid_db))[0])
    rho = ebn0_to_subcarrier_snr(ebn0, frame)
    scale = np.sqrt(1.0 / (2.0 * rho))
    bins = filt.subcarriers % frame.idft_size
    errors = bits_sent = frames = 0
    while True:
        block = min(simulation.FRAME_BLOCK, cfg.max_frames - frames)
        bits, chans, noise = simulation._draw_block(cfg, rng, block)
        for i in range(block):
            band = modulate(DataFrame.from_bits(bits[i]), filt, frame).band
            h = np.ones(frame.subcarriers)
            if chans is not None:
                h = channel.freq_response(chans[i], frame.idft_size)[bins]
            rx = h * band + scale * (noise[0, i] + 1j * noise[1, i])
            symbols = equalize(rx, h, filt, frame, 1.0 / rho)
            errors += int(np.sum(qpsk_demap(symbols) != bits[i]))
            bits_sent += frame.bits_per_frame
            frames += 1
            if counts is not None:
                counts.append((bits_sent, errors))
            met = bits_sent >= cfg.min_bits and errors >= cfg.min_errors
            if frames == cfg.max_frames or met:
                report = analysis.snr_post(filt, frame.repetition * rho, frame.repetition)
                return BerPoint(ebn0, float(10.0 * np.log10(rho)), errors / bits_sent,
                                analysis.theoretical_ber_qpsk(report.snr_post),
                                bits_sent, frames, errors, met)


class TestBlockEngine:
    """The block loop against a frame-by-frame replay of the same stream."""

    @pytest.mark.parametrize("stop, kwargs", [
        ("bits", dict(waveform="sinusoidal", ebn0_grid_db=(7.0,), min_bits=20_000)),
        ("errors", dict(ebn0_grid_db=(7.0,), min_bits=10_000, min_errors=50)),
        ("capped", dict(ebn0_grid_db=(11.0,), min_bits=10_000, max_frames=40)),
        ("errors", dict(ebn0_grid_db=(14.0,), min_bits=10_000, min_errors=40,
                        channel_profile=ChannelProfile())),
    ])
    def test_matches_frame_by_frame_replay(self, stop, kwargs):
        cfg = LinkConfig(seed=12, **kwargs)
        point = run_ber_sweep(cfg).points[0]
        assert point == replay_point(cfg)
        bits_frames = math.ceil(cfg.min_bits / cfg.frame.bits_per_frame)
        if stop == "bits":
            assert point.frame_count == bits_frames and point.error_count > cfg.min_errors
        elif stop == "errors":
            assert point.frame_count > bits_frames and point.error_count >= cfg.min_errors
        else:
            assert point.frame_count == 40 and not point.converged

    @pytest.mark.parametrize("repetition", [1, 4])
    def test_bits_limited_frame_count(self, repetition):
        frame = FrameConfig(repetition=repetition)
        cfg = LinkConfig(frame=frame, ebn0_grid_db=(3.0,), min_bits=30_001, seed=8)
        point = run_ber_sweep(cfg).points[0]
        assert point.frame_count == math.ceil(30_001 / frame.bits_per_frame)
        assert point.bit_count == point.frame_count * frame.bits_per_frame

    # sha256 of the CSV data rows; any change to the random stream (block
    # size, draw order or shapes) or to the arithmetic of the chain shows.
    PINNED_ROWS = [
        (dict(frame=FrameConfig(repetition=4), waveform="sinusoidal", ebn0_grid_db=(4.0, 6.0),
              min_bits=20_000, min_errors=50),
         "a74039b949f53fa4d3f1a9fd0f52ad3633808dfe69ff98c369ecdd2edd3cec9d"),
        (dict(waveform="triangular", channel_profile=ChannelProfile(), ebn0_grid_db=(12.0,),
              min_bits=10_000, min_errors=20),
         "b41b5e3df47b3e6c6dbe46353d48228172923ec22b87cf35f438f52459515592"),
    ]

    @pytest.mark.parametrize("kwargs, digest", PINNED_ROWS, ids=["awgn", "multipath"])
    def test_stream_pinned(self, kwargs, digest):
        text = run_ber_sweep(LinkConfig(seed=11, **kwargs)).csv_text()
        rows = "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith("#"))
        assert hashlib.sha256(rows.encode()).hexdigest() == digest


class TestStoppingRule:
    """Invariants of the stopping rule on small random configurations."""

    @settings(max_examples=50, deadline=None)
    @given(waveform=st.sampled_from(simulation.WAVEFORMS), repetition=st.sampled_from([1, 2, 4, 8]),
           fading=st.booleans(), ebn0=st.floats(-2.0, 12.0), min_errors=st.integers(1, 300),
           max_frames=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    def test_invariants(self, waveform, repetition, fading, ebn0, min_errors, max_frames, seed):
        cfg = LinkConfig(frame=FrameConfig(repetition=repetition), waveform=waveform,
                         channel_profile=ChannelProfile() if fading else None,
                         ebn0_grid_db=(ebn0,), min_bits=10_000, min_errors=min_errors,
                         max_frames=max_frames, seed=seed)

        def met(bits, errors):
            return bits >= cfg.min_bits and errors >= cfg.min_errors

        counts = []
        point = run_ber_sweep(cfg).points[0]
        assert point == replay_point(cfg, counts)
        assert point.frame_count == len(counts) <= cfg.max_frames
        assert point.converged == met(point.bit_count, point.error_count)
        if point.frame_count > 1:
            assert not met(*counts[-2])


class TestCrossing:
    def _points(self, bers, ebn0s=(4.0, 5.0, 6.0)):
        return [
            BerPoint(e, e + 3.01, b, b, 10**6, 10, int(b * 10**6), True)
            for e, b in zip(ebn0s, bers)
        ]

    def test_log_interpolation(self):
        pts = self._points([1e-2, 1e-3, 1e-4])
        assert ebn0_at_ber(pts, 1e-3) == pytest.approx(5.0)
        assert ebn0_at_ber(pts, 3.163e-4) == pytest.approx(5.5, abs=0.01)

    def test_unbracketed_raises(self):
        with pytest.raises(ValueError):
            ebn0_at_ber(self._points([1e-2, 8e-3, 5e-3]), 1e-3)
        with pytest.raises(ValueError):
            ebn0_at_ber(self._points([1e-4, 1e-5, 1e-6]), 1e-3)

    def test_zero_ber_at_the_crossing_raises(self):
        # an error-free point has no log-BER; it must not read as the previous point
        with pytest.raises(ValueError, match="Eb/N0 1 dB"):
            ebn0_at_ber(self._points([1e-2, 0.0], ebn0s=(0.0, 1.0)), 1e-3)
