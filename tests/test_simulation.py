"""Sweep harness: SNR conversions, determinism, convergence accounting."""

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirplink import analysis, channel, numerics, simulation, transceiver
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
from oracles import numerologies, random_filter


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
        est = demodulate(noise, design_plain(336).coeffs, cfg, 0.0)
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
        pytest.param({"waveform": "triangular", "n_harmonics": 10**20}, "n_harmonics",
                     id="huge_harmonics"),
    ])
    def test_unrunnable_config_fails_at_construction(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            LinkConfig(**kwargs)

    def test_harmonics_bound(self):
        bound = simulation.MAX_HARMONICS
        simulation.design_filter("plain", 4.0, 8, bound)
        with pytest.raises(ValueError, match=f"^n_harmonics must be <= {bound}, got {bound + 1}$"):
            simulation.design_filter("triangular", 4.0, 8, bound + 1)

    @pytest.mark.parametrize("m", [transceiver.MAX_IDFT_SIZE + 1, 10**23])
    def test_band_bounded_by_the_grid(self, m):
        # a band no frame can hold is rejected before any array is sized by it
        bound = transceiver.MAX_IDFT_SIZE
        with pytest.raises(ValueError, match=f"^subcarriers must be <= {bound}, got {m}$"):
            simulation.design_filter("linear", 10.0, m)

    @pytest.mark.parametrize("grid", [np.array([0.0]), np.array([0.0, 1.0])],
                             ids=["array_of_one_zero", "array_of_two"])
    def test_grid_takes_any_real_sequence(self, grid):
        cfg = LinkConfig(ebn0_grid_db=grid, min_bits=10_000, max_frames=16)
        assert cfg.ebn0_grid_db == tuple(float(e) for e in grid)
        assert len(run_ber_sweep(cfg).points) == len(grid)

    @pytest.mark.parametrize("field, value", [
        ("max_frames", 20.5), ("seed", 1.5), ("min_bits", 20_000.0), ("min_errors", True),
        ("n_harmonics", 64.0),
    ])
    def test_count_must_be_an_integer(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
            LinkConfig(**{field: value})

    def test_numpy_integer_counts_run(self):
        frame = FrameConfig(subcarriers=np.int64(48), idft_size=np.int32(64), cp_len=np.int64(8),
                            repetition=np.int16(4))
        cfg = LinkConfig(frame=frame, ebn0_grid_db=(8.0,), min_bits=np.int64(10_000),
                         min_errors=np.int32(1), max_frames=np.int64(16), seed=np.uint8(3),
                         n_harmonics=np.int64(64))
        assert run_ber_sweep(cfg).points[0].frame_count == 16


class TestTypeBoundary:
    """Each number a caller passes is type-checked where it enters, by field name."""

    @pytest.mark.parametrize("grid", [5.0, "12", ["a"], [True], np.array([[1.0, 2.0]])],
                             ids=["scalar", "str", "str_value", "bool_value", "2d_array"])
    def test_ebn0_grid(self, grid):
        with pytest.raises(ValueError, match=r"^ebn0_grid_db \(config sweep/ebn0_db\) must be"):
            LinkConfig(ebn0_grid_db=grid)

    @pytest.mark.parametrize("deviation", ["x", True])
    def test_link_deviation(self, deviation):
        with pytest.raises(ValueError, match="^deviation must be a real number"):
            LinkConfig(deviation=deviation)

    @pytest.mark.parametrize("args, field", [
        (("plain", 318.0, 336.0), "subcarriers"),
        (("triangular", 318.0, 336, 64.0), "n_harmonics"),
        (("plain", "318", 336), "deviation"),
    ], ids=["float_m", "float_harmonics", "str_deviation"])
    def test_design_filter(self, args, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            simulation.design_filter(*args)

    @pytest.mark.parametrize("kwargs, field", [
        ({"rician_k": None}, "rician_k"),
        ({"tap_powers_db": "ab"}, "tap_powers_db"),
        ({"tap_powers_db": (0.0, -3.0), "tap_delays": (0, 1.0)}, "tap_delays"),
        ({"tap_powers_db": (0.0, -3.0), "tap_delays": (False, True)}, "tap_delays"),
    ], ids=["none_k", "str_powers", "float_delay", "bool_delays"])
    def test_channel_profile(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ChannelProfile(**kwargs)

    # a YAML integer that no float holds: a short message naming the field, not 401 digits
    @pytest.mark.parametrize("make, field", [
        (lambda big: LinkConfig(ebn0_grid_db=(5.0, big)), "ebn0_grid_db (config sweep/ebn0_db)"),
        (lambda big: LinkConfig(deviation=big), "deviation"),
        (lambda big: ChannelProfile(rician_k=big), "rician_k"),
        (lambda big: ChannelProfile(tap_powers_db=(0.0, big), tap_delays=(0, 1)), "tap_powers_db"),
        (lambda big: simulation.design_filter("plain", big, 336), "deviation"),
    ], ids=["ebn0", "link_deviation", "rician_k", "tap_powers", "design_deviation"])
    @pytest.mark.parametrize("big", [10**400, -(10**400)], ids=["positive", "negative"])
    def test_integer_too_large_for_a_float(self, make, field, big):
        message = f"{field} must be a real number, got one too large for a float"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(big)

    def test_numpy_numbers_pass(self):
        design = simulation.design_filter("triangular", np.float32(318.0), np.int64(336),
                                          np.int16(64))
        np.testing.assert_array_equal(design.coeffs,
                                      simulation.design_filter("triangular", 318.0, 336).coeffs)
        profile = ChannelProfile(np.array([0.0, -3.0]), np.float64(2.0), np.array([0, 4]))
        assert profile == ChannelProfile((0.0, -3.0), 2.0, (0, 4))


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

    def test_csv_layout(self):
        cfg = LinkConfig(waveform="plain", ebn0_grid_db=(4.0,), min_bits=10_000,
                         min_errors=10, seed=5)
        lines = run_ber_sweep(cfg).csv_text().splitlines()
        assert lines[:2] == [
            "# snr convention: rho = (2/R) * Eb/N0 per subcarrier; theory evaluated at R*rho",
            "# under_converged_ebn0_db: none",
        ]
        header = lines[2:]
        assert header[0] == "ebn0_db,snr_db,sim_ber,theory_ber,bits,frames"
        assert len(header) == 2
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


def impulse(profile: ChannelProfile, taps: np.ndarray) -> np.ndarray:
    """The impulse responses over delays 0 .. max_delay that hold ``taps`` at the tap delays."""
    h = np.zeros(taps.shape[:-1] + (profile.max_delay + 1,), dtype=complex)
    h[..., list(profile.tap_delays)] = taps
    return h


def replay_point(cfg: LinkConfig, counts: list | None = None) -> BerPoint:
    """The first grid point of ``cfg``, one single-frame band-domain call at a time.

    Takes each block from ``simulation._draw_block``, combines each frame's
    noiseless occupied band H * band with ``transceiver._combine``, adds the
    combined noise sqrt(G/(2 rho)) * (n_re + j n_im) where ``_despread``
    sees it, and stops at the first frame that meets the targets or the
    frame cap.  ``counts``, if given, receives the running (bits, errors)
    after every frame.
    """
    frame, filt, ebn0 = cfg.frame, cfg.filter, cfg.ebn0_grid_db[0]
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(len(cfg.ebn0_grid_db))[0])
    rho = ebn0_to_subcarrier_snr(ebn0, frame)
    bins = filt.subcarriers % frame.idft_size
    errors = bits_sent = frames = 0
    while True:
        block = min(simulation.FRAME_BLOCK, cfg.max_frames - frames)
        bits, taps, noise = simulation._draw_block(cfg, rng, block)
        for i in range(block):
            band = modulate(DataFrame.from_bits(bits[i]), filt, frame).band
            h = np.ones(frame.subcarriers)
            if taps is not None:
                h = channel.freq_response(impulse(cfg.channel_profile, taps[i]),
                                          frame.idft_size)[bins]
            combined, gain = transceiver._combine(h * band, h * filt.coeffs, frame)
            combined += np.sqrt(gain / (2.0 * rho)) * (noise[0, i] + 1j * noise[1, i])
            symbols = transceiver._despread(combined, 1.0 / (gain + 1.0 / rho))
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
        ("errors", dict(frame=FrameConfig(repetition=4), waveform="triangular",
                        ebn0_grid_db=(10.0,), min_bits=10_000, min_errors=40,
                        channel_profile=ChannelProfile())),
        ("errors", dict(waveform="linear", ebn0_grid_db=(14.0,), min_bits=10_000, min_errors=40,
                        channel_profile=ChannelProfile(tap_delays=(0, 1, 3)))),
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

    @settings(max_examples=60, deadline=None)
    @given(numerology=numerologies(), count=st.integers(1, simulation.FRAME_BLOCK),
           snr_db=st.floats(-5.0, 30.0), seed=st.integers(0, 2**32 - 1))
    def test_kernel_matches_band_chain(self, numerology, count, snr_db, seed):
        # one block of draws with zero noise on the combined bins against
        # modulate, the band channel from freq_response and equalize
        frame, profile = numerology
        cfg = LinkConfig(frame=frame, channel_profile=profile, ebn0_grid_db=(0.0,))
        rng = np.random.default_rng(seed)
        filt = random_filter(rng, frame.subcarriers)
        bits, taps, noise = simulation._draw_block(cfg, rng, count)
        rho = 10.0 ** (snr_db / 10.0)
        symbols = simulation._block_kernel(cfg, filt, rho)
        kernel = symbols(bits, taps, np.zeros_like(noise))
        h_band = np.ones(frame.subcarriers)
        if taps is not None:
            h_band = channel.freq_response(impulse(profile, taps), frame.idft_size)[:, frame.bins]
        band = modulate(DataFrame.from_bits(bits), filt, frame).band
        chain = equalize(h_band * band, h_band * filt.coeffs, frame, 1.0 / rho)
        assert kernel.shape == chain.shape == (count, frame.symbols_per_frame)
        assert np.max(np.abs(kernel - chain)) < 1e-12
        # the noise reaches combined bin j as sqrt(G_j/(2 rho)) (n_re + j n_im)
        gain = transceiver._combined_gain(h_band * filt.coeffs, frame)
        combined_noise = numerics.dft(symbols(bits, taps, noise) - kernel)
        combined_noise *= gain + 1.0 / rho
        expected = np.sqrt(gain / (2.0 * rho)) * (noise[0] + 1j * noise[1])
        tol = 1e-12 * max(1.0, np.max(gain) + 1.0 / rho)
        assert np.max(np.abs(combined_noise - expected)) < tol

    @settings(max_examples=60, deadline=None)
    @given(numerology=numerologies(), seed=st.integers(0, 2**32 - 1))
    def test_combined_noise_distribution(self, numerology, seed):
        # The chain's combined noise is A w for the band noise w ~ CN(0, I/rho)
        # and the map A = _combine(., gain) of the band.  It has the kernel's
        # distribution CN(0, diag(G)/rho) exactly when A A^H = diag(G) and A
        # has no conjugate part (then A w is circular, as w is).
        frame, profile = numerology
        rng = np.random.default_rng(seed)
        gain = random_filter(rng, frame.subcarriers).coeffs
        if profile is not None:
            h = channel.draw(profile, rng)
            gain = channel.freq_response(h, frame.idft_size)[frame.bins] * gain
        m = frame.subcarriers
        a = transceiver._combine(np.eye(m), gain, frame)[0].T  # (M/R, M): combined = a @ band
        g = transceiver._combined_gain(gain, frame)
        scale = max(1.0, np.max(g))
        assert np.max(np.abs(a @ a.conj().T - np.diag(g))) < 1e-12 * scale
        w = np.array([1.0, 1j]) @ rng.standard_normal((2, m))
        for band in (w, 1j * w):
            combined = transceiver._combine(band, gain, frame)[0]
            assert np.max(np.abs(combined - a @ band)) < 1e-12 * scale

    def test_non_finite_channel_raises(self, monkeypatch):
        # a NaN channel must not turn into a silent BER
        monkeypatch.setattr(channel, "draw_taps",
                            lambda profile, rng, count: np.full((count, 3), np.nan))
        cfg = LinkConfig(channel_profile=ChannelProfile(), ebn0_grid_db=(10.0,))
        with pytest.raises(ValueError, match="^channel gain must be finite"):
            run_ber_sweep(cfg)

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
         "065bdf63d48d948028da6ccb8c1e71f51a723615b5caeec34fb0ca5bc6cff848"),
        (dict(waveform="triangular", channel_profile=ChannelProfile(), ebn0_grid_db=(12.0,),
              min_bits=10_000, min_errors=20),
         "c1396f52bd9abef29dfff8b8ff50dfd630c88756da1143d85c78c0980716231f"),
        (dict(frame=FrameConfig(repetition=4), waveform="linear", channel_profile=ChannelProfile(),
              ebn0_grid_db=(8.0, 12.0), min_bits=10_000, min_errors=40),
         "5a360378f892dc54fcf2b8b7c4aacc77f08097b83ce3ca2028788f22cc552d86"),
    ]

    @pytest.mark.parametrize("kwargs, digest", PINNED_ROWS, ids=["awgn", "multipath", "multipath_r4"])
    def test_stream_pinned(self, kwargs, digest):
        text = run_ber_sweep(LinkConfig(seed=11, **kwargs)).csv_text()
        rows = "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith("#"))
        assert hashlib.sha256(rows.encode()).hexdigest() == digest


class TestMemory:
    """A sweep point allocates O(K * M): nothing grows with N or with the largest delay."""

    @staticmethod
    def _peak_bytes(frame, profile):
        cfg = LinkConfig(frame=frame, channel_profile=profile, ebn0_grid_db=(10.0,),
                         min_bits=10_000, max_frames=16)
        run_ber_sweep(cfg)  # first-call allocations (FFT plans, caches) are not the point's
        tracemalloc.start()
        try:
            run_ber_sweep(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Steering by an N-point transform of one unit impulse per delay peaks at
    # 0.7 MB at N = 512, 50 MB at N = 2^20 and 201 MB at N = 2^22, and at
    # 909 MB for delays (0, 4000) at N = 8192: far outside this bound.
    @pytest.mark.parametrize("frame, profile", [
        (FrameConfig(idft_size=2**22), ChannelProfile()),
        (FrameConfig(idft_size=8192, cp_len=4000), ChannelProfile((0.0, -3.0), 10.0, (0, 4000))),
    ], ids=["large_grid", "long_delay"])
    def test_peak_bounded_by_the_default(self, frame, profile):
        default = self._peak_bytes(FrameConfig(), ChannelProfile())
        assert self._peak_bytes(frame, profile) < 2 * default


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
