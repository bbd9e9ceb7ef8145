"""Modulator/receiver chain: mapping laws, normalization, MMSE round trips."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirplink import analysis, channel, numerics
from chirplink.channel import ChannelProfile
from chirplink.fdss import design_linear, design_plain, design_sinusoidal
from chirplink.simulation import design_filter
from chirplink.transceiver import (
    MAX_IDFT_SIZE,
    PAPR_FRAMES,
    DataFrame,
    FrameConfig,
    _in_data_order,
    demodulate,
    equalize,
    modulate,
    qpsk_demap,
    qpsk_map,
)
from oracles import numerologies, random_filter

CFG = FrameConfig()
M, N = CFG.subcarriers, CFG.idft_size

ALL_FILTERS = {name: design_filter(name, 318.0, M) for name in
               ("plain", "linear", "sinusoidal", "triangular")}


def single_symbol_frame(index, cfg=CFG, value=1.0):
    d = np.zeros(cfg.symbols_per_frame, dtype=complex)
    d[index] = value
    return DataFrame(d)


class TestQpsk:
    def test_mapping_definition(self):
        np.testing.assert_allclose(qpsk_map([0, 0]), [(1 + 1j) / np.sqrt(2)])
        np.testing.assert_allclose(qpsk_map([1, 0]), [(-1 + 1j) / np.sqrt(2)])
        np.testing.assert_allclose(qpsk_map([0, 1]), [(1 - 1j) / np.sqrt(2)])
        np.testing.assert_allclose(qpsk_map([1, 1]), [(-1 - 1j) / np.sqrt(2)])

    def test_constant_modulus(self):
        rng = np.random.default_rng(0)
        syms = qpsk_map(rng.integers(0, 2, 400))
        np.testing.assert_allclose(np.abs(syms), 1.0)

    def test_round_trip_all_symbols(self):
        bits = np.array([0, 0, 0, 1, 1, 0, 1, 1])
        np.testing.assert_array_equal(qpsk_demap(qpsk_map(bits)), bits)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            qpsk_map([0, 1, 0])

    @pytest.mark.parametrize("bits, valid", [
        pytest.param([2, 0, 0, 1], False, id="int-2"),
        pytest.param([0, -1, 1, 0], False, id="int-minus-1"),
        pytest.param([0.7, 0.2], False, id="fraction"),
        pytest.param(np.array([0, 2], dtype=np.uint8), False, id="uint8-2"),
        pytest.param(np.array([[0, 1, 1, 0], [1, 1, 0, 0]], dtype=np.uint8), True,
                     id="uint8-valid"),
    ])
    def test_values_must_be_bits(self, bits, valid):
        if valid:
            np.testing.assert_array_equal(qpsk_map(bits), qpsk_map(np.asarray(bits).astype(int)))
        else:
            with pytest.raises(ValueError, match="^bits "):
                qpsk_map(bits)


class TestModulate:
    def test_impulse_frame_flat_spectrum(self):
        tx = modulate(single_symbol_frame(0), ALL_FILTERS["plain"], CFG)
        np.testing.assert_allclose(tx.band, np.full(M, 1 / np.sqrt(M)), atol=1e-12)
        body = tx.samples[CFG.cp_len:]
        assert np.argmax(np.abs(body)) == 0  # Dirichlet pulse at n = 0

    def test_frequency_domain_circular_shift_law(self):
        filt = ALL_FILTERS["sinusoidal"]
        ref = modulate(single_symbol_frame(0), filt, CFG).band
        ks = filt.subcarriers
        for m in (1, 75, 200):
            got = modulate(single_symbol_frame(m), filt, CFG).band
            expect = ref * np.exp(-2j * np.pi * ks * m / M)
            assert np.max(np.abs(got - expect)) < 1e-12 * np.max(np.abs(ref))

    def test_cp_is_exact_copy(self):
        rng = np.random.default_rng(5)
        frame = DataFrame.from_bits(rng.integers(0, 2, CFG.bits_per_frame))
        tx = modulate(frame, ALL_FILTERS["triangular"], CFG)
        assert len(tx.samples) == N + CFG.cp_len
        np.testing.assert_array_equal(tx.samples[: CFG.cp_len], tx.samples[N:])

    @pytest.mark.parametrize("name", list(ALL_FILTERS))
    def test_unit_average_transmit_power(self, name):
        rng = np.random.default_rng(17)
        power = 0.0
        n_frames = 150
        for _ in range(n_frames):
            frame = DataFrame.from_bits(rng.integers(0, 2, CFG.bits_per_frame))
            tx = modulate(frame, ALL_FILTERS[name], CFG)
            power += np.mean(np.abs(tx.samples[CFG.cp_len:]) ** 2)
        assert power / n_frames == pytest.approx(1.0, rel=0.02)

    def test_unit_average_transmit_power_with_repetition(self):
        cfg = FrameConfig(repetition=4)
        filt = ALL_FILTERS["sinusoidal"]
        rng = np.random.default_rng(23)
        power = 0.0
        for _ in range(150):
            frame = DataFrame.from_bits(rng.integers(0, 2, cfg.bits_per_frame))
            power += np.mean(np.abs(modulate(frame, filt, cfg).samples[cfg.cp_len:]) ** 2)
        assert power / 150 == pytest.approx(1.0, rel=0.02)

    def test_linearity(self):
        rng = np.random.default_rng(9)
        d1 = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        d2 = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        a, b = 0.7 - 0.2j, -1.3 + 0.4j
        filt = ALL_FILTERS["linear"]
        combined = modulate(DataFrame(a * d1 + b * d2), filt, CFG).samples
        parts = a * modulate(DataFrame(d1), filt, CFG).samples + b * modulate(
            DataFrame(d2), filt, CFG
        ).samples
        assert np.max(np.abs(combined - parts)) < 1e-12 * np.max(np.abs(parts))

    def test_repetition_spectrum_structure(self):
        cfg = FrameConfig(repetition=4)
        rng = np.random.default_rng(31)
        frame = DataFrame.from_bits(rng.integers(0, 2, cfg.bits_per_frame))
        tx = modulate(frame, ALL_FILTERS["plain"], cfg)
        ks = ALL_FILTERS["plain"].subcarriers
        natural = np.empty(M, dtype=complex)
        natural[ks % M] = tx.band  # plain filter: pure spread spectrum
        copies = natural.reshape(4, M // 4)
        for u in (1, 2, 3):
            np.testing.assert_array_equal(copies[u], copies[0])  # exact
        # and the tiled construction equals the M-point DFT of the sparse input,
        # at unit power: the sparse input holds the S = M/R symbols' energy
        sparse = np.zeros(M, dtype=complex)
        sparse[:: cfg.repetition] = frame.symbols
        expect = np.fft.fft(sparse) / np.sqrt(cfg.symbols_per_frame)
        np.testing.assert_allclose(natural, expect, rtol=1e-11, atol=1e-9)

    def test_mismatched_filter_rejected(self):
        with pytest.raises(ValueError):
            modulate(single_symbol_frame(0), design_plain(64), CFG)

    def test_wrong_symbol_count_rejected(self):
        cfg = FrameConfig(repetition=4)
        with pytest.raises(ValueError):
            modulate(DataFrame(np.zeros(M, complex)), ALL_FILTERS["plain"], cfg)


class TestDemodulate:
    @pytest.mark.parametrize("name", list(ALL_FILTERS))
    def test_noiseless_round_trip(self, name):
        rng = np.random.default_rng(101)
        bits = rng.integers(0, 2, CFG.bits_per_frame)
        frame = DataFrame.from_bits(bits)
        tx = modulate(frame, ALL_FILTERS[name], CFG)
        # zero-forcing limit: exact recovery
        symbols = demodulate(tx.samples, ALL_FILTERS[name].coeffs, CFG, 0.0)
        rms = np.sqrt(np.mean(np.abs(symbols - frame.symbols) ** 2))
        assert rms < 1e-6
        np.testing.assert_array_equal(qpsk_demap(symbols), bits)
        # tiny regularizer: residual bias bounded by the deepest filter null
        symbols = demodulate(tx.samples, ALL_FILTERS[name].coeffs, CFG, 1e-12)
        assert np.sqrt(np.mean(np.abs(symbols - frame.symbols) ** 2)) < 1e-4

    def test_noiseless_round_trip_with_repetition(self):
        cfg = FrameConfig(repetition=4)
        rng = np.random.default_rng(103)
        bits = rng.integers(0, 2, cfg.bits_per_frame)
        frame = DataFrame.from_bits(bits)
        filt = ALL_FILTERS["sinusoidal"]
        tx = modulate(frame, filt, cfg)
        symbols = demodulate(tx.samples, filt.coeffs, cfg, 1e-12)
        assert np.sqrt(np.mean(np.abs(symbols - frame.symbols) ** 2)) < 1e-6

    def _measure_sinr(self, filt, cfg, snr_db, n_frames, seed):
        """Post-despreading SINR via complex least-squares gain removal."""
        rho = 10 ** (snr_db / 10)
        noise_var_time = (cfg.idft_size / cfg.subcarriers) / rho
        rng = np.random.default_rng(seed)
        sent, got = [], []
        for _ in range(n_frames):
            bits = rng.integers(0, 2, cfg.bits_per_frame)
            frame = DataFrame.from_bits(bits)
            tx = modulate(frame, filt, cfg)
            noise = np.sqrt(noise_var_time / 2) * (
                rng.standard_normal(len(tx.samples))
                + 1j * rng.standard_normal(len(tx.samples))
            )
            symbols = demodulate(tx.samples + noise, filt.coeffs, cfg, 1.0 / rho)
            sent.append(frame.symbols)
            got.append(symbols)
        s = np.concatenate(sent)
        y = np.concatenate(got)
        gain = np.vdot(s, y) / np.vdot(s, s)
        err = y - gain * s
        return 10 * np.log10(np.abs(gain) ** 2 * np.mean(np.abs(s) ** 2) / np.mean(np.abs(err) ** 2))

    def test_plain_awgn_preserves_snr(self):
        sinr_db = self._measure_sinr(ALL_FILTERS["plain"], CFG, 10.0, 300, seed=7)
        assert abs(sinr_db - 10.0) < 0.2

    def test_sinusoidal_matches_post_equalization_theory(self):
        # >= 1e5 symbols against the closed-form effective SNR at rho = 10 dB
        report = analysis.snr_post(ALL_FILTERS["sinusoidal"], 10.0, 1)
        theory_db = 10 * np.log10(report.snr_post)
        sinr_db = self._measure_sinr(ALL_FILTERS["sinusoidal"], CFG, 10.0, 300, seed=11)
        assert abs(sinr_db - theory_db) < 0.2

    def test_input_validation(self):
        filt = ALL_FILTERS["plain"]
        with pytest.raises(ValueError):
            demodulate(np.ones(10, complex), filt.coeffs, CFG, 0.1)
        with pytest.raises(ValueError):
            demodulate(np.array([], dtype=complex), filt.coeffs, CFG, 0.1)
        with pytest.raises(ValueError):
            demodulate(np.ones(CFG.samples_per_frame, complex), np.ones(5, complex), CFG, 0.1)


class TestBoundaryValidation:
    """Each input is checked once where it enters; the rejection names it."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_nonfinite_inputs_named(self, bad):
        filt = ALL_FILTERS["plain"]
        rx = np.ones(CFG.samples_per_frame, complex)
        with pytest.raises(ValueError, match="^data symbols"):
            modulate(single_symbol_frame(3, value=bad), filt, CFG)
        rx_bad = rx.copy()
        rx_bad[100] = bad
        with pytest.raises(ValueError, match="^rx "):
            demodulate(rx_bad, filt.coeffs, CFG, 0.1)
        gain_bad = filt.coeffs.copy()
        gain_bad[5] = bad
        with pytest.raises(ValueError, match="^gain "):
            demodulate(rx, gain_bad, CFG, 0.1)

    @pytest.mark.parametrize("noise_var", [-0.1, -np.inf, np.inf, np.nan, "0.1", None,
                                           np.array([0.1, 0.2]), True, -2**70, 10**400])
    def test_bad_noise_var_named(self, noise_var):
        rx = np.ones(CFG.samples_per_frame, complex)
        gain = ALL_FILTERS["plain"].coeffs
        with pytest.raises(ValueError, match="^noise_var "):
            demodulate(rx, gain, CFG, noise_var)
        with pytest.raises(ValueError, match="^noise_var "):
            equalize(np.ones(M, complex), gain, CFG, noise_var)

    def test_zero_forcing_on_zero_gain_bins_rejected(self):
        filt = design_sinusoidal(1.0, M)
        assert np.sum(filt.coeffs == 0) == 81
        tx = modulate(DataFrame.from_bits(np.zeros(CFG.bits_per_frame, int)), filt, CFG)
        with pytest.raises(ValueError, match="^noise_var = 0"):
            demodulate(tx.samples, filt.coeffs, CFG, 0.0)

    def test_equalize_band_named(self):
        gain = ALL_FILTERS["plain"].coeffs
        with pytest.raises(ValueError, match="^band "):
            equalize(np.ones(M - 1, complex), gain, CFG, 0.1)
        with pytest.raises(ValueError, match="^band "):
            equalize(np.full(M, np.nan, complex), gain, CFG, 0.1)
        with pytest.raises(ValueError, match="^gain "):
            equalize(np.ones((3, M), complex), np.ones((2, M), complex), CFG, 0.1)

    def test_equalize_gain_must_match_the_frame(self):
        # the band size comes from the frame alone; a gain for M + 1 subcarriers
        # (a filter designed for another band) is rejected by its shape
        gain = design_plain(M + 1).coeffs
        with pytest.raises(ValueError, match=rf"^gain .*got \({M + 1},\)$"):
            equalize(np.ones(M, complex), gain, CFG, 0.1)

    def test_zero_forcing_round_trip_flat_filter(self):
        bits = np.random.default_rng(5).integers(0, 2, CFG.bits_per_frame)
        frame = DataFrame.from_bits(bits)
        filt = design_plain(M)
        tx = modulate(frame, filt, CFG)
        symbols = demodulate(tx.samples, filt.coeffs, CFG, 0.0)
        assert np.max(np.abs(symbols - frame.symbols)) < 1e-12


class TestBatch:
    """A (B, .) call gives, row for row, the bits of B single-frame calls."""

    def test_qpsk_rows(self):
        bits = np.random.default_rng(3).integers(0, 2, (5, 12))
        symbols = qpsk_map(bits)
        np.testing.assert_array_equal(symbols, [qpsk_map(row) for row in bits])
        np.testing.assert_array_equal(qpsk_demap(symbols), [qpsk_demap(row) for row in symbols])
        np.testing.assert_array_equal(qpsk_demap(symbols), bits)
        with pytest.raises(ValueError):
            qpsk_map(np.zeros((2, 3), int))

    @pytest.mark.parametrize("repetition", [1, 4])
    @pytest.mark.parametrize("name", list(ALL_FILTERS))
    def test_modulate_demodulate_rows(self, name, repetition):
        cfg = FrameConfig(repetition=repetition)
        filt = ALL_FILTERS[name]
        rng = np.random.default_rng(41)
        bits = rng.integers(0, 2, (6, cfg.bits_per_frame))
        tx = modulate(DataFrame.from_bits(bits), filt, cfg)
        singles = [modulate(DataFrame.from_bits(row), filt, cfg) for row in bits]
        np.testing.assert_array_equal(tx.samples, [t.samples for t in singles])
        np.testing.assert_array_equal(tx.band, [t.band for t in singles])
        noise = rng.standard_normal((2,) + tx.samples.shape)
        rx = tx.samples + 0.1 * (noise[0] + 1j * noise[1])
        parts = rng.standard_normal((2, 6, M))
        h = 1.0 + 0.3 * (parts[0] + 1j * parts[1])
        hc = h * filt.coeffs
        for gain, per_frame in ((filt.coeffs, [filt.coeffs] * 6), (hc, hc)):
            symbols = demodulate(rx, gain, cfg, 0.05)
            for i in range(6):
                one = demodulate(rx[i], per_frame[i], cfg, 0.05)
                np.testing.assert_array_equal(symbols[i], one)

    def test_gain_must_match_the_batch(self):
        rx = np.ones((3, CFG.samples_per_frame), complex)
        with pytest.raises(ValueError, match="^gain "):
            demodulate(rx, np.ones((2, M), complex), CFG, 0.1)
        with pytest.raises(ValueError, match="^gain "):
            demodulate(rx[0], np.ones((3, M), complex), CFG, 0.1)


def both_paths(symbols, filt, cfg, profile, taps, noise, noise_var):
    """Symbols through the time-domain chain and through the band, same noise.

    ``taps`` are the tap gains of ``profile`` (both None for AWGN) and
    ``noise`` the time-domain noise of every sample, CP included.  The band path adds the
    noise's share of the occupied bins at the equalizer plane,
    sqrt(M/N) * DFT(noise body) on those bins.
    """
    n, m = cfg.idft_size, cfg.subcarriers
    bins = filt.subcarriers % n
    tx = modulate(DataFrame(symbols), filt, cfg)
    rx = tx.samples
    h_band = np.ones(m, complex)
    if profile is not None:
        rx = channel.apply(rx, profile, taps)
        h_band = channel.freq_response(profile, taps, bins, n)
    time = demodulate(rx + noise, h_band * filt.coeffs, cfg, noise_var)
    w = numerics.dft(noise[..., cfg.cp_len :])[..., bins] * np.sqrt(m / n)
    band = equalize(h_band * tx.band + w, h_band * filt.coeffs, cfg, noise_var)
    return time, band


def time_noise(rng, shape, rho, cfg):
    """Complex time-domain noise realizing per-subcarrier SNR ``rho``.

    The unit-power signal sits on M of the N bins, so the per-sample noise
    variance is (N/M)/rho.
    """
    parts = rng.standard_normal((2,) + shape)
    variance = (cfg.idft_size / cfg.subcarriers) / rho
    return np.sqrt(variance / 2.0) * (parts[0] + 1j * parts[1])


class TestRandomNumerologies:
    """TestModulate's and TestDemodulate's laws beyond the default numerology."""

    @settings(max_examples=60, deadline=None)
    @given(numerology=numerologies(), seed=st.integers(0, 2**32 - 1))
    def test_noiseless_round_trip(self, numerology, seed):
        cfg, profile = numerology
        rng = np.random.default_rng(seed)
        filt = random_filter(rng, cfg.subcarriers)
        bits = rng.integers(0, 2, (2, cfg.bits_per_frame), dtype=np.uint8)
        rx = modulate(DataFrame.from_bits(bits), filt, cfg).samples
        h_band = np.ones(cfg.subcarriers)
        if profile is not None:
            taps = channel.draw(profile, rng, 2)
            rx = channel.apply(rx, profile, taps)
            h_band = channel.freq_response(profile, taps, filt.subcarriers % cfg.idft_size,
                                           cfg.idft_size)
        symbols = demodulate(rx, h_band * filt.coeffs, cfg, 0.0)  # zero-forcing: exact recovery
        assert np.max(np.abs(symbols - qpsk_map(bits))) < 1e-8
        np.testing.assert_array_equal(qpsk_demap(symbols), bits)

    @settings(max_examples=60, deadline=None)
    @given(numerology=numerologies(), seed=st.integers(0, 2**32 - 1))
    def test_unit_average_transmit_power(self, numerology, seed):
        # Body power is a quadratic form in the data, so its mean over the
        # frames sqrt(S) * (rows of a unitary matrix), whose second moments
        # are those of unit-power data, is exactly its expectation.
        cfg, _ = numerology
        rng = np.random.default_rng(seed)
        s = cfg.symbols_per_frame
        parts = rng.standard_normal((2, s, s))
        unitary, _ = np.linalg.qr(parts[0] + 1j * parts[1])
        tx = modulate(DataFrame(np.sqrt(s) * unitary), random_filter(rng, cfg.subcarriers), cfg)
        assert np.mean(np.abs(tx.samples[:, cfg.cp_len :]) ** 2) == pytest.approx(1.0, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(numerology=numerologies(), seed=st.integers(0, 2**32 - 1),
           shift=st.integers(0, 2**16))
    def test_circular_shift_law(self, numerology, seed, shift):
        # shifting the data by m turns spread bin k mod S by exp(-2 pi j k m / S)
        cfg, _ = numerology
        rng = np.random.default_rng(seed)
        filt = random_filter(rng, cfg.subcarriers)
        s = cfg.symbols_per_frame
        d = qpsk_map(rng.integers(0, 2, cfg.bits_per_frame))
        ref = modulate(DataFrame(d), filt, cfg).band
        got = modulate(DataFrame(np.roll(d, shift)), filt, cfg).band
        expect = ref * np.exp(-2j * np.pi * (filt.subcarriers * shift % s) / s)
        assert np.max(np.abs(got - expect)) < 1e-12 * np.max(np.abs(ref))

    @settings(max_examples=60, deadline=None)
    @given(numerology=numerologies(), count=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_combine_returns_data_bin_order(self, numerology, count, seed):
        # MRC of a noiseless band holds G_j * X_j at index j, X = dft(d):
        # _in_data_order undoes modulate's map of subcarrier k to data bin k mod (M/R)
        cfg, _ = numerology
        rng = np.random.default_rng(seed)
        filt = random_filter(rng, cfg.subcarriers)
        d = qpsk_map(rng.integers(0, 2, (count, cfg.bits_per_frame)))
        band = modulate(DataFrame(d), filt, cfg).band
        combined = _in_data_order(np.conj(filt.coeffs) * band, cfg)
        combined_gain = _in_data_order(np.abs(filt.coeffs) ** 2, cfg)
        assert combined.shape == (count, cfg.symbols_per_frame)
        assert np.max(np.abs(combined - combined_gain * numerics.dft(d))) < 1e-12


class TestBandTimeIdentity:
    """With CP >= channel memory, equalizing the band equals the time-domain chain.

    demodulate(apply(modulate(x).samples, h) + n) equals
    equalize(H * band + (sqrt(M)/N) * DFT(n_body)[band], ...), which is what
    lets the BER sweep draw its noise on the occupied bins only.
    """

    @pytest.mark.parametrize("multipath", [False, True], ids=["awgn", "multipath"])
    @pytest.mark.parametrize("repetition", [1, 4])
    @pytest.mark.parametrize("name", ["sinusoidal", "triangular"])
    def test_default_numerology(self, name, repetition, multipath):
        cfg = FrameConfig(repetition=repetition)
        rng = np.random.default_rng(77)
        bits = rng.integers(0, 2, (16, cfg.bits_per_frame), dtype=np.uint8)
        profile = ChannelProfile() if multipath else None
        taps = channel.draw(profile, rng, 16) if multipath else None
        rho = 10.0
        noise = time_noise(rng, (16, cfg.samples_per_frame), rho, cfg)
        time, band = both_paths(qpsk_map(bits), ALL_FILTERS[name], cfg, profile, taps, noise,
                                1.0 / rho)
        assert np.max(np.abs(time - band)) < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(numerology=numerologies(), count=st.integers(1, 3),
           snr_db=st.floats(-5.0, 30.0), seed=st.integers(0, 2**32 - 1))
    def test_random_numerologies(self, numerology, count, snr_db, seed):
        cfg, profile = numerology
        rng = np.random.default_rng(seed)
        filt = random_filter(rng, cfg.subcarriers)
        symbols = qpsk_map(rng.integers(0, 2, (count, cfg.bits_per_frame)))
        taps = None if profile is None else channel.draw(profile, rng, count)
        rho = 10.0 ** (snr_db / 10.0)
        noise = time_noise(rng, (count, cfg.samples_per_frame), rho, cfg)
        time, band = both_paths(symbols, filt, cfg, profile, taps, noise, 1.0 / rho)
        assert np.max(np.abs(time - band)) < 1e-12


class TestFrameConfig:
    def test_defaults(self):
        assert (CFG.subcarriers, CFG.idft_size, CFG.cp_len) == (336, 512, 96)
        assert CFG.symbols_per_frame == 336
        assert CFG.bits_per_frame == 672

    def test_bins_in_natural_fft_order(self):
        # subcarrier k = l_down .. l_up sits at grid bin k mod N
        guarded = FrameConfig(subcarriers=4, idft_size=8, cp_len=2).bins
        np.testing.assert_array_equal(guarded, [7, 0, 1, 2])
        full = FrameConfig(subcarriers=8, idft_size=8, cp_len=2).bins
        np.testing.assert_array_equal(full, [5, 6, 7, 0, 1, 2, 3, 4])

    # a float or bool is not a count, even a whole one
    @pytest.mark.parametrize("field, value", [
        ("subcarriers", 336.0), ("repetition", 2.0), ("subcarriers", True),
        ("cp_len", np.float64(96.0)), ("idft_size", np.bool_(True)),
    ])
    def test_count_must_be_an_integer(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
            FrameConfig(**{field: value})

    def test_validation(self):
        with pytest.raises(ValueError):
            FrameConfig(subcarriers=600, idft_size=512)
        with pytest.raises(ValueError):
            FrameConfig(cp_len=512)
        with pytest.raises(ValueError):
            FrameConfig(repetition=5)  # does not divide 336

    def test_idft_size_bound(self):
        # the largest array a command builds, PAPR_FRAMES frames of N + CP < 2N
        # complex samples, stays within numpy's largest array size
        assert PAPR_FRAMES * 2 * MAX_IDFT_SIZE * 16 <= np.iinfo(np.intp).max
        assert FrameConfig(idft_size=MAX_IDFT_SIZE).idft_size == MAX_IDFT_SIZE
        with pytest.raises(ValueError, match=f"^idft_size must be <= {MAX_IDFT_SIZE}, got 2"):
            FrameConfig(idft_size=MAX_IDFT_SIZE + 1)
        with pytest.raises(ValueError, match="^idft_size must be <= "):
            FrameConfig(idft_size=2**63)
