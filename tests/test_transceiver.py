"""Modulator/receiver chain: mapping laws, normalization, MMSE round trips."""

import numpy as np
import pytest

from chirplink import analysis
from chirplink.fdss import design_linear, design_plain, design_sinusoidal
from chirplink.simulation import design_filter
from chirplink.transceiver import (
    DataFrame,
    FrameConfig,
    demodulate,
    modulate,
    qpsk_demap,
    qpsk_map,
)

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


class TestModulate:
    def test_impulse_frame_flat_spectrum(self):
        tx = modulate(single_symbol_frame(0), ALL_FILTERS["plain"], CFG)
        np.testing.assert_allclose(tx.freq_symbols, np.ones(M), atol=1e-12)
        body = tx.samples[CFG.cp_len:]
        assert np.argmax(np.abs(body)) == 0  # Dirichlet pulse at n = 0

    def test_frequency_domain_circular_shift_law(self):
        filt = ALL_FILTERS["sinusoidal"]
        ref = modulate(single_symbol_frame(0), filt, CFG).freq_symbols
        ks = filt.subcarriers
        for m in (1, 75, 200):
            got = modulate(single_symbol_frame(m), filt, CFG).freq_symbols
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
        natural[ks % M] = tx.freq_symbols  # plain filter: pure spread spectrum
        copies = natural.reshape(4, M // 4)
        for u in (1, 2, 3):
            np.testing.assert_array_equal(copies[u], copies[0])  # exact
        # and the tiled construction equals the M-point DFT of the sparse input
        sparse = np.zeros(M, dtype=complex)
        sparse[:: cfg.repetition] = frame.symbols
        np.testing.assert_allclose(natural, np.fft.fft(sparse), rtol=1e-11, atol=1e-9)

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
        symbols, soft = demodulate(
            tx.samples, np.ones(M, complex), ALL_FILTERS[name], CFG, 0.0
        )
        rms = np.sqrt(np.mean(np.abs(symbols - frame.symbols) ** 2))
        assert rms < 1e-6
        np.testing.assert_array_equal(qpsk_demap(symbols), bits)
        assert np.all((soft < 0) == (bits > 0))
        # tiny regularizer: residual bias bounded by the deepest filter null
        symbols, _ = demodulate(
            tx.samples, np.ones(M, complex), ALL_FILTERS[name], CFG, 1e-12
        )
        assert np.sqrt(np.mean(np.abs(symbols - frame.symbols) ** 2)) < 1e-4

    def test_noiseless_round_trip_with_repetition(self):
        cfg = FrameConfig(repetition=4)
        rng = np.random.default_rng(103)
        bits = rng.integers(0, 2, cfg.bits_per_frame)
        frame = DataFrame.from_bits(bits)
        filt = ALL_FILTERS["sinusoidal"]
        tx = modulate(frame, filt, cfg)
        symbols, _ = demodulate(tx.samples, np.ones(M, complex), filt, cfg, 1e-12)
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
            symbols, _ = demodulate(
                tx.samples + noise, np.ones(cfg.subcarriers, complex), filt, cfg, 1.0 / rho
            )
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
            demodulate(np.ones(10, complex), np.ones(M, complex), filt, CFG, 0.1)
        with pytest.raises(ValueError):
            demodulate(np.array([], dtype=complex), np.ones(M, complex), filt, CFG, 0.1)
        with pytest.raises(ValueError):
            demodulate(
                np.ones(CFG.samples_per_frame, complex), np.ones(5, complex), filt, CFG, 0.1
            )


class TestBoundaryValidation:
    """Each input is checked once where it enters; the rejection names it."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_nonfinite_inputs_named(self, bad):
        filt = ALL_FILTERS["plain"]
        rx = np.ones(CFG.samples_per_frame, complex)
        h = np.ones(M, complex)
        with pytest.raises(ValueError, match="^data symbols"):
            modulate(single_symbol_frame(3, value=bad), filt, CFG)
        rx_bad = rx.copy()
        rx_bad[100] = bad
        with pytest.raises(ValueError, match="^rx "):
            demodulate(rx_bad, h, filt, CFG, 0.1)
        h_bad = h.copy()
        h_bad[5] = bad
        with pytest.raises(ValueError, match="^channel_freq "):
            demodulate(rx, h_bad, filt, CFG, 0.1)

    @pytest.mark.parametrize("noise_var", [-0.1, -np.inf, np.inf, np.nan])
    def test_bad_noise_var_named(self, noise_var):
        rx = np.ones(CFG.samples_per_frame, complex)
        with pytest.raises(ValueError, match="^noise_var "):
            demodulate(rx, np.ones(M, complex), ALL_FILTERS["plain"], CFG, noise_var)

    def test_zero_forcing_on_zero_gain_bins_rejected(self):
        filt = design_sinusoidal(1.0, M)
        assert np.sum(filt.coeffs == 0) == 81
        tx = modulate(DataFrame.from_bits(np.zeros(CFG.bits_per_frame, int)), filt, CFG)
        with pytest.raises(ValueError, match="^noise_var = 0"):
            demodulate(tx.samples, np.ones(M, complex), filt, CFG, 0.0)

    def test_zero_forcing_round_trip_flat_filter(self):
        bits = np.random.default_rng(5).integers(0, 2, CFG.bits_per_frame)
        frame = DataFrame.from_bits(bits)
        filt = design_plain(M)
        tx = modulate(frame, filt, CFG)
        symbols, _ = demodulate(tx.samples, np.ones(M, complex), filt, CFG, 0.0)
        assert np.max(np.abs(symbols - frame.symbols)) < 1e-12


class TestFrameConfig:
    def test_defaults(self):
        assert (CFG.subcarriers, CFG.idft_size, CFG.cp_len) == (336, 512, 96)
        assert CFG.symbols_per_frame == 336
        assert CFG.bits_per_frame == 672

    def test_validation(self):
        with pytest.raises(ValueError):
            FrameConfig(subcarriers=600, idft_size=512)
        with pytest.raises(ValueError):
            FrameConfig(cp_len=512)
        with pytest.raises(ValueError):
            FrameConfig(repetition=5)  # does not divide 336
