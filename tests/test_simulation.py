"""Sweep harness: SNR conversions, determinism, convergence accounting."""

import numpy as np
import pytest

from chirplink import simulation
from chirplink.channel import ChannelProfile
from chirplink.simulation import (
    BerPoint,
    LinkConfig,
    ebn0_at_ber,
    ebn0_to_subcarrier_snr,
    run_ber_sweep,
    sample_noise_variance,
)
from chirplink.transceiver import FrameConfig


class TestSnrConversions:
    def test_qpsk_factor(self):
        rho = ebn0_to_subcarrier_snr(0.0, FrameConfig())
        assert 10 * np.log10(rho) == pytest.approx(3.0103, abs=1e-3)

    def test_repetition_shares_energy(self):
        rho = ebn0_to_subcarrier_snr(0.0, FrameConfig(repetition=4))
        assert 10 * np.log10(rho) == pytest.approx(-3.0103, abs=1e-3)

    def test_guard_band_noise_factor(self):
        cfg = FrameConfig()
        assert sample_noise_variance(1.0, cfg) == pytest.approx(512 / 336)


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

    @pytest.mark.parametrize("field, value", [
        ("ebn0_grid_db", (4.0, float("nan"))),
        ("ebn0_grid_db", (float("inf"),)),
        ("ebn0_grid_db", (float("-inf"), 4.0)),
        ("seed", -1),
    ])
    def test_rejection_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            LinkConfig(**{field: value})


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
