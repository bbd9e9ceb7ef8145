"""Multipath model: tap statistics, convolution, and the CP/FDE identity."""

import numpy as np
import pytest

from chirplink import channel
from chirplink.channel import ChannelProfile, ChannelRealization, awgn_profile


class TestProfile:
    def test_default_profile(self):
        p = ChannelProfile()
        np.testing.assert_allclose(p.tap_powers.sum(), 1.0)
        assert p.max_delay == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelProfile((0.0, -10.0), 10.0, (0, 0))  # not strictly increasing
        with pytest.raises(ValueError):
            ChannelProfile((0.0,), 10.0, (-1,))
        with pytest.raises(ValueError):
            ChannelProfile((0.0, np.inf), 10.0, (0, 1))

    def test_awgn_profile(self):
        p = awgn_profile()
        assert len(p.tap_powers) == 1 and p.tap_powers[0] == 1.0


class TestDraw:
    def test_huge_k_factor_degenerates(self):
        p = ChannelProfile(rician_k=1e9)
        rng = np.random.default_rng(0)
        ch = channel.draw(p, rng)
        assert abs(abs(ch.taps[0]) - np.sqrt(p.tap_powers[0])) < 1e-3

    def test_average_energy_is_unity(self):
        p = ChannelProfile()
        rng = np.random.default_rng(1)
        total = 0.0
        n = 100_000
        for _ in range(n):
            ch = channel.draw(p, rng)
            total += np.sum(np.abs(ch.taps) ** 2)
        assert total / n == pytest.approx(1.0, rel=0.01)

    def test_first_tap_power(self):
        p = ChannelProfile()
        rng = np.random.default_rng(2)
        total = sum(abs(channel.draw(p, rng).taps[0]) ** 2 for _ in range(100_000))
        assert total / 100_000 == pytest.approx(p.tap_powers[0], rel=0.01)

    def test_deterministic_given_seed(self):
        p = ChannelProfile()
        a = channel.draw(p, np.random.default_rng(42))
        b = channel.draw(p, np.random.default_rng(42))
        np.testing.assert_array_equal(a.taps, b.taps)

    def test_stream_pinned(self):
        # Frozen first draw for seed 2024: two normals per tap, taps in order.
        ch = channel.draw(ChannelProfile(), np.random.default_rng(2024))
        expect = [
            1.1131873154828842 + 0.3322608516580539j,
            0.2433776659194326 - 0.20654584916690297j,
            -0.09347862183860117 + 0.004509924059427851j,
        ]
        np.testing.assert_allclose(ch.taps, expect, rtol=0, atol=1e-15)

    def test_realization_validation(self):
        for taps, delays in (([1.0, 0.5], (0,)), ([1.0], (-1,)), ([], ())):
            with pytest.raises(ValueError):
                ChannelRealization(np.array(taps, dtype=complex), delays)


class TestApply:
    def test_identity_channel(self):
        ch = ChannelRealization(np.array([1.0 + 0j]), (0,))
        rng = np.random.default_rng(0)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        np.testing.assert_array_equal(channel.apply(x, ch, 0.0, rng), x)

    def test_two_tap_impulse(self):
        ch = ChannelRealization(np.array([1.0, 0.5], dtype=complex), (0, 1))
        x = np.zeros(8, dtype=complex)
        x[0] = 1.0
        y = channel.apply(x, ch, 0.0, np.random.default_rng(0))
        expect = np.zeros(8, dtype=complex)
        expect[0], expect[1] = 1.0, 0.5
        np.testing.assert_allclose(y, expect)

    def test_noise_variance(self):
        ch = ChannelRealization(np.array([1.0 + 0j]), (0,))
        rng = np.random.default_rng(3)
        y = channel.apply(np.zeros(1_000_000, dtype=complex), ch, 0.25, rng)
        assert np.mean(np.abs(y) ** 2) == pytest.approx(0.25, rel=0.02)


class TestFreqResponse:
    def test_unit_tap(self):
        ch = ChannelRealization(np.array([1.0 + 0j]), (0,))
        np.testing.assert_allclose(channel.freq_response(ch, 16), np.ones(16))

    def test_unit_delay(self):
        ch = ChannelRealization(np.array([1.0 + 0j]), (1,))
        np.testing.assert_allclose(
            channel.freq_response(ch, 4), [1, -1j, -1, 1j], atol=1e-15
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cp_fde_consistency(self, seed):
        """Circular-convolution identity for CP-protected frames."""
        n, cp = 512, 96
        rng = np.random.default_rng(seed)
        ch = channel.draw(ChannelProfile(), rng)
        body = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        frame = np.concatenate([body[-cp:], body])
        out = channel.apply(frame, ch, 0.0, rng)
        lhs = np.fft.fft(out[cp:])
        rhs = channel.freq_response(ch, n) * np.fft.fft(body)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))

    def test_transform_shorter_than_memory_rejected(self):
        ch = ChannelRealization(np.array([1.0, 0.5], dtype=complex), (0, 4))
        with pytest.raises(ValueError, match="channel memory"):
            channel.freq_response(ch, 4)

    def test_memory_longer_than_signal_rejected(self):
        ch = ChannelRealization(np.array([1.0, 0.5], dtype=complex), (0, 40))
        with pytest.raises(ValueError):
            channel.apply(np.ones(8, dtype=complex), ch, 0.0, np.random.default_rng(0))
