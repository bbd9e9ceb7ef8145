"""Multipath model: tap statistics, convolution, and the CP/FDE identity."""

import numpy as np
import pytest

from chirplink import channel
from chirplink.channel import ChannelProfile, ChannelRealization


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
        for k in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="rician_k"):
                ChannelProfile(rician_k=k)


class TestDraw:
    def test_huge_k_factor_degenerates(self):
        p = ChannelProfile(rician_k=1e9)
        rng = np.random.default_rng(0)
        ch = channel.draw(p, rng)
        assert abs(abs(ch.taps[0]) - np.sqrt(p.tap_powers[0])) < 1e-3

    def test_average_energy_is_unity(self):
        p = ChannelProfile()
        rng = np.random.default_rng(1)
        n = 100_000
        total = np.sum(np.abs(channel.draw(p, rng, n).taps) ** 2)
        assert total / n == pytest.approx(1.0, rel=0.01)

    def test_first_tap_power(self):
        p = ChannelProfile()
        rng = np.random.default_rng(2)
        total = np.sum(np.abs(channel.draw(p, rng, 100_000).taps[:, 0]) ** 2)
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

    @pytest.mark.parametrize("profile", [ChannelProfile(), ChannelProfile((0.0,), 0.0, (0,)),
                                         ChannelProfile((0.0, -3.0), 2.0, (0, 4))])
    def test_batch_rows_equal_single_calls(self, profile):
        n, length = 5, 40
        batch = channel.draw(profile, np.random.default_rng(8), n)
        rng = np.random.default_rng(8)
        singles = [channel.draw(profile, rng) for _ in range(n)]
        assert batch.taps.shape == (n, len(profile.tap_delays))
        np.testing.assert_array_equal(batch.taps, [ch.taps for ch in singles])
        np.testing.assert_array_equal(
            channel.freq_response(batch, 16), [channel.freq_response(ch, 16) for ch in singles]
        )
        parts = np.random.default_rng(9).standard_normal((2, n, length))
        x = parts[0] + 1j * parts[1]
        np.testing.assert_array_equal(
            channel.apply(x, batch), [channel.apply(row, ch) for row, ch in zip(x, singles)]
        )

    def test_realization_validation(self):
        for taps, delays in (([1.0, 0.5], (0,)), ([1.0], (-1,)), ([], ())):
            with pytest.raises(ValueError):
                ChannelRealization(np.array(taps, dtype=complex), delays)


class TestApply:
    def test_identity_channel(self):
        ch = ChannelRealization(np.array([1.0 + 0j]), (0,))
        rng = np.random.default_rng(0)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        np.testing.assert_array_equal(channel.apply(x, ch), x)

    def test_two_tap_impulse(self):
        ch = ChannelRealization(np.array([1.0, 0.5], dtype=complex), (0, 1))
        x = np.zeros(8, dtype=complex)
        x[0] = 1.0
        y = channel.apply(x, ch)
        expect = np.zeros(8, dtype=complex)
        expect[0], expect[1] = 1.0, 0.5
        np.testing.assert_allclose(y, expect)


class TestFreqResponse:
    def test_unit_tap(self):
        ch = ChannelRealization(np.array([1.0 + 0j]), (0,))
        np.testing.assert_allclose(channel.freq_response(ch, 16), np.ones(16))

    def test_unit_delay(self):
        ch = ChannelRealization(np.array([1.0 + 0j]), (1,))
        np.testing.assert_allclose(
            channel.freq_response(ch, 4), [1, -1j, -1, 1j], atol=1e-15
        )

    @pytest.mark.parametrize("seed, cp, profile", [
        *[pytest.param(s, 96, ChannelProfile(), id=str(s)) for s in (0, 1, 2)],
        # a CP of L samples covers a channel memory of exactly L
        pytest.param(3, 4, ChannelProfile((0.0, -3.0, -6.0), 2.0, (0, 1, 4)), id="memory_eq_cp"),
    ])
    def test_cp_fde_consistency(self, seed, cp, profile):
        """Circular-convolution identity for CP-protected frames."""
        n = 512
        rng = np.random.default_rng(seed)
        ch = channel.draw(profile, rng)
        body = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        frame = np.concatenate([body[-cp:], body])
        out = channel.apply(frame, ch)
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
            channel.apply(np.ones(8, dtype=complex), ch)
