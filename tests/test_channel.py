"""Multipath model: tap statistics, convolution, and the CP/FDE identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirplink import channel
from chirplink.channel import ChannelProfile


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
        with pytest.raises(ValueError, match="tap_delays"):
            ChannelProfile((0.0, -3.0), 10.0, (0, 1.5))  # int() would truncate it to 1
        for k in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="rician_k"):
                ChannelProfile(rician_k=k)


class TestDraw:
    def test_huge_k_factor_degenerates(self):
        p = ChannelProfile(rician_k=1e9)
        rng = np.random.default_rng(0)
        h = channel.draw(p, rng)
        assert abs(abs(h[0]) - np.sqrt(p.tap_powers[0])) < 1e-3

    def test_average_energy_is_unity(self):
        p = ChannelProfile()
        rng = np.random.default_rng(1)
        n = 100_000
        total = np.sum(np.abs(channel.draw(p, rng, n)) ** 2)
        assert total / n == pytest.approx(1.0, rel=0.01)

    def test_first_tap_power(self):
        p = ChannelProfile()
        rng = np.random.default_rng(2)
        total = np.sum(np.abs(channel.draw(p, rng, 100_000)[:, 0]) ** 2)
        assert total / 100_000 == pytest.approx(p.tap_powers[0], rel=0.01)

    def test_deterministic_given_seed(self):
        p = ChannelProfile()
        a = channel.draw(p, np.random.default_rng(42))
        b = channel.draw(p, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_stream_pinned(self):
        # Frozen first draw for seed 2024: two normals per tap, taps in order.
        h = channel.draw(ChannelProfile(), np.random.default_rng(2024))
        expect = [
            1.1131873154828842 + 0.3322608516580539j,
            0.2433776659194326 - 0.20654584916690297j,
            -0.09347862183860117 + 0.004509924059427851j,
        ]
        np.testing.assert_allclose(h, expect, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("profile", [ChannelProfile(), ChannelProfile((0.0,), 0.0, (0,)),
                                         ChannelProfile((0.0, -3.0), 2.0, (0, 4))])
    def test_batch_rows_equal_single_calls(self, profile):
        n, length = 5, 40
        batch = channel.draw(profile, np.random.default_rng(8), n)
        rng = np.random.default_rng(8)
        singles = [channel.draw(profile, rng) for _ in range(n)]
        assert batch.shape == (n, profile.max_delay + 1)
        np.testing.assert_array_equal(batch, singles)
        # delays without a tap are exactly zero
        gaps = np.setdiff1d(np.arange(profile.max_delay + 1), profile.tap_delays)
        assert not np.any(batch[:, gaps])
        np.testing.assert_array_equal(
            channel.freq_response(batch, 16), [channel.freq_response(h, 16) for h in singles]
        )
        parts = np.random.default_rng(9).standard_normal((2, n, length))
        x = parts[0] + 1j * parts[1]
        np.testing.assert_array_equal(
            channel.apply(x, batch), [channel.apply(row, h) for row, h in zip(x, singles)]
        )

    def test_realization_validation(self):
        # the impulse response is checked where it is used: apply and freq_response
        x = np.ones(8, dtype=complex)
        bad = ([], np.zeros((3, 0)), 1.0, [1.0, np.nan], [1.0, np.inf],
               [[1.0, 0.5], [1.0, complex(0.0, np.inf)]])
        for h in bad:
            with pytest.raises(ValueError, match="impulse response"):
                channel.apply(x, h)
            with pytest.raises(ValueError, match="impulse response"):
                channel.freq_response(h, 8)


class TestApply:
    def test_identity_channel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        np.testing.assert_array_equal(channel.apply(x, [1.0]), x)

    def test_two_tap_impulse(self):
        x = np.zeros(8, dtype=complex)
        x[0] = 1.0
        y = channel.apply(x, np.array([1.0, 0.5], dtype=complex))
        expect = np.zeros(8, dtype=complex)
        expect[0], expect[1] = 1.0, 0.5
        np.testing.assert_allclose(y, expect)


@st.composite
def profiles(draw):
    """1-4 taps at strictly increasing delays of at most 15 samples."""
    taps = draw(st.integers(1, 4))
    delays = sorted(draw(st.sets(st.integers(0, 15), min_size=taps, max_size=taps)))
    powers = draw(st.lists(st.floats(-30.0, 0.0), min_size=taps, max_size=taps))
    return ChannelProfile(tuple(powers), draw(st.floats(0.0, 100.0)), tuple(delays))


class TestFreqResponse:
    def test_unit_tap(self):
        np.testing.assert_allclose(channel.freq_response([1.0], 16), np.ones(16))

    def test_unit_delay(self):
        np.testing.assert_allclose(
            channel.freq_response([0.0, 1.0], 4), [1, -1j, -1, 1j], atol=1e-15
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
        h = channel.draw(profile, rng)
        body = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        frame = np.concatenate([body[-cp:], body])
        out = channel.apply(frame, h)
        lhs = np.fft.fft(out[cp:])
        rhs = channel.freq_response(h, n) * np.fft.fft(body)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))

    @settings(max_examples=60, deadline=None)
    @given(
        profile=profiles(),
        n=st.integers(16, 512),
        extra_cp=st.integers(0, 8),
        count=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cp_fde_identity_random_profiles(self, profile, n, extra_cp, count, seed):
        cp = min(n, profile.max_delay + extra_cp)  # memory <= CP <= N
        batch = channel.draw(profile, np.random.default_rng(seed), count)
        rng = np.random.default_rng(seed)
        np.testing.assert_array_equal(batch, [channel.draw(profile, rng) for _ in range(count)])
        parts = np.random.default_rng(seed + 1).standard_normal((2, count, n))
        body = parts[0] + 1j * parts[1]
        out = channel.apply(np.concatenate([body[:, n - cp :], body], axis=1), batch)
        lhs = np.fft.fft(out[:, cp:], axis=1)
        rhs = channel.freq_response(batch, n) * np.fft.fft(body, axis=1)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))

    def test_transform_shorter_than_memory_rejected(self):
        h = np.array([1.0, 0, 0, 0, 0.5], dtype=complex)
        with pytest.raises(ValueError, match="channel memory 4"):
            channel.freq_response(h, 4)

    def test_memory_longer_than_signal_rejected(self):
        h = np.zeros(41, dtype=complex)
        h[0], h[40] = 1.0, 0.5
        with pytest.raises(ValueError):
            channel.apply(np.ones(8, dtype=complex), h)
