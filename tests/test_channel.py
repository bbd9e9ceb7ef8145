"""Multipath model: tap statistics, convolution, and the CP/FDE identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirplink import channel
from chirplink.channel import ChannelProfile
from oracles import fft_response, impulse


@st.composite
def profiles(draw):
    """1-4 taps at strictly increasing delays of at most 15 samples."""
    taps = draw(st.integers(1, 4))
    delays = sorted(draw(st.sets(st.integers(0, 15), min_size=taps, max_size=taps)))
    powers = draw(st.lists(st.floats(-30.0, 0.0), min_size=taps, max_size=taps))
    return ChannelProfile(tuple(powers), draw(st.floats(0.0, 100.0)), tuple(delays))


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
        for k in (-1.0, np.inf, np.nan, -2**63 - 1):  # an int past int64 too
            with pytest.raises(ValueError, match="rician_k"):
                ChannelProfile(rician_k=k)

    @pytest.mark.parametrize("shift", [4000.0, -4000.0])
    def test_common_offset_leaves_powers_unchanged(self, shift):
        # 10^(dB/10) alone over- or underflows here; relative to the strongest
        # tap it does not
        base = ChannelProfile((0.0, -10.0, -20.0))
        shifted = ChannelProfile(tuple(p + shift for p in base.tap_powers_db))
        np.testing.assert_array_equal(shifted.tap_powers, base.tap_powers)

    @pytest.mark.parametrize("powers_db", [(4000.0, 0.0), (-4000.0, -4000.0), (-1e308, 1e308)])
    def test_extreme_powers_draw_finite(self, powers_db):
        p = ChannelProfile(powers_db, 10.0, (0, 1))
        assert np.all(np.isfinite(p.tap_powers)) and p.tap_powers.sum() == 1.0
        assert np.all(np.isfinite(channel.draw(p, np.random.default_rng(3), 16)))


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
        assert batch.shape == (n, len(profile.tap_delays))
        np.testing.assert_array_equal(batch, singles)
        bins = np.arange(16)
        np.testing.assert_array_equal(
            channel.freq_response(profile, batch, bins, 16),
            [channel.freq_response(profile, h, bins, 16) for h in singles],
        )
        parts = np.random.default_rng(9).standard_normal((2, n, length))
        x = parts[0] + 1j * parts[1]
        np.testing.assert_array_equal(
            channel.apply(x, profile, batch),
            [channel.apply(row, profile, h) for row, h in zip(x, singles)],
        )

    @pytest.mark.parametrize("count", [2.5, True, "2", np.float64(2.0)])
    def test_count_must_be_an_integer(self, count):
        with pytest.raises(ValueError, match="^count must be an integer"):
            channel.draw(ChannelProfile(), np.random.default_rng(0), count)

    def test_count_must_be_non_negative(self):
        with pytest.raises(ValueError, match="^count must be >= 0, got -1"):
            channel.draw(ChannelProfile(), np.random.default_rng(0), -1)
        assert channel.draw(ChannelProfile(), np.random.default_rng(0), 0).shape == (0, 3)

    def test_realization_validation(self):
        # the taps are checked where they are used: apply and freq_response
        profile, x = ChannelProfile(), np.ones(8, dtype=complex)
        bad = ([], np.zeros((3, 0)), 1.0, [1.0, 0.5], np.ones((2, 4)), [1.0, np.nan, 0.0],
               [1.0, np.inf, 0.0], [[1.0, 0.5, 0.2], [1.0, complex(0.0, np.inf), 0.2]])
        for taps in bad:
            with pytest.raises(ValueError, match="^taps must be finite, 3 on the last axis"):
                channel.apply(x, profile, taps)
            with pytest.raises(ValueError, match="^taps must be finite, 3 on the last axis"):
                channel.freq_response(profile, taps, np.arange(8), 8)


class TestApply:
    def test_identity_channel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        np.testing.assert_array_equal(channel.apply(x, ChannelProfile((0.0,), 0.0, (0,)), [1.0]), x)

    def test_two_tap_impulse(self):
        x = np.zeros(8, dtype=complex)
        x[0] = 1.0
        y = channel.apply(x, ChannelProfile((0.0, -3.0), 2.0, (0, 3)), [1.0, 0.5])
        expect = np.zeros(8, dtype=complex)
        expect[0], expect[3] = 1.0, 0.5
        np.testing.assert_allclose(y, expect)

    @settings(max_examples=40, deadline=None)
    @given(profile=profiles(), length=st.integers(15, 64), count=st.none() | st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_convolution(self, profile, length, count, seed):
        rng = np.random.default_rng(seed)
        taps = channel.draw(profile, rng, count)
        parts = rng.standard_normal((2, count or 1, length))
        x = parts[0] + 1j * parts[1]
        dense = [np.convolve(row, h)[:length]
                 for row, h in zip(x, np.atleast_2d(impulse(profile, taps)))]
        got = channel.apply(x if count else x[0], profile, taps)
        assert np.max(np.abs(np.atleast_2d(got) - dense)) < 1e-12


class TestFreqResponse:
    def test_unit_tap(self):
        flat = ChannelProfile((0.0,), 0.0, (0,))
        np.testing.assert_allclose(channel.freq_response(flat, [1.0], np.arange(16), 16),
                                   np.ones(16))

    def test_unit_delay(self):
        delayed = ChannelProfile((0.0,), 0.0, (1,))
        np.testing.assert_allclose(
            channel.freq_response(delayed, [1.0], np.arange(4), 4), [1, -1j, -1, 1j], atol=1e-15
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
        taps = channel.draw(profile, rng)
        body = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        frame = np.concatenate([body[-cp:], body])
        out = channel.apply(frame, profile, taps)
        lhs = np.fft.fft(out[cp:])
        rhs = channel.freq_response(profile, taps, np.arange(n), n) * np.fft.fft(body)
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
        parts = np.random.default_rng(seed + 1).standard_normal((2, count, n))
        body = parts[0] + 1j * parts[1]
        out = channel.apply(np.concatenate([body[:, n - cp :], body], axis=1), profile, batch)
        lhs = np.fft.fft(out[:, cp:], axis=1)
        rhs = channel.freq_response(profile, batch, np.arange(n), n) * np.fft.fft(body, axis=1)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))

    @settings(max_examples=60, deadline=None)
    @given(profile=profiles(), n=st.integers(16, 4096), m=st.integers(1, 4096),
           count=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_fft_on_the_bins(self, profile, n, m, count, seed):
        m = min(m, n)
        bins = np.arange(-(m // 2), m - m // 2) % n  # a band around DC, in FFT order
        taps = channel.draw(profile, np.random.default_rng(seed), count)
        lhs = channel.freq_response(profile, taps, bins, n)
        rhs = fft_response(profile, taps, n)[:, bins]
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_phase_index_is_exact_beyond_int64(self):
        # -1 * k mod n, though (n - 1) * k overflows int64
        n = 2**61 - 1
        profile = ChannelProfile((0.0, 0.0), 0.0, (0, n - 1))
        steer = channel.freq_response(profile, np.eye(2), np.array([n // 3, n // 4]), n)
        np.testing.assert_array_equal(steer[0], [1.0, 1.0])
        expected = np.exp(-2j * np.pi * np.array([n - n // 3, n - n // 4]) / n)
        np.testing.assert_allclose(steer[1], expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("bins", [[0.5, 1.5], np.array([0.0, 1.0]), [0, True], "01", 3,
                                      np.arange(4).reshape(2, 2)])
    def test_bins_must_be_integers(self, bins):
        # the phase index d k mod n is exact only for integer bins
        with pytest.raises(ValueError, match="^bins must be"):
            channel.freq_response(ChannelProfile(), np.ones(3), bins, 8)

    def test_transform_shorter_than_memory_rejected(self):
        profile = ChannelProfile((0.0, -6.0), 0.0, (0, 4))
        with pytest.raises(ValueError, match="channel memory 4"):
            channel.freq_response(profile, [1.0, 0.5], np.arange(4), 4)

    @pytest.mark.parametrize("n", [0, 2.5, -3, 1, 2, np.float64(8.0), True, "8", None])
    def test_n_must_be_an_integer_above_the_memory(self, n):
        with pytest.raises(ValueError, match="^n must be"):
            channel.freq_response(ChannelProfile(), np.ones(3), np.arange(2), n)

    @settings(max_examples=40, deadline=None)
    @given(profile=profiles(), data=st.data())
    def test_n_at_most_the_memory_rejected(self, profile, data):
        n = data.draw(st.integers(max_value=profile.max_delay))
        taps = np.ones(len(profile.tap_delays))
        with pytest.raises(ValueError, match=f"^n must be > the channel memory {profile.max_delay},"):
            channel.freq_response(profile, taps, [0], n)

    def test_memory_longer_than_signal_rejected(self):
        profile = ChannelProfile((0.0, -6.0), 0.0, (0, 40))
        with pytest.raises(ValueError):
            channel.apply(np.ones(8, dtype=complex), profile, [1.0, 0.5])
