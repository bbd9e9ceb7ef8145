"""Special functions and transforms against independent quadrature oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from chirplink import numerics
from chirplink.numerics import convolve_full, dft, fresnel


def bessel_oracle(order: int, x: float) -> float:
    """J_order(x) via its integral definition, evaluated by adaptive quadrature."""
    val, _ = integrate.quad(
        lambda t: np.cos(order * t - x * np.sin(t)), 0.0, np.pi,
        limit=2000, epsabs=1e-13, epsrel=1e-13,
    )
    return val / np.pi


def fresnel_oracle(x: float) -> tuple[float, float]:
    c, _ = integrate.quad(lambda u: np.cos(np.pi * u * u / 2), 0.0, x,
                          limit=2000, epsabs=1e-13, epsrel=1e-13)
    s, _ = integrate.quad(lambda u: np.sin(np.pi * u * u / 2), 0.0, x,
                          limit=2000, epsabs=1e-13, epsrel=1e-13)
    return c, s


def bessel_at(order: int, x: float) -> float:
    """J_order(x) read off the signed sequence, order of either sign."""
    k = abs(order)
    return numerics.bessel_j_sequence(k, x)[k + order]


class TestBessel:
    def test_zero_argument(self):
        seq = numerics.bessel_j_sequence(7, 0.0)
        assert seq[7] == 1.0
        assert np.all(np.delete(seq, 7) == 0.0)

    def test_against_frozen_oracle_value(self):
        # bessel_oracle(3, 2.5) == 0.2166003910391136
        assert abs(bessel_at(3, 2.5) - 0.2166003910391136) < 1e-10
        assert abs(bessel_at(-3, 2.5) + 0.2166003910391136) < 1e-10

    @pytest.mark.parametrize("order", [0, 1, 5, 17])
    @pytest.mark.parametrize("x", [0.3, 2.5, 12.0, 88.0, 250.5, 500.0])
    def test_against_quadrature_oracle(self, order, x):
        assert abs(bessel_at(order, x) - bessel_oracle(order, x)) < 1e-10
        assert abs(bessel_at(-order, x) - bessel_oracle(-order, x)) < 1e-10

    def test_high_order(self):
        # deep in the decay region and near the turning point
        for order, x in [(170, 159.0), (159, 159.0), (300, 250.5)]:
            assert abs(bessel_at(order, x) - bessel_oracle(order, x)) < 1e-10

    def test_reflection_exact(self):
        # the mirrored negative half against scipy evaluating negative orders itself
        for kmax in (1, 2, 5, 8, 40):
            for x in (0.0, 0.7, 3.3, 42.0, 159.0):
                seq = numerics.bessel_j_sequence(kmax, x)
                np.testing.assert_array_equal(seq[:kmax], special.jv(np.arange(-kmax, 0), x))

    @pytest.mark.parametrize("x", [0.5, 3.0, 17.0, 59.3, 142.7, 200.0])
    def test_sum_rule(self, x):
        seq = numerics.bessel_j_sequence(int(np.ceil(x)) + 60, x)
        total = np.sum(seq**2)
        assert total >= 1.0 - 1e-9
        assert total <= 1.0 + 1e-12

    def test_sequence_matches_scalar(self):
        # x on both sides of 10, where a series/recurrence split would sit
        for x in (0.5, 9.9, 10.0, 10.1, 25.0):
            seq = numerics.bessel_j_sequence(40, x)
            for k in (0, 1, 13, 40):
                assert abs(seq[40 + k] - special.jv(k, x)) < 1e-14

    def test_domain_errors(self):
        for x in (np.nan, np.inf, -np.inf, 2e6):
            with pytest.raises(ValueError):
                numerics.bessel_j_sequence(2, x)

    def test_sequence_domain_errors(self):
        with pytest.raises(ValueError):
            numerics.bessel_j_sequence(3, -0.5)
        with pytest.raises(ValueError):
            numerics.bessel_j_sequence(-1, 1.0)


class TestFresnel:
    def test_zero(self):
        assert fresnel(0.0) == (0.0, 0.0)

    def test_odd_symmetry_exact(self):
        for x in (0.4, 1.0, 3.7, 50.0):
            c, s = fresnel(x)
            cm, sm = fresnel(-x)
            assert cm == -c and sm == -s

    def test_frozen_oracle_values(self):
        # fresnel_oracle(1.0) == (0.7798934003768228, 0.4382591473903548)
        c, s = fresnel(1.0)
        assert abs(c - 0.7798934003768228) < 1e-10
        assert abs(s - 0.4382591473903548) < 1e-10
        # fresnel_oracle(0.3) and fresnel_oracle(2.7)
        c, s = fresnel(0.3)
        assert abs(c - 0.2994009760520472) < 1e-10
        assert abs(s - 0.014116998006576582) < 1e-10
        c, s = fresnel(2.7)
        assert abs(c - 0.3924939698527476) < 1e-10
        assert abs(s - 0.4529174876167188) < 1e-10

    @pytest.mark.parametrize("x", [0.15, 0.8, 1.9, 4.3])
    def test_against_quadrature_oracle(self, x):
        c_ref, s_ref = fresnel_oracle(x)
        c, s = fresnel(x)
        assert abs(c - c_ref) < 1e-10
        assert abs(s - s_ref) < 1e-10

    def test_large_argument_limits(self):
        # Both integrals approach 0.5 inside the asymptotic envelope 1/(pi x);
        # at x = 50 the envelope is 6.4e-3 (S sits right on it), so the 1e-3
        # bound is first guaranteed around x ~ 320.
        c, s = fresnel(50.0)
        envelope = 1.0 / (np.pi * 50.0) + 1e-6
        assert abs(c - 0.5) < envelope
        assert abs(s - 0.5) < envelope
        c, s = fresnel(500.0)
        assert abs(c - 0.5) < 1e-3
        assert abs(s - 0.5) < 1e-3

    def test_domain_error(self):
        with pytest.raises(ValueError):
            fresnel(np.inf)
        with pytest.raises(ValueError):
            fresnel(np.array([0.5, np.nan]))

    def test_array_matches_scalar(self):
        x = np.array([-50.0, -3.7, -0.4, 0.0, 0.15, 1.0, 2.7, 500.0])
        c, s = fresnel(x)
        assert c.shape == s.shape == x.shape
        for xi, ci, si in zip(x, c, s):
            assert (ci, si) == fresnel(float(xi))

    def test_array_odd_symmetry_exact(self):
        x = np.linspace(0.0, 60.0, 242).reshape(11, -1)
        c, s = fresnel(x)
        cm, sm = fresnel(-x)
        np.testing.assert_array_equal(cm, -c)
        np.testing.assert_array_equal(sm, -s)

    def test_scalar_gives_floats(self):
        c, s = fresnel(np.float64(1.0))
        assert type(c) is float and type(s) is float


class TestDft:
    def test_impulse_flat(self):
        x = np.zeros(16, dtype=complex)
        x[0] = 1.0
        np.testing.assert_allclose(dft(x), np.full(16, 0.25), atol=1e-14)

    def test_single_tone(self):
        n = np.arange(8)
        x = np.exp(2j * np.pi * n * 3 / 8)
        X = dft(x)
        expect = np.zeros(8, dtype=complex)
        expect[3] = np.sqrt(8)
        np.testing.assert_allclose(X, expect, atol=1e-12)

    @pytest.mark.parametrize("length", [1, 7, 336, 512])
    def test_round_trip(self, length):
        rng = np.random.default_rng(length)
        x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        back = dft(dft(x), inverse=True)
        assert np.max(np.abs(back - x)) <= 1e-12 * max(1.0, np.max(np.abs(x)))

    @pytest.mark.parametrize("length", [64, 336, 512])
    def test_parseval(self, length):
        rng = np.random.default_rng(length + 1)
        x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        time_power = np.sum(np.abs(x) ** 2)
        freq_power = np.sum(np.abs(dft(x)) ** 2)
        assert abs(time_power - freq_power) <= 1e-10 * time_power

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dft([])


class TestConvolveFull:
    """Centred arrays: length L holds the coefficients at -(L-1)/2 .. (L-1)/2.

    The FFT product is exact only up to roundoff, so results are checked
    within 1e-13 of the largest expected coefficient.
    """

    def test_identity(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        out = convolve_full(a, np.ones(1))
        assert out.shape == a.shape
        assert np.max(np.abs(out - a)) <= 1e-13 * np.max(np.abs(a))

    def test_start_index_arithmetic(self):
        # start indices -1 and -2 add to -3, the start of a centred length-7 array
        out = convolve_full(np.ones(3), np.ones(5))
        assert len(out) == 7
        expect = np.array([1, 2, 3, 3, 3, 2, 1])
        assert np.max(np.abs(out - expect)) <= 1e-13 * 3

    def test_against_double_loop_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        # coefficient at index i + j of the product is the sum of a_i b_j
        expect = np.zeros(len(a) + len(b) - 1, dtype=complex)
        for i in range(-3, 4):
            for j in range(-4, 5):
                expect[i + j + 7] += a[i + 3] * b[j + 4]
        out = convolve_full(a, b)
        assert np.max(np.abs(out - expect)) < 1e-13

    def test_no_factors_is_one(self):
        np.testing.assert_array_equal(convolve_full(), [1.0])

    def test_rejects_even_length(self):
        with pytest.raises(ValueError):
            convolve_full(np.ones(3), np.ones(4))

    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 40).map(lambda h: 2 * h + 1), max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_chained_convolve(self, lengths, seed):
        rng = np.random.default_rng(seed)
        factors = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in lengths]
        expect = np.ones(1, dtype=complex)
        for f in factors:
            expect = np.convolve(expect, f)
        out = convolve_full(*factors)
        assert out.shape == expect.shape
        assert np.max(np.abs(out - expect)) <= 1e-13 * np.max(np.abs(expect))
