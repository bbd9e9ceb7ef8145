"""Filter designs against closed-form cross-oracles, sampled-chirp oracles and the Bessel product."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.fft import next_fast_len

from chirplink import fdss
from chirplink.fdss import (
    ChirpTrajectory,
    band_limits,
    design_arbitrary,
    design_linear,
    design_plain,
    design_sinusoidal,
    triangular_trajectory,
)
from oracles import bessel_product, nmse_db, piecewise_triangle

M, N, D = 336, 512, 318.0


def synthesize_single_chirp(filt, n=N):
    """Time-domain chirp from the filter: truncated Fourier synthesis."""
    grid = np.zeros(n, dtype=complex)
    grid[filt.subcarriers % n] = filt.coeffs
    return np.fft.ifft(grid)


def trajectory_f(traj, x):
    """The trajectory Fourier series f(x) = a0/2 + sum_n a_n cos(n x) + b_n sin(n x)."""
    n = np.arange(1, traj.n_harmonics + 1)
    nx = np.outer(n, np.asarray(x, dtype=float))
    return traj.a0 / 2.0 + traj.cos_coeffs @ np.cos(nx) + traj.sin_coeffs @ np.sin(nx)


def trajectory_slope(traj, x):
    """df/dx of the series, term by term: the normalized frequency profile."""
    n = np.arange(1, traj.n_harmonics + 1)
    nx = np.outer(n, np.asarray(x, dtype=float))
    return (traj.sin_coeffs * n) @ np.cos(nx) - (traj.cos_coeffs * n) @ np.sin(nx)


class TestPlain:
    def test_small_band(self):
        filt = design_plain(4)
        np.testing.assert_array_equal(filt.coeffs, np.ones(4, dtype=complex))
        np.testing.assert_array_equal(filt.subcarriers, [-1, 0, 1, 2])

    def test_band_limits_336(self):
        filt = design_plain(336)
        assert (filt.l_down, filt.l_up) == (-167, 168)
        assert band_limits(336) == (-167, 168)

    def test_rejects_bad_m(self):
        for m in (0, -1):
            with pytest.raises(ValueError):
                design_plain(m)


class TestSinusoidal:
    def test_zero_deviation_is_single_tone(self):
        filt = design_sinusoidal(0.0, 16)
        mags = np.abs(filt.coeffs)
        assert mags[filt.subcarriers == 0] == pytest.approx(np.sqrt(16))
        assert np.all(mags[filt.subcarriers != 0] == 0.0)

    def test_truncation_loss_at_default_operating_point(self):
        # oracle: out-of-band energy of the Bessel sequence (independent impl)
        filt = design_sinusoidal(D, M)
        ks = filt.subcarriers
        oracle_loss = 1.0 - np.sum(special.jv(ks, D / 2) ** 2)
        assert abs(filt.truncation_loss - oracle_loss) < 1e-9
        assert 0 < filt.truncation_loss < 2e-4

    def test_coefficient_ratio_against_quadrature_oracle(self):
        # J_1(1)/J_0(1) from the quadrature oracle: 0.575080915004306
        filt = design_sinusoidal(2.0, 16)
        ratio = filt.coeffs[1 - filt.l_down] / filt.coeffs[-filt.l_down]
        assert abs(ratio - 0.575080915004306) < 1e-9

    def test_rejects_oversized_deviation(self):
        with pytest.raises(ValueError):
            design_sinusoidal(20.0, 16)


class TestLinear:
    def test_magnitude_symmetry(self):
        filt = design_linear(D, M)
        mags = np.abs(filt.coeffs)
        ks = filt.subcarriers
        for k in range(1, 167):
            assert abs(mags[ks == k][0] - mags[ks == -k][0]) < 1e-6

    def test_against_oversampled_dft_oracle(self):
        filt = design_linear(D, M)
        oversample = 16 * M
        u = np.arange(oversample) / oversample
        chirp = np.exp(1j * np.pi * D * (u**2 - u))
        coeffs = np.fft.fft(chirp) / oversample
        oracle = coeffs[filt.subcarriers % oversample]
        oracle *= np.sqrt(M / np.sum(np.abs(oracle) ** 2))
        rel_rms = np.linalg.norm(filt.coeffs - oracle) / np.linalg.norm(oracle)
        assert rel_rms <= 1e-3

    def test_mild_ripple_compared_to_sinusoidal(self):
        lin = design_linear(D, M).magnitude_ratio()
        sin = design_sinusoidal(D, M).magnitude_ratio()
        assert np.isfinite(lin)
        assert lin < 0.1 * sin

    def test_rejects_bad_deviation(self):
        with pytest.raises(ValueError):
            design_linear(0.0, M)
        with pytest.raises(ValueError):
            design_linear(400.0, M)


class TestTrajectory:
    def test_triangular_coefficients(self):
        traj = triangular_trajectory(64)
        b = traj.sin_coeffs
        assert b[1] == pytest.approx(0.0, abs=1e-15)  # n = 2
        assert b[0] == pytest.approx(8 / np.pi**2)    # n = 1
        assert b[2] == pytest.approx(8 / (np.pi**2 * 27))  # n = 3
        assert np.all(b[1::2] == 0.0)

    def test_triangular_needs_converged_series(self):
        # below ~41 harmonics the truncated slope misses the +/-1 span by >1%
        with pytest.raises(ValueError):
            triangular_trajectory(8)

    def test_reconstruction_matches_piecewise_profile(self):
        traj = triangular_trajectory(64)
        x = np.linspace(-np.pi, np.pi, 10001)
        assert np.max(np.abs(trajectory_f(traj, x) - piecewise_triangle(x))) < 1e-3

    def test_slope_normalization_enforced(self):
        with pytest.raises(ValueError):
            ChirpTrajectory(0.0, np.zeros(1), np.array([0.8]), 10.0)
        with pytest.raises(ValueError):
            ChirpTrajectory(0.0, np.zeros(1), np.array([1.2]), 10.0)
        ChirpTrajectory(0.0, np.zeros(1), np.array([1.0]), 10.0)  # ok

    def test_slope_profile(self):
        traj = triangular_trajectory(64)
        x = np.array([0.0, np.pi / 2, np.pi + 1e-9])
        expect = np.array([1.0, 0.0, -1.0])
        np.testing.assert_allclose(trajectory_slope(traj, x), expect, atol=7e-3)

    @pytest.mark.parametrize("n_harmonics", [41, 64, 128])
    def test_grid_slope_matches_series(self, n_harmonics):
        traj = triangular_trajectory(n_harmonics)
        x = 2 * np.pi * np.arange(fdss.SLOPE_GRID) / fdss.SLOPE_GRID
        assert np.max(np.abs(traj._grid_slope() - trajectory_slope(traj, x))) < 1e-13

    @pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 3000, 4096, 5000])
    def test_grid_slope_folds_high_harmonics(self, n):
        # b_n = 1/n alone: slope cos(n x_l) on the grid x_l = 2 pi l / G,
        # with n l reduced mod G so the closed form is exact.  At n = G every
        # grid point sees cos(0) = 1, so the span check must fail.
        g = fdss.SLOPE_GRID
        closed = np.cos(2 * np.pi * (n * np.arange(g) % g) / g)
        accepted = abs(closed.max() - 1.0) <= 0.01 and abs(closed.min() + 1.0) <= 0.01
        b = np.zeros(n)
        b[-1] = 1.0 / n
        if accepted:
            ChirpTrajectory(0.0, np.zeros(n), b, 10.0)
        else:
            with pytest.raises(ValueError):
                ChirpTrajectory(0.0, np.zeros(n), b, 10.0)
        assert accepted == (n != g)


def oversampled_oracle(a, b, dev, filt):
    """In-band Fourier coefficients of exp(j (D/2) sum_n a_n cos nx + b_n sin nx), unit power.

    From the DFT of 16 * M samples of one period, aligned with ``filt``.
    """
    oversample = 16 * filt.m
    x = 2 * np.pi * np.arange(oversample) / oversample
    n = np.arange(1, len(a) + 1)
    f = a @ np.cos(np.outer(n, x)) + b @ np.sin(np.outer(n, x))
    oracle = np.fft.fft(np.exp(0.5j * dev * f)) / oversample
    oracle = oracle[filt.subcarriers % oversample]
    return oracle * np.sqrt(filt.m / np.sum(np.abs(oracle) ** 2))


class TestArbitrary:
    def test_pure_sine_reproduces_sinusoidal(self):
        for dev in (10.0, D):
            traj = ChirpTrajectory(0.0, np.zeros(1), np.array([1.0]), dev)
            arb = design_arbitrary(traj, M)
            ref = design_sinusoidal(dev, M)
            assert np.max(np.abs(arb.coeffs - ref.coeffs)) < 1e-9

    @pytest.mark.parametrize("dev", [1.0, 10.0, D])
    def test_one_harmonic_is_sinusoidal_to_roundoff(self, dev):
        traj = ChirpTrajectory(0.0, np.zeros(1), np.array([1.0]), dev)
        arb = design_arbitrary(traj, M)
        assert np.max(np.abs(arb.coeffs - design_sinusoidal(dev, M).coeffs)) < 1e-13

    # the paper's closed form: one Bessel factor per harmonic, all convolved
    @pytest.mark.parametrize("n_harmonics", [41, 64, 128, 256])
    @pytest.mark.parametrize("dev_fraction", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("m", [12, 48, 96, 336, 480])
    def test_triangular_matches_bessel_product(self, m, dev_fraction, n_harmonics):
        traj = triangular_trajectory(n_harmonics, deviation=dev_fraction * m)
        filt = design_arbitrary(traj, m)
        assert np.max(np.abs(filt.coeffs - bessel_product(traj, m))) < 1e-12

    @pytest.mark.parametrize("n_harmonics", [41, 64, 256])
    @pytest.mark.parametrize("m, dev", [(12, 1.0), (12, 10.0), (336, 1.0), (336, 10.0),
                                        (336, D), (336, 336.0)])
    def test_doubled_grid_changes_nothing(self, m, dev, n_harmonics, monkeypatch):
        traj = triangular_trajectory(n_harmonics, deviation=dev)
        ref = design_arbitrary(traj, m).coeffs
        sizes = []

        def doubled(n):
            sizes.append(2 * next_fast_len(n))
            return sizes[-1]

        monkeypatch.setattr(fdss, "next_fast_len", doubled)
        filt = design_arbitrary(traj, m)
        assert sizes == [2 * next_fast_len(4 * max(m, math.ceil(dev) + 2 * n_harmonics))]
        assert np.max(np.abs(filt.coeffs - ref)) < 1e-13

    def test_pure_cosine_matches_rotated_bessel(self):
        traj = ChirpTrajectory(0.0, np.array([1.0]), np.zeros(1), 10.0)
        filt = design_arbitrary(traj, 64)
        ks = filt.subcarriers
        ref = special.jv(ks, 5.0)
        ref = ref * np.sqrt(64 / np.sum(ref**2))
        np.testing.assert_allclose(np.abs(filt.coeffs), np.abs(ref), atol=1e-9)
        # phases differ from the sine case by exactly j^k
        derotated = filt.coeffs * np.array([1, -1j, -1, 1j])[np.mod(ks, 4)]
        np.testing.assert_allclose(derotated.imag, 0.0, atol=1e-9)
        np.testing.assert_allclose(derotated.real, ref, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(theta=st.floats(-np.pi, np.pi, exclude_min=True))
    def test_one_harmonic_against_oversampled_oracle(self, theta):
        # (a, b) = (cos, sin) of any angle: one factor J_m(z) e^{j m phi}, any signs
        a, b, dev, m = np.cos(theta), np.sin(theta), 40.0, 64
        a, b = np.array([a]), np.array([b])
        filt = design_arbitrary(ChirpTrajectory(0.0, a, b, dev), m)
        assert np.max(np.abs(filt.coeffs - oversampled_oracle(a, b, dev, filt))) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        harmonics=st.lists(st.sampled_from([1, 3, 5, 7]), min_size=1, max_size=3, unique=True),
        m=st.sampled_from([32, 64, 96]),
        dev_fraction=st.floats(0.05, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_trajectory_against_oversampled_oracle(self, harmonics, m, dev_fraction, seed):
        # odd harmonics only: slope(x + pi) = -slope(x), so scaling the grid
        # maximum to 1 also puts the minimum at -1 (both are grid points)
        rng = np.random.default_rng(seed)
        a, b = np.zeros(max(harmonics)), np.zeros(max(harmonics))
        idx = np.array(harmonics) - 1
        a[idx], b[idx] = rng.uniform(-1, 1, (2, len(idx)))
        x = 2 * np.pi * np.arange(fdss.SLOPE_GRID) / fdss.SLOPE_GRID
        n = np.arange(1, len(a) + 1)
        peak = np.max((b * n) @ np.cos(np.outer(n, x)) - (a * n) @ np.sin(np.outer(n, x)))
        a, b = a / peak, b / peak
        dev = dev_fraction * m
        filt = design_arbitrary(ChirpTrajectory(0.0, a, b, dev), m)
        assert np.max(np.abs(filt.coeffs - oversampled_oracle(a, b, dev, filt))) < 1e-9

    def test_tiny_harmonic_kept(self):
        # z = (D/2) * 1e-9 = 5e-9 on harmonic 2: its J_1(z) ~ z/2 terms stay
        # in the sampled chirp, so the oracle bound holds
        a, b, dev = np.zeros(2), np.array([1.0, 1e-9]), 10.0
        filt = design_arbitrary(ChirpTrajectory(0.0, a, b, dev), 64)
        assert np.max(np.abs(filt.coeffs - oversampled_oracle(a, b, dev, filt))) < 1e-9

    def test_constant_phase_term(self):
        base = ChirpTrajectory(0.0, np.zeros(1), np.array([1.0]), 10.0)
        offset = ChirpTrajectory(1.0, np.zeros(1), np.array([1.0]), 10.0)
        a = design_arbitrary(base, 64)
        b = design_arbitrary(offset, 64)
        np.testing.assert_allclose(b.coeffs, a.coeffs * np.exp(1j * 10.0 / 4.0), atol=1e-9)

    def test_triangular_synthesis_nmse(self):
        traj = triangular_trajectory(64, deviation=D)
        filt = design_arbitrary(traj, M)
        synth = synthesize_single_chirp(filt)
        tau = np.arange(N) / N
        ref = np.exp(1j * (D / 2) * piecewise_triangle(2 * np.pi * tau))
        assert nmse_db(synth, ref) <= -25.0

    def test_reports_truncation_loss(self):
        traj = triangular_trajectory(64, deviation=D)
        filt = design_arbitrary(traj, M)
        assert 0 < filt.truncation_loss < 2e-3
        # narrower band at same deviation loses more energy
        lossier = design_arbitrary(triangular_trajectory(64, deviation=318.0), 320)
        assert lossier.truncation_loss > filt.truncation_loss

    def test_rejects_band_overflow(self):
        with pytest.raises(ValueError):
            design_arbitrary(triangular_trajectory(64, deviation=100.0), 64)


class TestFilterInvariants:
    @pytest.mark.parametrize("make", [
        lambda: design_plain(M),
        lambda: design_linear(D, M),
        lambda: design_sinusoidal(D, M),
        lambda: design_arbitrary(triangular_trajectory(64, deviation=D), M),
    ])
    def test_band_and_power(self, make):
        filt = make()
        assert len(filt.coeffs) == M
        assert filt.subcarriers[0] == M // 2 - M + 1
        assert filt.subcarriers[-1] == M // 2
        assert abs(np.sum(np.abs(filt.coeffs) ** 2) - M) < 1e-9 * M

    @pytest.mark.parametrize("m", [0, -5])
    @pytest.mark.parametrize("make", [
        design_plain,
        lambda m: design_linear(4.0, m),
        lambda m: design_sinusoidal(4.0, m),
        lambda m: design_arbitrary(triangular_trajectory(64, deviation=4.0), m),
    ], ids=["plain", "linear", "sinusoidal", "triangular"])
    def test_band_size_named(self, make, m):
        with pytest.raises(ValueError, match=f"^subcarriers must be >= 1, got {m}$"):
            make(m)

    @pytest.mark.parametrize("make, name", [
        (lambda: design_plain(336.0), "subcarriers"),
        (lambda: design_sinusoidal(10.0, 48.0), "subcarriers"),
        (lambda: design_linear(10.0, "48"), "subcarriers"),
        (lambda: design_arbitrary(triangular_trajectory(64, deviation=4.0), np.float64(48)),
         "subcarriers"),
        (lambda: design_sinusoidal("318", 336), "deviation"),
        (lambda: design_linear("318", 336), "deviation"),
        (lambda: design_linear(10**400, 336), "deviation"),
        (lambda: triangular_trajectory(64, deviation=True), "deviation"),
        (lambda: ChirpTrajectory(sin_coeffs=np.ones(1), deviation=None), "deviation"),
        (lambda: triangular_trajectory(41.0), "n_harmonics"),
        (lambda: triangular_trajectory("64"), "n_harmonics"),
    ], ids=["plain_m_float", "sinusoidal_m_float", "linear_m_str", "arbitrary_m_numpy_float",
            "sinusoidal_deviation_str", "linear_deviation_str", "linear_deviation_huge_int",
            "triangular_deviation_bool", "trajectory_deviation_none", "triangular_harmonics_float",
            "triangular_harmonics_str"])
    def test_wrong_type_is_named(self, make, name):
        # a ValueError naming the argument, not a numpy TypeError naming nothing
        with pytest.raises(ValueError, match=f"^{name} must be "):
            make()

    def test_truncation_loss_monotone_in_band_size(self):
        losses = [design_sinusoidal(100.0, m).truncation_loss for m in (104, 128, 168, 336)]
        assert all(a >= b - 1e-15 for a, b in zip(losses, losses[1:]))

    def test_raw_power_bound_validated(self):
        # every filter is unit-average-power: sum |c|^2 must equal m
        assert fdss.FdssFilter(np.ones(4, dtype=complex)).m == 4  # ok
        for coeffs in (np.full(4, 2.0), np.full(4, 0.5), np.array([1.0, 1.0, 1.0, 1.0 + 1e-6])):
            with pytest.raises(ValueError):
                fdss.FdssFilter(coeffs.astype(complex))

    def test_band_size_is_coefficient_count(self):
        filt = fdss.FdssFilter(np.ones(6), truncation_loss=0.25)
        assert (filt.m, filt.truncation_loss) == (6, 0.25)
        with pytest.raises(ValueError, match="nonempty 1-d"):
            fdss.FdssFilter(np.ones((2, 2)))
        with pytest.raises(ValueError, match="nonempty 1-d"):
            fdss.FdssFilter(np.ones(0))
        with pytest.raises(ValueError, match="finite"):
            fdss.FdssFilter(np.array([1.0, np.nan]))
        # truncation_loss is keyword-only: an old positional band size fails loudly
        with pytest.raises(TypeError):
            fdss.FdssFilter(np.ones(4), 4)
