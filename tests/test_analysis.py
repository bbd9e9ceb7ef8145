"""Effective-SNR theory, BER law, and the PSD/spectrogram/PAPR diagnostics."""

import math
import numbers
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from chirplink import analysis
from chirplink.analysis import (
    papr,
    psd,
    snr_post,
    spectrogram,
    theoretical_ber_qpsk,
    usable_snr,
)
from chirplink.fdss import design_plain
from chirplink.simulation import WAVEFORMS, design_filter
from chirplink.transceiver import DataFrame, FrameConfig, _fold, modulate
from oracles import piecewise_triangle, render_frames

CFG = FrameConfig()
M, N, D = 336, 512, 318.0

FILTERS = {name: design_filter(name, D, M) for name in
           ("plain", "linear", "sinusoidal", "triangular")}

SNR_GRID_DB = np.arange(-10.0, 31.0, 1.0)

# anything a caller might pass as one SNR or repetition factor
ANY_ARGUMENT = st.one_of(
    st.integers(-2, 12),
    st.sampled_from([10**400, -(10**400), 2**1024 - 1, 2**70]),
    st.floats(allow_subnormal=True),  # NaN and +-inf included
    st.sampled_from([5e-324, 1e-308, 1e308]),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(1, 8).map(np.int32),
    st.lists(st.floats(0.0, 1e3), max_size=3).map(np.array),
    st.floats(1e-3, 1e3).map(np.array),
)


def single_chirp(name, cfg=CFG):
    d = np.zeros(cfg.symbols_per_frame, dtype=complex)
    d[0] = 1.0
    return modulate(DataFrame(d), FILTERS[name], cfg).samples[cfg.cp_len :]


def least_usable_snr(repetition):
    """The smallest SNR that ``usable_snr`` admits at this repetition factor."""
    s = repetition / sys.float_info.max
    while usable_snr(math.nextafter(s, 0.0), repetition):
        s = math.nextafter(s, 0.0)
    while not usable_snr(s, repetition):
        s = math.nextafter(s, math.inf)
    return s


@st.composite
def designs_at_usable_snr(draw):
    """(filter, R, snr): a random design, R dividing M, snr log-uniform over the usable range."""
    m = draw(st.integers(2, 96))
    filt = design_filter(draw(st.sampled_from(WAVEFORMS)), draw(st.floats(0.05, 1.0)) * m, m)
    r = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    lo, hi = least_usable_snr(r), sys.float_info.max
    u = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))  # both ends often
    log_snr = math.log(lo) + u * (math.log(hi) - math.log(lo))
    return filt, r, lo if u == 0 else hi if u == 1 else min(hi, max(lo, math.exp(log_snr)))


class TestSnrPost:
    @pytest.mark.parametrize("repetition", [1, 4])
    def test_flat_filter_identity(self, repetition):
        for snr_db in SNR_GRID_DB:
            snr = 10.0 ** (snr_db / 10.0)
            report = snr_post(FILTERS["plain"], snr, repetition)
            assert abs(report.snr_post - snr) <= 1e-9 * max(1.0, snr)
            assert not math.isinf(report.snr_post)

    @pytest.mark.parametrize("name", list(FILTERS))
    @pytest.mark.parametrize("repetition", [1, 4])
    def test_never_exceeds_input_snr(self, name, repetition):
        for snr_db in SNR_GRID_DB:
            snr = 10.0 ** (snr_db / 10.0)
            report = snr_post(FILTERS[name], snr, repetition)
            assert report.snr_post <= snr + 1e-9
            assert 0.0 < report.alpha_mmse <= 1.0

    @pytest.mark.parametrize("name", list(FILTERS))
    def test_monotone_in_snr(self, name):
        posts = [snr_post(FILTERS[name], 10.0 ** (s / 10.0), 1).snr_post
                 for s in SNR_GRID_DB]
        assert all(b >= a * (1 - 1e-12) for a, b in zip(posts, posts[1:]))

    def test_low_snr_limit(self):
        for name in FILTERS:
            assert snr_post(FILTERS[name], 1e-9, 1).snr_post < 1e-6

    def test_repetition_gain_for_shaped_filters(self):
        snr = 10.0
        for name in ("sinusoidal", "triangular"):
            r1 = snr_post(FILTERS[name], snr, 1).snr_post
            r4 = snr_post(FILTERS[name], snr, 4).snr_post
            assert r4 > r1

    def test_repetition_flattens_gain_ripple(self):
        for name in ("sinusoidal", "triangular"):
            a2 = np.abs(FILTERS[name].coeffs) ** 2
            ripple1 = a2.max() / a2.min()
            grouped = a2.reshape(4, M // 4).sum(axis=0)
            ripple4 = grouped.max() / grouped.min()
            assert ripple4 < ripple1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            snr_post(FILTERS["plain"], 0.0, 1)
        with pytest.raises(ValueError):
            snr_post(FILTERS["plain"], 10.0, 5)
        for bad in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="^snr and repetition/snr"):
                snr_post(FILTERS["plain"], bad, 1)
        # one SNR per call: an array is rejected by name, not evaluated
        for bad in (np.array([1.0, 0.0]), np.array([1.0, np.inf]), np.array([[np.nan]]),
                    np.array(10.0)):
            with pytest.raises(ValueError, match="^snr must be a real number"):
                snr_post(FILTERS["plain"], bad, 1)
        with pytest.raises(ValueError, match="repetition/snr"):  # R/snr overflows at R = 4
            snr_post(FILTERS["plain"], 1e-308, 4)
        for bad in (2.5, "2", True, np.array(2)):  # not floored or parsed to R = 2
            with pytest.raises(ValueError, match="^repetition must be an integer"):
                snr_post(design_plain(8), 10.0, bad)

    @pytest.mark.parametrize("name", list(FILTERS))
    @pytest.mark.parametrize("repetition", [1, 4])
    def test_array_equals_scalar_calls(self, name, repetition):
        # the scalar calls against the closed form evaluated over the whole
        # grid at once as numpy arrays, value for value.  The first three
        # underflow alpha = beta^2 to 0 while snr_post stays positive; the
        # last three saturate (beta = 1, snr_post = inf) for the flat filter
        snr = np.concatenate([[1e-300, 1e-250, 1e-200],
                              10.0 ** (np.linspace(-30.0, 60.0, 240) / 10.0), [1e17, 1e20, 1e300]])
        singles = [snr_post(FILTERS[name], float(s), repetition) for s in snr]
        alpha = np.array([r.alpha_mmse for r in singles])
        post = np.array([r.snr_post for r in singles])
        g = _fold(np.abs(FILTERS[name].coeffs) ** 2, repetition)
        ratio = g / (g + repetition / snr[:, None])
        beta = np.add.reduce(ratio, axis=-1) / ratio.shape[-1]
        below = beta < 1
        np.testing.assert_array_equal(alpha, beta**2)
        np.testing.assert_array_equal(post[below], beta[below] / (1.0 - beta[below]))
        assert np.isinf(post[~below]).all()
        assert (alpha[:3] == 0).all() and (post > 0).all()
        if name == "plain":
            assert np.isinf(post[-3:]).all()

    def test_scalar_gives_floats(self):
        report = snr_post(FILTERS["sinusoidal"], np.float64(10.0), 1)
        assert type(report.alpha_mmse) is float and type(report.snr_post) is float
        # a numpy float32 SNR is taken at its exact value, not computed in float32
        filt = FILTERS["sinusoidal"]
        for s in (np.float32(0.1), np.float32(3e-39)):
            assert snr_post(filt, s, 4) == snr_post(filt, float(s), 4)

    @settings(max_examples=80, deadline=None)
    @given(case=designs_at_usable_snr())
    def test_usable_snr_gives_positive_snr_post(self, case):
        # filterwarnings = error: an overflow or a divide-by-zero fails here too
        filt, r, snr = case
        single = snr_post(filt, snr, r)
        assert single.snr_post > 0  # inf where beta rounds to 1
        assert 0 <= single.alpha_mmse <= 1
        with pytest.raises(ValueError, match="^snr must be a real number"):
            snr_post(filt, np.array([snr]), r)

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(list(FILTERS)), snr=ANY_ARGUMENT, repetition=ANY_ARGUMENT)
    def test_any_input_gives_floats_or_a_named_error(self, name, snr, repetition):
        # filterwarnings = error: a warning, an OverflowError or a TypeError fails here
        try:
            report = snr_post(FILTERS[name], snr, repetition)
        except ValueError as e:
            assert re.match(r"(snr|repetition)\b", str(e)), str(e)
            return
        assert isinstance(snr, numbers.Real) and not isinstance(snr, bool)
        assert isinstance(repetition, numbers.Integral) and not isinstance(repetition, bool)
        ber = theoretical_ber_qpsk(report.snr_post)
        assert type(report.alpha_mmse) is type(report.snr_post) is type(ber) is float
        assert 0 <= report.alpha_mmse <= 1 and report.snr_post > 0 and 0 <= ber <= 0.5


class TestUsableSnr:
    """Both sides of each edge of the one SNR rule: snr and R/snr finite and positive."""

    @pytest.mark.parametrize("repetition", [1, 2, 4, 8])
    def test_edges(self, repetition):
        lo = least_usable_snr(repetition)
        assert repetition / lo <= sys.float_info.max
        assert not usable_snr(math.nextafter(lo, 0.0), repetition)  # R/snr overflows
        assert usable_snr(sys.float_info.max, repetition)
        for bad in (math.inf, math.nan, 0.0, -1.0, 5e-324):
            assert not usable_snr(bad, repetition)

    def test_numpy_float_needs_no_warning(self):
        # a numpy float64 R/snr would warn on overflow; the rule converts first
        assert not usable_snr(np.float64(1e-308), 4)
        assert usable_snr(np.float64(1e-308), 1)


class TestTheoreticalBer:
    def test_endpoints(self):
        assert theoretical_ber_qpsk(0.0) == 0.5
        assert theoretical_ber_qpsk(math.inf) == 0.0

    def test_array_equals_scalar_calls(self):
        # scipy's erfc over the whole array against the scalar calls, to roundoff
        xs = np.concatenate([np.linspace(0.0, 40.0, 401), [1e3, math.inf]])
        ber = [theoretical_ber_qpsk(x) for x in xs]
        assert all(type(b) is float for b in ber)
        np.testing.assert_allclose(ber, 0.5 * special.erfc(np.sqrt(xs / 2.0)), rtol=1e-13, atol=0)
        assert type(theoretical_ber_qpsk(np.float64(2.0))) is float
        for bad in (np.array([1.0, -1.0]), np.array(1.0), "1.0", True):  # one SNR per call
            with pytest.raises(ValueError, match="^snr_post must be a real number"):
                theoretical_ber_qpsk(bad)

    @pytest.mark.parametrize("bad", [-1.0, -math.inf, math.nan, np.float32("nan")],
                             ids=["negative", "-inf", "nan", "float32_nan"])
    def test_negative_or_nan_rejected(self, bad):
        with pytest.raises(ValueError, match="^snr_post must be >= 0"):
            theoretical_ber_qpsk(bad)

    def test_strictly_decreasing(self):
        xs = np.linspace(0.0, 40.0, 200)
        vals = [theoretical_ber_qpsk(x) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_against_monte_carlo_oracle(self):
        # direct QPSK over AWGN at symbol SNR 9.5 dB, ~1e7 bits
        snr = 10.0 ** 0.95
        rng = np.random.default_rng(2024)
        n = 5_000_000
        bits = rng.integers(0, 2, (n, 2))
        syms = ((1 - 2 * bits[:, 0]) + 1j * (1 - 2 * bits[:, 1])) / np.sqrt(2)
        noisy = syms + np.sqrt(1.0 / snr / 2) * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        errs = np.sum((noisy.real < 0) != bits[:, 0]) + np.sum(
            (noisy.imag < 0) != bits[:, 1]
        )
        mc = errs / (2 * n)
        assert theoretical_ber_qpsk(snr) == pytest.approx(mc, rel=0.10)


class TestPsd:
    def test_single_tone(self):
        n = np.arange(4096)
        x = np.exp(2j * np.pi * 10 * n / 256)
        p = psd(x, 256, 16)
        assert np.argmax(p) == 10
        assert p[10] == pytest.approx(0.0, abs=1e-9)  # lone in-band bin sits at 0 dB

    def test_plain_frames_flat_in_band(self):
        p = psd(render_frames(FILTERS["plain"], 600, seed=0, cfg=CFG), N, 600)
        ks = np.fft.fftfreq(N) * N
        in_band = np.abs(ks) <= 167
        assert np.all(np.abs(p[in_band]) <= 1.0)          # within +/-1 dB of average
        assert np.max(p[np.abs(ks) > 180]) < -100.0       # sharp guard-band rolloff

    def test_sinusoidal_frames_edge_emphasis(self):
        p = psd(render_frames(FILTERS["sinusoidal"], 600, seed=1, cfg=CFG), N, 600)
        ks = np.fft.fftfreq(N) * N
        edge = (np.abs(ks) >= 140) & (np.abs(ks) <= 167)
        center = np.abs(ks) <= 30
        assert p[edge].mean() > p[center].mean() + 3.0

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            psd(np.ones(100, dtype=complex), 64, 4)


def spectrogram_ridge(spec_db, sample_rate_bins):
    """Peak frequency per time slice, in signed subcarrier units.

    ``sample_rate_bins`` is the number of subcarrier units spanned by the
    sampling rate (the IDFT size when one symbol body is one period).
    """
    freqs = np.fft.fftfreq(spec_db.shape[1]) * sample_rate_bins
    return freqs[np.argmax(spec_db, axis=1)]


class TestSpectrogram:
    def test_pure_tone_constant_ridge(self):
        x = np.exp(2j * np.pi * 40 * np.arange(N) / N)
        peaks = spectrogram_ridge(spectrogram(x, 64, 8), N)
        assert np.all(peaks == peaks[0])
        assert abs(peaks[0] - 40) <= N / 64

    @pytest.mark.parametrize("name,slope", [
        ("sinusoidal", lambda x: np.cos(x)),
        # the profile is C1 and piecewise quadratic: a central difference is its slope
        ("triangular", lambda x: (piecewise_triangle(x + 1e-6) - piecewise_triangle(x - 1e-6))
         / 2e-6),
    ])
    def test_ridge_tracks_trajectory(self, name, slope):
        win, hop = 64, 8
        body = single_chirp(name)
        peaks = spectrogram_ridge(spectrogram(body, win, hop), N)
        bin_width = N / win
        hits = 0
        for i, peak in enumerate(peaks):
            taus = (i * hop + np.arange(win)) / N
            curve = (D / 2) * slope(2 * np.pi * taus)
            if np.min(np.abs(peak - curve)) <= bin_width:
                hits += 1
        assert hits >= 0.9 * len(peaks)

    def test_two_shifted_chirps_both_visible(self):
        # two active symbols produce two time-offset copies of the trajectory
        filt = FILTERS["sinusoidal"]
        d = np.zeros(CFG.symbols_per_frame, dtype=complex)
        d[0] = d[75] = 1.0
        body = modulate(DataFrame(d), filt, CFG).samples[CFG.cp_len :]
        win, hop = 64, 8
        spec = spectrogram(body, win, hop)
        freqs = np.fft.fftfreq(win) * N
        for m in (0, 75):
            hits = 0
            for i, row in enumerate(spec):
                taus = (i * hop + np.arange(win)) / N
                curve = (D / 2) * np.cos(2 * np.pi * (taus - m / M))
                near = np.array([np.min(np.abs(f - curve)) <= N / win for f in freqs])
                if row[near].max() >= row.max() - 10.0:
                    hits += 1
            assert hits >= 0.9 * len(spec)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            spectrogram(np.ones(10, dtype=complex), 64, 8)


class TestPapr:
    def test_constant_modulus_is_zero(self):
        x = np.exp(1j * np.linspace(0, 20, 1000))
        assert papr(x) == pytest.approx(0.0, abs=1e-9)

    def test_sinusoidal_chirp_nearly_constant_envelope(self):
        assert papr(single_chirp("sinusoidal")) <= 1.0

    def test_linear_chirp_has_larger_papr(self):
        assert papr(single_chirp("linear")) > papr(single_chirp("sinusoidal"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            papr(np.array([]))

    @pytest.mark.parametrize("signal", [np.zeros(4), [math.nan, 1.0], [1.0, complex(0.0, math.inf)]],
                             ids=["zeros", "nan", "inf"])
    def test_zero_or_non_finite_rejected(self, signal):
        # no NaN out: a zero-power or non-finite signal has no PAPR
        with pytest.raises(ValueError, match="^signal must be finite and not all zero"):
            papr(signal)
