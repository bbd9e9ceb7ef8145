"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one PASS line on success (visible with ``pytest -s``);
a pytest failure is the FAIL line.  The AWGN curve bundle (four waveforms
times two repetition factors) is computed once and shared.

``test_seed_report`` (marked ``slow``, deselected by default; run it with
``pytest -m slow``) reruns the C4 and C7 sweeps over other seeds and prints
how far each seed is from the gate, without gating on it.
"""

import numpy as np
import pytest
from scipy import special

from chirplink import analysis, fdss, numerics, simulation
from chirplink.channel import ChannelProfile
from chirplink.fdss import (
    ChirpTrajectory,
    design_linear,
    design_plain,
    design_sinusoidal,
    triangular_trajectory,
)
from chirplink.simulation import LinkConfig, design_filter, ebn0_at_ber, run_ber_sweep
from chirplink.transceiver import DataFrame, FrameConfig, modulate
from oracles import nmse_db, piecewise_triangle

M, N, D = 336, 512, 318.0
WAVEFORMS = ("plain", "linear", "sinusoidal", "triangular")
SWEEP_SEED = 20260810
C4_BOUND_DB = 0.3
C7_GRID = (8.0, 10.0, 12.0)
# C7's ordering plain <= linear <= {sinusoidal, triangular}, one clause per pair
C7_CLAUSES = (("plain", "linear"), ("linear", "sinusoidal"), ("linear", "triangular"))


def _ok(criterion, text):
    print(f"\n[criterion {criterion}] PASS: {text}")


def synthesize_chirp(waveform, cfg=FrameConfig()):
    filt = design_filter(waveform, D, M)
    d = np.zeros(cfg.symbols_per_frame, dtype=complex)
    d[0] = 1.0
    return modulate(DataFrame(d), filt, cfg).samples[cfg.cp_len :]


def theory_crossing(waveform, repetition, target=1e-3):
    """Eb/N0 where the closed-form BER crosses the target."""
    filt = design_filter(waveform, D, M)
    grid = np.arange(0.0, 25.0, 0.01)
    bers = np.array([
        analysis.theoretical_ber_qpsk(
            analysis.snr_post(filt, 2.0 * 10.0 ** (e / 10.0), repetition).snr_post
        )
        for e in grid
    ])
    idx = int(np.argmax(bers < target))
    x0, x1 = grid[idx - 1], grid[idx]
    y0, y1 = np.log10(bers[idx - 1]), np.log10(bers[idx])
    return float(x0 + (np.log10(target) - y0) * (x1 - x0) / (y1 - y0))


def awgn_bundle(seed):
    """Simulated AWGN curves around each configuration's 1e-3 crossing."""
    curves = {}
    for repetition in (1, 4):
        frame = FrameConfig(repetition=repetition)
        for waveform in WAVEFORMS:
            center = theory_crossing(waveform, repetition)
            grid = tuple(round(center + off, 2) for off in (-1.0, -0.5, 0.0, 0.5, 1.0))
            cfg = LinkConfig(
                frame=frame,
                waveform=waveform,
                deviation=D,
                ebn0_grid_db=grid,
                min_bits=200_000,
                min_errors=100,
                max_frames=50_000,
                seed=seed,
            )
            curves[waveform, repetition] = run_ber_sweep(cfg)
    return curves


def fading_curves(seed):
    """C7's multipath sweep of each waveform, all on the same seed."""
    return {
        waveform: run_ber_sweep(LinkConfig(
            waveform=waveform,
            deviation=D,
            channel_profile=ChannelProfile(),
            ebn0_grid_db=C7_GRID,
            min_bits=200_000,
            min_errors=100,
            max_frames=50_000,
            seed=seed,  # common randomness across waveforms
        ))
        for waveform in WAVEFORMS
    }


def crossing_gap(curve):
    """|simulated - theoretical| Eb/N0 (dB) at the 1e-3 crossing."""
    return abs(ebn0_at_ber(curve.points, 1e-3) - ebn0_at_ber(curve.points, 1e-3, theory=True))


@pytest.fixture(scope="module")
def awgn_curves():
    return awgn_bundle(SWEEP_SEED)


def test_c1_synthesis_fidelity():
    tau = np.arange(N) / N
    targets = {
        "sinusoidal": (np.exp(1j * (D / 2) * np.sin(2 * np.pi * tau)), -25.0),
        "triangular": (np.exp(1j * (D / 2) * piecewise_triangle(2 * np.pi * tau)), -25.0),
        "linear": (np.exp(1j * np.pi * D * (tau**2 - tau)), -15.0),
    }
    results = {}
    for waveform, (reference, bound) in targets.items():
        level = nmse_db(synthesize_chirp(waveform), reference)
        assert level <= bound, f"{waveform}: NMSE {level:.2f} dB exceeds {bound} dB"
        results[waveform] = level
    _ok(1, "synthesis NMSE dB: " + ", ".join(
        f"{w}={v:.1f}" for w, v in results.items()))


def test_c2_closed_form_cross_oracles():
    # arbitrary-trajectory design reproduces the sinusoidal closed form
    traj = ChirpTrajectory(0.0, np.zeros(1), np.array([1.0]), 10.0)
    arb = fdss.design_arbitrary(traj, M)
    ref = design_sinusoidal(10.0, M)
    max_dev = np.max(np.abs(arb.coeffs - ref.coeffs))
    assert max_dev < 1e-9

    # linear closed form against a 16x-oversampled Fourier-coefficient oracle
    filt = design_linear(D, M)
    oversample = 16 * M
    u = np.arange(oversample) / oversample
    oracle = np.fft.fft(np.exp(1j * np.pi * D * (u**2 - u))) / oversample
    oracle = oracle[filt.subcarriers % oversample]
    oracle *= np.sqrt(M / np.sum(np.abs(oracle) ** 2))
    rel_rms = np.linalg.norm(filt.coeffs - oracle) / np.linalg.norm(oracle)
    assert rel_rms <= 1e-3
    _ok(2, f"sine cross-oracle max dev {max_dev:.2e}; linear oracle rel RMS {rel_rms:.2e}")


def test_c3_flat_filter_identity():
    filt = design_plain(M)
    for repetition in (1, 4):
        for snr_db in np.arange(-10.0, 30.5, 0.5):
            snr = 10.0 ** (snr_db / 10.0)
            post = analysis.snr_post(filt, snr, repetition).snr_post
            assert abs(post - snr) <= 1e-9 * max(1.0, snr)
    _ok(3, "flat filter gives SNR_post = SNR to 1e-9 over [-10, 30] dB, R in {1, 4}")


def test_c4_theory_simulation_match(awgn_curves):
    gaps = {}
    for (waveform, repetition), curve in awgn_curves.items():
        assert all(p.converged for p in curve.points), (
            f"{waveform} R={repetition}: under-converged point")
        gap = crossing_gap(curve)
        assert gap <= C4_BOUND_DB, f"{waveform} R={repetition}: {gap:.3f} dB theory-sim gap"
        gaps[waveform, repetition] = gap
    worst = max(gaps.values())
    _ok(4, f"all 8 AWGN curves within 0.3 dB of theory at 1e-3 (worst {worst:.3f} dB)")


def test_c5_single_repetition_gaps(awgn_curves):
    crossing = {w: ebn0_at_ber(awgn_curves[w, 1].points, 1e-3) for w in WAVEFORMS}
    linear_gap = crossing["linear"] - crossing["plain"]
    sin_gap = crossing["sinusoidal"] - crossing["plain"]
    tri_gap = crossing["triangular"] - crossing["plain"]
    assert 0.5 <= linear_gap <= 1.5, f"linear-vs-plain gap {linear_gap:.2f} dB"
    assert sin_gap > linear_gap
    assert tri_gap > linear_gap
    _ok(5, f"R=1 gaps vs plain: linear {linear_gap:.2f} dB, "
           f"sinusoidal {sin_gap:.2f} dB, triangular {tri_gap:.2f} dB")


def test_c6_repetition_four_gaps(awgn_curves):
    crossing = {w: ebn0_at_ber(awgn_curves[w, 4].points, 1e-3) for w in WAVEFORMS}
    linear_gap = crossing["linear"] - crossing["plain"]
    sin_gap = crossing["sinusoidal"] - crossing["plain"]
    tri_gap = crossing["triangular"] - crossing["plain"]
    assert linear_gap <= 0.3, f"linear-vs-plain gap {linear_gap:.2f} dB at R=4"
    assert 0.4 <= sin_gap <= 1.2, f"sinusoidal gap {sin_gap:.2f} dB at R=4"
    assert 0.4 <= tri_gap <= 1.2, f"triangular gap {tri_gap:.2f} dB at R=4"
    _ok(6, f"R=4 gaps vs plain: linear {linear_gap:.2f} dB, "
           f"sinusoidal {sin_gap:.2f} dB, triangular {tri_gap:.2f} dB")


def test_c7_fading_ordering():
    curves = fading_curves(SWEEP_SEED)
    for waveform, curve in curves.items():
        assert all(p.converged for p in curve.points), f"{waveform}: under-converged"
    for i, ebn0 in enumerate(C7_GRID):
        for low, high in C7_CLAUSES:
            low_ber, high_ber = (curves[w].points[i].simulated_ber for w in (low, high))
            assert low_ber <= high_ber, f"ordering {low} <= {high} broken at {ebn0} dB"
    _ok(7, "fading BER ordering plain <= linear <= {sinusoidal, triangular} "
           f"holds at {C7_GRID} dB with >= 100 errors per point")


def test_c8_property_suites():
    # Bessel sum rule, and the designs' reflection against scipy's own negative orders
    seq = numerics.bessel_j_sequence(int(np.ceil(200.0)) + 60, 200.0)
    assert np.sum(seq**2) >= 1.0 - 1e-9
    seq = numerics.bessel_j_sequence(5, 7.7)
    assert np.array_equal(seq[:5], special.jv(np.arange(-5, 0), 7.7))
    # Fresnel odd symmetry and limits
    c, s = numerics.fresnel(1.3)
    cm, sm = numerics.fresnel(-1.3)
    assert (cm, sm) == (-c, -s)
    c500, s500 = numerics.fresnel(500.0)
    assert abs(c500 - 0.5) < 1e-3 and abs(s500 - 0.5) < 1e-3

    # DFT Parseval at the working transform sizes
    rng = np.random.default_rng(8)
    for length in (336, 512):
        x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        lhs = np.sum(np.abs(x) ** 2)
        rhs = np.sum(np.abs(numerics.dft(x)) ** 2)
        assert abs(lhs - rhs) <= 1e-10 * lhs

    # CP/FDE consistency at 1e-10
    from chirplink import channel as ch_mod
    profile = ChannelProfile()
    taps = ch_mod.draw(profile, rng)
    body = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    frame = np.concatenate([body[-96:], body])
    out = ch_mod.apply(frame, profile, taps)
    lhs = np.fft.fft(out[96:])
    rhs = ch_mod.freq_response(profile, taps, np.arange(N), N) * np.fft.fft(body)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))

    # frequency-domain circular-shift law at 1e-12
    cfg = FrameConfig()
    filt = design_filter("sinusoidal", D, M)
    d0 = np.zeros(cfg.symbols_per_frame, complex)
    d0[0] = 1.0
    ref = modulate(DataFrame(d0), filt, cfg).band
    d75 = np.zeros(cfg.symbols_per_frame, complex)
    d75[75] = 1.0
    got = modulate(DataFrame(d75), filt, cfg).band
    expect = ref * np.exp(-2j * np.pi * filt.subcarriers * 75 / M)
    assert np.max(np.abs(got - expect)) < 1e-12 * np.max(np.abs(ref))

    # transmit-power normalization within 2%
    for waveform in WAVEFORMS:
        f = design_filter(waveform, D, M)
        power = 0.0
        for _ in range(100):
            fr = DataFrame.from_bits(rng.integers(0, 2, cfg.bits_per_frame))
            power += np.mean(np.abs(modulate(fr, f, cfg).samples[cfg.cp_len :]) ** 2)
        assert abs(power / 100 - 1.0) < 0.02

    # repetition-flattening inequality
    for waveform in ("sinusoidal", "triangular"):
        a2 = np.abs(design_filter(waveform, D, M).coeffs) ** 2
        grouped = a2.reshape(4, M // 4).sum(axis=0)
        assert grouped.max() / grouped.min() < a2.max() / a2.min()

    # determinism byte-identity
    cfg_sim = LinkConfig(waveform="plain", ebn0_grid_db=(5.0,), min_bits=20_000,
                         min_errors=30, seed=4242)
    assert run_ber_sweep(cfg_sim).csv_text() == run_ber_sweep(cfg_sim).csv_text()
    _ok(8, "module invariant suite (identities, Parseval, CP/FDE, shift law, "
           "power, flattening, determinism)")


def _counts(point):
    expected = point.bit_count * point.theoretical_ber
    return (f"{point.ebn0_db:.2f} dB: {point.error_count} errors in {point.bit_count} bits,"
            f" {expected:.1f} expected")


# Seeds 1-20, the seed perfbench's awgn_bundle failed C4 on, and the gate's own.
REPORT_SEEDS = (*range(1, 21), 914, SWEEP_SEED)


@pytest.mark.slow
def test_seed_report(capsys):
    """C4 and C7 over ``REPORT_SEEDS`` with the gate's configs and bounds.

    Prints each seed's worst C4 gap, the distribution of those gaps, and
    every C4 or C7 failure with the error counts behind it.  It reports and
    does not gate: the gate stays C4 and C7 at ``SWEEP_SEED``.
    """
    lines, worst, c7_failures = [], {}, 0
    for seed in REPORT_SEEDS:
        curves = awgn_bundle(seed)
        gaps = {key: crossing_gap(curve) for key, curve in curves.items()}
        (waveform, repetition), worst[seed] = max(gaps.items(), key=lambda kv: kv[1])
        lines.append(f"seed {seed}: worst C4 gap {worst[seed]:.3f} dB ({waveform} R={repetition})")
        for (waveform, repetition), gap in gaps.items():
            if gap > C4_BOUND_DB:
                lines.append(f"  C4 FAIL {waveform} R={repetition}: gap {gap:.3f} dB")
                lines += [f"    {_counts(p)}" for p in curves[waveform, repetition].points]
        fading = fading_curves(seed)
        for i, ebn0 in enumerate(C7_GRID):
            for low, high in C7_CLAUSES:
                a, b = fading[low].points[i], fading[high].points[i]
                if a.simulated_ber > b.simulated_ber:
                    c7_failures += 1
                    lines.append(f"  C7 FAIL {low} <= {high} at {ebn0:g} dB:"
                                 f" {low} {_counts(a)}; {high} {_counts(b)}")
    q = np.quantile(list(worst.values()), [0.0, 0.25, 0.5, 0.75, 1.0])
    over = [seed for seed, gap in worst.items() if gap > C4_BOUND_DB]
    lines.append(f"worst C4 gap over {len(worst)} seeds: min {q[0]:.3f}, q1 {q[1]:.3f},"
                 f" median {q[2]:.3f}, q3 {q[3]:.3f}, max {q[4]:.3f} dB;"
                 f" above {C4_BOUND_DB} dB: {over or 'none'}; C7 clause failures: {c7_failures}")
    with capsys.disabled():
        print("\n[seed report]\n" + "\n".join(lines))
    assert len(worst) == len(REPORT_SEEDS)
