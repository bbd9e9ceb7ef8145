"""Command-line surface: flags, config validation, exit codes, reproducibility."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from chirplink import cli, fdss
from chirplink.channel import ChannelProfile
from chirplink.simulation import LinkConfig, design_filter

BASE_CONFIG = """\
waveform: {waveform}
deviation: 318.0
frame:
  subcarriers: 336
  idft_size: 512
  cp_len: 96
  repetition: 1
channel:
  type: awgn
sweep:
  ebn0_db: [5.0, 6.0]
  min_bits: 15000
  min_errors: 30
  max_frames: 4000
  seed: 11
"""


def _multipath(taps: str) -> str:
    return BASE_CONFIG.replace("type: awgn", "type: multipath\n  " + taps.replace("; ", "\n  "))


# One invalid value each, with the field its error must name; every one is
# valid YAML of the schema's shape, and must fail at the config boundary.
INVALID_CONFIGS = {
    "repetition_not_dividing_m": ("repetition",
                                  BASE_CONFIG.replace("repetition: 1", "repetition: 5")),
    "negative_seed": ("seed", BASE_CONFIG.replace("seed: 11", "seed: -1")),
    "deviation_above_m": ("deviation", BASE_CONFIG.replace("{waveform}", "sinusoidal").replace(
        "deviation: 318.0", "deviation: 400")),
    "too_few_harmonics": ("n_harmonics",
                          BASE_CONFIG.replace("{waveform}", "triangular") + "n_harmonics: 5\n"),
    "subcarriers_above_idft": ("subcarriers",
                               BASE_CONFIG.replace("subcarriers: 336", "subcarriers: 600")),
    "mismatched_taps": ("tap_delays",
                        _multipath("tap_powers_db: [0.0, -10.0]; tap_delays: [0, 1, 2]")),
    "nan_ebn0": ("ebn0_db", BASE_CONFIG.replace("ebn0_db: [5.0, 6.0]", "ebn0_db: [5.0, .nan]")),
    "inf_ebn0": ("ebn0_db", BASE_CONFIG.replace("ebn0_db: [5.0, 6.0]", "ebn0_db: [.inf]")),
    "inf_rician_k": ("rician_k", _multipath("rician_k: .inf")),
    "nan_rician_k": ("rician_k", _multipath("rician_k: .nan")),
    # ranges the dataclasses own and the schema does not restate
    "unknown_waveform": ("waveform", BASE_CONFIG.replace("{waveform}", "zigzag")),
    "zero_deviation": ("deviation", BASE_CONFIG.replace("deviation: 318.0", "deviation: 0")),
    "negative_deviation": ("deviation", BASE_CONFIG.replace("deviation: 318.0", "deviation: -1")),
    "zero_harmonics": ("n_harmonics", BASE_CONFIG + "n_harmonics: 0\n"),
    "zero_subcarriers": ("subcarriers", BASE_CONFIG.replace("subcarriers: 336", "subcarriers: 0")),
    "zero_idft_size": ("idft_size", BASE_CONFIG.replace("idft_size: 512", "idft_size: 0")),
    "negative_cp_len": ("cp_len", BASE_CONFIG.replace("cp_len: 96", "cp_len: -1")),
    "zero_repetition": ("repetition", BASE_CONFIG.replace("repetition: 1", "repetition: 0")),
    "empty_taps": ("tap_powers_db", _multipath("tap_powers_db: []; tap_delays: []")),
    "negative_rician_k": ("rician_k", _multipath("rician_k: -1")),
    "negative_tap_delay": ("tap_delays", _multipath("tap_powers_db: [0.0]; tap_delays: [-1]")),
    "empty_ebn0": ("ebn0_db", BASE_CONFIG.replace("ebn0_db: [5.0, 6.0]", "ebn0_db: []")),
    # finite Eb/N0 whose rho overflows to inf, or underflows to 0
    "huge_ebn0": ("ebn0_db", BASE_CONFIG.replace("ebn0_db: [5.0, 6.0]", "ebn0_db: [4000]")),
    "tiny_ebn0": ("ebn0_db", BASE_CONFIG.replace("ebn0_db: [5.0, 6.0]", "ebn0_db: [-4000]")),
    # rho is finite, the combined SNR R*rho that the theory takes is not
    "huge_combined_ebn0": ("ebn0_db", BASE_CONFIG.replace("repetition: 1", "repetition: 4")
                           .replace("ebn0_db: [5.0, 6.0]", "ebn0_db: [3082]")),
    "min_bits_below_floor": ("min_bits", BASE_CONFIG.replace("min_bits: 15000", "min_bits: 5000")),
    "zero_min_errors": ("min_errors", BASE_CONFIG.replace("min_errors: 30", "min_errors: 0")),
    "zero_max_frames": ("max_frames", BASE_CONFIG.replace("max_frames: 4000", "max_frames: 0")),
    "memory_beyond_cp": ("cp_len", _multipath("tap_delays: [0, 1, 2]").replace(
        "cp_len: 96", "cp_len: 1")),
}
# snrpost grid values whose linear SNR 10^(s/10) overflows, is not finite or underflows to 0
BAD_SNR_DB = {"huge_snr_db": "4000.0", "inf_snr_db": ".inf", "nan_snr_db": ".nan",
              "tiny_snr_db": "-4000.0"}
INVALID_CONFIGS.update(
    (case, ("snr_db", BASE_CONFIG + f"analysis:\n  snr_db: [0.0, {value}]\n"))
    for case, value in BAD_SNR_DB.items()
)
# a finite, positive SNR whose R/snr overflows at R = 4
INVALID_CONFIGS["tiny_snr_db_r4"] = ("analysis/snr_db", BASE_CONFIG.replace(
    "repetition: 1", "repetition: 4") + "analysis:\n  snr_db: [-3080]\n")
BAD_SNR_GRIDS = sorted(case for case, (field, _) in INVALID_CONFIGS.items()
                       if field.endswith("snr_db"))


@pytest.fixture
def plain_config(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(BASE_CONFIG.format(waveform="plain"))
    return path


class TestDesign:
    def test_sinusoidal_full_band(self, tmp_path, capsys):
        out = tmp_path / "filter.csv"
        rc = cli.main([
            "design", "--waveform", "sinusoidal", "--deviation", "318",
            "--subcarriers", "336", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,re,im"
        assert len(lines) == 337
        report = capsys.readouterr().out
        assert "truncation loss" in report and "max/min" in report

    def test_plain_small(self, tmp_path):
        out = tmp_path / "plain.csv"
        assert cli.main(["design", "--waveform", "plain", "--subcarriers", "8",
                         "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert rows == [f"{k},1,0" for k in range(-3, 5)]

    def test_cli_matches_library(self, tmp_path):
        out = tmp_path / "tri.csv"
        assert cli.main(["design", "--waveform", "triangular", "--deviation", "318",
                         "--subcarriers", "336", "--out", str(out)]) == 0
        lib = design_filter("triangular", 318.0, 336)
        back = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(back[:, 0], lib.subcarriers)
        np.testing.assert_array_equal(back[:, 1] + 1j * back[:, 2], lib.coeffs)

    # sha256 of the whole CSV for (waveform, deviation, subcarriers, harmonics):
    # the designs are closed forms, so a refactor must keep every byte.
    PINNED_CSV = {
        ("plain", 318, 336, 64):
            "b8628dd32356284975d429a62992bffe8d13515e46564db1085a234cbcd2c511",
        ("linear", 318, 336, 64):
            "b41685586116be1662948669a50c0301474daa31d6d5f2b8313a1267dd3c9eee",
        ("sinusoidal", 318, 336, 64):
            "140f572fd88086da0b93f847c5a15401249134844d6a3240052b34c9c0a3e73f",
        ("triangular", 318, 336, 64):
            "2054c210fc4e44648d10ded21f68c01bc37a4fbaa8236b272cdbe7092c6f4835",
        ("triangular", 318, 336, 41):
            "a74fb133eb80988c8d5e51dbc6a7be8bab1626253e1fd512e0214e179cd51817",
        ("plain", 24, 48, 64):
            "f1d5677d440bf6a64d3b93d69c2b4c772098c35d8bf3e0fadf50e5225084c6a1",
        ("linear", 24, 48, 64):
            "3697a981caf5ad0ac9f590b6e5b5e640eb946fdc4e16790b76ac03e889c7e580",
        ("sinusoidal", 24, 48, 64):
            "10ef14368aeac00e2957dfee5c08a0cacfd0647e993627250a770e4f116b1c3e",
        ("triangular", 24, 48, 64):
            "2b0294f4f2b843d92593055a2315523685ade13ce54cf47a500e9b5a9d7ee2ba",
    }

    @pytest.mark.parametrize("waveform, deviation, subcarriers, harmonics",
                             sorted(PINNED_CSV, key=str))
    def test_csv_pinned(self, waveform, deviation, subcarriers, harmonics, tmp_path):
        out = tmp_path / "filter.csv"
        assert cli.main(["design", "--waveform", waveform, "--deviation", str(deviation),
                         "--subcarriers", str(subcarriers), "--harmonics", str(harmonics),
                         "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.PINNED_CSV[waveform, deviation, subcarriers, harmonics]

    def test_rejects_oversized_deviation(self, tmp_path):
        rc = cli.main(["design", "--waveform", "linear", "--deviation", "400",
                       "--subcarriers", "336", "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    @pytest.mark.parametrize("subcarriers", ["0", "-5"])
    @pytest.mark.parametrize("waveform", ["plain", "linear", "sinusoidal", "triangular"])
    def test_rejects_empty_band(self, waveform, subcarriers, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = cli.main(["design", "--waveform", waveform, "--deviation", "4",
                       "--subcarriers", subcarriers, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: subcarriers must be >= 1, got {subcarriers}\n"
        assert not out.exists()

    # the design rules a config's deviation and n_harmonics follow
    @pytest.mark.parametrize("flags, message", [
        (["plain", "--deviation", "nan"], "deviation must be finite and > 0, got nan"),
        (["plain", "--deviation", "-5"], "deviation must be finite and > 0, got -5.0"),
        (["sinusoidal", "--deviation", "0"], "deviation must be finite and > 0, got 0.0"),
        (["linear", "--harmonics", "0"], "n_harmonics must be >= 1, got 0"),
    ])
    def test_rejects_what_a_config_rejects(self, flags, message, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = cli.main(["design", "--waveform", *flags, "--subcarriers", "336", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_rejects_unknown_waveform(self, tmp_path):
        rc = cli.main(["design", "--waveform", "zigzag", "--subcarriers", "8",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 1


class TestSynthesize:
    def test_two_pulses_for_plain(self, plain_config, tmp_path):
        prefix = str(tmp_path / "synth_")
        rc = cli.main(["synthesize", "--config", str(plain_config),
                       "--data", "0=1,75=1", "--out-prefix", prefix])
        assert rc == 0
        rows = [r.split(",") for r in
                (tmp_path / "synth_time.csv").read_text().splitlines()
                if r and not r.startswith(("#", "sample"))]
        samples = np.array([float(r[1]) + 1j * float(r[2]) for r in rows])
        body = np.abs(samples[96:])
        top2 = np.sort(np.argsort(body)[-2:])
        assert top2[0] == 0
        assert abs(top2[1] - round(75 * 512 / 336)) <= 1
        spec_lines = (tmp_path / "synth_spectrogram.csv").read_text().splitlines()
        assert any(ln.startswith("start,bin0") for ln in spec_lines)

    def test_empty_data_rejected(self, plain_config, tmp_path):
        rc = cli.main(["synthesize", "--config", str(plain_config),
                       "--data", "", "--out-prefix", str(tmp_path / "s_")])
        assert rc == 1

    def test_out_of_range_index_rejected(self, plain_config, tmp_path):
        rc = cli.main(["synthesize", "--config", str(plain_config),
                       "--data", "400=1", "--out-prefix", str(tmp_path / "s_")])
        assert rc == 1

    @pytest.mark.parametrize("flags", [
        pytest.param(["--data", "0=nan"], id="nan_data"),
        pytest.param(["--data", "0=1,3=inf"], id="inf_data"),
        pytest.param(["--data", "0=1,x=1"], id="bad_data_entry"),
        pytest.param(["--data", "0=1", "--win-len", "0"], id="zero_win_len"),
        pytest.param(["--data", "0=1", "--win-len", "1000"], id="win_len_above_n"),
        pytest.param(["--data", "0=1", "--hop", "0"], id="zero_hop"),
    ])
    def test_bad_input_writes_nothing(self, flags, plain_config, tmp_path, capsys):
        rc = cli.main(["synthesize", "--config", str(plain_config),
                       "--out-prefix", str(tmp_path / "s_"), *flags])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not list(tmp_path.glob("s_*"))


class TestBer:
    def test_runs_and_reproduces(self, plain_config, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["ber", "--config", str(plain_config), "--out", str(out1)]) == 0
        assert cli.main(["ber", "--config", str(plain_config), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        body = [ln for ln in out1.read_text().splitlines() if not ln.startswith("#")]
        assert body[0] == "ebn0_db,snr_db,sim_ber,theory_ber,bits,frames"
        assert len(body) == 3

    def test_under_convergence_exit_code(self, tmp_path):
        cfg = tmp_path / "uc.yaml"
        cfg.write_text(BASE_CONFIG.format(waveform="plain").replace(
            "ebn0_db: [5.0, 6.0]", "ebn0_db: [11.0]").replace(
            "max_frames: 4000", "max_frames: 30"))
        rc = cli.main(["ber", "--config", str(cfg), "--out", str(tmp_path / "uc.csv")])
        assert rc == 2
        assert "under_converged_ebn0_db: 11" in (tmp_path / "uc.csv").read_text()

    def test_triangular_filter_designed_once(self, tmp_path, monkeypatch):
        calls = []
        design = fdss.design_arbitrary
        monkeypatch.setattr(fdss, "design_arbitrary", lambda *a: calls.append(a) or design(*a))
        cfg = tmp_path / "tri.yaml"
        cfg.write_text(BASE_CONFIG.format(waveform="triangular").replace(
            "ebn0_db: [5.0, 6.0]", "ebn0_db: [20.0]").replace(
            "max_frames: 4000", "max_frames: 5"))
        rc = cli.main(["ber", "--config", str(cfg), "--out", str(tmp_path / "tri.csv")])
        assert rc == cli.EXIT_UNDERCONVERGED
        assert len(calls) == 1

    def test_shipped_config_is_valid(self, tmp_path):
        raw = cli.load_config("configs/awgn_plain_r1.yaml")
        cfg = cli.link_config_from(raw)
        assert cfg.waveform == "plain"
        assert cfg.min_errors == 100

    def test_unset_keys_take_dataclass_defaults(self):
        raw = {"waveform": "triangular", "channel": {"type": "multipath"}, "sweep": {"seed": 3}}
        cfg = cli.link_config_from(raw)
        assert cfg == LinkConfig(waveform="triangular", channel_profile=ChannelProfile(), seed=3)


class TestAnalyze:
    def test_snrpost_identity_for_plain(self, plain_config, tmp_path):
        out = tmp_path / "snr.csv"
        rc = cli.main(["analyze", "--config", str(plain_config),
                       "--mode", "snrpost", "--out", str(out)])
        assert rc == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if ln and not ln.startswith(("#", "snr_db"))]
        for snr_db, post_db, _alpha in rows:
            assert float(post_db) == pytest.approx(float(snr_db), abs=1e-6)

    def test_psd_output(self, tmp_path):
        cfg = tmp_path / "psd.yaml"
        cfg.write_text(BASE_CONFIG.format(waveform="sinusoidal")
                       + "analysis:\n  psd_frames: 1000\n")
        out = tmp_path / "psd.csv"
        rc = cli.main(["analyze", "--config", str(cfg), "--mode", "psd",
                       "--out", str(out)])
        assert rc == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if ln and not ln.startswith(("#", "subcarrier"))]
        assert len(rows) == 512
        vals = {int(k): float(v) for k, v in rows}
        edge = np.mean([vals[k] for k in range(150, 168)])
        center = np.mean([vals[k] for k in range(-15, 16)])
        assert edge > center  # edge-heavy shaping visible in the PSD

    def test_papr_table(self, plain_config, tmp_path):
        out = tmp_path / "papr.csv"
        rc = cli.main(["analyze", "--config", str(plain_config),
                       "--mode", "papr", "--out", str(out)])
        assert rc == 0
        rows = {ln.split(",")[0]: ln.split(",") for ln in out.read_text().splitlines()
                if ln and "," in ln and not ln.startswith(("#", "waveform"))}
        assert set(rows) == {"plain", "linear", "sinusoidal", "triangular"}
        assert float(rows["sinusoidal"][1]) < float(rows["linear"][1])

    @pytest.mark.parametrize("case", BAD_SNR_GRIDS)
    def test_bad_snr_grid_writes_nothing(self, case, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(INVALID_CONFIGS[case][1].replace("{waveform}", "plain"))
        out = tmp_path / "snr.csv"
        rc = cli.main(["analyze", "--config", str(cfg), "--mode", "snrpost", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "snr_db" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_snrpost_far_below_noise(self, tmp_path, capsys):
        # beta = 1e-160: alpha = beta^2 is subnormal, SNR_post = beta/(1 - beta) is not
        cfg = tmp_path / "low.yaml"
        cfg.write_text(BASE_CONFIG.format(waveform="plain") + "analysis:\n  snr_db: [-1600]\n")
        out = tmp_path / "low.csv"
        assert cli.main(["analyze", "--config", str(cfg), "--mode", "snrpost",
                         "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text().splitlines()[-1] == "-1600.000000,-1600.000000,9.999888672e-321"

    # both sides of each edge of the rule: snr and R/snr finite and positive
    @pytest.mark.parametrize("repetition, snr_db, usable", [
        (1, -3082, True), (1, -3083, False), (4, -3076, True), (4, -3077, False),
        (4, 3082, True), (4, 3083, False),
    ])
    def test_snr_grid_edges(self, repetition, snr_db, usable, tmp_path, capsys):
        cfg = tmp_path / "edge.yaml"
        cfg.write_text(BASE_CONFIG.format(waveform="plain").replace(
            "repetition: 1", f"repetition: {repetition}") + f"analysis:\n  snr_db: [{snr_db}]\n")
        out = tmp_path / "edge.csv"
        rc = cli.main(["analyze", "--config", str(cfg), "--mode", "snrpost", "--out", str(out)])
        err = capsys.readouterr().err
        if usable:
            assert rc == 0 and err == ""
            snr_db_out, post_db, _alpha = out.read_text().splitlines()[-1].split(",")
            assert float(snr_db_out) == snr_db
            assert float(post_db) > -math.inf  # no -inf or nan; inf where beta rounds to 1
        else:
            assert rc == 1 and "analysis/snr_db" in err and not out.exists()

    # sha256 of the snrpost data rows as a loop of scalar snr_post calls wrote
    # them (default grid, and an explicit grid with YAML ints).
    PINNED_SNRPOST = {
        ("sinusoidal", 1, None): "ed6bfd003c0897c3416bb57eff36bb109bdfa81c46caa97e9c7514a70e81f0c4",
        ("triangular", 4, "[-12.5, -3, 0.0, 7.25, 18, 31.5, 45.0]"):
            "b382a3ebc4bd1e08069b840afa8edd2ee8e539a7fc706cbd8f69b64be4796ad2",
    }

    @pytest.mark.parametrize("waveform, repetition, grid", sorted(PINNED_SNRPOST, key=str))
    def test_snrpost_rows_pinned(self, waveform, repetition, grid, tmp_path):
        text = BASE_CONFIG.format(waveform=waveform).replace(
            "repetition: 1", f"repetition: {repetition}")
        if grid:
            text += f"analysis:\n  snr_db: {grid}\n"
        cfg = tmp_path / "pin.yaml"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        assert cli.main(["analyze", "--config", str(cfg), "--mode", "snrpost",
                         "--out", str(out)]) == 0
        rows = "".join(ln for ln in out.read_text().splitlines(keepends=True)
                       if not ln.startswith("#"))
        digest = hashlib.sha256(rows.encode()).hexdigest()
        assert digest == self.PINNED_SNRPOST[waveform, repetition, grid]

    @staticmethod
    def _rows(mode, repetition, tmp_path):
        """Data rows (below the comment header) for sinusoidal shaping, 300 PSD frames."""
        cfg = tmp_path / "pin.yaml"
        cfg.write_text(BASE_CONFIG.format(waveform="sinusoidal").replace(
            "repetition: 1", f"repetition: {repetition}") + "analysis:\n  psd_frames: 300\n")
        out = tmp_path / "out.csv"
        assert cli.main(["analyze", "--config", str(cfg), "--mode", mode, "--out", str(out)]) == 0
        return [ln for ln in out.read_text().splitlines(keepends=True) if not ln.startswith("#")]

    # sha256 of the data rows, as written by the frame-by-frame loop.
    PINNED_ROWS = {
        ("psd", 1): "085403f4a319523185a849775a53d01d03e249db144c9b64262372751a40de08",
        ("psd", 4): "fc256abbee7de31c3be36ca446ce8181f72bfcd6f6d21745f8256c6736225925",
        ("papr", 1): "b37210d2418c92e462d22cee1480a387e1d53be58c437e2b1292036220d16db1",
        ("papr", 4): "4e755da11ba0140a62044f55f237b9ead2b3154612d4a355075098f6ebd83bdb",
    }

    @pytest.mark.parametrize("mode, repetition", sorted(PINNED_ROWS))
    def test_psd_and_papr_rows_pinned(self, mode, repetition, tmp_path):
        rows = "".join(self._rows(mode, repetition, tmp_path))
        digest = hashlib.sha256(rows.encode()).hexdigest()
        assert digest == self.PINNED_ROWS[mode, repetition]

    # sha256 of the PSD's 336 in-band rows alone.  The guard rows hold
    # IFFT -> FFT roundoff below -300 dB, which any rescaling of the
    # transforms moves; the in-band rows must not move.
    PINNED_PSD_IN_BAND = {
        1: "97a0135cb92c677250091aefc4cf979682fe1121baea140a6f03d12850b9253b",
        4: "23a6c830e4c5bacce6fa49d8984d968362a7651a98769b27e80b3cb40489e4eb",
    }

    @pytest.mark.parametrize("repetition", sorted(PINNED_PSD_IN_BAND))
    def test_psd_in_band_rows_pinned(self, repetition, tmp_path):
        low, high = fdss.band_limits(336)
        rows = self._rows("psd", repetition, tmp_path)[1:]
        in_band = [ln for ln in rows if low <= int(ln.split(",")[0]) <= high]
        assert len(in_band) == 336
        digest = hashlib.sha256("".join(in_band).encode()).hexdigest()
        assert digest == self.PINNED_PSD_IN_BAND[repetition]

    def test_psd_memory_does_not_grow_with_frames(self, tmp_path):
        peaks = {}
        for n_frames in (200, 2000):
            cfg = tmp_path / f"psd{n_frames}.yaml"
            cfg.write_text(BASE_CONFIG.format(waveform="plain")
                           + f"analysis:\n  psd_frames: {n_frames}\n")
            tracemalloc.start()
            try:
                assert cli.main(["analyze", "--config", str(cfg), "--mode", "psd",
                                 "--out", str(tmp_path / "psd.csv")]) == 0
                peaks[n_frames] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2000] <= 1.5 * peaks[200]

    def test_papr_checks_every_waveform_design(self, tmp_path, capsys):
        # the config's own plain filter is fine; the triangular one is not
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(BASE_CONFIG.format(waveform="plain") + "n_harmonics: 5\n")
        rc = cli.main(["analyze", "--config", str(cfg), "--mode", "papr",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_mode_rejected(self, plain_config, tmp_path):
        rc = cli.main(["analyze", "--config", str(plain_config),
                       "--mode", "wigner", "--out", str(tmp_path / "x.csv")])
        assert rc == 1


class TestConfigValidation:
    def test_unknown_keys_rejected_and_named(self, tmp_path, capsys):
        for key, value in (("coding_rate", "0.5"), ("output_dir", "results")):
            cfg = tmp_path / "bad.yaml"
            cfg.write_text(BASE_CONFIG.format(waveform="plain") + f"{key}: {value}\n")
            rc = cli.main(["ber", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
            assert rc == 1
            assert key in capsys.readouterr().err

    def test_nested_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(BASE_CONFIG.format(waveform="plain").replace(
            "seed: 11", "seed: 11\n  jitter: 3"))
        rc = cli.main(["ber", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "jitter" in capsys.readouterr().err

    def test_float_for_integer_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(BASE_CONFIG.format(waveform="plain").replace("seed: 11", "seed: 11.0"))
        rc = cli.main(["ber", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "sweep/seed" in capsys.readouterr().err

    def test_malformed_yaml(self, tmp_path):
        cfg = tmp_path / "broken.yaml"
        cfg.write_text("waveform: [unclosed\n")
        assert cli.main(["ber", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1

    def test_missing_config_file(self, tmp_path):
        rc = cli.main(["ber", "--config", str(tmp_path / "none.yaml"),
                       "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    @pytest.mark.parametrize("case", sorted(INVALID_CONFIGS))
    def test_invalid_value_is_a_usage_error(self, case, tmp_path, capsys):
        field, text = INVALID_CONFIGS[case]
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text.replace("{waveform}", "plain"))
        out = tmp_path / "x.csv"
        for command in (["ber"], ["analyze", "--mode", "papr"]):
            rc = cli.main([*command, "--config", str(cfg), "--out", str(out)])
            err = capsys.readouterr().err
            assert rc == 1
            assert err.startswith("error:") and err.count("\n") == 1
            assert field in err
            assert "Traceback" not in err
            assert not out.exists()

    def test_usage_error_exit_code(self):
        assert cli.main(["design"]) == 1  # missing required flags
