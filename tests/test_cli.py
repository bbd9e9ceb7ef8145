"""Command-line surface: flags, config validation, exit codes, reproducibility."""

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from chirplink import __version__, analysis, cli, fdss, transceiver
from chirplink.channel import ChannelProfile
from chirplink.simulation import WAVEFORMS, LinkConfig, design_filter, run_ber_sweep
from chirplink.transceiver import FrameConfig
from oracles import render_frames

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


HUGE_INT = "1" + "0" * 400

# One invalid value each, with the field its error must name; every one is
# of a valid shape and type, and must fail at the config boundary.
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
    # more ranges the dataclasses own
    "unknown_waveform": ("waveform", BASE_CONFIG.replace("{waveform}", "zigzag")),
    "zero_deviation": ("deviation", BASE_CONFIG.replace("deviation: 318.0", "deviation: 0")),
    "negative_deviation": ("deviation", BASE_CONFIG.replace("deviation: 318.0", "deviation: -1")),
    "zero_harmonics": ("n_harmonics", BASE_CONFIG + "n_harmonics: 0\n"),
    "huge_harmonics": ("n_harmonics", BASE_CONFIG.replace("{waveform}", "triangular")
                       + "n_harmonics: 100000000000000000000\n"),
    "zero_subcarriers": ("subcarriers", BASE_CONFIG.replace("subcarriers: 336", "subcarriers: 0")),
    "zero_idft_size": ("idft_size", BASE_CONFIG.replace("idft_size: 512", "idft_size: 0")),
    "negative_cp_len": ("cp_len", BASE_CONFIG.replace("cp_len: 96", "cp_len: -1")),
    "zero_repetition": ("repetition", BASE_CONFIG.replace("repetition: 1", "repetition: 0")),
    "empty_taps": ("tap_powers_db", _multipath("tap_powers_db: []; tap_delays: []")),
    "negative_rician_k": ("rician_k", _multipath("rician_k: -1")),
    # an AWGN config's channel keys are checked too, though unused
    "awgn_negative_rician_k": ("rician_k", BASE_CONFIG.replace("type: awgn",
                                                               "type: awgn\n  rician_k: -1")),
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
    # a YAML integer too large for a float
    "huge_int_ebn0": ("ebn0_db", BASE_CONFIG.replace("ebn0_db: [5.0, 6.0]", f"ebn0_db: [{HUGE_INT}]")),
    "huge_int_deviation": ("deviation", BASE_CONFIG.replace("deviation: 318.0",
                                                            f"deviation: {HUGE_INT}")),
    "huge_int_rician_k": ("rician_k", _multipath(f"rician_k: {HUGE_INT}")),
    "huge_int_tap_powers": ("tap_powers_db",
                            _multipath(f"tap_powers_db: [0.0, {HUGE_INT}]; tap_delays: [0, 1]")),
    # a positive deviation below the linear closed form's domain
    "tiny_linear_deviation": ("deviation", BASE_CONFIG.replace("{waveform}", "linear").replace(
        "deviation: 318.0", "deviation: 5.0e-324")),
    # 2^63 points: above transceiver.MAX_IDFT_SIZE, and no numpy array length
    "huge_idft_size": ("idft_size", _multipath("tap_delays: [0, 1, 2]").replace(
        "idft_size: 512", "idft_size: 9223372036854775808")),
}
# snrpost grid values whose linear SNR 10^(s/10) overflows, is not finite or underflows to 0
BAD_SNR_DB = {"huge_snr_db": "4000.0", "inf_snr_db": ".inf", "nan_snr_db": ".nan",
              "tiny_snr_db": "-4000.0", "huge_int_snr_db": HUGE_INT}
INVALID_CONFIGS.update(
    (case, ("snr_db", BASE_CONFIG + f"analysis:\n  snr_db: [0.0, {value}]\n"))
    for case, value in BAD_SNR_DB.items()
)
# a finite, positive SNR whose R/snr overflows at R = 4
INVALID_CONFIGS["tiny_snr_db_r4"] = ("analysis/snr_db", BASE_CONFIG.replace(
    "repetition: 1", "repetition: 4") + "analysis:\n  snr_db: [-3080]\n")
BAD_SNR_GRIDS = sorted(case for case, (field, _) in INVALID_CONFIGS.items()
                       if field.endswith("snr_db"))


# One value of each YAML type; each config key below takes none of them
# (waveform takes a string, but not this one).
WRONG_VALUES = {"string": "318", "bool": True, "null": None, "list": [1], "mapping": {"a": 1},
                "date": yaml.safe_load("2020-01-01")}
SCALAR_KEYS = ["waveform", "deviation", "n_harmonics", "frame/subcarriers", "frame/idft_size",
               "frame/cp_len", "frame/repetition", "channel/type", "channel/rician_k",
               "sweep/min_bits", "sweep/min_errors", "sweep/max_frames", "sweep/seed"]
LIST_KEYS = ["channel/tap_powers_db", "channel/tap_delays", "sweep/ebn0_db", "analysis/snr_db"]


CONFIGS = Path(__file__).parent.parent / "configs"
SHIPPED_CONFIGS = sorted(CONFIGS.glob("*.yaml"))


def _wrong_type_cases():
    """(id, key its error must name, config text) for each wrong type of each key.

    A list key gets every wrong value but a list, and a list of each.  The
    channel keys sit under ``type: awgn``, which must check them too.
    """
    for path in SCALAR_KEYS + LIST_KEYS:
        values = dict(WRONG_VALUES)
        if path in LIST_KEYS:
            del values["list"]
            values.update({f"list_of_{kind}": [v] for kind, v in WRONG_VALUES.items()})
        for kind, value in values.items():
            raw = yaml.safe_load(BASE_CONFIG.format(waveform="plain"))
            *section, key = path.split("/")
            (raw.setdefault(section[0], {}) if section else raw)[key] = value
            yield f"{path}={kind}", key, yaml.safe_dump(raw)
    for section in ("frame", "channel", "sweep", "analysis"):
        for kind, value in (("scalar", 5), ("null", None)):
            raw = yaml.safe_load(BASE_CONFIG.format(waveform="plain"))
            raw[section] = value
            yield f"{section}={kind}", section, yaml.safe_dump(raw)
    yield "channel_without_type", "type", BASE_CONFIG.format(waveform="plain").replace(
        "type: awgn", "rician_k: 1")
    yield "top_level_list", "config", "- waveform: plain\n"


WRONG_TYPE_CASES = {case: (key, text) for case, key, text in _wrong_type_cases()}


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

    @pytest.mark.parametrize("waveform", WAVEFORMS)
    def test_cli_matches_library(self, waveform, tmp_path):
        # 17 significant digits read back every coefficient bit for bit
        out = tmp_path / "filter.csv"
        assert cli.main(["design", "--waveform", waveform, "--deviation", "318",
                         "--subcarriers", "336", "--out", str(out)]) == 0
        lib = design_filter(waveform, 318.0, 336)
        back = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(back[:, 0], lib.subcarriers)
        np.testing.assert_array_equal(back[:, 1] + 1j * back[:, 2], lib.coeffs)

    # sha256 of the whole CSV for (waveform, deviation, subcarriers, harmonics):
    # each design is deterministic, so a refactor must keep every byte.
    PINNED_CSV = {
        ("plain", 318, 336, 64):
            "b8628dd32356284975d429a62992bffe8d13515e46564db1085a234cbcd2c511",
        ("linear", 318, 336, 64):
            "b41685586116be1662948669a50c0301474daa31d6d5f2b8313a1267dd3c9eee",
        ("sinusoidal", 318, 336, 64):
            "140f572fd88086da0b93f847c5a15401249134844d6a3240052b34c9c0a3e73f",
        ("triangular", 318, 336, 64):
            "d227b288cc389cd9435deccf5d6d818d3e1f2b7143433a2ddd60225aec46fe7c",
        ("triangular", 318, 336, 41):
            "c530fd46ccc4f8c11584340e09da9b05ca997ef323dc4ba204004c443aa7d541",
        ("plain", 24, 48, 64):
            "f1d5677d440bf6a64d3b93d69c2b4c772098c35d8bf3e0fadf50e5225084c6a1",
        ("linear", 24, 48, 64):
            "3697a981caf5ad0ac9f590b6e5b5e640eb946fdc4e16790b76ac03e889c7e580",
        ("sinusoidal", 24, 48, 64):
            "10ef14368aeac00e2957dfee5c08a0cacfd0647e993627250a770e4f116b1c3e",
        ("triangular", 24, 48, 64):
            "1fe5f22dae7b33140021d7853adcf7439211f34c63aee4dd132afe505ed6d1f1",
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
        (["triangular", "--harmonics", "257"], "n_harmonics must be <= 256, got 257"),
        (["triangular", "--harmonics", "100000000000000000000"],
         "n_harmonics must be <= 256, got 100000000000000000000"),
    ])
    def test_rejects_what_a_config_rejects(self, flags, message, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = cli.main(["design", "--waveform", *flags, "--subcarriers", "336", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_rejects_band_no_grid_holds(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        m = 10**23
        rc = cli.main(["design", "--waveform", "linear", "--deviation", "10",
                       "--subcarriers", str(m), "--out", str(out)])
        assert rc == 1
        bound = transceiver.MAX_IDFT_SIZE
        assert capsys.readouterr().err == f"error: subcarriers must be <= {bound}, got {m}\n"
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

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.stem)
    def test_shipped_rows_match_their_pin(self, path, tmp_path):
        # in process, CI's check of the installed entry point: `grep -v '^#' | sha256sum`
        out = tmp_path / "ber.csv"
        assert cli.main(["ber", "--config", str(path), "--out", str(out)]) == 0
        rows = "".join(ln for ln in out.read_text().splitlines(keepends=True)
                       if not ln.startswith("#"))
        pins = (CONFIGS / "ber_rows.sha256").read_text().splitlines()
        assert f"{hashlib.sha256(rows.encode()).hexdigest()}  {path.name}" in pins

    def test_one_pin_per_shipped_config(self):
        pins = (CONFIGS / "ber_rows.sha256").read_text().splitlines()
        assert sorted(line.split("  ")[1] for line in pins) == [p.name for p in SHIPPED_CONFIGS]

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
        cfg.write_text(BASE_CONFIG.format(waveform="sinusoidal"))
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
        """Data rows (below the comment header) for sinusoidal shaping."""
        cfg = tmp_path / "pin.yaml"
        cfg.write_text(BASE_CONFIG.format(waveform="sinusoidal").replace(
            "repetition: 1", f"repetition: {repetition}"))
        out = tmp_path / "out.csv"
        assert cli.main(["analyze", "--config", str(cfg), "--mode", mode, "--out", str(out)]) == 0
        return [ln for ln in out.read_text().splitlines(keepends=True) if not ln.startswith("#")]

    # sha256 of the data rows: the psd rows are the closed form |c_k|^2, the
    # same for every R; the papr rows as written by the frame-by-frame loop.
    PINNED_ROWS = {
        ("psd", 1): "9f791251cd426cf7f600ab09654adbf4ce5fd718ddead74d0494fa520034159e",
        ("psd", 4): "9f791251cd426cf7f600ab09654adbf4ce5fd718ddead74d0494fa520034159e",
        ("papr", 1): "b37210d2418c92e462d22cee1480a387e1d53be58c437e2b1292036220d16db1",
        ("papr", 4): "4e755da11ba0140a62044f55f237b9ead2b3154612d4a355075098f6ebd83bdb",
    }

    @pytest.mark.parametrize("mode, repetition", sorted(PINNED_ROWS))
    def test_psd_and_papr_rows_pinned(self, mode, repetition, tmp_path):
        rows = "".join(self._rows(mode, repetition, tmp_path))
        digest = hashlib.sha256(rows.encode()).hexdigest()
        assert digest == self.PINNED_ROWS[mode, repetition]

    # sha256 of the PSD's 336 in-band rows alone, which carry the filter's
    # power response; the guard rows sit at the in_band_db floor.
    PINNED_PSD_IN_BAND = {
        1: "429916a8b2d1c6e35081cbaab9927446ba00dd887104ee7e7d89f17bd564aaa5",
        4: "429916a8b2d1c6e35081cbaab9927446ba00dd887104ee7e7d89f17bd564aaa5",
    }

    @pytest.mark.parametrize("repetition", sorted(PINNED_PSD_IN_BAND))
    def test_psd_in_band_rows_pinned(self, repetition, tmp_path):
        low, high = fdss.band_limits(336)
        rows = self._rows("psd", repetition, tmp_path)[1:]
        in_band = [ln for ln in rows if low <= int(ln.split(",")[0]) <= high]
        assert len(in_band) == 336
        digest = hashlib.sha256("".join(in_band).encode()).hexdigest()
        assert digest == self.PINNED_PSD_IN_BAND[repetition]

    @staticmethod
    def _psd(waveform, repetition, seed, tmp_path):
        """The ``analyze --mode psd`` lines below the echo, and the dB values by grid bin."""
        cfg = tmp_path / f"psd{seed}.yaml"
        cfg.write_text(BASE_CONFIG.format(waveform=waveform).replace(
            "repetition: 1", f"repetition: {repetition}").replace("seed: 11", f"seed: {seed}"))
        out = tmp_path / f"psd{seed}.csv"
        assert cli.main(["analyze", "--config", str(cfg), "--mode", "psd", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()[2:]
        db = np.zeros(512)
        for line in lines[1:]:
            k, v = line.split(",")
            db[int(k) % 512] = float(v)
        return lines, db

    # E|X_k|^2 = 1 on every bin of the unitary data DFT, so the PSD is |c_k|^2
    @pytest.mark.parametrize("repetition", [1, 4])
    @pytest.mark.parametrize("waveform", WAVEFORMS)
    def test_psd_is_the_filter_power_response(self, waveform, repetition, tmp_path):
        lines, _ = self._psd(waveform, repetition, 11, tmp_path)
        assert self._psd(waveform, repetition, 12345, tmp_path)[0] == lines
        filt = design_filter(waveform, 318.0, 336)
        closed = dict(zip(filt.subcarriers, analysis.in_band_db(np.abs(filt.coeffs) ** 2)))
        assert lines[0] == "subcarrier,psd_db"
        assert [int(ln.split(",")[0]) for ln in lines[1:]] == list(range(-256, 256))
        for line in lines[1:]:
            k, v = line.split(",")
            assert v == f"{closed.get(int(k), -3000.0):.6f}"  # guard bins: the floor

    # Each periodogram bin averages K powers |c_k X_k|^2 with |X_k|^2 close to
    # exponential, so in dB it scatters about |c_k|^2 with rms
    # sigma = 10/ln(10)/sqrt(K) = 4.34/sqrt(K) dB.  Over the M/R independent
    # data bins (84 at R = 4) the measured rms is within 30% of sigma, and the
    # mean offset, which the in-band normalization sets, within sigma/2.
    @pytest.mark.parametrize("repetition", [1, 4])
    @pytest.mark.parametrize("waveform", WAVEFORMS)
    def test_psd_agrees_with_the_periodogram(self, waveform, repetition, tmp_path):
        k_frames = 1000
        frame = FrameConfig(repetition=repetition)
        body = render_frames(design_filter(waveform, 318.0, 336), k_frames, 7, frame)
        diff = (analysis.psd(body, 512, k_frames)
                - self._psd(waveform, repetition, 11, tmp_path)[1])[frame.bins]
        sigma = 10.0 / math.log(10.0) / math.sqrt(k_frames)
        assert math.sqrt(np.mean(diff**2)) <= 1.3 * sigma
        assert abs(np.mean(diff)) <= 0.5 * sigma

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


class TestOutputs:
    """One config echo on every config-driven output; all of a command's files or none."""

    ECHO = ("# config: {channel: {type: awgn}, deviation: 318.0, frame: {cp_len: 96,"
            " idft_size: 512, repetition: 1, subcarriers: 336}, sweep: {ebn0_db: [5.0, 6.0],"
            " max_frames: 4000, min_bits: 15000, min_errors: 30, seed: 11}, waveform: plain}")

    def test_every_output_carries_the_one_echo(self, plain_config, tmp_path):
        config = ["--config", str(plain_config)]
        assert cli.main(["ber", *config, "--out", str(tmp_path / "ber.csv")]) == 0
        for mode in ("snrpost", "psd", "papr"):
            assert cli.main(["analyze", *config, "--mode", mode,
                             "--out", str(tmp_path / f"{mode}.csv")]) == 0
        assert cli.main(["synthesize", *config, "--data", "0=1",
                         "--out-prefix", str(tmp_path / "s_")]) == 0
        outputs = sorted(tmp_path.glob("*.csv"))
        assert len(outputs) == 6
        for path in outputs:
            assert path.read_text().splitlines()[:2] == [f"# chirplink {__version__}", self.ECHO], path

    @staticmethod
    def _ber_echo(text, tmp_path):
        cfg, out = tmp_path / "run.yaml", tmp_path / "ber.csv"
        cfg.write_text(text)
        assert cli.main(["ber", "--config", str(cfg), "--out", str(out)]) == 0
        return out.read_text().splitlines()[1]

    # pairs of configs that differ in one value the sweep reads
    @pytest.mark.parametrize("a, b", [
        (BASE_CONFIG.format(waveform="triangular") + "n_harmonics: 41\n",
         BASE_CONFIG.format(waveform="triangular") + "n_harmonics: 64\n"),
        (BASE_CONFIG.format(waveform="plain"),
         BASE_CONFIG.format(waveform="plain").replace("deviation: 318.0", "deviation: 318.0004")),
    ], ids=["n_harmonics", "deviation_7th_digit"])
    def test_ber_echo_is_lossless(self, a, b, tmp_path):
        echo_a, echo_b = self._ber_echo(a, tmp_path), self._ber_echo(b, tmp_path)
        assert echo_a.startswith("# config: ") and echo_b.startswith("# config: ")
        assert echo_a != echo_b

    # each command's flags up to the output path, which goes in a missing directory
    COMMANDS = {
        "design": ["design", "--waveform", "plain", "--subcarriers", "8", "--out"],
        "ber": ["ber", "--out"],
        "snrpost": ["analyze", "--mode", "snrpost", "--out"],
        "psd": ["analyze", "--mode", "psd", "--out"],
        "papr": ["analyze", "--mode", "papr", "--out"],
        "synthesize": ["synthesize", "--data", "0=1", "--out-prefix"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_unwritable_out_is_a_usage_error(self, command, plain_config, tmp_path, capsys):
        out = tmp_path / "missing" / "x_"
        args = [*self.COMMANDS[command], str(out)]
        if command != "design":
            args += ["--config", str(plain_config)]
        first = f"{out}time.csv" if command == "synthesize" else out
        assert cli.main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {first}: No such file or directory\n"
        assert captured.out == ""
        assert not out.parent.exists()

    def test_unwritable_out_fails_before_the_sweep(self, plain_config, tmp_path, monkeypatch,
                                                   capsys):
        def sweep_not_expected(cfg):
            pytest.fail("the sweep ran before the output was claimed")

        monkeypatch.setattr(cli.simulation, "run_ber_sweep", sweep_not_expected)
        out = tmp_path / "missing" / "x.csv"
        assert cli.main(["ber", "--config", str(plain_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"

    def test_interrupted_work_leaves_no_temporary(self, plain_config, tmp_path, monkeypatch):
        def interrupted_sweep(cfg):
            assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".chirplink-")]
            raise KeyboardInterrupt

        monkeypatch.setattr(cli.simulation, "run_ber_sweep", interrupted_sweep)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["ber", "--config", str(plain_config), "--out", str(tmp_path / "ber.csv")])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]

    def test_synthesize_writes_both_files_or_neither(self, plain_config, tmp_path, capsys):
        (tmp_path / "s_spectrogram.csv").mkdir()
        rc = cli.main(["synthesize", "--config", str(plain_config), "--data", "0=1",
                       "--out-prefix", str(tmp_path / "s_")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {tmp_path / 's_spectrogram.csv'}: Is a directory\n"
        assert not (tmp_path / "s_time.csv").exists()

    def test_failed_rerun_keeps_the_earlier_outputs(self, plain_config, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        args = ["synthesize", "--config", str(plain_config), "--out-prefix", str(out / "s_")]
        assert cli.main([*args, "--data", "0=1"]) == 0
        before = (out / "s_time.csv").read_bytes()
        (out / "s_spectrogram.csv").unlink()
        (out / "s_spectrogram.csv").mkdir()
        capsys.readouterr()
        assert cli.main([*args, "--data", "0=1,75=1"]) == 1  # other data: a rewrite would show
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out / 's_spectrogram.csv'}: Is a directory\n"
        assert (out / "s_time.csv").read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["s_spectrogram.csv", "s_time.csv"]

    def test_outputs_keep_their_modes(self, tmp_path):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text("earlier run\n")
        old.chmod(0o640)
        for out in (new, old):
            assert cli.main(["design", "--waveform", "plain", "--subcarriers", "8",
                             "--out", str(out)]) == 0
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
        assert stat.S_IMODE(old.stat().st_mode) == 0o640
        assert old.read_text() == new.read_text()

    def test_writes_through_a_symlink(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("earlier run\n")
        link.symlink_to(target)
        assert cli.main(["design", "--waveform", "plain", "--subcarriers", "8",
                         "--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_text().startswith("k,re,im\n")

    def test_writes_a_device_in_place(self):
        # a device keeps nothing to protect, and renaming over it would replace it
        assert cli.main(["design", "--waveform", "plain", "--subcarriers", "8",
                         "--out", os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    # a step of each command that an allocation numpy cannot make would stop
    ALLOCATING_STEPS = {
        "design": (cli, "design_filter"),
        "ber": (cli.simulation, "run_ber_sweep"),
        "snrpost": (analysis, "snr_post"),
        "psd": (analysis, "in_band_db"),
        "papr": (analysis, "papr"),
        "synthesize": (transceiver, "modulate"),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_memory_error_is_a_usage_error(self, command, plain_config, tmp_path, monkeypatch,
                                           capsys):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(*self.ALLOCATING_STEPS[command], out_of_memory)
        args = [*self.COMMANDS[command], str(tmp_path / "out_")]
        if command != "design":
            args += ["--config", str(plain_config)]
        assert cli.main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: Unable to allocate 7.28 TiB for an array\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]

    def test_papr_failing_partway_writes_nothing(self, plain_config, tmp_path, monkeypatch,
                                                 capsys):
        papr, calls = analysis.papr, []

        def papr_failing_after_first_waveform(samples):
            calls.append(None)
            if len(calls) > 101:  # one single-chirp and 100 random frames per waveform
                raise ValueError("papr failed")
            return papr(samples)

        monkeypatch.setattr(analysis, "papr", papr_failing_after_first_waveform)
        out = tmp_path / "papr.csv"
        out.write_text("earlier run\n")
        rc = cli.main(["analyze", "--config", str(plain_config), "--mode", "papr",
                       "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: papr failed\n"
        assert out.read_text() == "earlier run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["papr.csv", "run.yaml"]


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

    def test_psd_frames_is_an_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "old.yaml"
        cfg.write_text(BASE_CONFIG.format(waveform="plain") + "analysis:\n  psd_frames: 1000\n")
        out = tmp_path / "psd.csv"
        rc = cli.main(["analyze", "--config", str(cfg), "--mode", "psd", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: invalid config: unknown key analysis/psd_frames\n"
        assert not out.exists()

    def test_float_for_integer_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(BASE_CONFIG.format(waveform="plain").replace("seed: 11", "seed: 11.0"))
        rc = cli.main(["ber", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "seed" in capsys.readouterr().err

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

    # the command the huge-integer failures were found under; the message is
    # short, so the 401 digits are not echoed
    @pytest.mark.parametrize("case", sorted(c for c in INVALID_CONFIGS if c.startswith("huge_int")))
    def test_huge_integer_is_named_not_echoed(self, case, tmp_path, capsys):
        field, text = INVALID_CONFIGS[case]
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text.replace("{waveform}", "plain"))
        out = tmp_path / "x.csv"
        rc = cli.main(["analyze", "--mode", "snrpost", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1 and field in err
        assert err.endswith(" must be a real number, got one too large for a float\n")
        assert not out.exists()

    # the gate that the dataclasses and load_config hold every rule of the old
    # config schema: a wrong type anywhere is a usage error naming its key
    @pytest.mark.parametrize("case", sorted(WRONG_TYPE_CASES))
    def test_wrong_type_is_a_usage_error(self, case, tmp_path, capsys):
        key, text = WRONG_TYPE_CASES[case]
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text)
        out = tmp_path / "x.csv"
        for command in (["ber"], ["analyze", "--mode", "snrpost"]):
            rc = cli.main([*command, "--config", str(cfg), "--out", str(out)])
            err = capsys.readouterr().err
            assert rc == 1
            assert [ln.startswith("error:") for ln in err.splitlines()].count(True) == 1
            assert key in err
            assert "Traceback" not in err
            assert not out.exists()

    def test_usage_error_exit_code(self):
        assert cli.main(["design"]) == 1  # missing required flags


SIZE_KEYS = ("frame/idft_size", "frame/subcarriers")


def _fuzz_values(path: str):
    """Values of every YAML type for key ``path``, none of which allocates much.

    Integers reach +-10^400, but a size key's are at most 4096 or above
    ``MAX_IDFT_SIZE`` and ``max_frames``'s at most 64; a grid is one value.
    """
    integers = st.integers()
    if path in SIZE_KEYS:
        integers = (st.integers(max_value=4096)
                    | st.integers(min_value=transceiver.MAX_IDFT_SIZE + 1))
    elif path == "sweep/max_frames":
        integers = st.integers(max_value=64)
    extremes = st.sampled_from([10**400, -(10**400)]).filter(
        lambda v: path != "sweep/max_frames" or v < 0)
    scalars = (integers | extremes | st.floats() | st.sampled_from([5e-324, -1e-310])
               | st.text(max_size=8) | st.booleans() | st.none())
    return scalars | st.lists(scalars, max_size=1 if path == "sweep/ebn0_db" else 3)


@st.composite
def fuzzed_configs(draw, any_grid: bool = False):
    """A shipped config, shrunk to one grid value and 64 frames, with one to three keys redrawn.

    With ``any_grid``, ``frame/idft_size`` is also set to any integer from 1
    to ``MAX_IDFT_SIZE``, and zero to two other keys are redrawn.
    """
    raw = yaml.safe_load(draw(st.sampled_from(SHIPPED_CONFIGS)).read_text())
    raw["sweep"].update(ebn0_db=raw["sweep"]["ebn0_db"][:1], max_frames=64)
    if any_grid:
        raw["frame"]["idft_size"] = draw(st.integers(1, transceiver.MAX_IDFT_SIZE))
    paths = SCALAR_KEYS + LIST_KEYS + ["frame", "channel", "sweep", "analysis"]
    fewest = 0 if any_grid else 1
    keys = st.lists(st.sampled_from(paths), min_size=fewest, max_size=fewest + 2, unique=True)
    for path in draw(keys):
        *section, key = path.split("/")
        table = raw.setdefault(section[0], {}) if section else raw
        if isinstance(table, dict):  # a section redrawn as a scalar has no keys left
            table[key] = draw(_fuzz_values(path))
    return raw


class TestFuzzedConfigs:
    """Any value in any key of a shipped config ends in a result or in one ``error:`` line."""

    COMMANDS = {c: args for c, args in TestOutputs.COMMANDS.items() if c != "design"}

    @settings(max_examples=60, deadline=None)
    @given(raw=fuzzed_configs())
    def test_every_command_exits_cleanly(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.yaml"
            cfg.write_text(yaml.safe_dump(raw), encoding="utf-8")
            for command, args in self.COMMANDS.items():
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = cli.main([*args, str(Path(tmp) / command), "--config", str(cfg)])
                assert rc in (0, 1, 2) and (rc != 2 or command == "ber"), (command, rc)
                if rc == 1:
                    assert err.getvalue().startswith("error: ")
                    assert err.getvalue().count("\n") == 1, err.getvalue()
                    left = [p.name for p in Path(tmp).iterdir()]
                    assert not [n for n in left if n.startswith((command, ".chirplink-"))], left

    @settings(max_examples=60, deadline=None)
    @given(raw=fuzzed_configs(any_grid=True))
    def test_every_constructed_config_runs(self, raw):
        # a config that constructs can run, whatever its transform size
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.yaml"
            path.write_text(yaml.safe_dump(raw), encoding="utf-8")
            try:
                cfg = cli.link_config_from(cli.load_config(path))
            except ValueError:
                return
        short = dataclasses.replace(cfg, ebn0_grid_db=cfg.ebn0_grid_db[:1], max_frames=16)
        point = run_ber_sweep(short).points[0]
        assert point.frame_count <= 16 and math.isfinite(point.simulated_ber)
