"""Command-line front end: filter design, synthesis, diagnostics, BER sweeps.

Everything is emitted as CSV with a config-echo comment header so runs are
reproducible byte for byte from (config file, seed).  Exit codes: 0 on
success, 1 on usage/config errors, 2 when any BER point under-converged.

The config schema checks only the file's shape: its keys, nesting and YAML
types.  Every range and cross-field rule belongs to the dataclass that
holds the field, which raises ``ValueError`` naming it.  ``main`` is the one
place that turns a ``ValueError`` (``UsageError`` is one) into an
``error: ...`` message on stderr and exit code 1, so no command writes a
file or a traceback for invalid input.
"""

from __future__ import annotations

import argparse
import sys

import jsonschema
import numpy as np
import yaml

from . import __version__
from . import analysis, simulation, transceiver
from .channel import ChannelProfile
from .fdss import DEFAULT_DEVIATION
from .simulation import LinkConfig, WAVEFORMS, design_filter
from .transceiver import DataFrame, FrameConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDERCONVERGED = 2


class UsageError(ValueError):
    """Invalid flags or an unreadable, malformed or schema-invalid config file."""


CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["waveform"],
    "properties": {
        "waveform": {"type": "string"},
        "deviation": {"type": "number"},
        "n_harmonics": {"type": "integer"},
        "frame": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "subcarriers": {"type": "integer"},
                "idft_size": {"type": "integer"},
                "cp_len": {"type": "integer"},
                "repetition": {"type": "integer"},
            },
        },
        "channel": {
            "type": "object",
            "additionalProperties": False,
            "required": ["type"],
            "properties": {
                "type": {"enum": ["awgn", "multipath"]},
                "tap_powers_db": {"type": "array", "items": {"type": "number"}},
                "rician_k": {"type": "number"},
                "tap_delays": {"type": "array", "items": {"type": "integer"}},
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "ebn0_db": {"type": "array", "items": {"type": "number"}},
                "min_bits": {"type": "integer"},
                "min_errors": {"type": "integer"},
                "max_frames": {"type": "integer"},
                "seed": {"type": "integer"},
            },
        },
        # no dataclass holds these two, so their bounds stay here
        "analysis": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "snr_db": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "psd_frames": {"type": "integer", "minimum": 1},
            },
        },
    },
}


# YAML integers only: the dataclasses take config values as given, and a
# float such as ``seed: 5.0`` would pass the stock "integer" check.
_StrictValidator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool)
    ),
)


def load_config(path) -> dict:
    """Read and schema-validate a YAML run configuration."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise UsageError(f"malformed YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config must be a mapping")
    validator = _StrictValidator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        lines = []
        for err in errors:
            where = "/".join(str(p) for p in err.absolute_path) or "<root>"
            lines.append(f"  {where}: {err.message}")
        raise UsageError("invalid config:\n" + "\n".join(lines))
    return raw


def link_config_from(raw: dict) -> LinkConfig:
    """Sweep configuration from a schema-valid config mapping.

    Only the keys the config sets are passed on, so every default and rule
    lives in the dataclasses.  Invalid values, the ``snrpost`` grid's
    included, raise ``ValueError``, so no command starts on a bad config.
    """
    frame = FrameConfig(**raw.get("frame", {}))
    snr_grid(raw, frame.repetition)
    channel = dict(raw.get("channel", {"type": "awgn"}))
    profile = None if channel.pop("type") == "awgn" else ChannelProfile(**channel)
    sweep = {("ebn0_grid_db" if k == "ebn0_db" else k): v for k, v in raw.get("sweep", {}).items()}
    top = {k: raw[k] for k in ("waveform", "deviation", "n_harmonics") if k in raw}
    return LinkConfig(frame=frame, channel_profile=profile, **top, **sweep)


def snr_grid(raw: dict, repetition: int) -> tuple[list, np.ndarray]:
    """The ``analyze --mode snrpost`` grid: values in dB and linear SNRs.

    Raises ``ValueError`` naming ``snr_db`` unless ``analysis.usable_snr``
    admits every linear SNR at the frame's repetition factor.
    """
    grid_db = raw.get("analysis", {}).get("snr_db", list(np.arange(-10.0, 31.0, 2.0)))
    snr = [simulation.db_to_linear(s) for s in grid_db]
    bad = [s for s, v in zip(grid_db, snr) if not analysis.usable_snr(v, repetition)]
    if bad:
        raise ValueError(f"analysis/snr_db values {bad} do not give an SNR s with s and R/s"
                         f" finite and positive (R = {repetition})")
    return grid_db, np.array(snr)


def _echo_header(raw: dict) -> str:
    echo = yaml.safe_dump(raw, sort_keys=True, default_flow_style=True, width=10_000).strip()
    return f"# chirplink {__version__}\n# config: {echo}\n"


def cmd_design(args) -> int:
    filt = design_filter(args.waveform, args.deviation, args.subcarriers, args.harmonics)
    filt.export_csv(args.out)
    ratio = filt.magnitude_ratio()
    print(f"wrote {args.out}: {filt.m} coefficients, k = {filt.l_down}..{filt.l_up}")
    print(f"truncation loss: {filt.truncation_loss:.6e}")
    print(f"max/min |c_k|: {ratio:.6g}")
    return EXIT_OK


def data_spec(spec: str) -> dict:
    """``--data`` as ``{index: symbol}`` from ``idx=value,idx=value``; a bare ``idx`` means 1.

    It is the flag's argparse ``type``, so argparse reports an entry that
    does not parse as a usage error.
    """
    if not spec.strip():
        raise argparse.ArgumentTypeError("empty data spec; expected e.g. 0=1,75=1")
    items = (item.partition("=") for item in spec.split(","))
    return {int(idx): complex(val if eq else "1") for idx, eq, val in items}


def cmd_synthesize(args) -> int:
    raw = load_config(args.config)
    cfg = link_config_from(raw)
    frame = cfg.frame
    data = np.zeros(frame.symbols_per_frame, dtype=complex)
    for idx, val in args.data.items():
        if not 0 <= idx < len(data):
            raise UsageError(f"symbol index {idx} out of range 0..{len(data) - 1}")
        data[idx] = val
    # both outputs are computed before either file is opened
    tx = transceiver.modulate(DataFrame(data), cfg.filter, frame)
    spec = analysis.spectrogram(tx.samples[frame.cp_len :], win_len=args.win_len, hop=args.hop)
    header = _echo_header(raw)

    time_path = f"{args.out_prefix}time.csv"
    with open(time_path, "w", encoding="ascii") as fh:
        fh.write(header)
        fh.write(f"# cp_len: {frame.cp_len}\n")
        fh.write("sample,re,im\n")
        for i, v in enumerate(tx.samples):
            fh.write(f"{i},{v.real:.9e},{v.imag:.9e}\n")

    spec_path = f"{args.out_prefix}spectrogram.csv"
    with open(spec_path, "w", encoding="ascii") as fh:
        fh.write(header)
        fh.write(f"# win_len: {args.win_len} hop: {args.hop}\n")
        fh.write("start," + ",".join(f"bin{i}" for i in range(spec.shape[1])) + "\n")
        for i, row in enumerate(spec):
            fh.write(f"{i * args.hop}," + ",".join(f"{v:.4f}" for v in row) + "\n")
    print(f"wrote {time_path} and {spec_path}")
    return EXIT_OK


def cmd_ber(args) -> int:
    cfg = link_config_from(load_config(args.config))
    curve = simulation.run_ber_sweep(cfg)
    curve.to_csv(args.out)
    for p in curve.points:
        tag = "" if p.converged else "  UNDER-CONVERGED"
        print(
            f"Eb/N0 {p.ebn0_db:6.2f} dB: sim {p.simulated_ber:.3e}"
            f"  theory {p.theoretical_ber:.3e}  ({p.error_count} errors){tag}"
        )
    print(f"wrote {args.out}")
    return EXIT_UNDERCONVERGED if curve.under_converged else EXIT_OK


def cmd_analyze(args) -> int:
    raw = load_config(args.config)
    cfg = link_config_from(raw)
    filt, frame = cfg.filter, cfg.frame
    ana = raw.get("analysis", {})
    header = _echo_header(raw)
    if args.mode == "snrpost":
        grid_db, snr = snr_grid(raw, frame.repetition)
        rep = analysis.snr_post(filt, snr, frame.repetition)
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(header)
            fh.write(f"# repetition: {frame.repetition}\n")
            fh.write("snr_db,snr_post_db,alpha_mmse\n")
            post_db = 10.0 * np.log10(rep.snr_post)  # inf where saturated
            for s, p, alpha in zip(grid_db, post_db, rep.alpha_mmse):
                fh.write(f"{s:.6f},{p:.6f},{alpha:.9e}\n")
    elif args.mode == "psd":
        n_frames = int(ana.get("psd_frames", 1000))
        rng = np.random.default_rng(cfg.seed)
        total = np.zeros(frame.idft_size)
        block = simulation.FRAME_BLOCK  # memory stays flat in psd_frames
        for start in range(0, n_frames, block):
            bits = rng.integers(0, 2, (min(block, n_frames - start), frame.bits_per_frame))
            tx = transceiver.modulate(DataFrame.from_bits(bits), filt, frame)
            for power in np.abs(np.fft.fft(tx.samples[:, frame.cp_len :], axis=1)) ** 2:
                total += power  # frame by frame, the order of one mean over all frames
        shift = np.fft.fftshift(analysis.in_band_db(total / n_frames))
        freqs = np.fft.fftshift(np.fft.fftfreq(frame.idft_size) * frame.idft_size).astype(int)
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(header)
            fh.write(f"# frames: {n_frames}\n")
            fh.write("subcarrier,psd_db\n")
            for k, v in zip(freqs, shift):
                fh.write(f"{k},{v:.6f}\n")
    elif args.mode == "papr":
        filters = {  # all four designed before the file is opened
            wf: design_filter(wf, cfg.deviation, frame.subcarriers, cfg.n_harmonics)
            for wf in WAVEFORMS
        }
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(header)
            fh.write("waveform,single_chirp_papr_db,random_frame_papr_db\n")
            for wf, filt in filters.items():
                d = np.zeros(frame.symbols_per_frame, dtype=complex)
                d[0] = 1.0
                single = transceiver.modulate(DataFrame(d), filt, frame)
                single_papr = analysis.papr(single.samples[frame.cp_len :])
                bits = np.random.default_rng(cfg.seed).integers(0, 2, (100, frame.bits_per_frame))
                tx = transceiver.modulate(DataFrame.from_bits(bits), filt, frame)
                vals = [analysis.papr(body) for body in tx.samples[:, frame.cp_len :]]
                fh.write(f"{wf},{single_papr:.4f},{np.mean(vals):.4f}\n")
    print(f"wrote {args.out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chirplink", description=__doc__)
    parser.add_argument("--version", action="version", version=f"chirplink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="design a shaping filter and write it as CSV")
    p.add_argument("--waveform", required=True, choices=WAVEFORMS)
    p.add_argument("--deviation", type=float, default=DEFAULT_DEVIATION)
    p.add_argument("--subcarriers", type=int, required=True)
    p.add_argument("--harmonics", type=int, default=simulation.TRIANGULAR_HARMONICS)
    p.add_argument("--out", default="filter.csv")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("synthesize", help="synthesize a frame and its spectrogram")
    p.add_argument("--config", required=True)
    p.add_argument("--data", type=data_spec, required=True, help="active symbols, e.g. 0=1,75=1")
    p.add_argument("--out-prefix", default="synth_")
    p.add_argument("--win-len", type=int, default=64)
    p.add_argument("--hop", type=int, default=8)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("ber", help="run a Monte Carlo BER sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="ber.csv")
    p.set_defaults(func=cmd_ber)

    p = sub.add_parser("analyze", help="PSD / PAPR / post-equalization SNR reports")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", required=True, choices=["psd", "papr", "snrpost"])
    p.add_argument("--out", default="analysis.csv")
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
