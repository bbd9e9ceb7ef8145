"""Command-line front end: filter design, synthesis, diagnostics, BER sweeps.

Every output is CSV; each config-driven one starts with the one config echo,
``_echo_header``, and ``design`` writes rows only.  ``_outputs`` is the one
place that writes a file: a command claims all its outputs before its work
and writes all of them or none after it.  Exit codes: 0 on success, 1 on
usage/config errors, 2 when any BER point under-converged.

``load_config`` checks only the file's shape: its sections, keys and
required keys.  Every value's type, range and cross-field rule belongs to
the dataclass that holds the field, which raises ``ValueError`` naming it.
``main`` is the one place that turns a ``ValueError`` (``UsageError`` is
one) or a ``MemoryError`` into an ``error: ...`` message on stderr and exit
code 1, so no command writes a file or a traceback for invalid input, an
unwritable output path or a size the machine cannot hold.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import stat
import sys
import tempfile

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
    """Invalid flags, or a config file that cannot be read, is not YAML or has the wrong shape."""


#: The keys of each config section, the top level under ``None``.
_SECTION_KEYS = {
    None: {"waveform", "deviation", "n_harmonics", "frame", "channel", "sweep", "analysis"},
    "frame": {f.name for f in dataclasses.fields(FrameConfig)},
    "channel": {"type"} | {f.name for f in dataclasses.fields(ChannelProfile)},
    "sweep": {"ebn0_db", "min_bits", "min_errors", "max_frames", "seed"},
    "analysis": {"snr_db"},
}


def load_config(path) -> dict:
    """Read a YAML run configuration and check its shape.

    Each section is a mapping of known keys, ``waveform`` is required, and
    a ``channel`` needs a ``type`` of ``awgn`` or ``multipath``.  The
    values are left to the dataclasses, which check their types and ranges.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise UsageError(f"malformed YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config must be a mapping")
    for section, keys in _SECTION_KEYS.items():
        table = raw if section is None else raw.get(section, {})
        if not isinstance(table, dict):
            raise UsageError(f"invalid config: {section} must be a mapping, got {table!r}")
        unknown = [k for k in table if k not in keys]
        if unknown:
            where = f"{section}/" if section else ""
            raise UsageError(f"invalid config: unknown key {where}{unknown[0]}")
    if "waveform" not in raw:
        raise UsageError("invalid config: waveform is required")
    channel = raw.get("channel", {"type": "awgn"})
    if "type" not in channel:
        raise UsageError("invalid config: channel/type is required")
    if channel["type"] not in ("awgn", "multipath"):
        raise UsageError(f"invalid config: channel/type must be awgn or multipath,"
                         f" got {channel['type']!r}")
    return raw


def link_config_from(raw: dict) -> LinkConfig:
    """Sweep configuration from a config mapping of ``load_config``'s shape.

    Only the keys the config sets are passed on, so every default and rule
    lives in the dataclasses.  Invalid values, the ``snrpost`` grid's
    included, raise ``ValueError``, so no command starts on a bad config.
    The channel keys make a ``ChannelProfile`` for AWGN too, so they are
    checked whatever the type.
    """
    frame = FrameConfig(**raw.get("frame", {}))
    snr_grid(raw, frame.repetition)
    channel = dict(raw.get("channel", {"type": "awgn"}))
    awgn = channel.pop("type") == "awgn"
    profile = ChannelProfile(**channel)
    sweep = {("ebn0_grid_db" if k == "ebn0_db" else k): v for k, v in raw.get("sweep", {}).items()}
    top = {k: raw[k] for k in ("waveform", "deviation", "n_harmonics") if k in raw}
    return LinkConfig(frame=frame, channel_profile=None if awgn else profile, **top, **sweep)


def snr_grid(raw: dict, repetition: int) -> tuple[tuple, list]:
    """The ``analyze --mode snrpost`` grid: values in dB and linear SNRs.

    ``analysis.usable_grid`` of ``analysis/snr_db`` at the frame's
    repetition factor, each value taken from dB by ``db_to_linear``.
    """
    grid_db = raw.get("analysis", {}).get("snr_db", np.arange(-10.0, 31.0, 2.0))
    return analysis.usable_grid("analysis/snr_db", grid_db, repetition, simulation.db_to_linear)


def _echo_header(raw: dict) -> str:
    echo = yaml.safe_dump(raw, sort_keys=True, default_flow_style=True, width=10_000).strip()
    return f"# chirplink {__version__}\n# config: {echo}\n"


@contextlib.contextmanager
def _cannot_write(path):
    """An ``OSError`` on ``path`` as the ``UsageError`` ``cannot write <path>: <reason>``."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


@contextlib.contextmanager
def _outputs(*paths):
    """Claim every output before the work, then write all of them or none.

    ``with _outputs(a, b) as texts:`` first stages a temporary beside each
    target, so a path that cannot be written fails as a ``UsageError``
    before any work runs.  The block sets ``texts[path]`` for every path;
    when it ends, the texts are written and the temporaries renamed into
    place.  A failure, in the block or in the writing, removes the
    temporaries, so every existing file is left as it was, mode included.
    """
    umask = os.umask(0o077)  # read it; restrictive for the moment it is set
    os.umask(umask)
    staged = {}  # path: (open file, its temporary or None, target)
    texts = {}
    try:
        for path in paths:
            with _cannot_write(path):
                mode = 0o666 & ~umask  # what open() gives a new file
                if os.path.exists(path):
                    fh = open(path, "a")  # fails where writing would: a directory, no permission
                    mode = os.fstat(fh.fileno()).st_mode
                    if not stat.S_ISREG(mode):  # a device or a pipe keeps nothing: write in place
                        staged[path] = fh, None, path
                        continue
                    fh.close()
                target = os.path.realpath(path)  # through a symlink, as open() writes
                fd, temporary = tempfile.mkstemp(prefix=".chirplink-", dir=os.path.dirname(target))
                staged[path] = os.fdopen(fd, "w", encoding="ascii"), temporary, target
                os.chmod(temporary, mode)
        yield texts
        for path, (fh, _, _) in staged.items():
            with _cannot_write(path), fh:
                fh.write(texts[path])
    except BaseException:
        for fh, temporary, _ in staged.values():
            fh.close()
            if temporary is not None:
                os.remove(temporary)
        raise
    for _, temporary, target in staged.values():
        if temporary is not None:
            os.replace(temporary, target)


def cmd_design(args) -> int:
    with _outputs(args.out) as texts:
        filt = design_filter(args.waveform, args.deviation, args.subcarriers, args.harmonics)
        rows = ["k,re,im\n"]
        for k, c in zip(filt.subcarriers, filt.coeffs):
            rows.append(f"{k},{c.real:.17g},{c.imag:.17g}\n")  # 17 digits: lossless
        texts[args.out] = "".join(rows)
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
    time_path = f"{args.out_prefix}time.csv"
    spec_path = f"{args.out_prefix}spectrogram.csv"
    with _outputs(time_path, spec_path) as texts:
        tx = transceiver.modulate(DataFrame(data), cfg.filter, frame)
        spec = analysis.spectrogram(tx.samples[frame.cp_len :], win_len=args.win_len, hop=args.hop)
        header = _echo_header(raw)

        time_csv = [header, f"# cp_len: {frame.cp_len}\n", "sample,re,im\n"]
        for i, v in enumerate(tx.samples):
            time_csv.append(f"{i},{v.real:.9e},{v.imag:.9e}\n")

        spec_csv = [header, f"# win_len: {args.win_len} hop: {args.hop}\n"]
        spec_csv.append("start," + ",".join(f"bin{i}" for i in range(spec.shape[1])) + "\n")
        for i, row in enumerate(spec):
            spec_csv.append(f"{i * args.hop}," + ",".join(f"{v:.4f}" for v in row) + "\n")

        texts[time_path], texts[spec_path] = "".join(time_csv), "".join(spec_csv)
    print(f"wrote {time_path} and {spec_path}")
    return EXIT_OK


def cmd_ber(args) -> int:
    raw = load_config(args.config)
    cfg = link_config_from(raw)
    with _outputs(args.out) as texts:
        curve = simulation.run_ber_sweep(cfg)
        texts[args.out] = _echo_header(raw) + curve.csv_text()
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
    with _outputs(args.out) as texts:
        if args.mode == "snrpost":
            grid_db, snr = snr_grid(raw, frame.repetition)
            reps = [analysis.snr_post(filt, s, frame.repetition) for s in snr]
            post_db = 10.0 * np.log10([r.snr_post for r in reps])  # inf where saturated
            lines = [f"# repetition: {frame.repetition}\n", "snr_db,snr_post_db,alpha_mmse\n"]
            for s, p, r in zip(grid_db, post_db, reps):
                lines.append(f"{s:.6f},{p:.6f},{r.alpha_mmse:.9e}\n")
        elif args.mode == "psd":
            power = np.zeros(frame.idft_size)  # iid unit-power data: E|X_k|^2 = 1 on every bin
            power[frame.bins] = np.abs(filt.coeffs) ** 2
            shift = np.fft.fftshift(analysis.in_band_db(power))
            freqs = np.fft.fftshift(np.fft.fftfreq(frame.idft_size) * frame.idft_size).astype(int)
            lines = ["subcarrier,psd_db\n"]
            for k, v in zip(freqs, shift):
                lines.append(f"{k},{v:.6f}\n")
        elif args.mode == "papr":
            lines = ["waveform,single_chirp_papr_db,random_frame_papr_db\n"]
            for wf in WAVEFORMS:
                filt = design_filter(wf, cfg.deviation, frame.subcarriers, cfg.n_harmonics)
                d = np.zeros(frame.symbols_per_frame, dtype=complex)
                d[0] = 1.0
                single = transceiver.modulate(DataFrame(d), filt, frame)
                single_papr = analysis.papr(single.samples[frame.cp_len :])
                bits = np.random.default_rng(cfg.seed).integers(
                    0, 2, (transceiver.PAPR_FRAMES, frame.bits_per_frame))
                tx = transceiver.modulate(DataFrame.from_bits(bits), filt, frame)
                vals = [analysis.papr(body) for body in tx.samples[:, frame.cp_len :]]
                lines.append(f"{wf},{single_papr:.4f},{np.mean(vals):.4f}\n")
        texts[args.out] = _echo_header(raw) + "".join(lines)
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
    except (ValueError, MemoryError) as exc:  # UsageError and numpy's allocation error included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
