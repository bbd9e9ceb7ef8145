"""chirplink benchmark: BER sweeps and filter design, end to end and per layer.

Run from the root of a checkout (chirplink is imported from ``src/``):

    python3 perfbench/run.py --workload awgn_bundle --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --compare BASE NEW

Workloads (single process, single-threaded; see ``workloads.py``):

* ``awgn_bundle``    the acceptance AWGN bundle, 40 sweep points, mostly
  stopped by ``min_bits``; per-frame ``transceiver``/``simulation`` work.
* ``fading_deep``    three-tap fading sweep mixing error-limited and
  bits-limited points; adds the ``channel`` layer.
* ``design_analyze`` filter design, ``snr_post`` curves, PSD and PAPR; the
  ``fdss``/``numerics`` special functions and ``analysis``.

One run builds the workload (``setup_s``: import plus inputs plus warm-up,
in this process and in fresh child processes, median reported), then
repeats the workload while another repetition still fits in ``--seconds``.
The wall time of a repetition is taken as the sum over its operations of
each operation's median time; the throughputs divide one repetition's
frames and bits by it.  Every repetition is checked; a
sweep point or design/diagnostic call that raises, does not converge or
fails its check is a failed operation.  The exact workload shape (points,
frames, bits, stop reasons) must repeat between repetitions of one seed.

``--trace 0`` prints the end-to-end metrics: ``frames_per_s`` (Monte Carlo
frames, or for ``design_analyze`` the PSD/PAPR frames, per second of wall
time), ``sim_mbit_per_s``, ``setup_s`` and ``peak_rss_mb``.  ``wall_s`` and
``failed_share`` are printed and stored beside them but are not bounded:
the frames a sweep needs to reach ``min_errors`` depend on the seed, so the
wall time of ``fading_deep`` spreads across seeds, and ``failed_share`` is
zero on a correct run.  ``--trace 1`` adds one repetition with every public
layer function wrapped (``tracer.py``) and prints the per-layer metrics.

Every run writes ``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``
(metrics with quartiles, checks, CSV hashes, provenance) and, when traced,
the spans as ``...-spans.csv.gz``.  The last stdout line is the JSON result.
``--compare`` reads two result files or directories of them and prints per
workload and metric both medians, both quartile ranges and the ratio; it
only reports.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Pinned before numpy is imported, here and in the set-up child processes.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
DEFAULT_SEED = 20260810
#: Set-ups per run: this process plus fresh child processes.
SETUP_SAMPLES = 5
#: Another repetition starts only if this multiple of the longest one still fits.
REP_MARGIN = 1.25
#: A traced repetition is budgeted at this multiple of the longest untraced one.
TRACE_BUDGET = 1.5


def set_up(name: str, seed: int):
    """Import chirplink and the workloads, build the inputs, warm up; time it all."""
    t0 = perf_counter()
    if not (SRC / "chirplink" / "__init__.py").is_file():
        raise SystemExit(f"error: chirplink sources not found in {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    workload.warm_up()
    return workload, perf_counter() - t0


def child_set_up(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def summarize(value: float, samples, unit: str) -> dict:
    """Headline value plus the quartiles of the per-repetition samples."""
    q1, _, q3 = (statistics.quantiles(samples, n=4) if len(samples) > 1
                 else (samples[0],) * 3)
    return {"value": value, "q1": q1, "q3": q3, "unit": unit, "samples": list(samples)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "git_commit": git_commit(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def timed_rep(workload):
    t0 = perf_counter()
    rep = workload.run()
    return checked(workload, rep, perf_counter() - t0)


def checked(workload, rep, wall: float):
    """Check one repetition, then drop its outputs so memory does not grow with repetitions."""
    rep.wall = wall
    rep.failed, rep.problems, rep.checks = workload.check(rep)
    rep.keys = [key for key, _ in rep.results]
    rep.results = None
    return rep


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload, first_setup = set_up(name, seed)
    setups = [first_setup] + [child_set_up(name, seed) for _ in range(SETUP_SAMPLES - 1)]

    reps = []
    reserve = REP_MARGIN + (TRACE_BUDGET if trace else 0.0)
    begin = perf_counter()
    while True:
        reps.append(timed_rep(workload))
        longest = max(r.wall for r in reps)
        if perf_counter() - begin + longest * reserve > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Typical wall time of one repetition: the sum over operations of each
    # operation's median time, so a burst of load on a shared machine that
    # slows one operation in one repetition does not move the result.
    wall = sum(statistics.median(t) for t in zip(*(r.op_seconds for r in reps)))
    first = reps[0]
    e2e = {
        "frames_per_s": summarize(first.frames / wall, [r.frames / r.wall for r in reps], "1/s"),
        "sim_mbit_per_s": summarize(
            first.bits / wall / 1e6, [r.bits / r.wall / 1e6 for r in reps], "Mbit/s"),
        "setup_s": summarize(statistics.median(setups), setups, "s"),
        "peak_rss_mb": summarize(peak_rss_mb, [peak_rss_mb], "MB"),
    }
    unbounded = {"wall_s": summarize(wall, [r.wall for r in reps], "s")}
    untraced = len(reps)

    problems = []
    per_layer = {}
    if trace:
        from tracer import Tracer

        with Tracer() as tracer:
            t0 = perf_counter()
            rep = workload.run()
            traced_wall = perf_counter() - t0
        reps.append(checked(workload, rep, traced_wall))
        layer, trace_problems = tracer.summary(traced_wall)
        problems += trace_problems
        layer.update((k, (v, "count" if isinstance(v, int) else "ratio"))
                     for k, v in rep.shape.items())
        modulated = tracer.counts["transceiver.modulate.frames"]
        layer["simulation.useful_frame_ratio"] = (
            rep.shape["simulation.frames"] / modulated if modulated else 0.0, "ratio")
        layer["trace.overhead_s"] = (traced_wall - wall, "s")
        per_layer = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{name}-seed{seed}-spans.csv.gz")

    for r in reps:
        problems += r.problems
        if (r.shape, r.keys) != (first.shape, first.keys):
            problems.append(f"workload shape changed between repetitions of seed {seed}: "
                            f"{first.shape} vs {r.shape}")
    failed = sum(r.failed for r in reps)
    attempted = workload.operations() * len(reps)
    unbounded["failed_share"] = summarize(failed / attempted, [failed / attempted], "ratio")

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "repetitions": untraced,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "end_to_end": e2e,
        "unbounded": unbounded,
        "per_layer": per_layer,
        "shape": first.shape,
        "frames": first.frames,
        "bits": first.bits,
        "checks": first.checks,
        "csv_sha256": first.hashes,
        "op_seconds": [r.op_seconds for r in reps[:untraced]],
        "provenance": provenance(seed),
    }


def report(result: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} reps={result['repetitions']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, s in {**result["end_to_end"], **result["unbounded"]}.items():
        print(f"{name:>16} {s['value']:.6g} {s['unit']}  "
              f"(per repetition q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    if result["trace"]:
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in result["end_to_end"].items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def _load_side(path: Path) -> dict:
    """(workload, metric) -> (value, q1, q3, unit) from one result file or a directory.

    One file gives its value and per-repetition quartiles; several files of a
    workload (say, one per seed) give the median and quartiles of their values.
    """
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    groups = {}
    for f in files:
        data = json.loads(f.read_text())
        stats = dict(data["end_to_end"])
        stats.update((k, {**v, "q1": v["value"], "q3": v["value"]})
                     for k, v in data["per_layer"].items())
        for metric, s in stats.items():
            groups.setdefault((data["workload"], metric), []).append(s)
    out = {}
    for key, runs in groups.items():
        if len(runs) == 1:
            out[key] = (runs[0]["value"], runs[0]["q1"], runs[0]["q3"], runs[0]["unit"])
        else:
            values = [r["value"] for r in runs]
            s = summarize(statistics.median(values), values, runs[0]["unit"])
            out[key] = (s["value"], s["q1"], s["q3"], s["unit"])
    return out


def compare(base: Path, new: Path) -> None:
    a, b = _load_side(base), _load_side(new)
    print(f"{'workload':<15} {'metric':<40} {'unit':<7} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'new/base':>9}")
    for key in sorted(a.keys() & b.keys()):
        (m0, l0, h0, unit), (m1, l1, h1, _) = a[key], b[key]
        ratio = f"{m1 / m0:.4f}" if m0 else "n/a"
        print(f"{key[0]:<15} {key[1]:<40} {unit:<7} "
              f"{f'{m0:.6g} [{l0:.6g}, {h0:.6g}]':>34} {f'{m1:.6g} [{l1:.6g}, {h1:.6g}]':>34} "
              f"{ratio:>9}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("awgn_bundle", "fading_deep", "design_analyze"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it (used by the runner)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_only:
        print(json.dumps({"setup_s": set_up(args.workload, args.seed)[1]}))
        return 0
    report(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
