"""qcsynth benchmark: one workload, one seed, verified ops, metrics with units.

    python3 perfbench/run.py --workload synth-ladder --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; qcsynth is imported from `src/`.
Workloads (see workloads.py): synth-ladder, check-sweep, moments, cli.

`--trace 0` times whole rounds of ops until `--seconds` have passed and
prints the end-to-end metrics.  `--trace 1` prints the per-layer metrics:
it times a fixed number of rounds untraced, then the same rounds with every
public qcsynth function wrapped in a span (tracing.py), so counts repeat
exactly for a seed and the difference of the two timings is the tracing
overhead.  The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it are the record
(environment, per-op medians, breakdowns).  The full record and, for traced
runs, the spans are written under `.perfbench/` in the checkout.

BLAS is pinned to one thread before numpy loads, and the benchmark with
every process it starts is pinned to one CPU.  `setup_s` is the median time
of several fresh interpreters that import qcsynth, generate the workload's
inputs from the seed and warm up, measured from process start to exit.

Times are wall times rescaled to a fixed machine speed (`SpeedReference`):
on a machine whose cores other tenants share, speed changes by tens of
percent from one second to the next, and the rescaling takes most of that
out.  The record also prints the raw wall-time values.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QCSYNTH_TOL", None)

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 70.0, 50.0)
END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
}
CLI_COMMANDS = ("generate", "check", "check-partitioned", "to-standard", "synthesize",
                "verify-realization", "augment", "complete-symplectic", "simulate")
PER_LAYER = {
    **{f"{name}.{stat}": unit
       for name in ("matkit.symplectic_complete", "matkit.pzkv_decompose")
       for stat, unit in (("calls", "count"), ("self_s", "s"), ("cond_max", "ratio"))},
    "matkit.lapack.svd_calls": "count",
    **{f"{name}.{stat}": unit
       for name in ("matkit.minnorm_right_solve", "matkit.skew_canonical",
                    "matkit.ito_factorize", "transform.to_standard",
                    "transform.transfer_equiv_check", "realizability.check_standard",
                    "realizability.check_standard_partitioned",
                    "realizability.check_general", "realizability.check_quantum",
                    "augment.augment", "augment.reduce", "moments.simulate")
       for stat, unit in (("calls", "count"), ("self_s", "s"))},
    "matkit.rank_tol.calls": "count",
    "sysmodel.make_structure.calls": "count",
    "synthesis.synthesize.self_s": "s",
    "synthesis.synthesize.raised": "count",
    "synthesis.close_loop.self_s": "s",
    "synthesis.generate_realizable.self_s": "s",
    "moments.simulate.steps": "count",
    "moments.skew_drift.self_s": "s",
    "realizability.commutator_trajectory.self_s": "s",
    "realizability.commutator_trajectory.expm_calls": "count",
    **{f"cli.{command}.wall_ms": "ms" for command in CLI_COMMANDS},
    "cli.import_s": "s",
    "cli.load_system.self_s": "s",
    "cli.load_system.raised": "count",
    "cli.json_encode.self_s": "s",
    "cli.json_decode.self_s": "s",
    "cli.bytes_in": "bytes",
    "cli.bytes_out": "bytes",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


if not (ROOT / "src" / "qcsynth" / "__init__.py").is_file():
    fail(f"no qcsynth sources under {ROOT / 'src'}; run from a source checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome  # noqa: E402


class Run:
    """Per-op results of one stretch of rounds, as flat arrays.

    Nothing per op outlives the op except a few numbers, so the harness's
    memory hardly grows with the op count and peak_rss_mb stays a
    measurement of the program.
    """

    def __init__(self):
        self.labels: list[str] = []
        self.groups = array("i")      # input set the op ran on
        self.start = array("d")
        self.wall = array("d")        # seconds as measured
        self.scaled = array("d")      # seconds at the reference speed
        self.ok = bytearray()
        self.residual = array("d")    # nan where the gate reports none
        self.cond = array("d")        # nan where the gate reports none
        self.failures: Counter = Counter()   # "label: detail"
        self.known: Counter = Counter()      # "label: defect"

    def add(self, label: str, group: int, t0: float, t1: float, outcome: Outcome) -> None:
        label = sys.intern(label)
        self.labels.append(label)
        self.groups.append(group)
        self.start.append(t0)
        self.wall.append(t1 - t0)
        self.ok.append(bool(outcome.ok))
        nan = float("nan")
        self.residual.append(nan if outcome.residual is None else outcome.residual)
        self.cond.append(nan if outcome.cond is None else outcome.cond)
        if outcome.known_defect:
            self.known[f"{label}: {outcome.known_defect}"] += 1
        elif not outcome.ok:
            self.failures[f"{label}: {outcome.detail}"] += 1

    def __len__(self) -> int:
        return len(self.labels)


class SpeedReference:
    """Machine speed from a fixed numpy/scipy kernel timed between ops.

    Other tenants of a shared machine slow every instruction stream alike:
    over forty 0.3-second windows on a 2-vCPU Xeon virtual machine, the
    median time of synthesize at k=2 varied by 43% (interquartile range over
    median) and a kernel like this one by 49%, while their ratio varied by
    4%.  So the kernel runs whenever EVERY_S has passed since its last run,
    never inside an op, and an op's wall time is multiplied by NOMINAL_S over
    the median kernel time within WINDOW_S of the op (at least the three
    nearest runs).  NOMINAL_S is about the kernel's time on an idle core of
    that machine.  The kernel calls numpy and scipy only, so a change to
    qcsynth cannot move it.
    """

    NOMINAL_S = 1.2e-3
    EVERY_S = 0.05
    WINDOW_S = 0.25

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((6, 6))
        self._mid = rng.standard_normal((64, 64))
        self._j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        self.marks: list[tuple[float, float]] = []   # (midpoint, seconds)

    def _kernel(self) -> None:
        # Like the ops: small products and SVDs with interpreter work around
        # them, block assembly, and one larger orthonormal basis.
        x = self._small
        for _ in range(20):
            y = x @ x.T + 0.5 * x
            np.linalg.svd(y, compute_uv=False)
            block = np.kron(np.eye(2), self._j2)
            np.vstack([block, block])
            np.abs(y).max()
            sum({i: i * 0.5 for i in range(20)}.values())
        scipy.linalg.orth(self._mid)

    def measure(self) -> None:
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.marks.append(((t0 + t1) / 2.0, t1 - t0))

    def maybe_measure(self) -> None:
        if not self.marks or time.perf_counter() - self.marks[-1][0] >= self.EVERY_S:
            self.measure()

    def factor(self, start: float, end: float, times: list[float]) -> float:
        """NOMINAL_S over the kernel time near [start, end]; `times` are the midpoints."""
        lo = bisect.bisect_left(times, start - self.WINDOW_S)
        hi = bisect.bisect_right(times, end + self.WINDOW_S)
        if hi - lo < 3:
            mid = bisect.bisect_left(times, (start + end) / 2.0)
            lo, hi = max(0, mid - 2), min(len(times), mid + 2)
        return self.NOMINAL_S / statistics.median(d for _, d in self.marks[lo:hi])

    def rescale(self, run: Run) -> None:
        times = [t for t, _ in self.marks]
        run.scaled = array("d", (w * self.factor(t, t + w, times)
                                 for t, w in zip(run.start, run.wall)))


# ---------------------------------------------------------------------------
# environment

def blas_threads() -> str:
    """Thread count reported by the loaded OpenBLAS, or the pinned setting."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (pinned; not queried)"


def environment(args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qcsynth").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed loop, 1 caller, 1 process",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# running ops

def run_rounds(wl, make_round, speed, seconds=None, rounds=None, tracer=None) -> Run:
    """Whole rounds until `seconds` have passed, or exactly `rounds` rounds."""
    run = Run()
    start = time.perf_counter()
    i = 0
    while True:
        for op in make_round(i):
            speed.maybe_measure()
            if tracer is not None:
                tracer.op = len(run)
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failed op is counted, never dropped
                t1 = time.perf_counter()
                outcome = Outcome(False, detail=f"raised {type(exc).__name__}: {exc}",
                                  known_defect=op.known(exc) if op.known else None)
            else:
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.op = None
                try:
                    outcome = op.check(result)
                except Exception as exc:
                    outcome = Outcome(False, detail=f"gate raised {type(exc).__name__}: {exc}")
            if tracer is not None:
                tracer.op = None
            run.add(op.label, op.group, t0, t1, outcome)
        i += 1
        if (rounds is not None and i >= rounds
                or seconds is not None and time.perf_counter() - start >= seconds):
            break
    speed.measure()
    speed.rescale(run)
    return run


def setup_times(args, speed) -> tuple[list[float], list[float]]:
    """Rescaled and raw wall times of fresh interpreters doing the set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        speed.measure()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=170)
        t1 = time.perf_counter()
        speed.measure()
        if proc.returncode != 0:
            fail("set-up failed: " + proc.stderr.decode(errors="replace")[-2000:])
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * speed.factor(t0, t1, [t for t, _ in speed.marks]))
    return scaled, raw


def tail_percentile(wl, n: int) -> float:
    """The workload's fixed tail percentile, lowered only if too few samples lie beyond it."""
    for pct in TAIL_GRID:
        if pct <= wl.tail_pct and n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0


def summarize(wl, run: Run) -> dict:
    lat = np.asarray(run.scaled)
    wall = np.asarray(run.wall)
    ok = np.frombuffer(bytes(run.ok), dtype=np.uint8).astype(bool)
    residual = np.asarray(run.residual)
    cond = np.asarray(run.cond)
    verified = int(ok.sum())
    failed = sum(run.failures.values())
    has_residual = ok & ~np.isnan(residual)
    # The worst residual of each input set, median over the sets: the worst
    # over all sets hangs on one outlier input and swings with the seed.
    set_worst = {}
    for group, value in zip(np.asarray(run.groups)[has_residual], residual[has_residual]):
        set_worst[group] = max(set_worst.get(group, 0.0), float(value))
    conds = cond[ok & ~np.isnan(cond)]
    pct = tail_percentile(wl, len(run))
    per_label = {}
    for label, seconds in zip(run.labels, lat):
        per_label.setdefault(label, []).append(seconds)
    return {
        "attempted": len(run),
        "verified": verified,
        "failed": failed,
        "known_defects": sum(run.known.values()),
        "fail_ratio": failed / len(run),
        "throughput_ops_s": verified / float(lat.sum()),
        "latency_p50_ms": float(np.percentile(lat, 50.0)) * 1e3,
        "latency_tail_ms": float(np.percentile(lat, pct)) * 1e3,
        "tail_percentile": pct,
        "wall_throughput_ops_s": verified / float(wall.sum()),
        "wall_latency_p50_ms": float(np.percentile(wall, 50.0)) * 1e3,
        "wall_latency_tail_ms": float(np.percentile(wall, pct)) * 1e3,
        "worst_residual": float(residual[has_residual].max()) if has_residual.any() else None,
        "input_sets": len(set_worst),
        "accuracy_digits": workloads.finite_digits(
            statistics.median(set_worst.values()) if set_worst else None),
        "cond_log10_max": float(np.log10(conds.max())) if conds.size else None,
        "per_op_median_ms": {k: float(np.median(v)) * 1e3 for k, v in per_label.items()},
        "failures": dict(run.failures),
        "known_defect_ops": dict(run.known),
    }


def peak_rss_mb(wl) -> float:
    if isinstance(wl, workloads.Cli):
        return wl.maxrss_kb / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# traced run

def per_layer_metrics(tracer, extra: dict) -> dict:
    """Per-layer values over the traced rounds; generate_realizable over set-up."""
    in_rounds = lambda op: isinstance(op, int)  # noqa: E731
    rounds = tracer.by_name(in_rounds)
    setup = tracer.by_name(lambda op: op == "setup")
    counts = tracer.counts_by(in_rounds)
    values = {**tracer.cond_max(in_rounds), **extra}
    for name in PER_LAYER:
        base, stat = name.rsplit(".", 1)
        if name in values:
            continue
        if name in tracing.COUNTERS:
            values[name] = counts.get(name, 0)
        elif name == "synthesis.generate_realizable.self_s":
            values[name] = setup.get(base, {}).get("self_s", 0.0)
        else:
            values[name] = rounds.get(base, {}).get(stat, 0)
    return values


def ladder_breakdown(tracer, run: Run) -> dict:
    """Per ladder shape: synthesize time, completion + P-Z-K-V share, SVD calls."""
    synth, completion = Counter(), Counter()
    for name, start, end, parent, op in tracer.spans:
        if name == "synthesis.synthesize":
            synth[op] += end - start
        elif name in ("matkit.symplectic_complete", "matkit.pzkv_decompose"):
            completion[op] += end - start
    out = {}
    for op, label in enumerate(run.labels):
        entry = out.setdefault(label, {"ops": 0, "synthesize_ms": 0.0,
                                       "completion_pzkv_ms": 0.0, "svd_calls": 0,
                                       "worst_roundtrip_error": 0.0, "cond_max": 0.0})
        entry["ops"] += 1
        entry["synthesize_ms"] += synth[op] * 1e3
        entry["completion_pzkv_ms"] += completion[op] * 1e3
        entry["svd_calls"] += tracer.op_counts.get(("matkit.lapack.svd_calls", op), 0)
        entry["worst_roundtrip_error"] = np.nanmax([entry["worst_roundtrip_error"],
                                                    run.residual[op]])
        entry["cond_max"] = np.nanmax([entry["cond_max"], run.cond[op]])
    for entry in out.values():
        ops = entry.pop("ops")
        entry["synthesize_ms"] /= ops
        entry["completion_pzkv_ms"] /= ops
        entry["completion_pzkv_share"] = (entry["completion_pzkv_ms"] / entry["synthesize_ms"]
                                          if entry["synthesize_ms"] else 0.0)
        entry["svd_calls_per_op"] = entry.pop("svd_calls") / ops
    return out


def import_seconds(wl) -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qcsynth.cli"], cwd=ROOT, env=wl.env,
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def traced_run(wl, tracer, speed, record: dict) -> tuple[Run, dict]:
    """The traced rounds and the per-layer values (raw wall times)."""
    extra = {}
    traced_round = wl.round
    if isinstance(wl, workloads.Cli):
        walls = run_rounds(wl, wl.round, speed, rounds=1)
        record["process_round"] = summarize(wl, walls)
        for command in CLI_COMMANDS:
            own = [w for label, w in zip(walls.labels, walls.wall) if label.split()[0] == command]
            extra[f"cli.{command}.wall_ms"] = statistics.median(own) * 1e3
        extra["cli.import_s"] = import_seconds(wl)
        traced_round = lambda i: wl.ops(wl.run_inprocess)  # noqa: E731
    plain = run_rounds(wl, traced_round, speed, rounds=wl.trace_rounds)
    tracer.install()
    try:
        traced = run_rounds(wl, traced_round, speed, rounds=wl.trace_rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    record["trace_overhead"] = {
        "untraced_s": sum(plain.scaled), "traced_s": sum(traced.scaled),
        "ratio": sum(traced.scaled) / sum(plain.scaled) - 1.0, "rounds": wl.trace_rounds}
    record["untraced_rounds"] = summarize(wl, plain)
    return traced, per_layer_metrics(tracer, extra)


def totals(record: dict) -> tuple[int, int]:
    """Ops attempted and failed over every stretch of rounds the run made."""
    parts = [record["summary"]] + [record[k] for k in ("process_round", "untraced_rounds")
                                   if k in record]
    return sum(p["attempted"] for p in parts), sum(p["failed"] for p in parts)


# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"{args.workload}-{os.getpid()}"
    if args.setup_only:
        wl = workloads.make(args.workload, args.seed, workdir, ROOT)
        try:
            wl.warm_up()
        finally:
            wl.close()
        return 0

    # One CPU for the benchmark and its children: the speed reference then
    # runs where the ops run.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    record = {"environment": {**environment(args), "pinned_cpu": cpu}}
    speed = SpeedReference()
    setups, raw_setups = setup_times(args, speed) if not args.trace else ([], [])
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.op = "setup"
    try:
        wl = workloads.make(args.workload, args.seed, workdir, ROOT)
        wl.warm_up()
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        if tracer is None:
            run = run_rounds(wl, wl.round, speed, seconds=args.seconds)
            summary = summarize(wl, run)
            summary["peak_rss_mb"] = peak_rss_mb(wl)
            summary["setup_s"] = statistics.median(setups)
            summary["wall_setup_s"] = statistics.median(raw_setups)
            metrics = {name: {"value": summary[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
        else:
            run, layer = traced_run(wl, tracer, speed, record)
            summary = summarize(wl, run)
            metrics = {name: {"value": layer[name], "unit": unit}
                       for name, unit in PER_LAYER.items()}
            if isinstance(wl, workloads.SynthLadder):
                record["ladder_breakdown"] = ladder_breakdown(tracer, run)
    finally:
        wl.close()

    record["summary"] = summary
    record["speed_reference_s"] = [d for _, d in speed.marks]
    record["metrics"] = metrics
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if tracer is not None:
        tracer.write(out_dir / f"{stem}-spans.json")
    print_record(record)
    attempted, failed = totals(record)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def print_record(record: dict) -> None:
    for key, value in record["environment"].items():
        print(f"env.{key}: {value}")
    s = record["summary"]
    print(f"ops: attempted {s['attempted']}, verified {s['verified']}, failed {s['failed']}, "
          f"known defects {s['known_defects']}")
    print(f"fail_ratio: {s['fail_ratio']} ratio")
    if s["worst_residual"] is not None:
        print(f"worst residual: {s['worst_residual']:.3e} over {s['input_sets']} input sets")
    if s["cond_log10_max"] is not None:
        print(f"cond_log10_max: {s['cond_log10_max']:.3f} log10")
    print(f"latency_tail: p{s['tail_percentile']:g} over {s['attempted']} samples")
    print(f"speed reference: {len(record['speed_reference_s'])} runs, median "
          f"{statistics.median(record['speed_reference_s']) * 1e3:.4g} ms, nominal "
          f"{SpeedReference.NOMINAL_S * 1e3:g} ms")
    for key in ("wall_setup_s", "wall_throughput_ops_s", "wall_latency_p50_ms",
                "wall_latency_tail_ms"):
        if key in s:
            print(f"unscaled {key[5:]}: {s[key]}")
    for line, count in {**s["failures"], **s["known_defect_ops"]}.items():
        print(f"not verified ({count}x): {line}")
    for label, ms in s["per_op_median_ms"].items():
        print(f"op median: {label}: {ms:.4g} ms")
    for label, row in record.get("ladder_breakdown", {}).items():
        print(f"ladder {label}: synthesize {row['synthesize_ms']:.4g} ms, completion+pzkv "
              f"share {row['completion_pzkv_share']:.3f}, svd calls/op "
              f"{row['svd_calls_per_op']:g}, worst round-trip {row['worst_roundtrip_error']:.2e}, "
              f"cond {row['cond_max']:.2e}")
    if "trace_overhead" in record:
        t = record["trace_overhead"]
        print(f"trace overhead: {t['ratio']:+.3f} ({t['traced_s']:.4g} s traced vs "
              f"{t['untraced_s']:.4g} s untraced over {t['rounds']} rounds)")
    for name, metric in record["metrics"].items():
        print(f"metric {name}: {metric['value']} {metric['unit']}")


if __name__ == "__main__":
    sys.exit(main())
