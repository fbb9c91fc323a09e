"""The four benchmark workloads: inputs from the seed, timed ops and their gates.

Each workload is a closed loop with one caller in one process: the next op
starts when the previous one has finished.  A workload is a list of rounds;
every round runs the same op kinds in the same order, so the share of each
kind in the latency samples is fixed and the percentiles land at the same
place run after run.  Rounds cycle through a pool of inputs generated from
the seed before timing starts.

An op is `run` (the timed calls into qcsynth) plus `check` (the gate, not
timed).  Gates test each result against the identity it must satisfy, never
against pinned factors, and use numpy only: a gate never calls qcsynth, so
it adds no spans to a traced run.

Ops call qcsynth through module attributes (`synthesis.synthesize`, not a
name imported once) so that the tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

# The package re-exports a function named `augment`, which hides the module
# of that name as a package attribute; import_module returns the module.
augment, cli, moments, realizability, synthesis, sysmodel, transform = (
    importlib.import_module(f"qcsynth.{name}") for name in
    ("augment", "cli", "moments", "realizability", "synthesis", "sysmodel", "transform"))

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
TOL = 1e-8


@dataclass
class Outcome:
    ok: bool
    residual: float | None = None     # relative verifier residual
    cond: float | None = None         # largest condition number of the factors
    detail: str = ""
    known_defect: str | None = None   # failing gate tied to a documented defect


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    # Names the documented defect behind an exception `run` may raise.
    known: Callable[[Exception], str | None] | None = None
    group: int = 0       # input set, for accuracy_digits


def diag_j(k: int) -> np.ndarray:
    return np.kron(np.eye(k), J2)


def theta_n(dims) -> np.ndarray:
    out = np.zeros((dims.n, dims.n))
    out[: 2 * dims.n_q, : 2 * dims.n_q] = diag_j(dims.n_q)
    return out


def sub_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def fro(x) -> float:
    x = np.asarray(x)
    return float(np.linalg.norm(x)) if x.size else 0.0


def cond(x) -> float:
    x = np.asarray(x)
    return float(np.linalg.cond(x)) if x.size else 1.0


def block_error(got, want) -> float:
    """Worst relative Frobenius error over the four system matrices."""
    return max(fro(getattr(got, n) - getattr(want, n)) / (1.0 + fro(getattr(want, n)))
               for n in "abcd")


def perturbed(sys_, rng, scale=0.05):
    """Copy with B disturbed; breaks non-demolition whenever D is nonzero."""
    return sysmodel.StandardSystem(sys_.dims, sys_.a,
                                   sys_.b + scale * rng.standard_normal(sys_.b.shape),
                                   sys_.c, sys_.d)


def pulled_back(sys_, rng):
    """Hide a standard system behind random congruences and an input mix."""
    dims = sys_.dims
    n, n_y, width = sys_.a.shape[0], sys_.c.shape[0], sys_.b.shape[1]

    def conditioned_invertible(k):
        q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        return q * np.exp(0.3 * rng.standard_normal(k))

    q = conditioned_invertible(n)
    q_y = conditioned_invertible(n_y)
    o_mix, _ = np.linalg.qr(rng.standard_normal((width, width)))
    q_inv = np.linalg.inv(q)
    f_w = np.eye(width) + 1j * diag_j(dims.m)
    f_v = o_mix.T @ f_w @ o_mix
    d_g = q_y @ sys_.d @ o_mix
    return sysmodel.GeneralSystem(q @ sys_.a @ q_inv, q @ sys_.b @ o_mix,
                                  q_y @ sys_.c @ q_inv, d_g,
                                  q @ theta_n(dims) @ q.T, f_v, d_g @ f_v @ d_g.T)


class Workload:
    name = ""
    tail_pct = 90.0      # fixed per workload; see run.py
    trace_rounds = 1     # rounds timed untraced and then traced in a trace run
    pool = 1             # input sets generated from the seed

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.workdir = workdir
        self.root = root

    def round(self, i: int) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run each op kind once on small inputs, untimed."""

    def close(self) -> None:
        """Release what the workload created."""


# ---------------------------------------------------------------------------
# synth-ladder

# (label, dimensions, ops per round).  The multiplicities keep the median
# inside the k=2 ops (9 cheaper ops below them, 9 dearer above) and the 90th
# percentile inside the k=16 ops, whatever the number of rounds, so neither
# statistic sits on the boundary between two sizes.
LADDER = (
    ("k=1", sysmodel.Dimensions(1, 1, 2, 1, 1), 9),
    ("k=2", sysmodel.Dimensions(2, 2, 4, 2, 2), 6),
    ("k=4", sysmodel.Dimensions(4, 4, 8, 4, 4), 1),
    ("k=8", sysmodel.Dimensions(8, 8, 16, 8, 8), 1),
    ("n_c=0", sysmodel.Dimensions(8, 0, 16, 8, 8), 1),
    ("n_yq=0", sysmodel.Dimensions(8, 8, 16, 0, 8), 1),
    ("n_w1=4", sysmodel.Dimensions(8, 8, 16, 8, 8, 4), 1),
    ("k=16", sysmodel.Dimensions(16, 16, 32, 16, 16), 3),
    ("k=32", sysmodel.Dimensions(32, 32, 64, 32, 32), 1),
)


def completion_defect(text: str) -> str | None:
    """Names the greedy completion's conditioning failure in an error message.

    On a realizable input the completion can come out with condition number
    1e7 and more; the minimum-norm solve against it then misses its
    residual check and synthesize raises (ROADMAP item 2).
    """
    if "inconsistent" in text or "completion" in text:
        return "ROADMAP 2: ill-conditioned greedy completion makes a later solve fail"
    return None


def synthesize_defect(exc: Exception) -> str | None:
    return completion_defect(str(exc)) if isinstance(exc, ValueError) else None


class SynthLadder(Workload):
    """synthesize + close_loop + round-trip check over the size ladder."""

    name = "synth-ladder"
    tail_pct = 90.0
    trace_rounds = 1
    pool = 8

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        self.systems = [[synthesis.generate_realizable(dims, sub_seed(seed, 1, s, j))
                         for j in range(count * self.pool)]
                        for s, (_, dims, count) in enumerate(LADDER)]

    def _op(self, label, sys_, group=0):
        def run():
            r = synthesis.synthesize(sys_)
            return r, synthesis.close_loop(r)

        def check(result):
            r, closed = result
            err = block_error(closed, sys_)
            factors = max(cond(np.vstack([sys_.d_q, r.g1.d_q_prime])), cond(r.v_sympl))
            return Outcome(err <= TOL, err, factors, f"round-trip error {err:.3e}")

        return Op(label, run, check, synthesize_defect, group)

    def round(self, i):
        j = i % self.pool
        return [self._op(label, self.systems[s][j * count + t], j)
                for s, (label, _, count) in enumerate(LADDER) for t in range(count)]

    def warm_up(self):
        for s, (label, dims, _) in enumerate(LADDER):
            if dims.n <= 6:
                try:
                    self._op(label, self.systems[s][-1]).run()
                except ValueError as exc:
                    if not synthesize_defect(exc):
                        raise


# ---------------------------------------------------------------------------
# check-sweep

SWEEP = ([sysmodel.Dimensions(k, k, 2 * k, k, k) for k in (1, 2, 4, 8, 16)]
         + [sysmodel.Dimensions(1, 1, 3, 1, 1), sysmodel.Dimensions(2, 0, 4, 2, 2),
            sysmodel.Dimensions(2, 2, 4, 0, 2), sysmodel.Dimensions(0, 3, 2, 0, 2)])


def witness_residual(g, tw) -> tuple[float, float]:
    """Worst of the six witness identities relative to the model's scale, and that scale."""
    std = tw.standard
    dims = std.dims
    theta_y = np.zeros((dims.n_y, dims.n_y))
    theta_y[: 2 * dims.n_yq, : 2 * dims.n_yq] = diag_j(dims.n_yq)
    p_n, w, p_y = tw.p_n, tw.w, tw.p_y
    checks = [
        std.a @ p_n - p_n @ g.a_g,
        std.b - p_n @ g.b_g @ w,
        std.c @ p_n - p_y @ g.c_g,
        std.d - p_y @ g.d_g @ w,
        theta_n(dims) - p_n @ g.big_theta_n @ p_n.T,
        theta_y - p_y @ g.theta_y @ p_y.T,
    ]
    scale = 1.0 + max(np.abs(m).max() for m in (g.a_g, g.b_g, g.c_g, g.d_g))
    return max(np.abs(m).max() if m.size else 0.0 for m in checks) / scale, scale


class CheckSweep(Workload):
    """Checkers, transforms and augmentation on passing and failing systems."""

    name = "check-sweep"
    tail_pct = 99.0
    trace_rounds = 16
    pool = 16

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        self.cases = []
        for j in range(self.pool):
            rows = []
            for s, dims in enumerate(SWEEP):
                rng = np.random.default_rng(sub_seed(seed, 2, s, j))
                good = synthesis.generate_realizable(dims, sub_seed(seed, 3, s, j))
                bad = perturbed(good, rng)
                rows.append((dims, good, bad, pulled_back(good, rng), pulled_back(bad, rng)))
            self.cases.append(rows)

    def _verdict(self, label, run, expected):
        def check(report):
            return Outcome(report.verdict == expected,
                           detail=f"verdict {report.verdict}, expected {expected}")
        return Op(label, run, check)

    def _transform(self, label, g):
        def run():
            tw = transform.to_standard(g)
            return tw, transform.transfer_equiv_check(g, tw)

        def check(result):
            # The identities decide; the transfer deviation only counts toward
            # accuracy_digits, since a sample point within ~1e-4 of an
            # eigenvalue inflates it past 1e-8 for a witness that is exact.
            tw, deviation = result
            identities, scale = witness_residual(g, tw)
            return Outcome(identities <= TOL, max(identities, deviation / scale),
                           detail=f"witness identities {identities:.3e}, "
                                  f"transfer deviation {deviation / scale:.3e}")
        return Op(label, run, check)

    def _augment(self, label, sys_, expected):
        theta_w = diag_j(sys_.dims.m)
        feedthrough = np.eye(2 * sys_.dims.m)

        def run():
            aug = augment.augment(sys_)
            red = augment.reduce(aug, theta_w)
            pair = sysmodel.QuantumOnlySystem(aug.a_tilde, aug.b_tilde, red.c_bar, feedthrough)
            return realizability.check_quantum(pair, theta=aug.theta_tilde)

        return self._verdict(label, run, expected)

    def _row_ops(self, dims, good, bad, g_good, g_bad):
        r = realizability
        tag = f"n={dims.n},m={dims.m}"
        return [
            self._verdict(f"check_standard {tag}", lambda: r.check_standard(good), True),
            self._verdict(f"check_standard bad {tag}", lambda: r.check_standard(bad), False),
            self._verdict(f"partitioned {tag}",
                          lambda: r.check_standard_partitioned(good), True),
            self._verdict(f"partitioned bad {tag}",
                          lambda: r.check_standard_partitioned(bad), False),
            self._verdict(f"check_general {tag}", lambda: r.check_general(g_good), True),
            self._verdict(f"check_general bad {tag}", lambda: r.check_general(g_bad), False),
            self._transform(f"to_standard {tag}", g_good),
            self._transform(f"to_standard bad {tag}", g_bad),
            self._augment(f"augment {tag}", good, True),
            self._augment(f"augment bad {tag}", bad, False),
        ]

    def round(self, i):
        ops = [op for row in self.cases[i % self.pool] for op in self._row_ops(*row)]
        for op in ops:
            op.group = i % self.pool
        return ops

    def warm_up(self):
        for op in self._row_ops(*self.cases[-1][0]):
            op.run()


# ---------------------------------------------------------------------------
# moments

def vanloan_moments(a, b, sigma0, mu0, t):
    """Exact mean and second moment at time t (Van Loan, IEEE TAC 1978).

    One block exponential expm([[A, Q], [0, -A^T]] h) gives the transition
    Phi = exp(A h) and the noise term Q_h; Sigma advances as
    Phi Sigma Phi^T + Q_h with no step-size error.  The step h keeps
    h * |A| <= 1, since one block over a long horizon mixes exp(A t) with
    exp(-A^T t) and loses every digit to their ratio.
    """
    n = a.shape[0]
    pump = b @ (np.eye(b.shape[1]) + 1j * diag_j(b.shape[1] // 2)) @ b.T
    steps = max(1, math.ceil(t * np.linalg.norm(a, 1)))
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = a
    block[:n, n:] = pump
    block[n:, n:] = -a.T
    e = scipy.linalg.expm(block * (t / steps))
    phi = e[:n, :n]
    q_h = e[:n, n:] @ phi.T
    mu, sigma = np.asarray(mu0, dtype=complex), np.asarray(sigma0, dtype=complex)
    for _ in range(steps):
        mu = phi @ mu
        sigma = phi @ sigma @ phi.T + q_h
    return mu.real, sigma


def vanloan_integral(a, t):
    """integral_0^t exp(A u) du from one block exponential, for any A."""
    n = a.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = a
    block[:n, n:] = np.eye(n)
    return scipy.linalg.expm(block * t)[:n, n:]


def rel(x, ref, floor=0.0) -> float:
    return fro(x - ref) / max(fro(ref), floor, 1e-300)


class Moments(Workload):
    """simulate + skew_drift and commutator_trajectory on both integral paths."""

    name = "moments"
    tail_pct = 90.0
    trace_rounds = 2
    pool = 4
    # (label, system key, t_final); dt is 1e-3 throughout
    SIMULATIONS = (("simulate reference t=5", "reference", 5.0),
                   ("simulate n=48 t=0.05", "n48", 0.05),
                   ("simulate n=12 t=0.5", "n12", 0.5))
    TIMES = (0.25, 0.5, 1.0, 2.0)

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        reference = sysmodel.StandardSystem(
            sysmodel.Dimensions(1, 1, 3, 1, 1),
            [[-9.0, -3.0, -1.0], [1.0, -7.0, -3.0], [-0.72, -0.6, -12.0]],
            [[1.0, 2.0, -7.0, 0.0, -3.0, 5.0], [2.0, 5.0, 1.0, -3.0, 6.0, -8.0],
             [0.0, 0.12, 0.0, 0.0, 0.0, -0.16]],
            [[38.0, 46.0, -42.0], [0.31, 0.4, 0.35], [4.2, -6.0, 5.0]],
            [[8.0, 0.0, 10.0, 0.0, 6.0, 0.0], [0.0, 0.04, 0.0, 0.05, 0.0, 0.03],
             [0.0, 0.8, 0.0, -1.0, 0.0, 0.6]])
        self.inputs = []
        for j in range(self.pool):
            rng = np.random.default_rng(sub_seed(seed, 4, j))
            systems = {
                "reference": reference,
                "n48": synthesis.generate_realizable(sysmodel.Dimensions(16, 16, 32, 16, 16),
                                                     sub_seed(seed, 5, j)),
                "n12": synthesis.generate_realizable(sysmodel.Dimensions(4, 4, 8, 4, 4),
                                                     sub_seed(seed, 6, j)),
            }
            # The closed-form path needs an invertible drift, the quadrature
            # path a singular one; both need a nonzero non-demolition drive.
            invertible = perturbed(synthesis.generate_realizable(
                sysmodel.Dimensions(2, 2, 4, 2, 2), sub_seed(seed, 7, j)), rng, 0.2)
            free = sysmodel.StandardSystem(
                sysmodel.Dimensions(1, 0, 1, 0, 1), [[0.0, 1.0], [0.0, 0.0]],
                rng.standard_normal((2, 2)), rng.standard_normal((1, 2)),
                rng.standard_normal((1, 2)))
            mu0 = {key: rng.standard_normal(s.dims.n) for key, s in systems.items()}
            self.inputs.append((systems, mu0, invertible, free))
        self._references = {}

    def _simulate(self, label, sys_, mu0, t_final, key):
        th = theta_n(sys_.dims)

        def run():
            traj = moments.simulate(sys_, t_final=t_final, dt=1e-3, mu0=mu0)
            return traj, moments.skew_drift(traj, th)

        def check(result):
            traj, drift = result
            if key not in self._references:
                self._references[key] = vanloan_moments(
                    sys_.a, sys_.b, np.eye(sys_.dims.n) + 1j * th, mu0, traj.times[-1])
            mu_ref, sigma_ref = self._references[key]
            # A decayed mean is measured against where it started.
            residual = max(rel(traj.means[-1], mu_ref, fro(mu0)),
                           rel(traj.second_moments[-1], sigma_ref))
            drift_ok = drift <= 1e-6 * max(1.0, fro(sigma_ref))
            return Outcome(residual <= 1e-6 and drift_ok, residual,
                           detail=f"moment error {residual:.3e}, skew drift {drift:.3e}")
        return Op(label, run, check)

    def _commutator(self, label, sys_, key):
        dims = sys_.dims
        drive = theta_n(dims) @ sys_.c.T + sys_.b @ diag_j(dims.m) @ sys_.d.T

        def check(result):
            if key not in self._references:
                self._references[key] = [vanloan_integral(sys_.a, t) @ drive for t in self.TIMES]
            residual = max(rel(x, ref) for x, ref in zip(result, self._references[key]))
            return Outcome(residual <= 1e-6, residual, detail=f"integral error {residual:.3e}")
        return Op(label, lambda: realizability.commutator_trajectory(sys_, self.TIMES), check)

    def round(self, i):
        j = i % self.pool
        systems, mu0, invertible, free = self.inputs[j]
        ops = [self._simulate(label, systems[key], mu0[key], t, (key, j))
               for label, key, t in self.SIMULATIONS]
        ops.append(self._commutator("commutator invertible", invertible, ("inv", j)))
        ops.append(self._commutator("commutator singular", free, ("free", j)))
        for op in ops:
            op.group = j
        return ops

    def warm_up(self):
        systems, mu0, invertible, free = self.inputs[-1]
        moments.simulate(systems["reference"], t_final=0.01, dt=1e-3)
        realizability.commutator_trajectory(invertible, self.TIMES[:1])
        realizability.commutator_trajectory(free, self.TIMES[:1])


# ---------------------------------------------------------------------------
# cli

KIND = re.compile(rb'"kind": "([a-z-]+)"')


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("QCSYNTH_TOL", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


CLI_PREFIX = [sys.executable, "-c", "from qcsynth.cli import entry; entry()"]


@dataclass
class CliResult:
    code: int
    output: Path
    stderr: str


class Cli(Workload):
    """Each command as its own `qcsynth` process, one at a time."""

    name = "cli"
    tail_pct = 70.0
    trace_rounds = 1
    pool = 3

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        self.env = child_env(root)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.first_output = {}     # label -> (sha256, Outcome)
        self.maxrss_kb = 0
        f = self.file
        small = ["--n-q", "1", "--n-c", "1", "--m", "2", "--n-yq", "1", "--n-yc", "1"]
        mid = ["--n-q", "8", "--n-c", "8", "--m", "16", "--n-yq", "8", "--n-yc", "8"]
        big = ["--n-q", "16", "--n-c", "16", "--m", "32", "--n-yq", "16", "--n-yc", "16"]

        def seed_arg(*key):
            return ["--seed", str(sub_seed(seed, 8, *key) % 2**31)]

        self.generate = {"small": small + seed_arg(0), "mid": mid + seed_arg(1, 0)}
        rng = np.random.default_rng(sub_seed(seed, 9))
        # Input files come from the program's own generator and encoder.
        quiet = ["--quiet", "-o"]
        cli.main(["generate", *self.generate["small"], *quiet, f("small.json")])
        small_sys = cli.load_system(f("small.json"))
        self._write("small_general.json", cli.system_to_obj(pulled_back(small_sys, rng)))
        self.unsynthesized = set()
        self.general_scale = []
        for j in range(self.pool):
            cli.main(["generate", *mid, *seed_arg(1, j), *quiet, f(f"mid{j}.json")])
            cli.main(["generate", *big, *seed_arg(2, j), *quiet, f(f"big{j}.json")])
            if cli.main(["synthesize", f(f"big{j}.json"), *quiet, f(f"real_big{j}.json")]):
                self.unsynthesized.add(j)
            mid_sys = cli.load_system(f(f"mid{j}.json"))
            general = pulled_back(mid_sys, rng)
            self.general_scale.append(
                1.0 + max(np.abs(m).max() for m in (general.a_g, general.b_g, general.c_g,
                                                    general.d_g)))
            self._write(f"mid_general{j}.json", cli.system_to_obj(general))
            self._write(f"dq{j}.json", {"d_q": mid_sys.d_q.tolist()})
            if j == 0:
                self._write("mid_broken.json", cli.system_to_obj(perturbed(mid_sys, rng)))
                self.mid_c_norm = fro(mid_sys.c)
        text = Path(f("small.json")).read_text()
        Path(f("invalid_malformed.json")).write_text(text[: len(text) // 2])
        obj = json.loads(text)
        obj["a"] = obj["a"][:-1]
        self._write("invalid_shape.json", obj)
        obj = json.loads(text)
        obj["a"][0][0] = float("nan")
        self._write("invalid_nan.json", obj)

    def file(self, name: str) -> str:
        return str(self.workdir / name)

    def _write(self, name, obj):
        Path(self.file(name)).write_text(json.dumps(obj))

    def script(self) -> list[tuple[str, int, list[str], int, str | None]]:
        """(label, input set, argv, expected exit code, expected kind) for one round.

        The commands whose residuals decide accuracy_digits run on every
        input set, the others on set 0.
        """
        f = self.file
        per_set = [cmd for j in range(self.pool) for cmd in (
            (f"to-standard mid #{j}", j, ["to-standard", f(f"mid_general{j}.json")], 0,
             "transform-witness"),
            (f"synthesize big #{j}", j, ["synthesize", f(f"big{j}.json")], 0, "realization"),
            (f"verify-realization big #{j}", j, ["verify-realization", f(f"real_big{j}.json"),
                                                  "--reference", f(f"big{j}.json")],
             0, "verification"),
            (f"complete-symplectic mid #{j}", j, ["complete-symplectic", f(f"dq{j}.json")], 0,
             "symplectic-completion"),
        )]
        return [
            ("generate small", 0, ["generate", *self.generate["small"]], 0, None),
            ("generate mid", 0, ["generate", *self.generate["mid"]], 0, None),
            ("check small", 0, ["check", f("small.json")], 0, "realizability-report"),
            ("check general", 0, ["check", f("small_general.json")], 0, "realizability-report"),
            ("check broken", 0, ["check", f("mid_broken.json")], 1, "realizability-report"),
            ("check-partitioned mid", 0, ["check", "--partitioned", f("mid0.json")], 0,
             "realizability-report"),
            *per_set,
            ("augment mid", 0, ["augment", f("mid0.json")], 0, "augmentation"),
            ("simulate small", 0, ["simulate", f("small.json")], 0, "trajectory"),
            ("simulate mid", 0, ["simulate", f("mid0.json"), "--t-final", "0.05"], 0,
             "trajectory"),
            ("invalid malformed", 0, ["check", f("invalid_malformed.json")], 2, None),
            ("invalid shape", 0, ["check", f("invalid_shape.json")], 2, None),
            ("invalid nan", 0, ["check", f("invalid_nan.json")], 2, None),
        ]

    def run_process(self, argv: list[str], out: Path) -> CliResult:
        err_path = out.with_suffix(".err")
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(CLI_PREFIX + argv + ["-o", str(out)], cwd=self.root,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = max(self.maxrss_kb, usage.ru_maxrss)
        return CliResult(proc.returncode, out, err_path.read_text(errors="replace"))

    def run_inprocess(self, argv: list[str], out: Path) -> CliResult:
        """Same command through `qcsynth.cli.main`, with stdio captured."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["-o", str(out)])
        return CliResult(code, out, err.getvalue())

    def _residual(self, obj: dict, group: int) -> float | None:
        """Residual one command's output reports, relative to the scale it carries."""
        kind = obj.get("kind")
        if kind == "realizability-report":
            if obj["verdict"] != "pass":
                return None
            return max(c["residual"] * obj["tol"] / c["threshold"] for c in obj["conditions"])
        if kind == "transform-witness":
            return obj["transfer_max_deviation"] / self.general_scale[group]
        if kind in ("realization", "verification"):
            # block errors, each already divided by 1 + |reference block|
            return obj["reconstruction_residual" if kind == "realization" else "max_error"]
        if kind == "augmentation":
            return max(obj["relation_residuals"].values()) / (1.0 + self.mid_c_norm)
        if kind == "symplectic-completion":
            full = np.vstack([np.asarray(obj["d_q"]), np.asarray(obj["n_mat"])])
            return obj["residual"] / max(1.0, fro(full) ** 2)
        if kind == "trajectory":
            return obj["skew_drift"]
        return None

    def _gate(self, label, group, expected_code, expected_kind, result: CliResult) -> Outcome:
        try:
            return self._verify(label, group, expected_code, expected_kind, result)
        finally:
            result.output.unlink(missing_ok=True)

    def _verify(self, label, group, expected_code, expected_kind, result: CliResult) -> Outcome:
        if result.code != expected_code:
            detail = f"exit {result.code}, expected {expected_code}: {result.stderr.strip()}"
            known = None
            if label == "invalid nan" and result.code == 1:
                # NaN entries reach the checks and exit 1 instead of being
                # rejected as input errors (ROADMAP item 4a).
                known = "ROADMAP 4a: NaN input exits 1"
            elif result.code == 1 and label.startswith("synthesize"):
                known = completion_defect(result.stderr)
            elif label.startswith("verify-realization") and group in self.unsynthesized:
                known = "ROADMAP 2: set-up could not synthesize the realization to verify"
            return Outcome(False, detail=detail, known_defect=known)
        if expected_code == 2:
            return Outcome(not result.output.exists(), detail="input error")
        data = result.output.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if label in self.first_output:
            first_digest, first = self.first_output[label]
            if digest != first_digest:
                return Outcome(False, detail="output differs from the first run")
            return first
        match = KIND.search(data[:4096])
        kind = match.group(1).decode() if match else None
        obj = json.loads(data)
        if expected_kind is None:
            # generate writes a system file: it must load back as a
            # standard system whose dimensions match the request.
            size = label.split()[-1]
            args = self.generate[size]
            dims = {k.lstrip("-").replace("-", "_"): int(v) for k, v in zip(args[::2], args[1::2])}
            dims.pop("seed")
            ok = obj.get("form") == "standard" and all(obj["dims"][k] == v
                                                       for k, v in dims.items())
            outcome = Outcome(ok, detail="generated system")
        elif kind != expected_kind:
            outcome = Outcome(False, detail=f"kind {kind}, expected {expected_kind}")
        else:
            residual = self._residual(obj, group)
            ok = residual is None or residual <= TOL
            if kind == "realizability-report":
                ok = obj["verdict"] == ("pass" if expected_code == 0 else "fail")
            outcome = Outcome(ok, residual, detail=f"residual {residual}")
        self.first_output[label] = (digest, outcome)
        return outcome

    def ops(self, runner) -> list[Op]:
        out = []
        for label, group, argv, code, kind in self.script():
            path = self.workdir / ("out-" + label.replace(" ", "_").replace("#", "") + ".json")
            out.append(Op(label, lambda argv=argv, path=path: runner(argv, path),
                          lambda result, label=label, group=group, code=code, kind=kind:
                          self._gate(label, group, code, kind, result), group=group))
        return out

    def round(self, i):
        return self.ops(self.run_process)

    def warm_up(self):
        self.run_process(["check", self.file("small.json")], self.workdir / "warm.json")

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SynthLadder, CheckSweep, Moments, Cli)}


def make(name: str, seed: int, workdir: Path, root: Path) -> Workload:
    return WORKLOADS[name](seed, workdir, root)


def finite_digits(residual: float | None) -> float:
    if residual is None or residual <= 0.0:
        return 16.0
    return min(16.0, -math.log10(residual))
