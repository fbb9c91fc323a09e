"""Condition checkers for physical realizability, with residual diagnostics.

Every checker builds its conditions from one kernel, `_terms`: the state,
non-demolition and output-Ito identities for commutation matrices
(theta_n, theta_w, theta_y), each a list of terms that must sum to zero.
The blockwise checker takes block slices of the same terms, and of their
sums.  A condition reports the norm of its sum as its residual and passes
exactly when that stays below tol * (1 + scale), where scale sums the norms
of the terms before cancellation, so that systems with large entries are not
penalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sysmodel import (DEFAULT_CHECK_TOL, GeneralSystem, QuantumOnlySystem,
                       StandardSystem, _fro, _maxabs, diag_j)

__all__ = [
    "ConditionResult",
    "RealizabilityReport",
    "check_quantum",
    "check_standard",
    "check_standard_partitioned",
    "check_general",
    "nondemolition_residual",
    "commutator_trajectory",
]


@dataclass(frozen=True)
class ConditionResult:
    name: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        # An overflow makes residual and threshold infinite together; inf <= inf
        # must not read as a pass.
        return (math.isfinite(self.residual) and math.isfinite(self.threshold)
                and self.residual <= self.threshold)


@dataclass(frozen=True)
class RealizabilityReport:
    verdict: bool
    conditions: tuple[ConditionResult, ...]
    worst: str

    def __getitem__(self, name: str) -> ConditionResult:
        for cond in self.conditions:
            if cond.name == name:
                return cond
        raise KeyError(name)


# Checkers run with numpy's overflow and invalid-value warnings off.  An
# overflow in a product or a norm makes that residual and its threshold
# infinite, and ConditionResult.passed reads that as a failure, so the report
# already says what the warning would.
_overflow_fails = np.errstate(over="ignore", invalid="ignore")


def _terms(a, b, c, d, theta_n, theta_w, theta_y):
    """Term lists of the state, non-demolition and output-Ito conditions."""
    # b @ theta_w @ b.T evaluates as (b @ theta_w) @ b.T: sharing the left
    # product leaves every term bitwise the same.
    b_w = b @ theta_w
    return ([a @ theta_n, theta_n @ a.T, b_w @ b.T],
            [b_w @ d.T, theta_n @ c.T],
            [d @ theta_w @ d.T, -theta_y])


def _standard_terms(sys: StandardSystem):
    st = sys.structure
    return _terms(sys.a, sys.b, sys.c, sys.d, st.theta_n, st.theta_w, st.theta_y_target)


def _condition(name: str, terms, total, tol: float) -> ConditionResult:
    """The condition that terms sum to zero; total is their sum, sum(terms)."""
    return ConditionResult(name, _fro(total), tol * (1.0 + sum(map(_fro, terms))))


def _conditions(names, term_lists, tol: float) -> list[ConditionResult]:
    return [_condition(name, terms, sum(terms), tol) for name, terms in zip(names, term_lists)]


def _make_report(conditions: list[ConditionResult]) -> RealizabilityReport:
    verdict = all(c.passed for c in conditions)
    worst = ""
    worst_ratio = -1.0
    for c in conditions:
        if not (math.isfinite(c.residual) and math.isfinite(c.threshold)):
            ratio = math.inf
        elif c.threshold > 0.0:
            ratio = c.residual / c.threshold
        else:
            ratio = math.inf if c.residual > 0.0 else 0.0
        if ratio > worst_ratio:
            worst_ratio, worst = ratio, c.name
    return RealizabilityReport(verdict, tuple(conditions), worst)


@_overflow_fails
def check_quantum(sys: QuantumOnlySystem, tol: float = DEFAULT_CHECK_TOL,
                  theta: np.ndarray | None = None) -> RealizabilityReport:
    """Realizability of a fully quantum system.

    Conditions: preservation of the state commutations, coupling of the
    output rows to the dynamics, and the structural form of the
    feedthrough (identity, possibly padded with zero columns; checked with
    zero tolerance).  `theta` overrides the canonical commutation matrix,
    which lets reduced systems be verified in their native block order.
    """
    a, b, c, d = sys.a, sys.b, sys.c, sys.d
    if theta is None:
        theta = diag_j(sys.n_q)
    j_z = diag_j(sys.n_z)
    state = _terms(a, b, c, d, theta, diag_j(sys.m), j_z)[0]
    # the coupling condition pairs outputs against their own commutation
    # blocks, which match theta_w only when the feedthrough is square
    coupling = [b @ d.T, -(theta @ c.T @ j_z)]
    form_defect = _maxabs(d - np.eye(*d.shape)) if d.shape[0] <= d.shape[1] else np.inf
    return _make_report([
        *_conditions(("state-commutation", "output-coupling"), (state, coupling), tol),
        ConditionResult("output-form", form_defect, 0.0),
    ])


_WHOLE_NAMES = ("state-commutation", "non-demolition", "output-ito")


@_overflow_fails
def check_standard(sys: StandardSystem, tol: float = DEFAULT_CHECK_TOL) -> RealizabilityReport:
    """The three standard-form realizability conditions."""
    return _make_report(_conditions(_WHOLE_NAMES, _standard_terms(sys), tol))


# (name, condition, row block, column block).  The state condition is skew,
# so its (q, c) block repeats the (c, q) one and is left out.
_PARTITION = (
    ("qq-state", 0, "q", "q"),
    ("cq-coupling", 0, "c", "q"),
    ("bc-classical", 0, "c", "c"),
    ("bc-dq-cross", 1, "c", "yq"),
    ("q-nondemolition", 1, "q", "yq"),
    ("bc-dc-cross", 1, "c", "yc"),
    ("c-nondemolition", 1, "q", "yc"),
    ("dq-ito", 2, "yq", "yq"),
    ("dq-dc-cross", 2, "yq", "yc"),
    ("dc-classical", 2, "yc", "yc"),
)


@_overflow_fails
def check_standard_partitioned(sys: StandardSystem,
                               tol: float = DEFAULT_CHECK_TOL) -> RealizabilityReport:
    """The ten block constraints equivalent to the standard conditions.

    The verdict agrees with check_standard: the ten equations are exactly
    the nonredundant blocks of the three whole-matrix conditions under the
    quantum-first partitioning.  Each block's residual is the block of its
    condition's sum, which is bitwise the sum of the term blocks.
    """
    k, k_y = 2 * sys.dims.n_q, 2 * sys.dims.n_yq
    blocks = {"q": slice(None, k), "c": slice(k, None),
              "yq": slice(None, k_y), "yc": slice(k_y, None)}
    terms = _standard_terms(sys)
    totals = [sum(t) for t in terms]
    conditions = []
    for name, i, rows, cols in _PARTITION:
        block = blocks[rows], blocks[cols]
        conditions.append(_condition(name, [t[block] for t in terms[i]], totals[i][block], tol))
    return _make_report(conditions)


@_overflow_fails
def check_general(sys: GeneralSystem, tol: float = DEFAULT_CHECK_TOL) -> RealizabilityReport:
    """Realizability of a general-form system via the skew Ito parts."""
    terms = _terms(sys.a_g, sys.b_g, sys.c_g, sys.d_g,
                   sys.big_theta_n, sys.theta_v, sys.theta_y)
    return _make_report(_conditions(_WHOLE_NAMES, terms, tol))


@_overflow_fails
def nondemolition_residual(sys: StandardSystem) -> float:
    """Frobenius norm of B theta_w D^T + theta_n C^T."""
    return _fro(sum(_standard_terms(sys)[1]))


def commutator_trajectory(sys: StandardSystem, times) -> list[np.ndarray]:
    """State/output commutator evolution at the requested times.

    Returns g(t)/2i = (integral_0^t exp(A u) du) (theta_n C^T + B theta_w D^T)
    for each t, exactly zero at t = 0; it is identically zero exactly when
    the non-demolition condition holds.  The integral is the top-right block
    of exp([[A, I], [0, 0]] t) (Van Loan, IEEE TAC 1978), for every A: each t
    is halved as in moments._exact_step, one batched Taylor step takes all
    sub-steps, and doubling (I <- Phi I + I, Phi <- Phi^2) carries each back.
    An overflow raises ValueError naming the first time that is not finite.
    """
    times = [float(t) for t in times]
    if (any(not 0.0 <= t < math.inf for t in times)
            or any(t2 < t1 for t1, t2 in zip(times, times[1:]))):
        raise ValueError("times must be sorted, nonnegative and finite")
    from .moments import _expm_taylor, _halvings
    counts = [_halvings(sys.a, t) for t in times]
    if None in counts:
        raise ValueError(f"t = {times[counts.index(None)]:.6g} cannot be scaled: "
                         "t max(|A|_1, |A|_inf) overflows")
    n = sys.a.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = sys.a
    block[:n, n:] = np.eye(n)
    steps = [math.ldexp(t, -k) for t, k in zip(times, counts)]
    # overflow is reported through the non-finite check below
    with np.errstate(over="ignore", invalid="ignore"):
        e = _expm_taylor(np.multiply.outer(steps, block))
        phi, integral = e[:, :n, :n], e[:, :n, n:]
        for k in range(max(counts, default=0)):
            # counts grow with the sorted times: those still doubling are a suffix
            j = np.searchsorted(counts, k, side="right")
            integral[j:] = phi[j:] @ integral[j:] + integral[j:]
            phi[j:] = phi[j:] @ phi[j:]
        out = integral @ sum(_standard_terms(sys)[1])
    finite = np.isfinite(out).all(axis=(1, 2))
    if not finite.all():
        t = times[int(np.argmin(finite))]
        raise ValueError(f"commutator trajectory diverged to non-finite values at t = {t:.6g}")
    return list(out)


def __getattr__(name: str):
    # perfbench/tracing.py reads and rebinds this module's `scipy` name to
    # count its `scipy.linalg.expm` calls.  Nothing here calls scipy, so it is
    # imported only when that name is read; the next change to the benchmark
    # retires this shim together with that counter.
    if name == "scipy":
        import scipy
        return scipy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
