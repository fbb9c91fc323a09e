"""Condition checkers for physical realizability, with residual diagnostics.

Every checker builds its conditions from one kernel, `_terms`: the state,
non-demolition and output-Ito identities for commutation matrices
(theta_n, theta_w, theta_y), each a list of terms that must sum to zero;
a checker that reads one list forms only that one.  The blockwise checker
gathers blocks of the same terms, and of their sums.  A condition reports
the norm of its sum as its residual and passes exactly when that stays
below tol * (1 + scale), where scale sums the norms of the terms before
cancellation, so that systems with large entries are not penalized.  A
check costs its matrix products and one dot per norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sysmodel import (DEFAULT_CHECK_TOL, Dimensions, GeneralSystem, QuantumOnlySystem,
                       StandardSystem, _canonical_j, _maxabs, _passes, _times_j)

__all__ = [
    "ConditionResult",
    "RealizabilityReport",
    "check_quantum",
    "check_standard",
    "check_standard_partitioned",
    "check_general",
    "commutator_trajectory",
]


@dataclass(frozen=True)
class ConditionResult:
    name: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return _passes(self.residual, self.threshold)


@dataclass(frozen=True)
class RealizabilityReport:
    verdict: bool
    conditions: tuple[ConditionResult, ...]
    worst: str

    def __getitem__(self, name: str) -> ConditionResult:
        return {cond.name: cond for cond in self.conditions}[name]


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
    return (_state_terms(a, b, b_w, theta_n), _nondemolition_terms(c, d, b_w, theta_n),
            [d @ theta_w @ d.T, -theta_y])


def _state_terms(a, b, b_w, theta_n):
    # b_w is b @ theta_w
    return [a @ theta_n, theta_n @ a.T, b_w @ b.T]


def _nondemolition_terms(c, d, b_w, theta_n):
    return [b_w @ d.T, theta_n @ c.T]


def _standard_terms(sys: StandardSystem):
    st = sys.structure
    return _terms(sys.a, sys.b, sys.c, sys.d, st.theta_n, st.theta_w, st.theta_y_target)


def _norm(m: np.ndarray, at=None) -> float:
    # np.linalg.norm of m, or of its block at the flat indices `at`, bit for
    # bit: the same ddot on the same contiguous vector.  Call it inside
    # _overflow_fails, since ndarray.dot warns on an overflowing sum.
    x = m.ravel(order="K") if at is None else m.take(at)
    return math.sqrt(x.dot(x))


def _condition(name: str, terms, total, tol: float, at=None) -> ConditionResult:
    """The condition that terms, or their blocks at `at`, sum to zero; total is their sum."""
    return ConditionResult(name, _norm(total, at),
                           tol * (1.0 + sum([_norm(t, at) for t in terms], 0.0)))


def _conditions(names, term_lists, tol: float) -> list[ConditionResult]:
    # sum() of the terms from the first: the same adds without the int start
    return [_condition(name, terms, sum(terms[1:], terms[0]), tol)
            for name, terms in zip(names, term_lists)]


def _make_report(conditions: list[ConditionResult]) -> RealizabilityReport:
    verdict, worst, worst_ratio = True, "", -1.0
    for c in conditions:
        residual, threshold = c.residual, c.threshold
        finite = math.isfinite(residual) and math.isfinite(threshold)
        verdict = verdict and _passes(residual, threshold)
        ratio = (residual / threshold if finite and threshold > 0.0
                 else 0.0 if finite and residual <= 0.0 else math.inf)
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
        theta = _canonical_j(sys.n_q)
    elif np.shape(theta) != (2 * sys.n_q,) * 2:
        raise ValueError(f"theta must have shape (2n_q, 2n_q) = {(2 * sys.n_q,) * 2}, "
                         f"got {np.shape(theta)}")
    # J_m and J_z are applied by index, bit for bit the dense products
    state = _state_terms(a, b, _times_j(b), theta)
    # the coupling condition pairs outputs against their own commutation
    # blocks, which match theta_w only when the feedthrough is square
    coupling = [b @ d.T, -_times_j(theta @ c.T)]
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
    ("qq-state", 0, "q", "q"), ("cq-coupling", 0, "c", "q"), ("bc-classical", 0, "c", "c"),
    ("bc-dq-cross", 1, "c", "yq"), ("q-nondemolition", 1, "q", "yq"),
    ("bc-dc-cross", 1, "c", "yc"), ("c-nondemolition", 1, "q", "yc"),
    ("dq-ito", 2, "yq", "yq"), ("dq-dc-cross", 2, "yq", "yc"), ("dc-classical", 2, "yc", "yc"),
)


@lru_cache
def _partition_indices(dims: Dimensions) -> tuple:
    # (name, condition, flat indices of the block in its condition's matrix):
    # take() gathers a block of a C-contiguous matrix as ravel(order="K") would
    blocks, n, n_y = dims._slices, dims.n, dims.n_y
    grids = [np.arange(r * c).reshape(r, c) for r, c in ((n, n), (n, n_y), (n_y, n_y))]
    return tuple((name, i, grids[i][blocks[rows], blocks[cols]].ravel())
                 for name, i, rows, cols in _PARTITION)


@_overflow_fails
def check_standard_partitioned(sys: StandardSystem,
                               tol: float = DEFAULT_CHECK_TOL) -> RealizabilityReport:
    """The ten block constraints equivalent to the standard conditions.

    The verdict agrees with check_standard: the ten equations are exactly
    the nonredundant blocks of the three whole-matrix conditions under the
    quantum-first partitioning.  Each block's residual is the block of its
    condition's sum, which is bitwise the sum of the term blocks.
    """
    terms = _standard_terms(sys)
    totals = [sum(t[1:], t[0]) for t in terms]
    return _make_report([_condition(name, terms[i], totals[i], tol, at)
                         for name, i, at in _partition_indices(sys.dims)])


@_overflow_fails
def check_general(sys: GeneralSystem, tol: float = DEFAULT_CHECK_TOL) -> RealizabilityReport:
    """Realizability of a general-form system via the skew Ito parts."""
    terms = _terms(sys.a_g, sys.b_g, sys.c_g, sys.d_g,
                   sys.big_theta_n, sys.theta_v, sys.theta_y)
    return _make_report(_conditions(_WHOLE_NAMES, terms, tol))


def commutator_trajectory(sys: StandardSystem, times) -> list[np.ndarray]:
    """State/output commutator evolution at the requested times.

    Returns g(t)/2i = (integral_0^t exp(A u) du) (theta_n C^T + B theta_w D^T)
    for each t, exactly zero at t = 0; it is identically zero exactly when
    the non-demolition condition holds.  The integral is the top-right block
    of exp([[A, I], [0, 0]] t) (Van Loan, IEEE TAC 1978), for every A: each t
    is halved as in moments._exact_step, one batched Taylor step forms the
    top block row [Phi, integral] of all sub-steps, and doubling
    (I <- Phi I + I, Phi <- Phi^2) carries each back.
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
        e = _expm_taylor(np.multiply.outer(steps, block), n)
        phi, integral = e[:, :, :n], e[:, :, n:]
        for k in range(max(counts, default=0)):
            # counts grow with the sorted times: those still doubling are a suffix
            j = np.searchsorted(counts, k, side="right")
            integral[j:] = phi[j:] @ integral[j:] + integral[j:]
            phi[j:] = phi[j:] @ phi[j:]
        st = sys.structure
        out = integral @ sum(_nondemolition_terms(sys.c, sys.d, sys.b @ st.theta_w, st.theta_n))
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
