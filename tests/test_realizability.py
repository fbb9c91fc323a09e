import math
import re
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as hst

from qcsynth import (
    ConditionResult,
    Dimensions,
    GeneralSystem,
    QuantumOnlySystem,
    StandardSystem,
    check_general,
    check_quantum,
    check_standard,
    check_standard_partitioned,
    commutator_trajectory,
    diag_j,
    generate_realizable,
    make_structure,
    random_symplectic,
)
from oracles import nondemolition_residual
from refsystems import (MIXED_DIMS, damped_cavity, dimension_grid, grid_sample,
                        mixed_reference)
from test_sysmodel import real_arrays, same_bits
from test_transform import pulled_back

WHOLE_NAMES = ("state-commutation", "non-demolition", "output-ito")
PARTITION_NAMES = (
    "qq-state", "cq-coupling", "bc-classical", "bc-dq-cross",
    "q-nondemolition", "bc-dc-cross", "c-nondemolition",
    "dq-ito", "dq-dc-cross", "dc-classical",
)


def cavity_quantum(a=None):
    eye = np.eye(2)
    return QuantumOnlySystem(-0.5 * eye if a is None else a, eye, -eye, eye)


def as_general(sys: StandardSystem) -> GeneralSystem:
    st = sys.structure
    f_y = sys.d @ st.f_w @ sys.d.T
    return GeneralSystem(sys.a, sys.b, sys.c, sys.d, st.theta_n, st.f_w, f_y)


# --------------------------------------------------------------- check_quantum

def test_quantum_cavity_passes():
    report = check_quantum(cavity_quantum())
    assert report.verdict
    for cond in report.conditions:
        assert cond.residual <= 1e-12


def test_quantum_undamped_fails():
    report = check_quantum(cavity_quantum(a=np.zeros((2, 2))))
    assert not report.verdict
    # dropping the damping leaves the bare vacuum pump term J
    assert report["state-commutation"].residual == pytest.approx(np.sqrt(2.0))
    assert report.worst == "state-commutation"


def test_quantum_padded_feedthrough():
    wide = np.hstack([np.eye(2), np.zeros((2, 2))])
    sys = QuantumOnlySystem(-0.5 * np.eye(2), wide, -np.eye(2), wide)
    report = check_quantum(sys)
    assert report.verdict
    assert report["output-form"].residual == 0.0


def test_quantum_feedthrough_is_strict():
    # the form condition is structural: any deviation fails, however small
    sys = QuantumOnlySystem(-0.5 * np.eye(2), np.eye(2), -np.eye(2),
                            np.eye(2) * (1.0 + 1e-12))
    report = check_quantum(sys)
    assert not report.verdict
    cond = report["output-form"]
    assert cond.threshold == 0.0 and cond.residual > 0.0
    assert report.worst == "output-form"


def test_quantum_tall_feedthrough_keeps_failing():
    # more outputs than field quadratures: the form defect is inf against 0
    sys = QuantumOnlySystem(-0.5 * np.eye(2), np.eye(2), -np.eye(4)[:, :2], np.eye(4)[:, :2])
    report = check_quantum(sys)
    cond = report["output-form"]
    assert (cond.residual, cond.threshold) == (np.inf, 0.0)
    assert not cond.passed and not report.verdict
    assert report.worst == "output-form"


def test_condition_passes_only_when_finite():
    assert ConditionResult("x", 1.0, 2.0).passed
    assert ConditionResult("x", 0.0, 0.0).passed
    for residual, threshold in [(np.inf, np.inf), (1.0, np.inf), (np.inf, 1.0),
                                (np.nan, 1.0), (0.0, np.nan), (3.0, 2.0)]:
        assert not ConditionResult("x", residual, threshold).passed


def test_overflowing_condition_fails():
    # scaling A by 1e300 overflows the state-commutation residual and its
    # threshold together; inf <= inf must not pass
    sys = generate_realizable(Dimensions(1, 1, 2, 1, 1), 3)
    big = StandardSystem(sys.dims, sys.a * 1e300, sys.b, sys.c, sys.d)
    with np.errstate(over="ignore", invalid="ignore"):
        report = check_standard(big)
    cond = report["state-commutation"]
    assert (cond.residual, cond.threshold) == (np.inf, np.inf)
    assert not cond.passed and not report.verdict
    assert report.worst == "state-commutation"


def test_quantum_theta_override_default():
    sys = cavity_quantum()
    explicit = check_quantum(sys, theta=diag_j(1))
    default = check_quantum(sys)
    for a, b in zip(explicit.conditions, default.conditions):
        assert a == b


@pytest.mark.parametrize("theta", [diag_j(2), np.zeros((2, 3)), np.zeros(2)], ids=str)
def test_quantum_theta_override_of_the_wrong_shape_is_rejected(theta):
    shape = np.shape(theta)
    with pytest.raises(ValueError, match=rf"^theta must have shape \(2n_q, 2n_q\) = \(2, 2\), "
                                         rf"got {re.escape(str(shape))}$"):
        check_quantum(cavity_quantum(), theta=theta)


# -------------------------------------------------------------- check_standard

def test_standard_reference_passes():
    report = check_standard(mixed_reference())
    assert report.verdict
    for name in ("state-commutation", "non-demolition", "output-ito"):
        assert report[name].residual <= 1e-9


def test_standard_detects_state_perturbation():
    a = mixed_reference().a.copy()
    a[0, 0] = -8.0
    report = check_standard(StandardSystem(MIXED_DIMS, a, mixed_reference().b,
                                           mixed_reference().c, mixed_reference().d))
    assert not report.verdict
    # the unit shift lands at the (0,1)/(1,0) entries of A theta + theta A^T
    assert report["state-commutation"].residual == pytest.approx(np.sqrt(2.0))
    assert report["non-demolition"].passed and report["output-ito"].passed


def test_standard_fully_classical():
    dims = Dimensions(n_q=0, n_c=2, m=1, n_yq=0, n_yc=1)
    sys = StandardSystem(dims, np.array([[0.0, 1.0], [-2.0, -3.0]]),
                         np.zeros((2, 2)), np.array([[1.0, 0.0]]), np.zeros((1, 2)))
    report = check_standard(sys)
    assert report.verdict
    assert all(c.residual == 0.0 for c in report.conditions)


def test_report_lookup():
    report = check_standard(mixed_reference())
    with pytest.raises(KeyError):
        report["no-such-condition"]


# -------------------------------------------------- check_standard_partitioned

def test_partitioned_reference_passes():
    report = check_standard_partitioned(mixed_reference())
    assert report.verdict
    assert tuple(c.name for c in report.conditions) == PARTITION_NAMES
    for cond in report.conditions:
        assert cond.residual <= 1e-9


def test_partitioned_localizes_coupling_break():
    ref = mixed_reference()
    b = ref.b.copy()
    b[2, :] *= 2.0
    scaled = StandardSystem(MIXED_DIMS, ref.a, b, ref.c, ref.d)
    before = check_standard_partitioned(ref)
    after = check_standard_partitioned(scaled)
    assert not after.verdict
    assert not after["cq-coupling"].passed
    # a single classical row keeps b_c theta_w b_c^T identically zero, so of
    # the four b_c conditions only the coupling one can move here; everything
    # without b_c must be untouched
    failing = {c.name for c in after.conditions if not c.passed}
    assert failing <= {"cq-coupling", "bc-classical", "bc-dq-cross", "bc-dc-cross"}
    for name in ("qq-state", "q-nondemolition", "c-nondemolition",
                 "dq-ito", "dq-dc-cross", "dc-classical"):
        assert after[name].residual == before[name].residual


def test_partitioned_no_classical_blocks():
    report = check_standard_partitioned(damped_cavity())
    assert report.verdict
    for name in ("cq-coupling", "bc-classical", "bc-dq-cross", "bc-dc-cross",
                 "c-nondemolition", "dq-dc-cross", "dc-classical"):
        assert report[name].residual == 0.0


def test_partitioned_agrees_with_whole():
    # realizable and clearly-broken systems must get the same verdict from
    # the whole-matrix and blockwise checkers
    for i, dims in enumerate(grid_sample(100)):
        sys = generate_realizable(dims, seed=i)
        assert check_standard(sys).verdict
        assert check_standard_partitioned(sys).verdict
        b = sys.b.copy()
        b[0, 0] += 0.05
        broken = StandardSystem(dims, sys.a, b, sys.c, sys.d)
        assert (check_standard(broken).verdict
                == check_standard_partitioned(broken).verdict)


# --------------------------------------------------------------- check_general

def test_general_embedding_matches_standard():
    sys = mixed_reference()
    report = check_general(as_general(sys))
    assert report.verdict == check_standard(sys).verdict is True
    for cond in report.conditions:
        assert cond.residual <= 1e-9


def test_general_all_classical_is_vacuous():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 2))
    c = rng.standard_normal((2, 3))
    d = rng.standard_normal((2, 2))
    f_v = np.eye(2)  # real symmetric: no commutator content
    g = GeneralSystem(a, b, c, d, np.zeros((3, 3)), f_v, d @ f_v @ d.T)
    assert check_general(g).verdict


def test_general_c_perturbation_residual():
    g = as_general(mixed_reference())
    delta = np.zeros((3, 3))
    delta[0, 0] = 0.3
    perturbed = GeneralSystem(g.a_g, g.b_g, g.c_g + delta, g.d_g,
                              g.big_theta_n, g.f_v, g.f_y)
    report = check_general(perturbed)
    want = np.linalg.norm(g.big_theta_n @ delta.T)
    assert report["non-demolition"].residual == pytest.approx(want, rel=1e-9)


# --------------------------------------------------------- residual utilities

def nondemolition(sys):
    """The non-demolition residual as check_standard reports it."""
    return check_standard(sys)["non-demolition"].residual


def test_nondemolition_reference():
    assert nondemolition(mixed_reference()) <= 1e-9


def test_nondemolition_zero_system():
    dims = Dimensions(n_q=1, n_c=0, m=1, n_yq=1, n_yc=0)
    sys = StandardSystem(dims, np.zeros((2, 2)), np.zeros((2, 2)),
                         np.zeros((2, 2)), np.eye(2))
    assert nondemolition(sys) == 0.0


def test_nondemolition_zeroed_block():
    ref = mixed_reference()
    c = ref.c.copy()
    c[:2, :2] = 0.0
    st = ref.structure
    want = np.linalg.norm(st.theta_n @ (ref.c - c).T)
    got = nondemolition(StandardSystem(MIXED_DIMS, ref.a, ref.b, c, ref.d))
    assert got == pytest.approx(want, rel=1e-12)


def test_zero_padding_leaves_residuals_alone():
    ref = mixed_reference()
    padded_dims = Dimensions(n_q=1, n_c=1, m=4, n_yq=1, n_yc=2)
    b = np.hstack([ref.b, np.zeros((3, 2))])
    d = np.vstack([np.hstack([ref.d, np.zeros((3, 2))]), np.zeros((1, 8))])
    c = np.vstack([ref.c, np.zeros((1, 3))])
    padded = StandardSystem(padded_dims, ref.a, b, c, d)
    for cond, orig in zip(check_standard(padded).conditions,
                          check_standard(ref).conditions):
        assert cond.residual == pytest.approx(orig.residual, abs=1e-15)
    assert check_standard_partitioned(padded).verdict


# ------------------------------------------------------- commutator_trajectory

def test_trajectory_reference_stays_zero():
    mats = commutator_trajectory(mixed_reference(), [0.1, 1.0, 5.0])
    assert len(mats) == 3
    for g in mats:
        assert np.linalg.norm(g) <= 1e-8


def test_trajectory_starts_at_zero():
    g0 = commutator_trajectory(mixed_reference(), [0.0])[0]
    assert np.count_nonzero(g0) == 0


def test_trajectory_perturbed_matches_integral():
    ref = mixed_reference()
    c = ref.c.copy()
    c[0, 0] += 1.0
    sys = StandardSystem(MIXED_DIMS, ref.a, ref.b, c, ref.d)
    st = sys.structure
    drive = st.theta_n @ sys.c.T + sys.b @ st.theta_w @ sys.d.T
    got = commutator_trajectory(sys, [1.0])[0]
    assert np.linalg.norm(got) > 1e-6
    # trapezoid oracle on a fine grid
    grid = np.linspace(0.0, 1.0, 4001)
    samples = np.array([scipy.linalg.expm(sys.a * u) for u in grid])
    integral = scipy.integrate.trapezoid(samples, grid, axis=0)
    assert np.allclose(got, integral @ drive, atol=1e-8)


def test_trajectory_forms_only_the_nondemolition_terms(monkeypatch):
    from qcsynth import realizability
    ref = mixed_reference()
    b = ref.b.copy()
    b[0, 0] += 0.05
    sys = StandardSystem(MIXED_DIMS, ref.a, b, ref.c, ref.d)
    times = [0.0, 0.5, 2.0]
    want = commutator_trajectory(sys, times)

    def unused(_):
        raise AssertionError("the trajectory formed every realizability term")

    monkeypatch.setattr(realizability, "_standard_terms", unused)
    got = commutator_trajectory(sys, times)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_trajectory_singular_drift():
    # diagonal generator with a zero eigenvalue forces the quadrature path
    dims = Dimensions(n_q=1, n_c=0, m=1, n_yq=1, n_yc=0)
    rng = np.random.default_rng(8)
    c = rng.standard_normal((2, 2))
    sys = StandardSystem(dims, np.diag([0.0, -1.0]), np.eye(2), c, np.eye(2))
    st = sys.structure
    drive = st.theta_n @ c.T + st.theta_w
    t = 1.0
    want = np.diag([t, 1.0 - np.exp(-t)]) @ drive
    got = commutator_trajectory(sys, [t])[0]
    assert np.allclose(got, want, atol=1e-9)


def test_trajectory_near_singular_drift():
    # A = S diag(-3e-8, -1) S^-1 is invertible but ill-conditioned
    # (cond about 6e7): A^-1 (exp(A t) - I) would lose about eight digits
    dims = Dimensions(n_q=1, n_c=0, m=1, n_yq=1, n_yc=0)
    s = np.array([[1.0, 0.5], [0.3, 1.0]])
    lam = np.array([-3e-8, -1.0])
    a = s @ np.diag(lam) @ np.linalg.inv(s)
    c = np.random.default_rng(8).standard_normal((2, 2))
    sys = StandardSystem(dims, a, np.eye(2), c, np.eye(2))
    st = sys.structure
    drive = st.theta_n @ c.T + st.theta_w
    times = [0.5, 2.0, 10.0]
    for t, got in zip(times, commutator_trajectory(sys, times)):
        want = s @ np.diag(np.expm1(lam * t) / lam) @ np.linalg.inv(s) @ drive
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_trajectory_validates_times():
    with pytest.raises(ValueError):
        commutator_trajectory(mixed_reference(), [1.0, 0.5])
    with pytest.raises(ValueError):
        commutator_trajectory(mixed_reference(), [-1.0])


def test_trajectory_rejects_non_finite_times():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            commutator_trajectory(mixed_reference(), [0.5, bad])


def test_trajectory_zero_whenever_nondemolition_holds():
    for i, dims in enumerate(grid_sample(10)):
        sys = generate_realizable(dims, seed=1000 + i)
        assert nondemolition_residual(sys) <= 1e-8 * (1 + np.linalg.norm(sys.c))
        for g in commutator_trajectory(sys, [0.5, 2.0]):
            assert np.linalg.norm(g) <= 1e-7 * (1 + np.linalg.norm(sys.c))


@pytest.mark.parametrize("field, factor", [("a", 1e300), ("b", 1e200), ("c", 1e300),
                                           ("d", 1e200)])
def test_overflow_fails_without_warning(field, factor):
    # no np.errstate here: every checker keeps the overflow it reports as
    # an infinite residual out of numpy's warnings
    sys = generate_realizable(Dimensions(1, 1, 2, 1, 1), 3)
    mats = {name: getattr(sys, name) for name in "abcd"}
    mats[field] = mats[field] * factor
    big = StandardSystem(sys.dims, mats["a"], mats["b"], mats["c"], mats["d"])
    quantum = QuantumOnlySystem(big.a[:2, :2], big.b[:2], big.c[:2, :2], big.d[:2])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        reports = [check_standard(big), check_standard_partitioned(big),
                   check_quantum(quantum)]
        if field in "ac":
            # the general form's F_y = D F_w D^T overflows before any check
            reports.append(check_general(as_general(big)))
    for report in reports:
        assert not report.verdict
        assert not report[report.worst].passed


# ------------------------------------------- whole and blockwise checkers agree

def _passing_and_broken(count):
    for i, dims in enumerate(grid_sample(count)):
        sys = generate_realizable(dims, seed=i)
        b = sys.b.copy()
        b[0, 0] += 0.05
        yield sys
        yield StandardSystem(dims, sys.a, b, sys.c, sys.d)


# Each whole condition against its partitioned blocks; a block counted twice
# stands for itself and its transpose (the state and Ito conditions are skew).
BLOCK_SUMS = {
    "state-commutation": {"qq-state": 1, "cq-coupling": 2, "bc-classical": 1},
    "non-demolition": {"q-nondemolition": 1, "c-nondemolition": 1,
                       "bc-dq-cross": 1, "bc-dc-cross": 1},
    "output-ito": {"dq-ito": 1, "dq-dc-cross": 2, "dc-classical": 1},
}


def test_partitioned_blocks_sum_to_whole_residuals():
    for sys in _passing_and_broken(100):
        whole = check_standard(sys)
        blocks = check_standard_partitioned(sys)
        for name, parts in BLOCK_SUMS.items():
            total = sum(k * blocks[part].residual ** 2 for part, k in parts.items())
            assert abs(np.sqrt(total) - whole[name].residual) <= 1e-4 * whole[name].threshold


@pytest.mark.parametrize("dims, seed", [(Dimensions(2, 2, 4, 2, 2), 31),
                                         (Dimensions(4, 4, 8, 4, 4), 32)])
def test_planted_defect_flips_the_verdict_at_its_threshold(dims, seed):
    # A defect e_0 v^T in B with theta_w v in the null space of B moves the
    # state condition only at second order, eps^2, and the non-demolition
    # residual by eps |v^T theta_w D^T|: eps sets that residual to 0.5 and
    # then 2 times the threshold, which eps ~ 1e-8 leaves unchanged
    sys = generate_realizable(dims, seed)
    theta_w = sys.structure.theta_w
    v = scipy.linalg.null_space(sys.b @ theta_w)[:, 0]
    defect = np.zeros_like(sys.b)
    defect[0] = v
    threshold = check_standard(sys)["non-demolition"].threshold
    slope = np.linalg.norm(defect @ theta_w @ sys.d.T)
    for ratio in (0.5, 2.0):
        planted = StandardSystem(dims, sys.a, sys.b + ratio * threshold / slope * defect,
                                 sys.c, sys.d)
        report = check_standard(planted)
        cond = report["non-demolition"]
        assert cond.residual == pytest.approx(ratio * threshold, rel=1e-6)
        assert cond.threshold == pytest.approx(threshold, rel=1e-6)
        assert cond.passed == report.verdict == (ratio < 1.0)
        assert report.worst == "non-demolition"
        for other in ("state-commutation", "output-ito"):
            assert report[other].residual <= 1e-3 * report[other].threshold


GRID = dimension_grid()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(hst.integers(0, len(GRID) - 1), hst.integers(0, 2**16), hst.booleans())
def test_verdicts_survive_a_change_of_state_basis(index, seed, broken):
    # x -> P x with P = diag(T, S), T symplectic and S invertible, keeps
    # theta_n and maps each condition block to a congruent one
    dims = GRID[index]
    sys = generate_realizable(dims, seed)
    b = sys.b.copy()
    if broken:
        b[0, 0] += 0.05
    rng = np.random.default_rng(seed)
    p = scipy.linalg.block_diag(random_symplectic(dims.n_q, rng, 0.25),
                                np.eye(dims.n_c) + 0.2 * rng.standard_normal((dims.n_c, dims.n_c)))
    p_inv = np.linalg.inv(p)
    moved = StandardSystem(dims, p @ sys.a @ p_inv, p @ b, sys.c @ p_inv, sys.d)
    before = StandardSystem(dims, sys.a, b, sys.c, sys.d)

    def failing(system):
        return {c.name for c in check_standard_partitioned(system).conditions if not c.passed}

    assert check_standard(moved).verdict == check_standard(before).verdict == (not broken)
    assert failing(moved) == failing(before)


# name: (condition, row block, column block), condition 0 the state, 1 the
# non-demolition and 2 the output-Ito condition
PARTITION_BLOCKS = {
    "qq-state": (0, "q", "q"), "cq-coupling": (0, "c", "q"), "bc-classical": (0, "c", "c"),
    "bc-dq-cross": (1, "c", "yq"), "q-nondemolition": (1, "q", "yq"),
    "bc-dc-cross": (1, "c", "yc"), "c-nondemolition": (1, "q", "yc"),
    "dq-ito": (2, "yq", "yq"), "dq-dc-cross": (2, "yq", "yc"), "dc-classical": (2, "yc", "yc"),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(hst.integers(0, len(GRID) - 1), hst.integers(0, 2**16),
       hst.sampled_from((0.0, 1e-9, 0.05)), hst.sampled_from((1e-9, 1e-6)))
def test_partitioned_blocks_are_blocks_of_the_whole_conditions(index, seed, size, tol):
    dims = GRID[index]
    sys = generate_realizable(dims, seed)
    rng = np.random.default_rng(seed)
    a, b, c = (m + size * rng.standard_normal(m.shape) for m in (sys.a, sys.b, sys.c))
    sys = StandardSystem(dims, a, b, c, sys.d)
    st = sys.structure
    terms = ([a @ st.theta_n, st.theta_n @ a.T, b @ st.theta_w @ b.T],
             [b @ st.theta_w @ sys.d.T, st.theta_n @ c.T],
             [sys.d @ st.theta_w @ sys.d.T, -st.theta_y_target])
    k, k_y = 2 * dims.n_q, 2 * dims.n_yq
    blocks = {"q": slice(None, k), "c": slice(k, None),
              "yq": slice(None, k_y), "yc": slice(k_y, None)}
    report = check_standard_partitioned(sys, tol)
    assert tuple(cond.name for cond in report.conditions) == PARTITION_NAMES
    for name, (i, rows, cols) in PARTITION_BLOCKS.items():
        block = blocks[rows], blocks[cols]
        residual = float(np.linalg.norm(sum(terms[i])[block]))
        threshold = tol * (1.0 + sum(float(np.linalg.norm(t[block])) for t in terms[i]))
        assert report[name].residual.hex() == residual.hex(), name
        assert report[name].threshold.hex() == threshold.hex(), name


# ------------------------------------- commutator_trajectory: digits and overflow

def integral_40_digits(a, t):
    """integral_0^t exp(A u) du, the top right block of the 40-digit
    exponential of [[A, I], [0, 0]] t."""
    n = a.shape[0]
    with mpmath.workdps(40):
        block = mpmath.zeros(2 * n, 2 * n)
        for i in range(n):
            block[i, n + i] = mpmath.mpf(t)
            for j in range(n):
                block[i, j] = mpmath.mpf(a[i, j]) * mpmath.mpf(t)
        e = mpmath.expm(block).tolist()
    return np.array([[float(x) for x in row[n:]] for row in e[:n]])


@hst.composite
def drifts_and_times(draw):
    """A system with 1 <= n <= 6 whose drift has the drawn rows zeroed, and
    sorted times in [0, 5] that include 0."""
    n_q = draw(hst.integers(0, 3))
    m = draw(hst.integers(1, 3))
    dims = Dimensions(n_q=n_q, n_c=draw(hst.integers(0 if n_q else 1, 6 - 2 * n_q)), m=m,
                      n_yq=draw(hst.integers(0, m)), n_yc=draw(hst.integers(0, 2)))
    n, n_y = dims.n, 2 * dims.n_yq + dims.n_yc
    rng = np.random.default_rng(draw(hst.integers(0, 2**16)))
    a = draw(hst.sampled_from((0.1, 1.0, 3.0))) * rng.standard_normal((n, n))
    a[draw(hst.lists(hst.booleans(), min_size=n, max_size=n))] = 0.0
    sys = StandardSystem(dims, a, rng.standard_normal((n, 2 * m)),
                         rng.standard_normal((n_y, n)), rng.standard_normal((n_y, 2 * m)))
    times = sorted([0.0, *draw(hst.lists(hst.floats(0.0, 5.0), max_size=3))])
    return sys, times


@settings(max_examples=40, deadline=None, derandomize=True)
@given(drifts_and_times())
def test_trajectory_matches_40_digit_integral(case):
    sys, times = case
    st = sys.structure
    drive = st.theta_n @ sys.c.T + sys.b @ st.theta_w @ sys.d.T
    for t, got in zip(times, commutator_trajectory(sys, times)):
        if t == 0.0:
            assert np.count_nonzero(got) == 0
            continue
        want = integral_40_digits(sys.a, t) @ drive
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def perturbed_mixed(a):
    ref = mixed_reference()
    c = ref.c.copy()
    c[0, 0] += 1.0
    return StandardSystem(MIXED_DIMS, a, ref.b, c, ref.d)


def test_trajectory_overflow_names_the_first_diverged_time():
    unstable = perturbed_mixed(-mixed_reference().a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"non-finite values at t = 1000$"):
            commutator_trajectory(unstable, [0.0, 1.0, 1e3, 2e3])
        assert np.isfinite(commutator_trajectory(unstable, [0.0, 1.0])[1]).all()


def test_trajectory_reaches_the_limit_of_a_stable_drift():
    # integral_0^inf exp(A u) du = -A^-1 for Hurwitz A; every time is halved
    # by its own count, so t = 1e6 keeps its digits next to t = 1e300
    sys = perturbed_mixed(mixed_reference().a)
    st = sys.structure
    limit = np.linalg.solve(-sys.a, st.theta_n @ sys.c.T + sys.b @ st.theta_w @ sys.d.T)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        together = commutator_trajectory(sys, [1e6, 1e300])
        alone = [commutator_trajectory(sys, [t])[0] for t in (1e6, 1e300)]
    for got, single in zip(together, alone):
        np.testing.assert_array_equal(got, single)
        assert np.linalg.norm(got - limit) <= 1e-14 * np.linalg.norm(limit)


def test_trajectory_overflowing_halving_scale_raises():
    # t max(|A|_1, |A|_inf) overflows at t = 1e10: no halving count reaches
    # it, and the Taylor step must not run unscaled
    sys = perturbed_mixed(1e300 * mixed_reference().a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"t = 1e\+10 cannot be scaled"):
            commutator_trajectory(sys, [0.0, 1.0, 1e10])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(hst.integers(0, len(GRID) - 1), hst.integers(0, 2**16), hst.sampled_from((0.0, 0.05)))
def test_nondemolition_checker_residual_is_the_dense_formula(index, seed, size):
    dims = GRID[index]
    sys = generate_realizable(dims, seed)
    rng = np.random.default_rng(seed)
    b, c = (m + size * rng.standard_normal(m.shape) for m in (sys.b, sys.c))
    sys = StandardSystem(dims, sys.a, b, c, sys.d)
    st = sys.structure
    residual = float(np.linalg.norm(b @ st.theta_w @ sys.d.T + st.theta_n @ c.T))
    assert nondemolition(sys).hex() == residual.hex()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(hst.integers(0, 4), hst.integers(1, 4), hst.integers(0, 4), hst.integers(0, 2**16),
       hst.booleans())
def test_quantum_conditions_are_the_dense_formulas(n_q, m, n_z, seed, own_theta):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2 * n_q, 2 * n_q))
    b = rng.standard_normal((2 * n_q, 2 * m))
    c = rng.standard_normal((2 * n_z, 2 * n_q))
    d = np.eye(2 * n_z, 2 * m)
    theta = diag_j(n_q)
    if own_theta:
        half = rng.standard_normal((2 * n_q, 2 * n_q))
        theta = half - half.T
    tol = 1e-9
    report = check_quantum(QuantumOnlySystem(a, b, c, d), tol,
                           theta=theta if own_theta else None)
    terms = {"state-commutation": [a @ theta, theta @ a.T, b @ diag_j(m) @ b.T],
             "output-coupling": [b @ d.T, -(theta @ c.T @ diag_j(n_z))]}
    for name, parts in terms.items():
        residual = float(np.linalg.norm(sum(parts)))
        threshold = tol * (1.0 + sum(float(np.linalg.norm(t)) for t in parts))
        assert report[name].residual.hex() == residual.hex(), name
        assert report[name].threshold.hex() == threshold.hex(), name


# ------------------- every checker against its dense formulas, bit for bit
#
# The references below are the formulas the checkers state, written out with
# np.linalg.norm and sum(): each residual and threshold must match them by
# float.hex, and the verdict and worst condition the rule of one report.

def dense_norm(x):
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(x))


def dense_condition(name, terms, tol):
    """(name, residual, threshold) of the condition that terms sum to zero."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(terms)
    return name, dense_norm(total), tol * (1.0 + sum(dense_norm(t) for t in terms))


def assert_report_is(report, conditions):
    """report holds exactly these (name, residual, threshold) conditions,
    passes when each is finite with residual <= threshold, and names as
    worst the first condition of largest residual/threshold ratio, a
    non-finite one counting as infinite."""
    assert [c.name for c in report.conditions] == [name for name, _, _ in conditions]
    worst, worst_ratio = "", -1.0
    for cond, (name, residual, threshold) in zip(report.conditions, conditions):
        assert same_bits(cond.residual, residual), (name, cond.residual, residual)
        assert same_bits(cond.threshold, threshold), (name, cond.threshold, threshold)
        if not (math.isfinite(residual) and math.isfinite(threshold)):
            ratio = math.inf
        elif threshold > 0.0:
            ratio = residual / threshold
        else:
            ratio = math.inf if residual > 0.0 else 0.0
        if ratio > worst_ratio:
            worst, worst_ratio = name, ratio
    assert report.verdict == all(math.isfinite(r) and math.isfinite(t) and r <= t
                                 for _, r, t in conditions)
    assert report.worst == worst


def dense_terms(a, b, c, d, theta_n, theta_w, theta_y):
    return ([a @ theta_n, theta_n @ a.T, b @ theta_w @ b.T],
            [b @ theta_w @ d.T, theta_n @ c.T],
            [d @ theta_w @ d.T, -theta_y])


# one shape with each of n_c, n_yq, n_q (and with it n_yq) zero
EMPTY_BLOCK_DIMS = [Dimensions(1, 0, 2, 1, 1), Dimensions(2, 0, 2, 2, 0),
                    Dimensions(1, 2, 2, 0, 2), Dimensions(0, 2, 1, 0, 1),
                    Dimensions(0, 3, 2, 0, 2)]


@hst.composite
def checker_inputs(draw):
    """A generated system as it is, perturbed, or scaled by 1e200 so that
    its products overflow; and a tolerance."""
    dims = draw(hst.one_of(hst.sampled_from(EMPTY_BLOCK_DIMS), hst.sampled_from(GRID)))
    seed = draw(hst.integers(0, 2**16))
    sys = generate_realizable(dims, seed)
    mode = draw(hst.sampled_from(("generated", "perturbed", "overflowing")))
    a, b, c, d = sys.a, sys.b, sys.c, sys.d
    if mode == "perturbed":
        rng = np.random.default_rng(seed)
        a, b, c = (m + 0.05 * rng.standard_normal(m.shape) for m in (a, b, c))
    elif mode == "overflowing":
        a, b, c, d = (1e200 * m for m in (a, b, c, d))
    return StandardSystem(dims, a, b, c, d), draw(hst.sampled_from((1e-8, 1e-12)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(checker_inputs())
def test_standard_checkers_are_their_dense_formulas(case):
    sys, tol = case
    st = sys.structure
    with np.errstate(over="ignore", invalid="ignore"):
        terms = dense_terms(sys.a, sys.b, sys.c, sys.d, st.theta_n, st.theta_w,
                            st.theta_y_target)
        totals = [sum(t) for t in terms]
    assert_report_is(check_standard(sys, tol),
                     [dense_condition(name, t, tol) for name, t in zip(WHOLE_NAMES, terms)])
    dims = sys.dims
    k, k_y = 2 * dims.n_q, 2 * dims.n_yq
    blocks = {"q": slice(None, k), "c": slice(k, None),
              "yq": slice(None, k_y), "yc": slice(k_y, None)}
    partitioned = []
    for name, (i, rows, cols) in PARTITION_BLOCKS.items():
        block = blocks[rows], blocks[cols]
        _, _, threshold = dense_condition(name, [t[block] for t in terms[i]], tol)
        partitioned.append((name, dense_norm(totals[i][block]), threshold))
    assert_report_is(check_standard_partitioned(sys, tol), partitioned)
    assert same_bits(nondemolition_residual(sys), dense_norm(totals[1]))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(checker_inputs(), hst.booleans())
def test_general_checker_is_its_dense_formulas(case, pull_back):
    # theta_v and theta_y are as np.real gave them: strided views, which
    # matmul multiplies with its own loop rather than BLAS's gemv or gemm
    sys, tol = case
    with np.errstate(over="ignore", invalid="ignore"):
        g = pulled_back(sys, np.random.default_rng(sys.dims.n)) if pull_back else as_general(sys)
        theta_v = np.real((g.f_v - g.f_v.T) / 2j)
        theta_y = np.real((g.f_y - g.f_y.T) / 2j)
        terms = dense_terms(g.a_g, g.b_g, g.c_g, g.d_g, g.big_theta_n, theta_v, theta_y)
    assert_report_is(check_general(g, tol),
                     [dense_condition(name, t, tol) for name, t in zip(WHOLE_NAMES, terms)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(checker_inputs(), hst.integers(0, 3), hst.booleans())
def test_quantum_checker_is_its_dense_formulas(case, n_z, own_theta):
    sys, tol = case
    n_q, m = sys.dims.n_q, sys.dims.m
    a, b = sys.a_qq, sys.b_q
    # output rows cut from c (or repeated from it), and a square, padded or
    # tall feedthrough
    c = np.resize(sys.c[:, : 2 * n_q], (2 * n_z, 2 * n_q))
    d = np.eye(2 * n_z, 2 * m) * (1e200 if abs(a).max(initial=0.0) > 1e100 else 1.0)
    theta = diag_j(n_q)
    if own_theta:
        half = np.random.default_rng(n_z).standard_normal((2 * n_q, 2 * n_q))
        theta = half - half.T
    report = check_quantum(QuantumOnlySystem(a, b, c, d), tol,
                           theta=theta if own_theta else None)
    with np.errstate(over="ignore", invalid="ignore"):
        state = [a @ theta, theta @ a.T, b @ diag_j(m) @ b.T]
        coupling = [b @ d.T, -(theta @ c.T @ diag_j(n_z))]
        form = (float(np.abs(d - np.eye(*d.shape)).max(initial=0.0))
                if d.shape[0] <= d.shape[1] else math.inf)
    assert_report_is(report, [dense_condition("state-commutation", state, tol),
                              dense_condition("output-coupling", coupling, tol),
                              ("output-form", form, 0.0)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(hst.sampled_from(EMPTY_BLOCK_DIMS + GRID), hst.integers(0, 2**16),
       hst.sampled_from(("as-is", "v_sympl", "g_mat", "p_perm", "overflowing")))
def test_network_report_is_its_dense_formulas(dims, seed, tamper):
    from qcsynth import synthesize
    from qcsynth.synthesis import _network_report
    r = synthesize(generate_realizable(dims, seed))
    v, g, p, k_sel = r.v_sympl, r.g_mat, r.p_perm, r.k_sel
    if tamper == "v_sympl":
        v = 3.0 * v
    elif tamper == "g_mat":
        g = g + 1e-3
    elif tamper == "p_perm" and p.size:
        p = p.copy()
        p[0, 0] = 0.5
    elif tamper == "overflowing":
        v, g = 1e200 * v, 1e200 * g
    r = type(r)(r.g1, r.g2, g, k_sel, v, p, r.z, r.dims)
    tol = 1e-8
    theta = diag_j(v.shape[0] // 2)

    def maxabs(x):
        return float(np.abs(x).max(initial=0.0))

    with np.errstate(over="ignore", invalid="ignore"):
        # a square by multiplication: it overflows to inf where ** 2 raises
        conditions = [
            ("symplectic", maxabs(v @ theta @ v.T - theta),
             1e-6 * max(1.0, maxabs(v) * maxabs(v))),
            ("selection", maxabs(g - k_sel @ v), tol * max(1.0, maxabs(v))),
            ("commuting-taps", maxabs(g @ theta @ g.T),
             tol * max(1.0, maxabs(g) * maxabs(g) * v.shape[0])),
            ("permutation", max(maxabs(np.minimum(abs(p), abs(p - 1.0))),
                                maxabs(p.sum(axis=0) - 1.0), maxabs(p.sum(axis=1) - 1.0)),
             0.0),
        ]
    assert_report_is(_network_report(r, tol), conditions)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(real_arrays())
def test_checker_norm_is_numpy_norm_bit_for_bit(a):
    # C-ordered, transposed (F-ordered), stepped and empty arrays, inside the
    # errstate every checker runs in
    from qcsynth.realizability import _norm
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_bits(_norm(a), np.linalg.norm(a))


@pytest.mark.parametrize("dims", EMPTY_BLOCK_DIMS + [MIXED_DIMS, Dimensions(3, 2, 4, 2, 1)])
def test_partition_gathers_are_the_block_slices(dims):
    # each block gathered by its flat indices is the C-order copy of its
    # slice, so the checkers' norm of it is np.linalg.norm of the slice
    from qcsynth.realizability import _PARTITION, _norm, _partition_indices
    rng = np.random.default_rng(dims.n)
    shapes = (dims.n, dims.n), (dims.n, dims.n_y), (dims.n_y, dims.n_y)
    k, k_y = 2 * dims.n_q, 2 * dims.n_yq
    blocks = {"q": slice(None, k), "c": slice(k, None),
              "yq": slice(None, k_y), "yc": slice(k_y, None)}
    gathers = _partition_indices(dims)
    assert [(name, i) for name, i, _ in gathers] == [(name, i) for name, i, _, _ in _PARTITION]
    for (_, i, rows, cols), (_, _, at) in zip(_PARTITION, gathers):
        m = rng.uniform(-9.0, 9.0, shapes[i]) * 10.0 ** rng.integers(-5, 6, shapes[i])
        block = m[blocks[rows], blocks[cols]]
        assert m.take(at).tobytes() == block.ravel(order="K").tobytes()
        with np.errstate(over="ignore", invalid="ignore"):
            assert same_bits(_norm(m, at), np.linalg.norm(block))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hst.integers(1, 8), hst.integers(0, 2**16),
       hst.sampled_from((1.0, 1e-200, 1e200, 1e300)))
def test_theta_parts_are_the_skew_parts_of_the_ito_matrices(n, seed, scale):
    # Im(F - F^T) halved in real arithmetic: the real part of (F - F^T)/2i,
    # bit for bit for these F, whose imaginary parts hold no -0.0
    rng = np.random.default_rng(seed)
    half = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f = scale * (half + half.conj().T) / 2
    g = GeneralSystem(np.zeros((1, 1)), np.zeros((1, n)), np.zeros((n, 1)), np.zeros((n, n)),
                      np.zeros((1, 1)), f, f)
    want = np.real((f - f.T) / 2j)
    for got in (g.theta_v, g.theta_y):
        assert got.tobytes() == want.tobytes()
        assert (got.dtype, got.strides) == (want.dtype, want.strides)
        # a one-row product takes gemv for a contiguous operand: the same
        # strides keep matmul's loop and so its bits
        row = rng.standard_normal((1, n))
        assert (row @ got).tobytes() == (row @ want).tobytes()
