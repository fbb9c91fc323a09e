import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

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
    nondemolition_residual,
)
from refsystems import MIXED_DIMS, damped_cavity, grid_sample, mixed_reference

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

def test_nondemolition_reference():
    assert nondemolition_residual(mixed_reference()) <= 1e-9


def test_nondemolition_zero_system():
    dims = Dimensions(n_q=1, n_c=0, m=1, n_yq=1, n_yc=0)
    sys = StandardSystem(dims, np.zeros((2, 2)), np.zeros((2, 2)),
                         np.zeros((2, 2)), np.eye(2))
    assert nondemolition_residual(sys) == 0.0


def test_nondemolition_zeroed_block():
    ref = mixed_reference()
    c = ref.c.copy()
    c[:2, :2] = 0.0
    st = ref.structure
    want = np.linalg.norm(st.theta_n @ (ref.c - c).T)
    got = nondemolition_residual(StandardSystem(MIXED_DIMS, ref.a, ref.b, c, ref.d))
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
        nondemolition_residual(big)
    for report in reports:
        assert not report.verdict
        assert not report[report.worst].passed
