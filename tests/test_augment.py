import dataclasses
import importlib
import itertools
import warnings

import numpy as np
import pytest

from qcsynth import (
    Dimensions,
    QuantumOnlySystem,
    StandardSystem,
    augment,
    check_quantum,
    diag_j,
    generate_realizable,
    reduce,
    symplectic_complete,
)
from qcsynth.augment import AugmentedSystem
from qcsynth.matkit import DEFAULT_TOL
from oracles import minnorm_right_solve
from refsystems import (MIXED_DIMS, damped_cavity, grid_sample, mixed_reference,
                        scaled_generated)

# the package's `augment` is the function; the module holds the solve's helpers
augment_module = importlib.import_module("qcsynth.augment")


def selector(n, n_c):
    s = np.zeros((n, n_c))
    if n_c:
        s[n - n_c:, :] = np.eye(n_c)
    return s


def relation_residuals(sys, aug):
    """The three defining relations, as absolute residual norms."""
    st = sys.structure
    s = selector(sys.dims.n, sys.dims.n_c)
    r1 = aug.b_prime @ st.theta_w @ sys.d_q.T - sys.c_qc.T
    r2 = (s.T @ aug.a_prime.T - aug.a_prime @ s
          - aug.b_prime @ st.theta_w @ aug.b_prime.T)
    r3 = aug.a_dprime - (aug.a_prime @ st.theta_n - s.T @ sys.a.T
                         + aug.b_prime @ st.theta_w @ sys.b.T) @ s
    return [np.linalg.norm(r) for r in (r1, r2, r3)]


def reduced_report(sys, aug, tol=1e-8):
    red = reduce(aug, sys.structure.theta_w)
    width = aug.b_tilde.shape[1]
    quantum = QuantumOnlySystem(red.a_tilde, red.b_tilde, red.c_bar, np.eye(width))
    return check_quantum(quantum, tol, theta=red.theta_tilde)


def test_augment_no_classical_part_is_identity():
    sys = damped_cavity()
    aug = augment(sys)
    assert np.array_equal(aug.a_tilde, sys.a)
    assert np.array_equal(aug.b_tilde, sys.b)
    assert np.array_equal(aug.theta_tilde, diag_j(1))
    assert aug.a_prime.shape == (0, 2)
    assert aug.a_dprime.shape == (0, 0)
    assert aug.b_prime.shape == (0, 2)


def test_reduce_cavity():
    aug = augment(damped_cavity())
    red = reduce(aug, diag_j(1))
    # theta_w B^T theta = J I J = -I
    assert np.allclose(red.c_bar, -np.eye(2), atol=1e-14)
    assert reduced_report(damped_cavity(), aug).verdict


def test_augment_reference():
    sys = mixed_reference()
    aug = augment(sys)
    assert aug.a_tilde.shape == (4, 4)
    assert aug.b_tilde.shape == (4, 6)
    assert aug.c_tilde.shape == (2, 4)
    assert np.array_equal(aug.d_tilde, sys.d_q)
    for res in relation_residuals(sys, aug):
        assert res <= 1e-9
    assert reduced_report(sys, aug).verdict


def test_augment_keeps_original_dynamics():
    sys = mixed_reference()
    aug = augment(sys)
    assert np.array_equal(aug.a_tilde[:3, :3], sys.a)
    assert np.count_nonzero(aug.a_tilde[:3, 3:]) == 0
    assert np.array_equal(aug.c_tilde[:, :3], sys.c_q)
    assert np.count_nonzero(aug.c_tilde[:, 3:]) == 0


def test_theta_tilde_structure():
    aug = augment(mixed_reference())
    th = aug.theta_tilde
    assert np.array_equal(th, -th.T)
    assert np.allclose(th @ th, -np.eye(4), atol=1e-14)


def test_augment_zero_coupling():
    # with c_qc = 0 the auxiliary input rows vanish and a_dprime collapses
    # to the transposed negative of the classical dynamics
    dims = Dimensions(n_q=1, n_c=1, m=2, n_yq=1, n_yc=1)
    base = generate_realizable(dims, seed=3)
    c = base.c.copy()
    c[:2, 2:] = 0.0
    sys = StandardSystem(dims, base.a, base.b, c, base.d)
    aug = augment(sys)
    assert np.count_nonzero(aug.b_prime) == 0
    assert np.count_nonzero(aug.a_prime[:, 2:]) == 0
    assert np.allclose(aug.a_dprime, -sys.a_cc.T, atol=1e-12)


def test_reduce_zero_inputs():
    dims = Dimensions(n_q=1, n_c=1, m=1, n_yq=1, n_yc=1)
    a = np.zeros((3, 3))
    a[:2, 2] = [0.7, -1.3]  # free quantum-classical coupling
    sys = StandardSystem(dims, a, np.zeros((3, 2)),
                         np.zeros((3, 3)), np.vstack([np.eye(2), np.zeros((1, 2))]))
    aug = augment(sys)
    red = reduce(aug, diag_j(1))
    assert np.count_nonzero(aug.b_tilde) == 0
    assert np.count_nonzero(red.c_bar) == 0


def test_augment_rejects_inconsistent_coupling():
    # break the quantum rows of the non-demolition condition so that no
    # auxiliary input matrix can reproduce c_qc: with d_q = 0 the input
    # fails the pairing precondition first
    dims = Dimensions(n_q=1, n_c=1, m=1, n_yq=1, n_yc=0)
    a = np.zeros((3, 3))
    b = np.vstack([np.eye(2), np.zeros((1, 2))])
    c = np.zeros((2, 3))
    c[:, 2] = [1.0, 2.0]
    d = np.vstack([np.zeros((1, 2)), np.zeros((1, 2))])  # d_q theta_w d_q^T = 0
    sys = StandardSystem(dims, a, b, c, d)
    with pytest.raises(ValueError, match="^d_q does not satisfy the quadrature pairing "
                                         r"precondition \(residual 1\.000e\+00\)$"):
        augment(sys)


def test_augmented_pair_conditions_hold():
    for i, dims in enumerate(grid_sample(30)):
        sys = generate_realizable(dims, seed=2000 + i)
        st = sys.structure
        aug = augment(sys)
        scale = 1 + np.linalg.norm(aug.b_tilde) ** 2 + np.linalg.norm(aug.a_tilde)
        state = (aug.a_tilde @ aug.theta_tilde + aug.theta_tilde @ aug.a_tilde.T
                 + aug.b_tilde @ st.theta_w @ aug.b_tilde.T)
        assert np.linalg.norm(state) <= 1e-8 * scale
        coupling = (aug.b_tilde @ st.theta_w @ aug.d_tilde.T
                    + aug.theta_tilde @ aug.c_tilde.T)
        assert np.linalg.norm(coupling) <= 1e-8 * scale
        assert np.array_equal(aug.a_tilde[:dims.n, :dims.n], sys.a)
        assert reduced_report(sys, aug).verdict


def test_relation_residuals_method_matches_relations():
    # the method is the one copy the CLI reports; the helper above is an
    # independent transcription of the same three relations
    names = ["output-coupling", "auxiliary-skew", "auxiliary-closure"]
    systems = [mixed_reference()] + [generate_realizable(dims, seed=2100 + i)
                                     for i, dims in enumerate(grid_sample(12))]
    for sys in systems:
        aug = augment(sys)
        got = aug.relation_residuals(sys)
        assert list(got) == names
        assert list(got.values()) == relation_residuals(sys, aug)
        assert all(type(v) is float for v in got.values())
        # a broken auxiliary block shows up in its relation only
        bent = dataclasses.replace(aug, a_dprime=aug.a_dprime + 1e-3)
        assert list(bent.relation_residuals(sys).values()) == relation_residuals(sys, bent)
        if sys.dims.n_c:
            assert bent.relation_residuals(sys)["auxiliary-closure"] > 1e-4


def test_augment_overflow_raises_without_warning():
    # pytest turns an escaping RuntimeWarning into an error as well
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="augmentation overflowed"):
            augment(scaled_generated(1e160))


def test_relation_residual_overflow_is_inf_without_warning():
    # the blocks stay finite, but the norm of the auxiliary-skew residual
    # (entries near 1e264) overflows its sum of squares
    sys = scaled_generated(1e140)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        aug = augment(sys)
        got = aug.relation_residuals(sys)
    assert np.isfinite(aug.a_tilde).all() and np.isfinite(aug.b_tilde).all()
    assert got["auxiliary-skew"] == np.inf
    assert np.isfinite(got["output-coupling"])


# ---------------------------------------------------------------------------
# the closed-form blocks against the dense construction


def augment_dense_reference(sys, b_prime):
    """The construction with S, theta_w, theta_nq and theta_n as dense factors.

    b_prime is given: augment's QR solve for it is compared with the lstsq
    oracle separately, within round-off.
    """
    st = sys.structure
    n, n_c = sys.dims.n, sys.dims.n_c
    th_w = st.theta_w
    s = selector(n, n_c)
    k_skew = b_prime @ th_w @ b_prime.T
    a_prime_q = (b_prime @ th_w @ sys.b_q.T - sys.a_qc.T) @ st.theta_nq
    a_prime = np.hstack([a_prime_q, -k_skew / 2.0])
    a_dprime = (a_prime @ st.theta_n - s.T @ sys.a.T + b_prime @ th_w @ sys.b.T) @ s
    return AugmentedSystem(
        a_tilde=np.block([[sys.a, np.zeros((n, n_c))], [a_prime, a_dprime]]),
        b_tilde=np.vstack([sys.b, b_prime]),
        c_tilde=np.hstack([sys.c_q, np.zeros((2 * sys.dims.n_yq, n_c))]),
        d_tilde=sys.d_q.copy(),
        theta_tilde=np.block([[st.theta_n, s], [-s.T, np.zeros((n_c, n_c))]]),
        a_prime=a_prime, a_dprime=a_dprime, b_prime=b_prime)


def byte_identity_dimensions():
    # every count 0-2 and m 1-3, so n_c = 0, n_q = 0 and n_yq = 0 all occur;
    # the last record is large enough for the index form of every theta product
    # (more than 2**16 multiply-adds each)
    for n_q, n_c, n_yc, m in itertools.product(range(3), range(3), range(3), range(1, 4)):
        for n_yq in range(min(2, m) + 1):
            yield Dimensions(n_q, n_c, m, n_yq, n_yc)
    yield Dimensions(n_q=21, n_c=40, m=40, n_yq=6, n_yc=8)


def test_augment_is_bitwise_the_dense_construction():
    names = [f.name for f in dataclasses.fields(AugmentedSystem)]
    checked = 0
    for dims in byte_identity_dimensions():
        for seed in range(3):
            sys = generate_realizable(dims, seed)
            b_prime = augment_module._auxiliary_input(sys.d_q, sys.c_qc, DEFAULT_TOL)
            got, want = augment(sys), augment_dense_reference(sys, b_prime)
            for name in names:
                g, w = getattr(got, name), getattr(want, name)
                assert g.shape == w.shape and g.tobytes() == w.tobytes(), (dims, seed, name)
                checked += 1
    assert checked == 8 * 3 * 217


# ---------------------------------------------------------------------------
# b_prime from the QR of theta_w d_q^T, behind the pairing precondition


def test_qr_b_prime_matches_the_svd_solve():
    # augment's b_prime, and the same solve on a perturbed right-hand side,
    # which stays consistent because theta_w d_q^T has full column rank
    checked = 0
    for dims in byte_identity_dimensions():
        for seed in range(3):
            sys = generate_realizable(dims, seed)
            a = diag_j(dims.m) @ sys.d_q.T
            noise = np.random.default_rng(seed).standard_normal(sys.c_qc.shape)
            perturbed = sys.c_qc + noise
            for got, c_qc in ((augment(sys).b_prime, sys.c_qc),
                              (augment_module._auxiliary_input(sys.d_q, perturbed, DEFAULT_TOL),
                               perturbed)):
                want = minnorm_right_solve(a, c_qc.T)
                assert got.shape == want.shape
                assert np.abs(got - want).max(initial=0.0) <= 1e-12 * (
                    1.0 + np.abs(got).max(initial=0.0)), (dims, seed)
                checked += 1
    assert checked == 2 * 3 * 217


def test_rank_deficient_d_q_fails_the_pairing_precondition():
    # d_q = 0 and c_qc = 0: the equation is consistent (b_prime = 0 solves
    # it), but d_q theta_w d_q^T = 0 misses diag_j by 1, and augment raises
    # the message symplectic_complete raises on the same rows
    dims = Dimensions(n_q=1, n_c=1, m=1, n_yq=1, n_yc=0)
    b = np.vstack([np.eye(2), np.zeros((1, 2))])
    sys = StandardSystem(dims, np.zeros((3, 3)), b, np.zeros((2, 3)), np.zeros((2, 2)))
    with pytest.raises(ValueError) as info:
        symplectic_complete(sys.d_q)
    with pytest.raises(ValueError) as same:
        augment(sys)
    assert str(same.value) == str(info.value) == (
        "d_q does not satisfy the quadrature pairing precondition (residual 1.000e+00)")


def test_singular_r1_past_the_precondition_names_the_solve():
    # d_q = diag(1e10, 0) misses diag_j by 1, below the threshold
    # tol max|d_q|^2 2m = 2e11; the QR factor r1 is then exactly singular
    dims = Dimensions(n_q=1, n_c=1, m=1, n_yq=1, n_yc=0)
    b = np.vstack([np.eye(2), np.zeros((1, 2))])
    c = np.zeros((2, 3))
    c[:, 2] = [1.0, 2.0]
    sys = StandardSystem(dims, np.zeros((3, 3)), b, c, np.diag([1e10, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^augment: the solve for b_prime against "
                                             r"theta_w d_q\^T is singular"):
            augment(sys)
