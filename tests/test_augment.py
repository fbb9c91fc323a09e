import dataclasses

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
)
from refsystems import MIXED_DIMS, damped_cavity, grid_sample, mixed_reference


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
    # auxiliary input matrix can reproduce c_qc
    dims = Dimensions(n_q=1, n_c=1, m=1, n_yq=1, n_yc=0)
    a = np.zeros((3, 3))
    b = np.vstack([np.eye(2), np.zeros((1, 2))])
    c = np.zeros((2, 3))
    c[:, 2] = [1.0, 2.0]
    d = np.vstack([np.zeros((1, 2)), np.zeros((1, 2))])  # d_q theta_w d_q^T = 0
    sys = StandardSystem(dims, a, b, c, d)
    with pytest.raises(ValueError, match="inconsistent"):
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
