import numpy as np
import pytest

from qcsynth import (
    Dimensions,
    GeneralSystem,
    QuantumOnlySystem,
    StandardSystem,
    diag_j,
    generate_realizable,
    make_structure,
    validate,
)
from qcsynth.sysmodel import J2, _maxabs
from refsystems import MIXED_DIMS, mixed_reference

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_diag_j_blocks():
    assert diag_j(0).shape == (0, 0)
    assert np.array_equal(diag_j(1), J)
    three = diag_j(3)
    assert three.shape == (6, 6)
    for k in range(3):
        assert np.array_equal(three[2 * k:2 * k + 2, 2 * k:2 * k + 2], J)
    assert np.count_nonzero(three) == 6


def test_diag_j_bitwise_kron():
    # including the -0.0 entries that kron leaves in the off-diagonal blocks
    for k in range(65):
        assert diag_j(k).tobytes() == np.kron(np.eye(k), J2).tobytes()


def test_maxabs_nan_and_empty():
    assert np.isnan(_maxabs(np.array([[1.0, np.nan], [-2.0, 0.0]])))
    assert _maxabs(np.zeros((0, 3))) == 0.0
    assert _maxabs(np.array([[1.0, -3.0]])) == 3.0


def test_dimensions_derived_counts():
    d = Dimensions(n_q=2, n_c=3, m=4, n_yq=1, n_yc=2)
    assert d.n == 7
    assert d.n_y == 4
    assert d.input_width == 8
    assert d.n_w1 == 0 and d.n_w2 == 4


def test_dimensions_rejects_bad_values():
    with pytest.raises(ValueError):
        Dimensions(n_q=-1, n_c=0, m=1, n_yq=0, n_yc=1)
    with pytest.raises(ValueError):
        Dimensions(n_q=1, n_c=0, m=1, n_yq=2, n_yc=0)  # n_yq > m
    with pytest.raises(ValueError):
        Dimensions(n_q=1, n_c=0, m=1, n_yq=1, n_yc=0, n_w1=2)
    with pytest.raises(ValueError):
        Dimensions(n_q=1.5, n_c=0, m=1, n_yq=1, n_yc=0)


def test_structure_matrices():
    st = make_structure(MIXED_DIMS)
    assert np.array_equal(st.theta_n[:2, :2], J)
    assert np.count_nonzero(st.theta_n[2:, :]) == 0
    assert np.count_nonzero(st.theta_n[:, 2:]) == 0
    assert np.array_equal(st.theta_w, diag_j(3))
    assert np.array_equal(st.f_w.real, np.eye(6))
    assert np.array_equal(st.f_w.imag, diag_j(3))
    assert np.array_equal(st.theta_nq, J)
    assert np.array_equal(st.theta_yq, J)
    assert st.theta_y_target.shape == (3, 3)
    assert st.theta_y_target[2, 2] == 0.0
    f_y = st.f_y_target
    assert np.array_equal(f_y.real, np.eye(3))
    assert np.array_equal(f_y.imag, st.theta_y_target)


def test_standard_partition_blocks():
    d = Dimensions(n_q=1, n_c=2, m=2, n_yq=1, n_yc=1)
    a = np.arange(16.0).reshape(4, 4)
    b = np.arange(16.0, 32.0).reshape(4, 4)
    c = np.arange(12.0).reshape(3, 4)
    dd = np.arange(12.0, 24.0).reshape(3, 4)
    sys = StandardSystem(d, a, b, c, dd)
    assert np.array_equal(sys.a_qq, a[:2, :2])
    assert np.array_equal(sys.a_qc, a[:2, 2:])
    assert np.array_equal(sys.a_cq, a[2:, :2])
    assert np.array_equal(sys.a_cc, a[2:, 2:])
    assert np.array_equal(sys.b_q, b[:2, :])
    assert np.array_equal(sys.b_c, b[2:, :])
    assert np.array_equal(sys.c_qq, c[:2, :2])
    assert np.array_equal(sys.c_qc, c[:2, 2:])
    assert np.array_equal(sys.c_cq, c[2:, :2])
    assert np.array_equal(sys.c_cc, c[2:, 2:])
    assert np.array_equal(sys.c_q, c[:2, :])
    assert np.array_equal(sys.d_q, dd[:2, :])
    assert np.array_equal(sys.d_c, dd[2:, :])


def test_matrices_are_frozen():
    sys = mixed_reference()
    with pytest.raises(ValueError):
        sys.a[0, 0] = 0.0


def test_structure_is_cached():
    sys = mixed_reference()
    assert sys.structure is sys.structure
    assert np.array_equal(sys.structure.theta_n, make_structure(sys.dims).theta_n)


def test_general_skew_parts():
    rng = np.random.default_rng(3)
    f_v = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    f_v = f_v @ f_v.conj().T
    g = GeneralSystem(np.zeros((2, 2)), np.zeros((2, 4)), np.zeros((1, 2)),
                      np.zeros((1, 4)), np.array([[0.0, 1.0], [-1.0, 0.0]]),
                      f_v, np.zeros((1, 1)))
    assert g.n == 2 and g.m == 4 and g.n_y == 1
    want = np.real((f_v - f_v.T) / 2j)
    assert np.allclose(g.theta_v, want)
    assert np.allclose(g.theta_v, -g.theta_v.T)
    assert g.theta_y.shape == (1, 1)


def test_quantum_only_counts():
    q = QuantumOnlySystem(np.zeros((4, 4)), np.zeros((4, 6)),
                          np.zeros((2, 4)), np.hstack([np.eye(2), np.zeros((2, 4))]))
    assert q.n_q == 2 and q.m == 3 and q.n_z == 1
    assert validate(q) == []


def test_validate_clean_reference():
    assert validate(mixed_reference()) == []


def test_validate_reports_shapes():
    sys = StandardSystem(MIXED_DIMS, np.zeros((3, 3)), np.zeros((3, 5)),
                         np.zeros((3, 3)), np.zeros((3, 6)))
    bad = validate(sys)
    assert len(bad) == 1
    assert "b" in bad[0] and "(3, 6)" in bad[0] and "(3, 5)" in bad[0]


def test_validate_general_structure():
    base = dict(a_g=np.zeros((2, 2)), b_g=np.zeros((2, 2)), c_g=np.zeros((1, 2)),
                d_g=np.zeros((1, 2)), f_y=np.zeros((1, 1)))
    skewed = GeneralSystem(big_theta_n=np.eye(2), f_v=np.eye(2), **base)
    assert any("skew" in v for v in validate(skewed))
    indef = GeneralSystem(big_theta_n=np.zeros((2, 2)), f_v=-np.eye(2), **base)
    assert any("f_v" in v for v in validate(indef))


def test_validate_quantum_feedthrough_form():
    eye = np.eye(2)
    ok = QuantumOnlySystem(np.zeros((2, 2)), np.zeros((2, 2)), eye, eye)
    assert validate(ok) == []
    bad = QuantumOnlySystem(np.zeros((2, 2)), np.zeros((2, 2)), eye, 2 * eye)
    assert any("identity" in v for v in validate(bad))
    odd = QuantumOnlySystem(np.zeros((3, 3)), np.zeros((3, 2)), eye,
                            np.hstack([eye, np.zeros((2, 2))]))
    assert any("even" in v for v in validate(odd))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_rejects_nonfinite_entries(bad):
    ref = mixed_reference()
    for name in ("a", "b", "c", "d"):
        mats = {k: getattr(ref, k).copy() for k in ("a", "b", "c", "d")}
        mats[name][0, 0] = bad
        assert validate(StandardSystem(ref.dims, **mats)) == [
            f"{name}: entries must be finite"]
        eye = np.eye(2)
        quantum = dict(a=np.zeros((2, 2)), b=np.zeros((2, 2)), c=eye.copy(), d=eye.copy())
        quantum[name][1, 0] = bad
        assert validate(QuantumOnlySystem(**quantum)) == [f"{name}: entries must be finite"]
    general = dict(a_g=np.zeros((2, 2)), b_g=np.zeros((2, 2)), c_g=np.zeros((1, 2)),
                   d_g=np.zeros((1, 2)), big_theta_n=diag_j(1),
                   f_v=np.eye(2) + 1j * diag_j(1), f_y=np.zeros((1, 1), complex))
    for name in general:
        mats = {k: np.array(v) for k, v in general.items()}
        if np.iscomplexobj(mats[name]):
            mats[name][0, -1] = complex(1.0, bad)   # imaginary part only
        else:
            mats[name][0, 0] = bad
        assert validate(GeneralSystem(**mats)) == [f"{name}: entries must be finite"]


def test_validate_scales_structure_tolerance():
    # every quantum output pair makes f_y singular; at scale its zero
    # eigenvalues come out as -eps * |f_y|
    model = generate_realizable(Dimensions(2, 2, 4, 2, 2), 0)
    st = model.structure
    d = 1e4 * model.d
    f_y = d @ st.f_w @ d.T
    general = GeneralSystem(model.a, model.b, model.c, d, st.theta_n, st.f_w,
                            (f_y + f_y.conj().T) / 2)
    assert np.linalg.eigvalsh(general.f_y).min() < -1e-10
    assert validate(general) == []


def test_validate_rejects_indefinite_ito_matrix_at_scale():
    f_v = 1e6 * (np.eye(2) + 1j * diag_j(1)) - 1e-2 * np.eye(2)
    general = GeneralSystem(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((1, 2)),
                            np.zeros((1, 2)), diag_j(1), f_v, np.zeros((1, 1)))
    problems = validate(general)
    assert len(problems) == 1
    assert problems[0].startswith("f_v: not nonnegative definite (eigenvalue -1.0000")


@pytest.mark.parametrize("name", ["f_v", "f_y"])
def test_validate_psd_boundary_is_the_bound(name):
    # eigenvalues 1e3, 1 and lo = -k bound in a random unitary basis, where
    # bound = 1e-10 max|M|
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    singular = (u * [1e3, 1.0, 0.0]) @ u.conj().T
    bound = 1e-10 * np.abs(singular).max()
    for k, passes in ((0.5, True), (2.0, False)):
        lo = -k * bound
        mat = singular + lo * np.outer(u[:, 2], u[:, 2].conj())
        mat = (mat + mat.conj().T) / 2
        general = GeneralSystem(np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((3, 0)),
                                np.zeros((3, 3)), np.zeros((0, 0)),
                                mat if name == "f_v" else np.eye(3),
                                mat if name == "f_y" else np.eye(3))
        problems = validate(general)
        if passes:
            assert problems == []
        else:
            assert len(problems) == 1
            prefix = f"{name}: not nonnegative definite (eigenvalue "
            assert problems[0].startswith(prefix)
            assert float(problems[0][len(prefix):-1]) == pytest.approx(lo, rel=1e-4)


def test_validate_psd_verdict_is_the_spectrum_rule():
    # random Hermitian matrices at scales 1 to 1e6 whose smallest eigenvalue
    # is -t bound, t in [-4, 4]; only t within 1e-3 of 1 is left out, a band
    # far wider than the O(eps |M|) round-off of either test
    rng = np.random.default_rng(23)
    for _ in range(200):
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        top = 10.0 ** rng.uniform(0, 6)
        singular = (u * [top, top * rng.uniform(), top * rng.uniform(), 0.0]) @ u.conj().T
        t = rng.uniform(-4, 4)
        if abs(t - 1) < 1e-3:
            continue
        mat = singular - t * 1e-10 * np.abs(singular).max() * np.outer(u[:, 3], u[:, 3].conj())
        mat = (mat + mat.conj().T) / 2
        general = GeneralSystem(np.zeros((0, 0)), np.zeros((0, 4)), np.zeros((0, 0)),
                                np.zeros((0, 4)), np.zeros((0, 0)), mat, np.zeros((0, 0)))
        rule = np.linalg.eigvalsh(mat).min() >= -1e-10 * max(1.0, np.abs(mat).max())
        assert (validate(general) == []) == rule == (t < 1)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_validate_passes_singular_vacuum_ito_matrices_at_scale(k):
    vacuum = 1e8 * (np.eye(2 * k) + 1j * diag_j(k))
    general = GeneralSystem(np.zeros((2, 2)), np.zeros((2, 2 * k)), np.zeros((2 * k, 2)),
                            np.zeros((2 * k, 2 * k)), diag_j(1), vacuum, vacuum)
    assert validate(general) == []


def test_validate_needs_no_spectrum_for_a_valid_model(monkeypatch):
    model = generate_realizable(Dimensions(2, 2, 4, 2, 2), 0)
    st = model.structure
    general = GeneralSystem(model.a, model.b, model.c, model.d, st.theta_n, st.f_w,
                            model.d @ st.f_w @ model.d.T)

    def no_spectrum(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_spectrum)
    assert validate(general) == []


def test_validate_reports_a_vector_where_a_matrix_belongs():
    ref = mixed_reference()
    eye = np.eye(2)
    cases = [
        (StandardSystem(ref.dims, ref.a, ref.b[0], ref.c, ref.d), "b", (6,)),
        (GeneralSystem(np.zeros((2, 2)), np.zeros(2), np.zeros((1, 2)), np.zeros((1, 2)),
                       diag_j(1), np.eye(2), np.zeros((1, 1))), "b_g", (2,)),
        (QuantumOnlySystem(np.zeros((2, 2)), np.zeros(2), eye, eye), "b", (2,)),
    ]
    for model, name, shape in cases:
        assert validate(model) == [f"{name}: expected a matrix, got shape {shape}"]


def test_validate_rejects_an_unknown_type():
    with pytest.raises(TypeError, match="unsupported system type object"):
        validate(object())
