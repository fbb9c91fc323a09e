import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

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
from qcsynth import sysmodel
from qcsynth.sysmodel import J2, _fro, _j_times, _maxabs, _times_j
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


@pytest.mark.parametrize("flag", [True, False, np.True_], ids=repr)
def test_dimensions_reject_booleans(flag):
    # as the file loader does: a bool is an int to isinstance, not a count
    for name in ("n_q", "n_c", "m", "n_yq", "n_yc", "n_w1"):
        counts = {**dict(n_q=1, n_c=1, m=1, n_yq=0, n_yc=0, n_w1=0), name: flag}
        with pytest.raises(ValueError) as info:
            Dimensions(**counts)
        assert str(info.value) == f"{name} must be a nonnegative integer, got {flag!r}"


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


# Dimensions with each block empty in turn: states (n_q, n_c), outputs
# (n_yq, n_yc) and inputs (m).
EMPTY_BLOCK_DIMS = [
    Dimensions(1, 2, 2, 1, 1), Dimensions(0, 3, 2, 0, 2), Dimensions(2, 0, 3, 1, 2),
    Dimensions(2, 1, 2, 0, 1), Dimensions(1, 1, 2, 2, 0), Dimensions(1, 2, 0, 0, 1),
]


def arange_system(dims):
    sizes = [(dims.n, dims.n), (dims.n, 2 * dims.m), (dims.n_y, dims.n), (dims.n_y, 2 * dims.m)]
    return StandardSystem(dims, *(np.arange(r * c, dtype=float).reshape(r, c) + 100 * i
                                  for i, (r, c) in enumerate(sizes)))


def explicit_views(sys):
    """view name -> (its owner, its parent matrix, the explicit slice)."""
    a, b, c, d = sys.a, sys.b, sys.c, sys.d
    st = sys.structure
    q, yq = 2 * sys.dims.n_q, 2 * sys.dims.n_yq
    return {
        "a_qq": (sys, a, a[:q, :q]), "a_qc": (sys, a, a[:q, q:]),
        "a_cq": (sys, a, a[q:, :q]), "a_cc": (sys, a, a[q:, q:]),
        "b_q": (sys, b, b[:q, :]), "b_c": (sys, b, b[q:, :]),
        "c_qq": (sys, c, c[:yq, :q]), "c_qc": (sys, c, c[:yq, q:]),
        "c_cq": (sys, c, c[yq:, :q]), "c_cc": (sys, c, c[yq:, q:]),
        "c_q": (sys, c, c[:yq, :]), "d_q": (sys, d, d[:yq, :]), "d_c": (sys, d, d[yq:, :]),
        "theta_nq": (st, st.theta_n, st.theta_n[:q, :q]),
        "theta_yq": (st, st.theta_y_target, st.theta_y_target[:yq, :yq]),
    }


@pytest.mark.parametrize("dims", EMPTY_BLOCK_DIMS, ids=repr)
def test_partition_views_are_read_only_views_of_the_explicit_slice(dims):
    views = explicit_views(arange_system(dims))
    assert len(views) == 15
    for name, (owner, parent, want) in views.items():
        got = getattr(owner, name)
        assert got.shape == want.shape and np.array_equal(got, want), name
        assert not got.flags.owndata and not got.flags.writeable, name
        assert got.size == 0 or np.shares_memory(got, parent), name


def test_partition_views_keep_their_docstrings():
    assert StandardSystem.c_q.__doc__ == "Quantum output rows, all state columns."
    assert sysmodel.StructureMatrices.theta_nq.__doc__ == (
        "Quantum block of theta_n (the invertible 2n_q x 2n_q corner).")


@pytest.mark.parametrize("dims", EMPTY_BLOCK_DIMS, ids=repr)
def test_partition_map_stays_out_of_the_dimensions_value(dims):
    from dataclasses import fields
    from qcsynth.cli import _parse_dims, system_to_obj
    fresh = Dimensions(dims.n_q, dims.n_c, dims.m, dims.n_yq, dims.n_yc)
    sys = arange_system(dims)
    assert sys.a_qc.shape == (2 * dims.n_q, dims.n_c)
    assert sys.structure.theta_yq.shape == (2 * dims.n_yq, 2 * dims.n_yq)
    names = ["n_q", "n_c", "m", "n_yq", "n_yc", "n_w1"]
    assert [f.name for f in fields(sys.dims)] == names
    assert sys.dims == fresh and hash(sys.dims) == hash(fresh) and repr(sys.dims) == repr(fresh)
    record = system_to_obj(sys)["dims"]
    assert list(record) == names
    assert _parse_dims(record, "dims") == fresh


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


def test_general_skew_parts_halve_before_they_subtract():
    # F - F^T overflows for F = 1e308 (I + iJ); F / 2 - F^T / 2 does not
    f_v = 1e308 * (np.eye(2) + 1j * diag_j(1))
    g = GeneralSystem(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((0, 2)),
                      np.zeros((0, 2)), diag_j(1), f_v, np.zeros((0, 0), complex))
    assert np.array_equal(g.theta_v, 1e308 * diag_j(1))


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


# ---------------------------------------------------------------------------
# _fro: the Frobenius kernel of every residual and threshold


def same_bits(got, want):
    return type(got) is float and (got.hex() == want.hex()
                                   or (math.isnan(got) and math.isnan(want)))


def numpy_norm(a):
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(a))


MAGNITUDES = hst.floats(1e-300, 1e300)
ENTRIES = hst.one_of(MAGNITUDES, MAGNITUDES.map(lambda x: -x), hst.just(0.0),
                     hst.sampled_from((math.inf, -math.inf, math.nan)))


@hst.composite
def real_arrays(draw):
    """A float64 array with 0 to 6 entries per axis, as itself, transposed
    or as a stepped slice of a larger array."""
    shape = tuple(draw(hst.lists(hst.integers(0, 6), max_size=3)))
    view = draw(hst.sampled_from(("whole", "transposed", "stepped")))
    steps = tuple(draw(hst.sampled_from((1, 2, 3, -1, -2))) for _ in shape)
    base_shape = tuple(k * abs(s) for k, s in zip(shape, steps)) if view == "stepped" else shape
    size = math.prod(base_shape)
    mode = draw(hst.sampled_from(("mixed", "comparable", "constant")))
    if mode == "mixed":
        values = draw(hst.lists(ENTRIES, min_size=size, max_size=size))
    elif mode == "comparable":
        # comparable squares, so that the order of summation shows in the bits
        rng = np.random.default_rng(draw(hst.integers(0, 2**16)))
        values = draw(MAGNITUDES) * rng.uniform(-9.0, 9.0, size)
    else:
        # one entry throughout: from 1e154 up the squares overflow
        values = [draw(ENTRIES)] * size
    a = np.array(values, dtype=float).reshape(base_shape)
    if view == "transposed":
        return a.T
    if view == "stepped":
        return a[tuple(slice(None, None, s) for s in steps)]
    return a


@settings(max_examples=300, deadline=None, derandomize=True)
@given(real_arrays())
def test_fro_is_numpy_norm_bit_for_bit(a):
    # no np.errstate around _fro: an overflow must not warn
    assert same_bits(_fro(a), numpy_norm(a))


@pytest.mark.parametrize("a, want", [
    (np.full((3, 4), 1e200), math.inf),
    (np.full((6, 6), 1e160)[::2, ::-3].T, math.inf),
    (np.array([1e154, 1e154, -1e154]), math.inf),
    (np.array([math.inf, 1.0]), math.inf),
    (np.array([[-math.inf], [0.0]]), math.inf),
    (np.array([math.nan, math.inf]), math.nan),
    (np.full((7,), 1e-300), 0.0),
    (np.zeros((0, 3)), 0.0),
    (np.array(-3.0), 3.0),
])
def test_fro_overflow_and_nonfinite_entries(a, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _fro(a)
    assert same_bits(got, want)
    assert same_bits(got, numpy_norm(a))


# ---------------------------------------------------------------------------
# _times_j and _j_times: diag_j applied by index, bit for bit the dense product

FINITE = hst.one_of(hst.floats(allow_nan=False, allow_infinity=False),
                    hst.sampled_from((0.0, -0.0)))


@hst.composite
def pair_arrays(draw):
    """A finite array whose last axis holds 2k entries (k = 0 to 4), with 0
    to 2 leading axes of 0 to 4 entries, as itself or as its last two axes
    swapped; zeros of both signs are common."""
    k = draw(hst.integers(0, 4))
    lead = tuple(draw(hst.lists(hst.integers(0, 4), max_size=2)))
    shape = lead + (2 * k,)
    values = draw(hst.lists(FINITE, min_size=math.prod(shape), max_size=math.prod(shape)))
    a = np.array(values, dtype=float).reshape(shape)
    if len(shape) > 1 and draw(hst.booleans()):
        a = np.ascontiguousarray(np.swapaxes(a, -1, -2)).swapaxes(-1, -2)
    return k, a


def assert_kernels_match_dense(k, x):
    # x @ diag_j(k), and diag_j(k) @ y for y with the 2k entries on axis -2
    got = _times_j(x)
    assert got.flags.c_contiguous and got.tobytes() == (x @ diag_j(k)).tobytes()
    if x.ndim > 1:
        y = np.swapaxes(x, -1, -2)
        got = _j_times(y)
        assert got.flags.c_contiguous and got.tobytes() == (diag_j(k) @ y).tobytes()


# dense_work 0 sends every input through the index form; the default
# sends these small ones through the dense product with the cached diag_j
DENSE_WORK = pytest.mark.parametrize("dense_work", [0, sysmodel._DENSE_J_WORK],
                                     ids=["index", "default"])


@DENSE_WORK
@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=pair_arrays())
def test_j_kernels_are_the_dense_product_bit_for_bit(dense_work, case):
    with mock.patch.object(sysmodel, "_DENSE_J_WORK", dense_work):
        assert_kernels_match_dense(*case)


@DENSE_WORK
@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 6), (2, 3, 8), (2, 0, 4),
                                   (40, 64), (3, 24, 40)], ids=str)
def test_j_kernels_on_empty_stacked_and_large_shapes(dense_work, shape):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(shape)
    x[x < -0.5] = -0.0
    x[x > 0.5] = 0.0
    with mock.patch.object(sysmodel, "_DENSE_J_WORK", dense_work):
        assert_kernels_match_dense(shape[-1] // 2, x)
