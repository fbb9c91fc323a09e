import re
import warnings

import numpy as np
import pytest

from qcsynth import (
    Dimensions,
    GeneralSystem,
    StandardSystem,
    TransformWitness,
    check_general,
    check_standard,
    diag_j,
    generate_realizable,
    to_standard,
    transfer_equiv_check,
)
from qcsynth.transform import _clear_of_eigenvalues, _transfer_stack
from oracles import transfer_eval
from refsystems import damped_cavity, grid_sample, mixed_reference


def as_general(sys):
    st = sys.structure
    return GeneralSystem(sys.a, sys.b, sys.c, sys.d, st.theta_n, st.f_w,
                         sys.d @ st.f_w @ sys.d.T)


def witness_defects(g, tw):
    """Max entry error over the six defining identities of a witness."""
    std = tw.standard
    st = std.structure
    p_n, w, p_y = tw.p_n, tw.w, tw.p_y
    checks = [
        std.a @ p_n - p_n @ g.a_g,
        std.b - p_n @ g.b_g @ w,
        std.c @ p_n - p_y @ g.c_g,
        std.d - p_y @ g.d_g @ w,
        st.theta_n - p_n @ g.big_theta_n @ p_n.T,
        st.theta_y_target - p_y @ g.theta_y @ p_y.T,
    ]
    return max(np.abs(m).max() if m.size else 0.0 for m in checks)


# ------------------------------------------------- the batched transfer solve

def stack_at(a, b, c, d, s):
    """The transfer function at one point as transfer_equiv_check evaluates it."""
    return _transfer_stack(a, b, c, d, [complex(s)])[0]


def test_transfer_stack_diagonal_resolvent():
    got = stack_at(np.zeros((2, 2)), np.eye(2), np.eye(2), np.zeros((2, 2)), 2.0)
    assert np.allclose(got, 0.5 * np.eye(2), atol=1e-14)


def test_transfer_stack_cavity():
    sys = damped_cavity()
    got = stack_at(sys.a, sys.b, sys.c, sys.d, 1.0)
    assert np.allclose(got, np.eye(2) / 3.0, atol=1e-14)


def adjugate3(m):
    out = np.empty((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
            out[j, i] = (-1) ** (i + j) * (minor[0, 0] * minor[1, 1]
                                           - minor[0, 1] * minor[1, 0])
    return out


def test_transfer_stack_reference_adjugate():
    sys = mixed_reference()
    s = 1.0 + 0.0j
    resolvent_arg = s * np.eye(3) - sys.a
    adj = adjugate3(resolvent_arg)
    det = sum(resolvent_arg[0, j] * adj[j, 0] for j in range(3))
    want = sys.c @ (adj / det) @ sys.b + sys.d
    got = stack_at(sys.a, sys.b, sys.c, sys.d, s)
    assert np.allclose(got, want, atol=1e-10)


def test_transfer_stack_rejects_eigenvalue():
    with pytest.raises(ValueError, match="eigenvalue"):
        stack_at(2.0 * np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)), 2.0)


def test_transfer_stack_stateless():
    d = np.array([[1.0, 2.0]])
    got = stack_at(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((1, 0)), d, 3.0)
    assert got.dtype == complex
    assert np.array_equal(got.real, d)


# ------------------------------------------------------------------ to_standard

def test_to_standard_fixed_point():
    g = as_general(damped_cavity())
    tw = to_standard(g)
    dims = tw.standard.dims
    assert (dims.n_q, dims.n_c, dims.m, dims.n_yq, dims.n_yc) == (1, 0, 2, 1, 0)
    assert witness_defects(g, tw) < 1e-10
    assert transfer_equiv_check(g, tw) < 1e-8
    assert check_standard(tw.standard).verdict


def test_to_standard_scaled_commutations():
    # scalar congruence: theta = 2J halves through p_n = I/sqrt(2), which
    # commutes with everything, so A survives and B shrinks by sqrt(2)
    a = np.array([[-1.0, 0.5], [0.0, -2.0]])
    b = np.array([[1.0, 0.0], [0.0, 1.0]])
    f_v = np.eye(2) + 1j * diag_j(1)
    g = GeneralSystem(a, b, np.eye(2), np.zeros((2, 2)),
                      2.0 * diag_j(1), f_v, np.zeros((2, 2)))
    tw = to_standard(g)
    assert np.allclose(tw.p_n, np.eye(2) / np.sqrt(2.0), atol=1e-12)
    assert np.allclose(tw.standard.a, a, atol=1e-12)
    assert np.allclose(tw.standard.b, (b @ tw.w) / np.sqrt(2.0), atol=1e-12)
    assert witness_defects(g, tw) < 1e-10


def test_to_standard_rejects_invalid():
    g = GeneralSystem(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)),
                      np.zeros((1, 1)), np.eye(2), np.eye(1), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="invalid general-form"):
        to_standard(g)


def scaled_pull_back(**factors):
    """The seed-3 Dimensions(1, 1, 2, 1, 1) pull-back with some of its
    matrices (by GeneralSystem field name) multiplied by a factor."""
    g = as_general(generate_realizable(Dimensions(1, 1, 2, 1, 1), seed=3))
    return GeneralSystem(*(factors.get(f, 1.0) * getattr(g, f) for f in
                           ("a_g", "b_g", "c_g", "d_g", "big_theta_n", "f_v", "f_y")))


@pytest.mark.parametrize("factors, block", [
    # every matrix times 1e300: all four standard blocks overflow
    (dict.fromkeys(("a_g", "b_g", "c_g", "d_g", "big_theta_n", "f_v", "f_y"), 1e300), "a"),
    # f_v times 1e8 gives a w of about 1e4, which carries b_g and d_g past the float range
    ({"f_v": 1e8, "b_g": 1e306, "d_g": 1e306}, "b"),
    ({"f_v": 1e8, "d_g": 1e306}, "d"),
], ids=["all-1e300", "b-and-d", "d-only"])
def test_to_standard_names_the_first_non_finite_block(factors, block):
    g = scaled_pull_back(**factors)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            to_standard(g)
    assert str(info.value) == (f"to_standard: the standard-form {block} is not finite "
                               "(the conversion products overflowed)")


def conditioned_invertible(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.exp(0.3 * rng.standard_normal(n))


def pulled_back(sys, rng):
    """Hide a standard system behind random congruences and an input mix."""
    st = sys.structure
    n, n_y, width = sys.a.shape[0], sys.c.shape[0], sys.b.shape[1]
    q = conditioned_invertible(rng, n)
    q_y = conditioned_invertible(rng, n_y)
    o_mix, _ = np.linalg.qr(rng.standard_normal((width, width)))
    q_inv = np.linalg.inv(q)
    f_v = o_mix.T @ st.f_w @ o_mix
    d_g = q_y @ sys.d @ o_mix
    return GeneralSystem(q @ sys.a @ q_inv, q @ sys.b @ o_mix,
                         q_y @ sys.c @ q_inv, d_g,
                         q @ st.theta_n @ q.T, f_v, d_g @ f_v @ d_g.T)


def test_to_standard_round_trip():
    rng = np.random.default_rng(17)
    for i, dims in enumerate(grid_sample(12)):
        sys = generate_realizable(dims, seed=5000 + i)
        g = pulled_back(sys, rng)
        assert check_general(g).verdict
        tw = to_standard(g)
        scale = 1 + max(np.abs(g.a_g).max(), np.abs(g.b_g).max(),
                        np.abs(g.c_g).max(), np.abs(g.d_g).max())
        assert witness_defects(g, tw) < 1e-8 * scale
        assert transfer_equiv_check(g, tw) < 1e-8 * scale
        assert check_standard(tw.standard).verdict
        std = tw.standard
        assert std.a.shape[0] == g.n
        assert std.c.shape[0] == g.n_y
        assert std.b.shape[1] == 2 * g.m


def test_to_standard_verdicts_track_general():
    rng = np.random.default_rng(19)
    sys = generate_realizable(grid_sample(3)[1], seed=77)
    g = pulled_back(sys, rng)
    broken = GeneralSystem(g.a_g, g.b_g + 0.05, g.c_g, g.d_g,
                           g.big_theta_n, g.f_v, g.f_y)
    assert not check_general(broken).verdict
    assert not check_standard(to_standard(broken).standard).verdict


# ---------------------------------------------------------- transfer_equiv_check

def test_transfer_equiv_valid_witness_is_tight():
    g = as_general(damped_cavity())
    tw = to_standard(g)
    assert transfer_equiv_check(g, tw, sample_points=[2.0, 1 + 1j, -3j]) < 1e-12


def test_transfer_equiv_detects_corrupted_w():
    g = as_general(damped_cavity())
    tw = to_standard(g)
    bad = TransformWitness(tw.p_n, tw.w + 0.01, tw.p_y, tw.standard)
    assert transfer_equiv_check(g, bad) > 1e-3


def test_transfer_equiv_matches_per_point_loop():
    # the batched check against one solve per sample point; a corrupted
    # witness keeps the deviations O(1), so round-off is relative to them
    points = [1.0, 2.0 + 1.0j, -1.0 + 3.0j, 0.5 - 0.5j, 10.0]

    def xi(a, b, c, d, s):
        return c @ np.linalg.solve(s * np.eye(a.shape[0]) - a, b.astype(complex)) + d

    # the 48-state model is evaluated in batches of fewer than five points
    for sys in (mixed_reference(), generate_realizable(Dimensions(2, 2, 4, 1, 2), seed=3),
                generate_realizable(Dimensions(16, 16, 32, 16, 16), seed=3)):
        g = as_general(sys)
        tw = to_standard(g)
        bad = TransformWitness(tw.p_n, tw.w + 0.01, tw.p_y, tw.standard)
        std = bad.standard
        want = max(np.linalg.norm(xi(std.a, std.b, std.c, std.d, s)
                                  - bad.p_y @ xi(g.a_g, g.b_g, g.c_g, g.d_g, s) @ bad.w)
                   for s in points)
        assert transfer_equiv_check(g, bad, sample_points=points) == pytest.approx(want, rel=1e-12)
        assert transfer_equiv_check(g, bad, sample_points=[]) == 0.0


def test_transfer_equiv_shifts_off_eigenvalues():
    g = as_general(damped_cavity())
    tw = to_standard(g)
    # -0.5 is the double eigenvalue of A; the check must sidestep it
    assert transfer_equiv_check(g, tw, sample_points=[-0.5]) < 1e-10


@pytest.mark.parametrize("target", [None, 1.0 + 1e-6], ids=["shifted", "pole near a sample"])
def test_transfer_equiv_reads_a_shifted_standard_a(target):
    # the sample points clear the poles of a_g only: a broken witness whose
    # standard.a has moved, even next to a sample, still reads as a deviation
    g = as_general(generate_realizable(Dimensions(2, 2, 4, 2, 2), seed=3))
    tw = to_standard(g)
    std = tw.standard
    eigs = np.linalg.eigvals(std.a)
    shift = 0.5 if target is None else target - eigs[eigs.imag == 0].real.max()
    moved = StandardSystem(std.dims, std.a + shift * np.eye(std.dims.n), std.b, std.c, std.d)
    if target is not None:
        assert np.abs(np.linalg.eigvals(moved.a) - 1.0).min() < 1e-5
    deviation = transfer_equiv_check(g, TransformWitness(tw.p_n, tw.w, tw.p_y, moved))
    assert 1e-3 < deviation < np.inf


def test_transfer_equiv_raises_on_an_exact_pole_of_standard_a():
    # the sample points are not cleared of the poles of standard.a, so a
    # broken witness with an eigenvalue exactly on a sample cannot be read
    g = as_general(generate_realizable(Dimensions(2, 2, 4, 2, 2), seed=3))
    tw = to_standard(g)
    std = tw.standard
    assert np.abs(np.linalg.eigvals(g.a_g) - 1.0).min() > 0.1
    moved = StandardSystem(std.dims, np.diag(np.arange(1.0, std.dims.n + 1)), std.b, std.c,
                           std.d)
    with pytest.raises(ValueError, match="is an eigenvalue of the dynamics"):
        transfer_equiv_check(g, TransformWitness(tw.p_n, tw.w, tw.p_y, moved),
                             sample_points=[1.0])


def test_transfer_equiv_exact_witness_near_an_eigenvalue():
    # A 24-state model with a real eigenvalue 2.7e-4 from the sample point
    # 1: an exact witness must not read as a transfer mismatch there.
    sys = generate_realizable(Dimensions(8, 8, 16, 8, 8), seed=7)
    eigs = np.linalg.eigvals(sys.a)
    shift = 1.0 + 2.7e-4 - eigs[eigs.imag == 0].real.max()
    shifted = StandardSystem(sys.dims, sys.a + shift * np.eye(sys.dims.n), sys.b,
                             sys.c, sys.d)
    g = pulled_back(shifted, np.random.default_rng(7))
    assert np.abs(np.linalg.eigvals(g.a_g) - 1.0).min() < 3e-4
    tw = to_standard(g)
    scale = 1 + max(np.abs(m).max() for m in (g.a_g, g.b_g, g.c_g, g.d_g))
    assert witness_defects(g, tw) < 1e-12 * scale
    assert transfer_equiv_check(g, tw) < 1e-10 * scale


def dense_transfer(a, b, c, d, s):
    return c @ np.linalg.inv(s * np.eye(a.shape[0]) - a) @ b + d


@pytest.mark.parametrize("dims, rhs_width", [
    # pulled_back gives the general model 2m inputs, so the standard one has 4m
    (Dimensions(2, 1, 3, 1, 1), 3),   # n_y = 3 < 4m = 12: the transposed system
    (Dimensions(1, 1, 1, 0, 6), 4),   # n_y = 6 > 4m = 4: the direct system
])
def test_transfer_equiv_solves_on_the_short_side(monkeypatch, dims, rhs_width):
    points = [40j, 30.0 + 25j, -20.0 - 35j]
    g = pulled_back(generate_realizable(dims, seed=11), np.random.default_rng(11))
    tw = to_standard(g)
    bad = TransformWitness(tw.p_n, tw.w + 0.01, tw.p_y, tw.standard)
    std = bad.standard
    for spec in (np.linalg.eigvals(g.a_g), np.linalg.eigvals(std.a)):
        assert min(np.abs(spec - s).min() / (1 + abs(s)) for s in points) > 0.1
    want = max(np.linalg.norm(dense_transfer(std.a, std.b, std.c, std.d, s)
                              - bad.p_y @ dense_transfer(g.a_g, g.b_g, g.c_g, g.d_g, s)
                              @ bad.w)
               for s in points)
    widths = []
    solve = np.linalg.solve

    def recording_solve(a, b):
        widths.append(b.shape[-1])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    got = transfer_equiv_check(g, bad, sample_points=points)
    assert widths == [rhs_width, rhs_width]
    assert got == pytest.approx(want, rel=1e-12)
    assert got > 1e-3


@pytest.mark.parametrize("n_y, width", [(2, 5), (5, 2), (3, 3)])
def test_transfer_stack_complex_matrices(n_y, width):
    rng = np.random.default_rng(n_y * 10 + width)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a, b, c, d = cplx(4, 4), cplx(4, width), cplx(n_y, 4), cplx(n_y, width)
    s = 3.0 - 2.0j
    got = stack_at(a, b, c, d, s)
    assert got.shape == (n_y, width)
    assert np.allclose(got, dense_transfer(a, b, c, d, s), rtol=1e-12, atol=1e-12)


def clear_one_point(s, spectra, clearance):
    # the per-point shift loop that _clear_of_eigenvalues replaced
    for _ in range(100):
        dist = min((np.min(np.abs(spec - s)) for spec in spectra if spec.size),
                   default=np.inf)
        if dist > clearance * (1.0 + abs(s)):
            return s
        s = s + 0.37
    raise ValueError("could not clear the sample point of eigenvalues")


@pytest.mark.parametrize("points, spectra", [
    # 1.0 sits on a run of eigenvalues 0.37 apart and needs three shifts
    ([1.0, 2.0 + 1.0j, -1.0 + 3.0j, 0.5 - 0.5j, 10.0],
     [1.0 + 0.37 * np.arange(3), np.array([-1.0 + 3.004j, 10.05, 0.5 - 0.5j])]),
    ([1.0, 2.0 + 1.0j], [np.zeros(0), np.zeros(0)]),
    ([1.0, 2.0 + 1.0j], [np.zeros(0), np.array([2.0 + 1.0j])]),
    ([], [np.array([1.0]), np.array([2.0])]),
])
def test_clear_of_eigenvalues_matches_per_point_loop(points, spectra):
    got = _clear_of_eigenvalues(points, spectra, 1e-2)
    want = [clear_one_point(complex(s), spectra, 1e-2) for s in points]
    assert got.dtype == complex
    assert np.array_equal(got, np.array(want, dtype=complex))


def test_clear_of_eigenvalues_gives_up_after_100_shifts():
    spectra = [1.0 + 0.37 * np.arange(101), np.zeros(0)]
    message = "could not clear the sample point of eigenvalues"
    with pytest.raises(ValueError, match=message):
        clear_one_point(1.0, spectra, 1e-2)
    with pytest.raises(ValueError, match=message):
        _clear_of_eigenvalues([5.0 + 1j, 1.0], spectra, 1e-2)


class MatmulCounter(np.ndarray):
    """An array that counts the matrix products it takes part in."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            MatmulCounter.products += 1
        inputs = [np.asarray(x) if isinstance(x, MatmulCounter) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("dims, n_points, batches", [(None, 5, 1),
                                                     (Dimensions(8, 8, 16, 8, 8), 40, 8)])
def test_transfer_equiv_call_counts(monkeypatch, dims, n_points, batches):
    # as_general doubles the inputs: the reference's 3 x 12 transfer matrices
    # allow 227 points per batch, the 24-state model's 24 x 64 ones 5
    g = as_general(mixed_reference() if dims is None else generate_realizable(dims, seed=5))
    tw = to_standard(g)
    counted = TransformWitness(tw.p_n, tw.w.view(MatmulCounter), tw.p_y, tw.standard)
    calls = {"solve": 0, "eigvals": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(np.linalg, name, counting)
    monkeypatch.setattr(MatmulCounter, "products", 0)
    points = np.linspace(0.5, 20.0, n_points) + 1j
    deviation = transfer_equiv_check(g, counted, sample_points=points)
    assert calls == {"solve": 2 * batches, "eigvals": 1}
    # B_g w and (p_y D_g) w, once per call, never per point or per batch
    assert MatmulCounter.products == 2
    assert deviation == transfer_equiv_check(g, tw, sample_points=points)


# ---------------------------------------------- real pencils and non-finite points

def record_solve_dtypes(monkeypatch):
    dtypes = []
    solve = np.linalg.solve

    def recording_solve(a, b):
        dtypes.append(np.asarray(a).dtype)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    return dtypes


@pytest.mark.parametrize("dims, points, kinds", [
    # the reference's five points share one batch, which is real only
    # when every point is
    (None, [1.0, 10.0], "ff"),
    (None, [1.0, 2.0 + 1.0j], "cc"),
    # the 48-state model takes one point per batch: the defaults 1 and 10 are real
    (Dimensions(16, 16, 32, 16, 16), None, "ffccccccff"),
])
def test_transfer_equiv_solves_real_batches_in_real_arithmetic(monkeypatch, dims, points,
                                                                 kinds):
    g = as_general(mixed_reference() if dims is None else generate_realizable(dims, seed=3))
    tw = to_standard(g)
    bad = TransformWitness(tw.p_n, tw.w + 0.01, tw.p_y, tw.standard)
    dtypes = record_solve_dtypes(monkeypatch)
    deviation = transfer_equiv_check(g, bad, sample_points=points)
    assert "".join(np.dtype(t).kind for t in dtypes) == kinds
    assert all(t in (np.float64, np.complex128) for t in dtypes)
    assert 1e-3 < deviation < np.inf


@pytest.mark.parametrize("complex_part", ["a", "b", "c", "d"])
@pytest.mark.parametrize("n_y, width", [(2, 5), (5, 2)])
def test_transfer_stack_complex_matrix_at_a_real_point(complex_part, n_y, width):
    # a complex A, or a complex right-hand side of the solve (B, or C^T on
    # the transposed side), keeps the complex pencil; any other complex
    # matrix meets a real one; none may lose its imaginary part
    rng = np.random.default_rng(n_y * 10 + width)
    mats = {"a": rng.standard_normal((4, 4)) - 3.0 * np.eye(4),
            "b": rng.standard_normal((4, width)), "c": rng.standard_normal((n_y, 4)),
            "d": rng.standard_normal((n_y, width))}
    mats[complex_part] = mats[complex_part] + 1j * rng.standard_normal(mats[complex_part].shape)
    got = stack_at(mats["a"], mats["b"], mats["c"], mats["d"], 2.0)
    want = dense_transfer(mats["a"], mats["b"], mats["c"], mats["d"], 2.0)
    assert got.dtype == np.complex128
    assert np.abs(want.imag).max() > 0.1
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n, n_y, width", [(6, 2, 5), (6, 5, 2), (24, 8, 30)])
def test_transfer_stack_real_point_matches_the_complex_pencil(seed, n, n_y, width):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) / np.sqrt(n) - 2.0 * np.eye(n)
    b, c, d = (rng.standard_normal(shape) for shape in ((n, width), (n_y, n), (n_y, width)))
    s = rng.uniform(0.5, 5.0)
    got = stack_at(a, b, c, d, s)
    want = transfer_eval(a, b, c, d, s)
    assert got.dtype == np.complex128 and got.shape == (n_y, width)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


NON_FINITE = [np.nan, np.inf, -np.inf, complex(1.0, np.nan)]


def not_finite(s):
    # the error names the point
    return f"^sample point {re.escape(str(complex(s)))} is not finite$"


@pytest.mark.parametrize("s", NON_FINITE, ids=["nan", "inf", "-inf", "1+nan*j"])
def test_transfer_equiv_rejects_a_non_finite_point(monkeypatch, s):
    g = as_general(damped_cavity())
    tw = to_standard(g)
    eigvals = []
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: eigvals.append(m))
    with pytest.raises(ValueError, match=not_finite(s)):
        transfer_equiv_check(g, tw, sample_points=[2.0, s])
    # rejected up front, before the spectrum or any shift
    assert eigvals == []
