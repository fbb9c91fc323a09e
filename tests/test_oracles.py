"""The plain-numpy references of tests/oracles.py against the library.

Each reference is checked against the library path it stands in for, and
the library is run end to end with numpy's SVD-based routines made to
raise: no path of it decomposes by singular values or solves by least
squares.
"""

import json

import numpy as np
import pytest

import qcsynth
from qcsynth import (
    Dimensions,
    QuantumOnlySystem,
    StandardSystem,
    TransformWitness,
    augment,
    check_general,
    check_quantum,
    check_standard,
    check_standard_partitioned,
    close_loop,
    commutator_trajectory,
    generate_realizable,
    pzkv_decompose,
    reduce,
    simulate,
    skew_drift,
    symplectic_complete,
    synthesize,
    to_standard,
    transfer_equiv_check,
)
from qcsynth import synthesis
from qcsynth.augment import _auxiliary_input
from qcsynth.cli import main, system_to_obj
from qcsynth.matkit import DEFAULT_TOL, _pivoted_gram_schmidt
from qcsynth.transform import _transfer_stack
from oracles import minnorm_right_solve, nondemolition_residual, rank_tol, transfer_eval
from test_transform import as_general

RETIRED = ("rank_tol", "minnorm_right_solve", "nondemolition_residual", "transfer_eval")

# k = 1, 4, 16 as Dimensions(k, k, 2k, k, k), and shapes with empty blocks:
# no quantum part, no classical part, no quadrature or classical outputs
SHAPES = [Dimensions(k, k, 2 * k, k, k) for k in (1, 4, 16)] + [
    Dimensions(0, 2, 2, 0, 1), Dimensions(2, 0, 2, 1, 0), Dimensions(1, 1, 1, 0, 0),
    Dimensions(1, 1, 2, 2, 0), Dimensions(0, 0, 1, 1, 0), Dimensions(1, 2, 3, 0, 2),
]
SHAPE_IDS = [f"{d.n_q}-{d.n_c}-{d.m}-{d.n_yq}-{d.n_yc}" for d in SHAPES]


def perturbed(sys, seed, size=0.05):
    """sys with b and c moved off the realizable set."""
    rng = np.random.default_rng(seed)
    b, c = (m + size * rng.standard_normal(m.shape) for m in (sys.b, sys.c))
    return StandardSystem(sys.dims, sys.a, b, c, sys.d)


@pytest.mark.parametrize("name", RETIRED)
def test_the_retired_references_are_not_exported(name):
    # they live on as the references of tests/oracles.py
    assert name not in qcsynth.__all__
    assert not hasattr(qcsynth, name)


# ---------------------------------------------------------------------------
# no SVD and no least squares anywhere in the library


@pytest.fixture
def no_svd(monkeypatch):
    """numpy's SVD, least squares, pseudo-inverse and rank, made to raise:
    in numpy.linalg and in the module that defines them, which the other
    linalg routines call."""
    def forbidden(*args, **kwargs):
        raise AssertionError("an SVD-based numpy.linalg routine was called")

    modules = [np.linalg, getattr(np.linalg, "_linalg", None)]
    for module in filter(None, modules):
        for name in ("svd", "lstsq", "pinv", "matrix_rank"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)


def test_the_guard_catches_a_call(no_svd):
    with pytest.raises(AssertionError, match="SVD-based"):
        np.linalg.svd(np.eye(2))
    with pytest.raises(AssertionError, match="SVD-based"):
        minnorm_right_solve(np.eye(2), np.eye(2))


@pytest.mark.parametrize("dims", SHAPES, ids=SHAPE_IDS)
def test_the_library_runs_without_svd(no_svd, dims):
    sys = generate_realizable(dims, seed=1)
    st = sys.structure
    closed = close_loop(synthesize(sys))
    for name in "abcd":
        want = getattr(sys, name)
        assert np.allclose(getattr(closed, name), want, rtol=0.0,
                           atol=1e-8 * (1 + np.abs(want).max(initial=0.0))), name

    general = as_general(sys)
    assert transfer_equiv_check(general, to_standard(general)) <= 1e-8

    aug = augment(sys)
    red = reduce(aug, st.theta_w)
    quantum = QuantumOnlySystem(aug.a_tilde, aug.b_tilde, red.c_bar, np.eye(2 * dims.m))
    assert check_quantum(quantum, theta=aug.theta_tilde).verdict

    for report in (check_standard(sys), check_standard_partitioned(sys),
                   check_general(general)):
        assert report.verdict

    traj = simulate(sys, t_final=0.05, dt=0.01)
    assert skew_drift(traj, st.theta_n) <= 1e-8
    assert len(commutator_trajectory(sys, [0.0, 0.5])) == 2


@pytest.mark.parametrize("dims", SHAPES, ids=SHAPE_IDS)
def test_every_command_runs_without_svd(no_svd, tmp_path, capsys, dims):
    sys_path, real_path = str(tmp_path / "sys.json"), str(tmp_path / "real.json")
    flags = [str(x) for d in ("n_q", "n_c", "m", "n_yq", "n_yc")
             for x in ("--" + d.replace("_", "-"), getattr(dims, d))]
    sys = generate_realizable(dims, seed=1)
    general_path = tmp_path / "general.json"
    general_path.write_text(json.dumps(system_to_obj(as_general(sys))))
    d_q_path = tmp_path / "d_q.json"
    d_q_path.write_text(json.dumps({"d_q": sys.d_q.tolist()}))
    runs = [
        ["generate", *flags, "--seed", "1", "-o", sys_path],
        ["check", sys_path], ["check", "--partitioned", sys_path], ["check", str(general_path)],
        ["to-standard", str(general_path)],
        ["synthesize", sys_path, "-o", real_path],
        ["verify-realization", real_path, "--reference", sys_path],
        ["augment", sys_path], ["simulate", sys_path, "--t-final", "0.01"],
        ["complete-symplectic", str(d_q_path)],
    ]
    for argv in runs:
        assert main([*argv, "--quiet"]) == 0, (argv, capsys.readouterr().err)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# each reference against the library path it stands in for


def test_rank_tol():
    assert rank_tol(np.eye(3)) == 3
    assert rank_tol(np.zeros((2, 2))) == 0
    assert rank_tol(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1
    assert rank_tol(np.zeros((0, 4))) == 0


@pytest.mark.parametrize("dims", SHAPES, ids=SHAPE_IDS)
def test_rank_tol_is_the_rank_of_the_network_read_out(monkeypatch, dims):
    # the read-out that synthesize splits by pzkv_decompose: its rank is the
    # count of singular values above tol sigma_1
    seen = []

    def spy(m_mat, tol):
        dec = pzkv_decompose(m_mat, tol)
        seen.append((np.array(m_mat), tol, dec.r))
        return dec

    monkeypatch.setattr(synthesis, "pzkv_decompose", spy)
    for seed in range(3):
        synthesize(generate_realizable(dims, seed))
    assert len(seen) == 3
    for m_mat, tol, r in seen:
        assert r == rank_tol(m_mat, tol) == len(_pivoted_gram_schmidt(m_mat, tol)[0])


def test_rank_tol_is_the_pivoted_gram_schmidt_rank_on_generic_matrices():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rows, cols = int(rng.integers(1, 13)), int(rng.integers(1, 25))
        r = int(rng.integers(0, min(rows, cols) + 1))
        m_mat = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
        assert rank_tol(m_mat) == r == len(_pivoted_gram_schmidt(m_mat, DEFAULT_TOL)[0])


@pytest.mark.parametrize("dims", SHAPES, ids=SHAPE_IDS)
def test_minnorm_right_solve_is_the_qr_solve(dims):
    # augment's b_prime and SymplecticCompletion.solve_d_q, on the model's
    # right-hand side and on a random one
    sys = generate_realizable(dims, seed=2)
    a = sys.structure.theta_w @ sys.d_q.T
    rng = np.random.default_rng(2)
    for c_qc in (sys.c_qc, rng.standard_normal(sys.c_qc.shape)):
        got = _auxiliary_input(sys.d_q, c_qc, DEFAULT_TOL)
        want = minnorm_right_solve(a, c_qc.T)
        assert got.shape == want.shape
        assert np.abs(got - want).max(initial=0.0) <= 1e-12 * (1 + np.abs(want).max(initial=0))
    if dims.n_yq:
        c = rng.standard_normal((2 * dims.n_yq, 3))
        got = symplectic_complete(sys.d_q).solve_d_q(c)
        want = minnorm_right_solve(sys.d_q.T, c.T).T
        assert np.abs(got - want).max() <= 1e-12 * (1 + np.abs(want).max())


@pytest.mark.parametrize("dims", SHAPES, ids=SHAPE_IDS)
def test_nondemolition_residual_is_the_checker_residual(dims):
    # bit for bit, on generated systems and on perturbed ones
    for seed in range(3):
        sys = generate_realizable(dims, seed)
        for s in (sys, perturbed(sys, seed)):
            got = nondemolition_residual(s)
            assert got.hex() == check_standard(s)["non-demolition"].residual.hex()


@pytest.mark.parametrize("dims", SHAPES, ids=SHAPE_IDS)
def test_transfer_eval_is_the_batched_transfer_solve(dims):
    # _transfer_stack, which transfer_equiv_check runs, at real and complex
    # points, and the deviation transfer_equiv_check reports for a witness
    # with a bent input factor
    sys = generate_realizable(dims, seed=3)
    points = [1.0, 2.0 + 1.0j, -1.0 + 3.0j]
    stack = _transfer_stack(sys.a, sys.b, sys.c, sys.d, points)
    for got, s in zip(stack, points):
        want = transfer_eval(sys.a, sys.b, sys.c, sys.d, s)
        assert np.abs(got - want).max(initial=0.0) <= 1e-12 * (
            1 + np.abs(want).max(initial=0.0))
    general = as_general(sys)
    tw = to_standard(general)
    bent = TransformWitness(tw.p_n, tw.w + 0.01, tw.p_y, tw.standard)
    std = tw.standard
    want = max(np.linalg.norm(transfer_eval(std.a, std.b, std.c, std.d, s)
                              - bent.p_y @ transfer_eval(general.a_g, general.b_g, general.c_g,
                                                         general.d_g, s) @ bent.w)
               for s in points)
    got = transfer_equiv_check(general, bent, sample_points=points)
    assert abs(got - want) <= 1e-10 * (1 + want)
