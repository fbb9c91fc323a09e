import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from qcsynth import (
    Dimensions,
    NotRealizableError,
    check_standard,
    check_standard_partitioned,
    close_loop,
    diag_j,
    generate_realizable,
    random_symplectic,
    symplectic_complete,
    synthesize,
)
from qcsynth.synthesis import _network_report
from refsystems import grid_sample, mixed_reference

MATS = ("a", "b", "c", "d")


def assert_round_trip(sys, closed, tol=1e-8):
    for name in MATS:
        orig = getattr(sys, name)
        back = getattr(closed, name)
        scale = 1 + (np.abs(orig).max() if orig.size else 0.0)
        assert np.abs(back - orig).max(initial=0.0) <= tol * scale, name


# ---------------------------------------------------------------------------
# reference system


def test_reference_round_trip():
    sys = mixed_reference()
    rel = synthesize(sys)
    assert_round_trip(sys, close_loop(rel))


def test_reference_actuation_gain():
    rel = synthesize(mixed_reference())
    # minimum-norm actuation for this plant
    assert rel.g1.e_mat.shape == (2, 1)
    assert np.allclose(rel.g1.e_mat.ravel(), [-33.9, 23.32], atol=1e-9)
    assert np.array_equal(rel.g1.k_q, -diag_j(1) @ rel.g1.e_mat)


def test_reference_quantum_side_structure():
    sys = mixed_reference()
    rel = synthesize(sys)
    th_w = sys.structure.theta_w
    th_q = sys.structure.theta_nq
    stacked_d = np.vstack([rel.g1.d_q, rel.g1.d_q_prime])
    stacked_c = np.vstack([rel.g1.c_qq, rel.g1.c_qq_prime])
    assert stacked_d.shape == (6, 6)
    assert np.abs(stacked_d @ th_w @ stacked_d.T - th_w).max() <= 1e-9
    coupling = rel.g1.b_q @ th_w @ stacked_d.T + th_q @ stacked_c.T
    assert np.abs(coupling).max() <= 1e-9 * (1 + np.abs(rel.g1.b_q).max())
    assert np.array_equal(rel.g1.a_qq, sys.a_qq)
    assert np.array_equal(rel.g1.b_q, sys.b_q)
    assert np.array_equal(rel.g1.d_q, sys.d_q)


def test_reference_measurement_network():
    sys = mixed_reference()
    rel = synthesize(sys)
    m_free = sys.dims.m - sys.dims.n_yq
    assert rel.g_mat.shape[1] == 2 * m_free
    # rows tap commuting quadratures of the auxiliary outputs
    assert np.abs(rel.g_mat @ diag_j(m_free) @ rel.g_mat.T).max() <= 1e-10
    assert np.allclose(rel.g_mat, rel.k_sel @ rel.v_sympl, atol=1e-12)


def test_reference_solve_identities():
    sys = mixed_reference()
    rel = synthesize(sys)
    cp = rel.g2.c_c_prime
    assert np.abs(sys.d_q @ cp - sys.c_qc).max() <= 1e-9
    assert np.abs(sys.a_qc - sys.b_q @ cp - rel.g1.e_mat).max() <= 1e-9
    meas = rel.g_mat @ rel.g1.d_q_prime
    assert np.abs(rel.g2.b_c_prime @ meas - sys.b_c).max() <= 1e-9
    assert np.abs(rel.g2.d_c_prime @ meas - sys.d_c).max() <= 1e-9


# ---------------------------------------------------------------------------
# degenerate shapes


def test_fully_quantum_input():
    dims = Dimensions(n_q=2, n_c=0, m=2, n_yq=1, n_yc=0)
    sys = generate_realizable(dims, seed=11)
    rel = synthesize(sys)
    assert rel.g1.e_mat.shape == (4, 0)
    assert rel.g2.a_cc_prime.shape == (0, 0)
    assert rel.g2.b_c_prime.shape[0] == 0
    assert rel.g_mat.shape == (0, 2)
    assert_round_trip(sys, close_loop(rel))


def test_no_free_channels():
    # m == n_yq leaves nothing for the measurement network to tap, which
    # forces b_c = d_c = 0 in any realizable input
    dims = Dimensions(n_q=1, n_c=1, m=1, n_yq=1, n_yc=1)
    sys = generate_realizable(dims, seed=5)
    assert np.count_nonzero(sys.b_c) == 0
    rel = synthesize(sys)
    assert rel.g_mat.shape == (0, 0)
    assert_round_trip(sys, close_loop(rel))


@pytest.mark.parametrize("dims", [
    Dimensions(0, 0, 0, 0, 0),
    Dimensions(n_q=1, n_c=1, m=0, n_yq=0, n_yc=1),
    Dimensions(n_q=2, n_c=1, m=3, n_yq=0, n_yc=0),
])
def test_empty_block_round_trip(dims):
    sys = generate_realizable(dims, seed=7)
    assert_round_trip(sys, close_loop(synthesize(sys)))


def test_zeroed_network_drops_classical_noise():
    sys = mixed_reference()
    rel = synthesize(sys)
    muted = dataclasses.replace(rel, g_mat=np.zeros_like(rel.g_mat))
    closed = close_loop(muted)
    assert np.count_nonzero(closed.b_c) == 0
    assert np.count_nonzero(closed.d_c) == 0
    assert np.linalg.norm(closed.b - sys.b) == pytest.approx(np.linalg.norm(sys.b_c))
    assert check_standard(closed).verdict


# ---------------------------------------------------------------------------
# generator


def test_generate_deterministic():
    dims = Dimensions(n_q=2, n_c=2, m=3, n_yq=1, n_yc=2)
    one = generate_realizable(dims, seed=42)
    two = generate_realizable(dims, seed=42)
    other = generate_realizable(dims, seed=43)
    for name in MATS:
        assert np.array_equal(getattr(one, name), getattr(two, name))
    assert not np.array_equal(one.a, other.a)


def test_generate_passes_checks():
    for dims, seed in [
        (Dimensions(n_q=1, n_c=0, m=1, n_yq=1, n_yc=0), 0),
        (Dimensions(n_q=1, n_c=1, m=3, n_yq=1, n_yc=1), 7),
        (Dimensions(n_q=2, n_c=2, m=3, n_yq=1, n_yc=2), 42),
    ]:
        sys = generate_realizable(dims, seed)
        assert check_standard(sys, 1e-9).verdict
        assert check_standard_partitioned(sys, 1e-9).verdict


def test_generate_honours_stored_channel_split():
    dims = Dimensions(n_q=1, n_c=2, m=3, n_yq=1, n_yc=1, n_w1=2)
    sys = generate_realizable(dims, seed=9)
    rel = synthesize(sys)
    assert rel.g2.c_c_prime_1.shape == (4, 2)
    assert rel.g2.c_c_prime_2.shape == (2, 2)
    assert_round_trip(sys, close_loop(rel))


# ---------------------------------------------------------------------------
# rejection


def test_rejects_unrealizable():
    sys = mixed_reference()
    b = sys.b.copy()
    b[0, 0] += 0.05
    broken = dataclasses.replace(sys, b=b)
    with pytest.raises(NotRealizableError, match="realizability") as exc:
        synthesize(broken)
    assert not exc.value.report.verdict
    assert exc.value.report.worst


# ---------------------------------------------------------------------------
# random round trips


def test_round_trip_grid():
    for i, dims in enumerate(grid_sample(15)):
        sys = generate_realizable(dims, seed=4000 + i)
        rel = synthesize(sys)
        closed = close_loop(rel)
        assert_round_trip(sys, closed)
        assert rel.dims == dims
        m_free = dims.m - dims.n_yq
        if rel.g_mat.size:
            gram = rel.g_mat @ diag_j(m_free) @ rel.g_mat.T
            assert np.abs(gram).max() <= 1e-10 * (1 + np.abs(rel.g_mat).max() ** 2)


@hst.composite
def dimensions(draw):
    m = draw(hst.integers(0, 4))
    return Dimensions(n_q=draw(hst.integers(0, 3)), n_c=draw(hst.integers(0, 3)), m=m,
                      n_yq=draw(hst.integers(0, m)), n_yc=draw(hst.integers(0, 2)),
                      n_w1=draw(hst.sampled_from((0, m))))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dimensions(), hst.integers(0, 2**16))
def test_round_trip_property(dims, seed):
    sys = generate_realizable(dims, seed)
    closed = close_loop(synthesize(sys))
    for name in MATS:
        orig, back = getattr(sys, name), getattr(closed, name)
        assert back.shape == orig.shape
        scale = 1 + np.abs(orig).max(initial=0.0)
        assert np.abs(back - orig).max(initial=0.0) <= 1e-8 * scale, name


# ---------------------------------------------------------------------------
# loop assembly and solve count


def block_reference(r):
    # the interconnection of close_loop written out with np.block
    g1, g2, g_mat = r.g1, r.g2, r.g_mat
    b_cg, d_cg = g2.b_c_prime @ g_mat, g2.d_c_prime @ g_mat
    feed = g_mat @ g1.d_q_prime @ g2.c_c_prime
    a = np.block([[g1.a_qq, g1.b_q @ g2.c_c_prime + g1.e_mat],
                  [b_cg @ g1.c_qq_prime, g2.a_cc_prime + g2.b_c_prime @ feed]])
    b = np.vstack([g1.b_q, b_cg @ g1.d_q_prime])
    c = np.block([[g1.c_qq, g1.d_q @ g2.c_c_prime],
                  [d_cg @ g1.c_qq_prime, g2.c_cc_prime + g2.d_c_prime @ feed]])
    d = np.vstack([g1.d_q, d_cg @ g1.d_q_prime])
    return a, b, c, d


def test_close_loop_matches_block_reference_bitwise():
    shapes = [Dimensions(1, 1, 2, 1, 1), Dimensions(2, 0, 2, 1, 0), Dimensions(0, 2, 2, 0, 1),
              Dimensions(1, 1, 1, 1, 1), Dimensions(2, 2, 3, 1, 2, 3), Dimensions(0, 0, 0, 0, 0),
              Dimensions(4, 4, 8, 4, 4)]
    for i, dims in enumerate(shapes):
        r = synthesize(generate_realizable(dims, seed=500 + i))
        closed = close_loop(r)
        for name, want in zip(MATS, block_reference(r)):
            got = getattr(closed, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (dims, name)


def test_synthesize_makes_no_least_squares_solve(monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    synthesize(generate_realizable(Dimensions(2, 2, 4, 1, 2), seed=3))
    assert len(calls) == 0


# ---------------------------------------------------------------------------
# the two minimum-norm solves on the completion's factors


def assert_matches_pinv(completion, c, m_rhs):
    # the oracle: x = pinv(d_q) c and x = m_rhs pinv(n_mat), 1e-12 relative
    pairs = [(completion.solve_d_q(c), np.linalg.pinv(completion.d_q) @ c),
             (completion.solve_n_mat(m_rhs), m_rhs @ np.linalg.pinv(completion.n_mat))]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def assert_solves_match_pinv(sys):
    # the right-hand sides synthesize solves for
    completion = symplectic_complete(sys.d_q)
    assert_matches_pinv(completion, sys.c_qc, np.vstack([sys.b_c, sys.d_c]))


def test_solves_match_pinv_on_generated_systems():
    for k in range(1, 33):
        assert_solves_match_pinv(generate_realizable(Dimensions(k, k, 2 * k, k, k), seed=k))


@pytest.mark.parametrize("dims", [
    Dimensions(n_q=2, n_c=1, m=3, n_yq=0, n_yc=1),
    Dimensions(n_q=1, n_c=2, m=2, n_yq=2, n_yc=1),
    Dimensions(n_q=2, n_c=0, m=3, n_yq=1, n_yc=0),
    Dimensions(n_q=1, n_c=2, m=3, n_yq=1, n_yc=1, n_w1=2),
])
def test_solves_match_pinv_on_adversarial_shapes(dims):
    assert_solves_match_pinv(generate_realizable(dims, seed=21))


def test_solves_match_pinv_on_poorly_conditioned_rows():
    rng = np.random.default_rng(0)
    d_q = random_symplectic(16, rng, spread=1.0)[:16]
    completion = symplectic_complete(d_q)
    assert np.linalg.cond(d_q) > 100
    assert_matches_pinv(completion, d_q @ rng.standard_normal((32, 3)),
                        rng.standard_normal((3, 16)) @ completion.n_mat)


def test_coupling_solve_rejects_rows_of_d_q():
    sys = generate_realizable(Dimensions(2, 2, 4, 2, 2), seed=8)
    completion = symplectic_complete(sys.d_q)
    with pytest.raises(ValueError, match=r"inconsistent.*\(residual \d\.\d{3}e[+-]\d+\)"):
        completion.solve_n_mat(sys.d_q)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dimensions(), hst.integers(0, 2**16))
def test_solves_match_pinv_property(dims, seed):
    assert_solves_match_pinv(generate_realizable(dims, seed))


# ---------------------------------------------------------------------------
# the read-out network with and without a completion


@pytest.mark.parametrize("dims, lagrangian", [
    (Dimensions(2, 2, 4, 2, 2), True),
    (Dimensions(8, 8, 16, 0, 8), True),
    (Dimensions(2, 1, 6, 1, 0), False),
    (Dimensions(3, 2, 8, 2, 1), False),
])
def test_network_branches_round_trip(monkeypatch, dims, lagrangian):
    from test_matkit import counted_complete
    calls = counted_complete(monkeypatch)
    for seed in (1, 2):
        calls.clear()
        sys = generate_realizable(dims, seed)
        r = synthesize(sys)
        m_free = dims.m - dims.n_yq
        rank = len(r.g_mat)
        assert (rank == m_free) == lagrangian
        # the d_q completion always runs; the network's only below m_free
        assert calls == [2 * dims.n_yq] + ([] if lagrangian else [2 * rank])
        v = r.v_sympl
        assert v.shape == (2 * m_free, 2 * m_free)
        assert np.abs(v @ diag_j(m_free) @ v.T - diag_j(m_free)).max() < 1e-10
        assert np.array_equal(r.g_mat, r.k_sel @ v)
        assert np.array_equal(r.p_perm @ r.p_perm.T, np.eye(len(r.p_perm)))
        assert_round_trip(sys, close_loop(r))


LADDER = ([Dimensions(k, k, 2 * k, k, k) for k in (1, 2, 4, 8, 16, 32)]
          + [Dimensions(8, 0, 16, 8, 8), Dimensions(8, 8, 16, 0, 8),
             Dimensions(8, 8, 16, 8, 8, 4), Dimensions(0, 0, 0, 0, 0),
             Dimensions(1, 1, 1, 1, 1), Dimensions(2, 1, 6, 1, 0)])


@pytest.mark.parametrize("dims", LADDER, ids=str)
def test_ladder_networks_pass_their_conditions(dims):
    for seed in (1, 2):
        sys = generate_realizable(dims, seed)
        r = synthesize(sys)
        report = _network_report(r)
        assert report.verdict, report
        assert [c.name for c in report.conditions] == [
            "symplectic", "selection", "commuting-taps", "permutation"]
        assert report["permutation"].residual == 0.0
        assert_round_trip(sys, close_loop(r))


def test_reference_network_passes_its_conditions():
    assert _network_report(synthesize(mixed_reference())).verdict


@pytest.mark.parametrize("dims", LADDER, ids=str)
def test_index_products_match_the_dense_ones_bit_for_bit(dims):
    # synthesize gathers the rows k_sel and p_perm select and applies
    # theta_w and theta_nq by index: each equals the dense product it stands
    # for, -0.0 entries included
    n_c = dims.n_c
    for seed in (1, 2):
        sys = generate_realizable(dims, seed)
        r = synthesize(sys)
        th_w, th_q = sys.structure.theta_w, sys.structure.theta_nq
        g1, g2 = r.g1, r.g2
        assert r.g_mat.tobytes() == (r.k_sel @ r.v_sympl).tobytes()
        assert g2.b_c_prime.tobytes() == (r.p_perm[:n_c] @ r.z).tobytes()
        assert g2.d_c_prime.tobytes() == (r.p_perm[n_c:] @ r.z).tobytes()
        assert g1.c_qq_prime.tobytes() == (g1.d_q_prime @ th_w @ g1.b_q.T @ th_q).tobytes()
        assert g1.k_q.tobytes() == (-th_q @ g1.e_mat).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dimensions(), hst.integers(0, 2**16))
def test_network_certificate_property(dims, seed):
    # the inputs of test_round_trip_property
    report = _network_report(synthesize(generate_realizable(dims, seed)))
    assert report.verdict, report


def test_each_completion_is_verified_once(monkeypatch):
    # the congruence inside a completion is not verified on its own: the
    # whole V theta V^T = theta check after it covers it
    from qcsynth import matkit
    skew_calls, verified = [], []
    skew, verify = matkit.skew_canonical, matkit._verify_symplectic
    monkeypatch.setattr(matkit, "skew_canonical",
                        lambda *a, **k: skew_calls.append(1) or skew(*a, **k))
    monkeypatch.setattr(matkit, "_verify_symplectic",
                        lambda full, what: verified.append(what) or verify(full, what))
    for dims in (Dimensions(2, 2, 4, 2, 2), Dimensions(2, 1, 6, 1, 0)):
        verified.clear()
        synthesize(generate_realizable(dims, 1))
        assert verified == ["completion", "network"]
    assert skew_calls == []


@pytest.mark.parametrize("dims", [Dimensions(2, 2, 4, 2, 2), Dimensions(8, 8, 16, 0, 8),
                                  Dimensions(16, 16, 32, 16, 16)], ids=str)
def test_zero_actuation_gives_positive_zeros(dims):
    # No classical actuation of the quantum side (e_mat = 0, c_c_prime = 0)
    # is realizable; synthesize then finds e_mat as exact +0.0 entries, and
    # k_q = -theta_nq e_mat holds +0.0 as the dense product does, not -0.0
    r = synthesize(generate_realizable(dims, 3))
    g1 = dataclasses.replace(r.g1, e_mat=np.zeros_like(r.g1.e_mat))
    g2 = dataclasses.replace(r.g2, c_c_prime_1=np.zeros_like(r.g2.c_c_prime_1),
                             c_c_prime_2=np.zeros_like(r.g2.c_c_prime_2))
    sys = close_loop(dataclasses.replace(r, g1=g1, g2=g2))
    back = synthesize(sys)
    th_q = sys.structure.theta_nq
    assert not back.g1.e_mat.any()
    assert back.g1.k_q.tobytes() == (-th_q @ back.g1.e_mat).tobytes()
    assert not np.signbit(back.g1.k_q).any()
    assert back.g2.c_c_prime.tobytes() == np.zeros_like(back.g2.c_c_prime).tobytes()
    assert_round_trip(sys, close_loop(back))
