import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg

from qcsynth import (
    Dimensions,
    MomentTrajectory,
    StandardSystem,
    generate_realizable,
    make_structure,
    simulate,
    skew_drift,
)
from qcsynth.moments import _DRIFT_CHUNK, _exact_step, _expm_taylor, _halvings
from refsystems import CAVITY_DIMS, damped_cavity, grid_sample, mixed_reference


def undamped_cavity():
    # zero drift leaves the pump term unbalanced, so commutations leak
    return StandardSystem(CAVITY_DIMS, np.zeros((2, 2)), np.eye(2),
                          -np.eye(2), np.eye(2))


# ---------------------------------------------------------------------------
# closed-form references


def test_static_system_is_constant():
    dims = Dimensions(n_q=1, n_c=1, m=1, n_yq=1, n_yc=0)
    sys = StandardSystem(dims, np.zeros((3, 3)), np.zeros((3, 2)),
                         np.zeros((2, 3)), np.vstack([np.eye(2), np.zeros((0, 2))]))
    sigma0 = np.eye(3) + 1j * sys.structure.theta_n
    traj = simulate(sys, sigma0, t_final=1.0, dt=0.01, mu0=[1.0, -2.0, 0.5])
    for mu, sigma in zip(traj.means, traj.second_moments):
        assert np.array_equal(mu, [1.0, -2.0, 0.5])
        assert np.abs(sigma - sigma0).max() == 0.0


def test_cavity_matches_analytic_flow():
    sys = damped_cavity()
    j = sys.structure.theta_n
    sigma0 = 2 * np.eye(2) + 1j * j
    traj = simulate(sys, sigma0, t_final=10.0, dt=1e-3)
    vacuum = np.eye(2) + 1j * j
    for k in range(0, len(traj.times), 250):
        t = traj.times[k]
        analytic = np.exp(-t) * np.eye(2) + vacuum
        assert np.abs(traj.second_moments[k] - analytic).max() <= 1e-10
    assert np.linalg.norm(traj.second_moments[-1] - vacuum) <= 1e-4
    assert skew_drift(traj, j) <= 1e-10


def test_cavity_mean_decay():
    sys = damped_cavity()
    traj = simulate(sys, t_final=2.0, dt=1e-3, mu0=[1.0, -2.0])
    for k in range(0, len(traj.times), 100):
        analytic = np.exp(-0.5 * traj.times[k]) * np.array([1.0, -2.0])
        assert np.abs(traj.means[k] - analytic).max() <= 1e-10


def test_vacuum_default_initial_state():
    sys = damped_cavity()
    traj = simulate(sys, t_final=0.1, dt=0.01)
    assert np.array_equal(traj.means[0], np.zeros(2))
    assert np.abs(traj.second_moments[0]
                  - (np.eye(2) + 1j * sys.structure.theta_n)).max() == 0.0


# ---------------------------------------------------------------------------
# commutation drift as a realizability witness


def test_reference_preserves_commutations():
    sys = mixed_reference()
    traj = simulate(sys, t_final=2.0, dt=1e-3)
    assert skew_drift(traj, sys.structure.theta_n) <= 1e-6


def test_undamped_cavity_leaks():
    # constant rate I + iJ integrates exactly: skew part grows like t * J
    sys = undamped_cavity()
    traj = simulate(sys, t_final=1.0, dt=1e-2)
    drift = skew_drift(traj, sys.structure.theta_n)
    assert drift >= 0.5
    assert drift == pytest.approx(np.sqrt(2.0), rel=1e-9)


def test_drift_rate_tracks_residual():
    sys = mixed_reference()
    b = sys.b.copy()
    b[0, 0] += 0.2
    st = sys.structure
    broken = StandardSystem(sys.dims, sys.a, b, sys.c, sys.d)
    residual = np.linalg.norm(sys.a @ st.theta_n + st.theta_n @ sys.a.T
                              + b @ st.theta_w @ b.T)
    traj = simulate(broken, t_final=0.01, dt=1e-3)
    rate = skew_drift(traj, st.theta_n) / 0.01
    assert residual / 2 <= rate <= 2 * residual


def test_generated_systems_hold_commutations():
    for i, dims in enumerate(grid_sample(10)):
        sys = generate_realizable(dims, seed=6000 + i)
        traj = simulate(sys, t_final=0.5, dt=1e-3)
        assert skew_drift(traj, sys.structure.theta_n) <= 1e-5


# ---------------------------------------------------------------------------
# integrator mechanics


def test_stored_moments_are_hermitian():
    traj = simulate(mixed_reference(), t_final=0.2, dt=1e-3)
    for sigma in traj.second_moments:
        assert np.abs(sigma - sigma.conj().T).max() == 0.0


def test_time_grid():
    traj = simulate(damped_cavity(), t_final=1.0, dt=0.25)
    assert traj.times == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert len(traj.means) == len(traj.second_moments) == 5


def test_divergence_aborts_with_step():
    sys = StandardSystem(CAVITY_DIMS, 200.0 * np.eye(2), np.eye(2),
                         -np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match="step"):
        simulate(sys, t_final=5.0, dt=1e-3)


def test_input_validation():
    sys = damped_cavity()
    good = np.eye(2) + 1j * sys.structure.theta_n
    with pytest.raises(ValueError, match="dt must be positive"):
        simulate(sys, good, t_final=1.0, dt=0.0)
    with pytest.raises(ValueError, match="expected shape"):
        simulate(sys, np.eye(3), t_final=1.0, dt=0.1)
    lopsided = good.copy()
    lopsided[0, 1] += 1e-3
    with pytest.raises(ValueError, match="not Hermitian"):
        simulate(sys, lopsided, t_final=1.0, dt=0.1)
    with pytest.raises(ValueError, match="skew part"):
        simulate(sys, np.eye(2), t_final=1.0, dt=0.1)
    with pytest.raises(ValueError, match="mu0"):
        simulate(sys, good, t_final=1.0, dt=0.1, mu0=[1.0, 2.0, 3.0])


def test_simulate_rejects_bad_horizon():
    sys = damped_cavity()
    for t_final in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="t_final must be nonnegative"):
            simulate(sys, t_final=t_final, dt=0.1)
    for dt in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dt must be positive"):
            simulate(sys, t_final=1.0, dt=dt)
    # 2.5 steps must not be cut to 2 without a word
    with pytest.raises(ValueError, match="whole number of dt"):
        simulate(sys, t_final=0.0025, dt=0.001)
    with pytest.raises(ValueError, match="whole number of dt"):
        simulate(sys, t_final=1.0, dt=1e-320)


def test_zero_horizon_is_initial_state():
    sys = mixed_reference()
    traj = simulate(sys, t_final=0.0, dt=0.1, mu0=[1.0, 2.0, 3.0])
    assert traj.times == (0.0,)
    assert np.array_equal(traj.means[0], [1.0, 2.0, 3.0])
    assert np.array_equal(traj.second_moments[0],
                          np.eye(3) + 1j * sys.structure.theta_n)


# ---------------------------------------------------------------------------
# exact stepping


@pytest.mark.parametrize("t_final, dt", [(20.0, 0.5), (1e6, 1e6)])
def test_coarse_step_reaches_steady_state(t_final, dt):
    # dt * |A|_1 = 8 (and 1.6e7), so each step is composed from sub-steps;
    # a truncated integrator diverges at these step sizes
    sys = mixed_reference()
    pump = sys.b @ sys.structure.f_w @ sys.b.T
    # a complex A keeps scipy's solver on its complex path, whose residual
    # is at rounding level for this Hermitian right-hand side
    steady = scipy.linalg.solve_continuous_lyapunov(sys.a.astype(complex), -pump)
    traj = simulate(sys, t_final=t_final, dt=dt)
    assert len(traj.times) == round(t_final / dt) + 1
    err = np.linalg.norm(traj.second_moments[-1] - steady) / np.linalg.norm(steady)
    assert err <= 1e-12


def test_blocked_samples_match_single_steps():
    # 23 steps span blocks of 5 with a short last block; the reference
    # advances one exact step at a time
    sys = mixed_reference()
    n, dt = 3, 0.02
    pump = sys.b @ sys.structure.f_w @ sys.b.T
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n], block[:n, n:], block[n:, n:] = sys.a, pump, -sys.a.T
    e = scipy.linalg.expm(block * dt)
    phi, q_d = e[:n, :n].real, e[:n, n:] @ e[:n, :n].real.T
    mu0 = np.array([1.0, -2.0, 0.5])
    traj = simulate(sys, t_final=23 * dt, dt=dt, mu0=mu0)
    mu, sigma = mu0, traj.second_moments[0]
    for k in range(1, 24):
        mu, sigma = phi @ mu, phi @ sigma @ phi.T + q_d
        scale = np.linalg.norm(sigma)
        assert np.linalg.norm(traj.second_moments[k] - sigma) <= 1e-13 * scale
        assert np.linalg.norm(traj.means[k] - mu) <= 1e-13 * np.linalg.norm(mu0)


# n = 3, 12 and 48: at n = 48 a block holds at most 7 samples, so the later
# doubling rounds split into several blocks
DOUBLING_SYSTEMS = {
    "reference": mixed_reference,
    "n12": lambda: generate_realizable(Dimensions(4, 4, 8, 4, 4), seed=71),
    "n48": lambda: generate_realizable(Dimensions(16, 16, 32, 16, 16), seed=72),
}


@pytest.mark.parametrize("name", sorted(DOUBLING_SYSTEMS))
@pytest.mark.parametrize("n_steps", [1, 2, 3, 7, 8, 9, 64, 65, 127])
def test_doubling_boundaries_match_single_steps(name, n_steps):
    # a last round that is full (3, 7, 127 steps), holds one sample (2, 8,
    # 64) or two (9, 65), and a single step; the reference advances one
    # exact step at a time from scipy's exponential
    sys = DOUBLING_SYSTEMS[name]()
    n, dt = sys.dims.n, 1e-3
    pump = sys.b @ sys.structure.f_w @ sys.b.T
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n], block[:n, n:], block[n:, n:] = sys.a, pump, -sys.a.T
    e = scipy.linalg.expm(block * dt)
    phi, q_d = e[:n, :n].real, e[:n, n:] @ e[:n, :n].real.T
    mu0 = np.random.default_rng(n_steps).standard_normal(n)
    traj = simulate(sys, t_final=n_steps * dt, dt=dt, mu0=mu0)
    assert traj.second_moments.shape == (n_steps + 1, n, n)
    mu, sigma = mu0, traj.second_moments[0]
    for k in range(1, n_steps + 1):
        mu, sigma = phi @ mu, phi @ sigma @ phi.T + q_d
        assert np.linalg.norm(traj.second_moments[k] - sigma) <= 1e-13 * np.linalg.norm(sigma)
        assert np.linalg.norm(traj.means[k] - mu) <= 1e-13 * max(np.linalg.norm(mu),
                                                                np.linalg.norm(mu0))


@pytest.mark.parametrize("dt", [0.15, 0.5, 1e4])
def test_exact_step_doubles_like_explicit_loop(dt):
    # 2, 3 and 18 halvings, composed by the explicit doubling loop: the
    # same products in the same order, bit for bit
    sys = mixed_reference()
    n, pump = 3, sys.b @ sys.structure.f_w @ sys.b.T
    halvings = _halvings(sys.a, dt)
    assert halvings > 0
    e = _expm_taylor(van_loan_blocks(sys.a, pump) * math.ldexp(dt, -halvings))
    phi = e[0, :n, :n]
    q = (e[0, :n, n:] + 1j * e[1, :n, n:]) @ phi.T
    for _ in range(halvings):
        q = phi @ q @ phi.T + q
        phi = phi @ phi
    got_phi, got_q = _exact_step(sys.a, pump, dt)
    assert np.array_equal(got_phi, phi)
    assert np.array_equal(got_q, (q + q.conj().T) / 2.0)


def van_loan_blocks(a, pump):
    # the stack _exact_step exponentiates: real and imaginary parts of the pump
    n = a.shape[0]
    blocks = np.zeros((2, 2 * n, 2 * n))
    blocks[:, :n, :n] = a
    blocks[:, n:, n:] = -a.T
    blocks[0, :n, n:] = pump.real
    blocks[1, :n, n:] = pump.imag
    return blocks


@pytest.mark.parametrize("norm", [1e-8, 0.1, 0.5, 1.0])
@pytest.mark.parametrize("pump_norm", [1e-3, 1.0, 1e6])
def test_taylor_exponential_matches_40_digits(norm, pump_norm):
    # h max(|A|_1, |A|_inf) = norm, the largest a sub-step allows being 1,
    # and |h P| up to 1e6: every entry within 4 eps of the 40-digit exponential
    rng = np.random.default_rng(89)
    n = 3
    a = rng.standard_normal((n, n))
    a *= norm / max(np.abs(a).sum(axis=0).max(), np.abs(a).sum(axis=1).max())
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    pump = g @ g.conj().T
    pump *= pump_norm / np.abs(pump).max()
    blocks = van_loan_blocks(a, pump)
    got = _expm_taylor(blocks)
    for block, e in zip(blocks, got):
        with mpmath.workdps(40):
            want = np.array(mpmath.expm(mpmath.matrix(block.tolist())).tolist(), dtype=float)
        assert np.abs(e - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max()



# ---------------------------------------------------------------------------
# stacked trajectories


def test_fields_are_read_only_stacks():
    sys = mixed_reference()
    traj = simulate(sys, t_final=0.05, dt=0.01, mu0=[1.0, -2.0, 0.5])
    assert isinstance(traj.times, tuple) and len(traj.times) == 6
    assert isinstance(traj.means, np.ndarray)
    assert isinstance(traj.second_moments, np.ndarray)
    assert (traj.means.shape, traj.means.dtype) == ((6, 3), np.float64)
    assert (traj.second_moments.shape, traj.second_moments.dtype) == ((6, 3, 3), np.complex128)
    for field in (traj.means, traj.second_moments):
        assert not field.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            field[0] = 0.0
        # a sample is a view of the stack and stays read-only too
        assert not field[-1].flags.writeable


def test_long_blocked_run_matches_single_steps():
    # 410 steps run in 19 blocks of 21 and a last block of 11; the
    # reference advances one exact step at a time
    sys = mixed_reference()
    n, dt, n_steps = 3, 0.005, 410
    pump = sys.b @ sys.structure.f_w @ sys.b.T
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n], block[:n, n:], block[n:, n:] = sys.a, pump, -sys.a.T
    e = scipy.linalg.expm(block * dt)
    phi, q_d = e[:n, :n].real, e[:n, n:] @ e[:n, :n].real.T
    mu0 = np.array([1.0, -2.0, 0.5])
    traj = simulate(sys, t_final=n_steps * dt, dt=dt, mu0=mu0)
    assert traj.second_moments.shape == (n_steps + 1, n, n)
    mu, sigma = mu0, traj.second_moments[0]
    for k in range(1, n_steps + 1):
        mu, sigma = phi @ mu, phi @ sigma @ phi.T + q_d
        assert np.linalg.norm(traj.second_moments[k] - sigma) <= 1e-13 * np.linalg.norm(sigma)
        assert np.linalg.norm(traj.means[k] - mu) <= 1e-13 * np.linalg.norm(mu0)


@pytest.mark.parametrize("first_bad", [35, 40, 41])
def test_divergence_names_first_non_finite_step(first_bad):
    # 100 steps run in blocks of 10, so step 35 is mid-block, 40 ends a
    # block and 41 starts one.  A = lam I scales Sigma by exactly 1e4 per
    # step (up to the pump's 1/2lam), and the initial scale puts step
    # first_bad - 1 near 1e306 and step first_bad near 1e310, past the
    # largest double by a factor of 100 either way
    dt = 0.01
    lam = math.log(1e4) / (2 * dt)
    eye = np.eye(2)
    sys = StandardSystem(CAVITY_DIMS, lam * eye, eye, -eye, eye)
    scale = 10.0 ** (310.25 - 4 * first_bad)
    sigma0 = scale * eye + 1j * sys.structure.theta_n
    with pytest.raises(ValueError) as info:
        simulate(sys, sigma0, t_final=100 * dt, dt=dt)
    assert str(info.value) == ("moments diverged to non-finite values at step "
                               f"{first_bad} (t = {first_bad * dt:.6g})")


@pytest.mark.parametrize("first_bad", [32, 33, 64])
def test_divergence_names_first_non_finite_step_at_doubling_rounds(first_bad):
    # 100 steps fill in rounds that start at steps 1, 2, 4, ..., 64: step 32
    # opens a round from sample 0, 33 follows it from sample 1, and 64 opens
    # the last round.  The system and scales are those of the test above
    dt = 0.01
    lam = math.log(1e4) / (2 * dt)
    eye = np.eye(2)
    sys = StandardSystem(CAVITY_DIMS, lam * eye, eye, -eye, eye)
    scale = 10.0 ** (310.25 - 4 * first_bad)
    sigma0 = scale * eye + 1j * sys.structure.theta_n
    with pytest.raises(ValueError) as info:
        simulate(sys, sigma0, t_final=100 * dt, dt=dt)
    assert str(info.value) == ("moments diverged to non-finite values at step "
                               f"{first_bad} (t = {first_bad * dt:.6g})")


@pytest.mark.parametrize("theta", [np.eye(2), np.zeros((3, 2)), np.zeros(9), np.zeros((1, 3, 3))],
                         ids=["smaller", "not-square", "flat", "stacked"])
def test_skew_drift_rejects_mismatched_theta(theta):
    traj = simulate(mixed_reference(), t_final=0.01, dt=1e-3)
    message = (f"skew_drift: theta_n of shape {theta.shape} does not match "
               "second moments of shape (11, 3, 3)")
    with pytest.raises(ValueError) as info:
        skew_drift(traj, theta)
    assert str(info.value) == message


def test_skew_drift_reads_tuple_fields():
    sys = mixed_reference()
    b = sys.b.copy()
    b[0, 0] += 0.2
    broken = StandardSystem(sys.dims, sys.a, b, sys.c, sys.d)
    theta = sys.structure.theta_n
    traj = simulate(broken, t_final=0.5, dt=1e-3)
    by_hand = MomentTrajectory(traj.times, tuple(traj.means), tuple(traj.second_moments))
    assert skew_drift(by_hand, theta) == skew_drift(traj, theta) > 0.0
    listed = MomentTrajectory(traj.times, traj.means.tolist(), traj.second_moments.tolist())
    assert skew_drift(listed, theta) == skew_drift(traj, theta)


def old_skew_drift(sigmas, theta_n):
    # the per-sample formula skew_drift used before it stacked its input
    worst = 0.0
    for s in sigmas:
        dev_re = (s.imag - s.imag.T) / 2.0 - theta_n
        dev_im = (s.real - s.real.T) / 2.0
        worst = max(worst, np.sqrt((dev_re * dev_re + dev_im * dev_im).sum()))
    return worst


@pytest.mark.parametrize("n_q, n_c", [(1, 0), (1, 1), (4, 4), (16, 16)])
def test_skew_drift_matches_old_formula(n_q, n_c):
    rng = np.random.default_rng(97 + n_q)
    theta = make_structure(Dimensions(n_q, n_c, 2 * n_q, n_q, n_c)).theta_n
    n = theta.shape[0]
    for spread in (1.0, 1e-9):
        # Hermitian samples whose skew part sits `spread` away from theta
        g = rng.standard_normal((300, n, n))
        h = rng.standard_normal((300, n, n))
        stack = (g + g.transpose(0, 2, 1)) + 1j * (theta + spread * (h - h.transpose(0, 2, 1)))
        traj = MomentTrajectory(tuple(range(300)), np.zeros((300, n)), stack)
        want = old_skew_drift(stack, theta)
        assert abs(skew_drift(traj, theta) - want) <= 4 * np.finfo(float).eps * want


def test_skew_drift_carries_nan_and_scales_past_overflow():
    rng = np.random.default_rng(5)
    theta = make_structure(Dimensions(4, 4, 8, 4, 4)).theta_n
    g = rng.standard_normal((300, 12, 12))
    stack = g + 1j * (theta + g.transpose(0, 2, 1))
    drift = skew_drift(MomentTrajectory(tuple(range(300)), np.zeros((300, 12)), stack), theta)
    # the samples and theta times 2^600: every squared deviation overflows,
    # and the drift is the same number times 2^600, bit for bit
    big = np.ldexp(stack.real, 600) + 1j * np.ldexp(stack.imag, 600)
    traj = MomentTrajectory(tuple(range(300)), np.zeros((300, 12)), big)
    assert skew_drift(traj, np.ldexp(theta, 600)) == math.ldexp(drift, 600) < math.inf
    for k in (0, 150, 299):
        broken = stack.copy()
        broken[k, 3, 5] = np.nan
        traj = MomentTrajectory(tuple(range(300)), np.zeros((300, 12)), broken)
        assert math.isnan(skew_drift(traj, theta))


def drift_chunk(n):
    return max(1, _DRIFT_CHUNK // (n * n))


def hermitian_near(theta, count, rng):
    """Hermitian samples whose skew part sits about 1e-3 away from theta."""
    n = theta.shape[0]
    g = rng.standard_normal((count, n, n))
    h = rng.standard_normal((count, n, n))
    return (g + g.transpose(0, 2, 1)) + 1j * (theta + 1e-3 * (h - h.transpose(0, 2, 1)))


NON_FINITE_CELLS = [(n, where, part, value)
                    for n in (1, 3, 12)
                    for where in (("diagonal",) if n == 1 else ("diagonal", "upper", "lower"))
                    for part in ("real", "imag")
                    for value in (np.nan, np.inf, -np.inf)]


@pytest.mark.parametrize("n, where, part, value", NON_FINITE_CELLS,
                         ids=[f"n{n}-{where}-{part}-{value}" for n, where, part, value in
                              NON_FINITE_CELLS])
@pytest.mark.parametrize("at", ["last-of-chunk", "first-of-next-chunk"])
def test_skew_drift_non_finite_entry(n, where, part, value, at):
    # a NaN anywhere, and any non-finite diagonal entry (S_ii - S_ii is
    # inf - inf), give NaN; an infinite off-diagonal entry gives inf
    theta = make_structure(Dimensions(n // 3, n - 2 * (n // 3), 2, 0, 0)).theta_n
    chunk = drift_chunk(n)
    stack = hermitian_near(theta, chunk + 1, np.random.default_rng(n))
    k = chunk - 1 if at == "last-of-chunk" else chunk
    i, j = {"diagonal": (n - 1, n - 1), "upper": (0, n - 1), "lower": (n - 1, 0)}[where]
    getattr(stack[k], part)[i, j] = value
    traj = MomentTrajectory(tuple(range(chunk + 1)), np.zeros((chunk + 1, n)), stack)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        drift = skew_drift(traj, theta)
    if math.isnan(value) or where == "diagonal":
        assert math.isnan(drift)
    else:
        assert drift == math.inf


def ulps_apart(x, y):
    return abs(x - y) / np.spacing(max(x, y))


@pytest.mark.parametrize("n", [1, 2, 48])
@pytest.mark.parametrize("extra", [-1, 0, 1], ids=["chunk-1", "chunk", "chunk+1"])
@pytest.mark.parametrize("theta_kind", ["skew", "not-skew"])
def test_skew_drift_is_within_4_ulps_of_the_full_matrix_formula(n, extra, theta_kind):
    rng = np.random.default_rng(7 * n + extra)
    theta = make_structure(Dimensions(n // 2, n % 2, 2, 0, 0)).theta_n
    if theta_kind == "not-skew":
        theta = theta + rng.standard_normal((n, n))
    count = drift_chunk(n) + extra
    # samples that are not Hermitian either
    stack = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    traj = MomentTrajectory(tuple(range(count)), np.zeros((count, n)), stack)
    assert ulps_apart(skew_drift(traj, theta), old_skew_drift(stack, theta)) <= 4


def test_empty_state_trajectory():
    dims = Dimensions(n_q=0, n_c=0, m=1, n_yq=1, n_yc=0)
    sys = StandardSystem(dims, np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), np.eye(2))
    traj = simulate(sys, t_final=0.1, dt=0.01)
    assert traj.means.shape == (11, 0)
    assert traj.second_moments.shape == (11, 0, 0)
    assert skew_drift(traj, sys.structure.theta_n) == 0.0
    assert skew_drift(MomentTrajectory((), (), ()), np.eye(2)) == 0.0


VACUUM_NAN_CORNER = np.array([[np.nan, 1j], [-1j, 1.0]])


@pytest.mark.parametrize("sigma0, mu0, name", [
    (VACUUM_NAN_CORNER, None, "sigma0"),
    (np.full((2, 2), np.inf), None, "sigma0"),
    (None, [np.nan, 0.0], "mu0"),
], ids=["nan-sigma0", "inf-sigma0", "nan-mu0"])
def test_non_finite_initial_moments_rejected(sigma0, mu0, name):
    # rejected as input before the Hermitian and skew checks can warn or
    # the propagation can report a divergence
    with pytest.raises(ValueError, match=f"^{name}: entries must be finite$"):
        simulate(damped_cavity(), sigma0, t_final=0.1, dt=0.01, mu0=mu0)
