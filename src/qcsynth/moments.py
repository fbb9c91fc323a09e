"""Exact first and second moment propagation for standard-form dynamics.

For linear dynamics driven by stationary noise the first two moments are
closed: d mu/dt = A mu and d Sigma/dt = A Sigma + Sigma A^T + B F_w B^T.
Over one step dt they advance exactly as mu -> Phi mu and
Sigma -> Phi Sigma Phi^T + Q_d, with Phi = exp(A dt) and Q_d the integrated
noise, both read off one block exponential (Van Loan, "Computing integrals
involving the matrix exponential", IEEE TAC 1978).  The step size sets
only the sampling grid; it adds no truncation error.

Commutation preservation is a second-moment statement, so the trajectory
doubles as a numerical witness: the skew part of Sigma stays pinned at
theta_n exactly when the state-commutation condition holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sysmodel import StandardSystem

__all__ = ["MomentTrajectory", "simulate", "skew_drift"]

_SIGMA0_SKEW_TOL = 1e-8
# t_final must be this close (relative) to a whole number of dt steps.
_GRID_TOL = 1e-9
# Samples per skew_drift chunk are capped so that a chunk holds at most
# this many matrix entries, keeping its temporaries small.
_DRIFT_CHUNK = 16384
# 1/k! for the degree-18 Taylor polynomial of _expm_taylor.
_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(19))


@dataclass(frozen=True)
class MomentTrajectory:
    """Samples of (mu, Sigma) on the grid times[k] = k dt.

    `times` is a tuple of N + 1 floats; `means` is the real (N + 1, n) array
    and `second_moments` the complex (N + 1, n, n) array of the samples, so
    that traj.means[k] and traj.second_moments[k] are the moments at
    times[k].  simulate returns both arrays read-only.
    """

    times: tuple[float, ...]
    means: np.ndarray
    second_moments: np.ndarray


def _expm_taylor(x: np.ndarray) -> np.ndarray:
    """exp(x) for a stack of matrices whose powers obey |x^k| <= k |x|.

    That holds for x of norm at most 1 and for the blocks of _exact_step.
    Past degree 18 the Taylor series then adds less than
    sum_{k>18} k/k! ~ 1.7e-16 of |x|, so no scaling and squaring is needed
    (Higham, SIAM J. Matrix Anal. Appl. 2005).  Paterson-Stockmeyer
    evaluates the polynomial in powers of x^4 with 7 products; the identity
    is added last, so that the small terms sum before they meet the unit
    diagonal.
    """
    c = _TAYLOR
    eye = np.eye(x.shape[-1])
    x2 = x @ x
    x3 = x2 @ x
    x4 = x2 @ x2
    acc = c[16] * eye + c[17] * x + c[18] * x2
    for j in (12, 8, 4):
        acc = acc @ x4 + (c[j] * eye + c[j + 1] * x + c[j + 2] * x2 + c[j + 3] * x3)
    acc = acc @ x4 + (x + c[2] * x2 + c[3] * x3)
    return acc + eye


def _halvings(a: np.ndarray, h: float) -> int | None:
    """Halvings of h that bring h max(|A|_1, |A|_inf) to at most 1; None
    when that product overflows, as no count of halvings reaches it."""
    mags = np.abs(a)
    scale = h * float(max(mags.sum(axis=0).max(initial=0.0),
                          mags.sum(axis=1).max(initial=0.0)))
    if scale == math.inf:
        return None
    return math.ceil(math.log2(scale)) if scale > 1.0 else 0


def _exact_step(a: np.ndarray, pump: np.ndarray, dt: float):
    """Transition Phi = exp(A dt) and noise term Q_d of one step of length dt.

    The top row of exp([[A, P], [0, -A^T]] h) is [exp(A h), Q_h exp(-A^T h)].
    Q_h is linear in P, so the real and imaginary parts of P go through two
    real exponentials in one batched evaluation, which is cheaper than one
    complex one.  When h |A| >> 1 the block mixes exp(A h) with exp(-A^T h)
    and loses digits to their ratio, so h is dt halved until
    h max(|A|_1, |A|_inf) <= 1 and the sub-steps are composed by doubling:
    Q <- Phi Q Phi^T + Q, Phi <- Phi^2.  At that h both diagonal blocks have
    1-norm at most 1 and the top right block of the k-th power at most
    k |P h|_1, so the Taylor step of _expm_taylor is exact to round-off
    whatever P is.
    """
    n = a.shape[0]
    # an overflowed scale runs unscaled, and simulate reports the non-finite step
    halvings = _halvings(a, dt) or 0
    blocks = np.zeros((2, 2 * n, 2 * n))
    blocks[:, :n, :n] = a
    blocks[:, n:, n:] = -a.T
    blocks[0, :n, n:] = pump.real
    blocks[1, :n, n:] = pump.imag
    e = _expm_taylor(blocks * math.ldexp(dt, -halvings))
    phi = e[0, :n, :n]
    q = (e[0, :n, n:] + 1j * e[1, :n, n:]) @ phi.T
    for _ in range(halvings):
        q = phi @ q @ phi.T + q
        phi = phi @ phi
    return phi, (q + q.conj().T) / 2.0


def _congruences(powers: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Stack of Phi_j Sigma Phi_j^T for real Phi_j = powers[j] and complex Sigma.

    A real matrix acts on the real and imaginary parts of a complex one
    alike, so both products run in real arithmetic on float views of the
    complex operand: one product for every Phi_j Sigma at once, and one
    batched product for the transposed remainder.
    """
    size, n, _ = powers.shape
    left = (powers.reshape(size * n, n) @ sigma.view(float)).view(complex)
    left_t = left.reshape(size, n, n).transpose(0, 2, 1).copy()
    # (Phi_j Sigma Phi_j^T)^T = Phi_j (Phi_j Sigma)^T
    return (powers @ left_t.view(float)).view(complex).transpose(0, 2, 1)


def _grid_steps(t_final: float, dt: float) -> int:
    """Step count of a sample grid; t_final must be a whole number of dt steps."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not 0.0 <= t_final < math.inf:
        raise ValueError(f"t_final must be nonnegative and finite, got {t_final}")
    ratio = t_final / dt
    if not (ratio < math.inf and abs(ratio - round(ratio)) <= _GRID_TOL * ratio):
        raise ValueError(f"t_final = {t_final} is not a whole number of "
                         f"dt = {dt} steps")
    return round(ratio)


def simulate(sys: StandardSystem, sigma0=None, *, t_final: float, dt: float,
             mu0=None) -> MomentTrajectory:
    """Exact trajectory of (mu, Sigma) sampled every dt up to t_final.

    Each sample is the exact flow of the moment equations (up to round-off),
    whatever dt is.  t_final must be a nonnegative whole number of dt steps.
    sigma0 and mu0 must be finite, and sigma0 Hermitian with skew part equal
    to theta_n (the vacuum default I + i theta_n is used when omitted).  Every stored Sigma is
    re-Hermitized by averaging with its conjugate transpose; the exact flow
    preserves Hermiticity, so this only cancels round-off.  Non-finite
    values abort with the offending step index.

    Samples are produced K = ceil(sqrt(N)) steps at a time from the
    precomputed powers Phi^j and sums Q_j = sum_{i<j} Phi^i Q_d Phi^iT,
    so N steps cost about 2 sqrt(N) batched products.
    """
    n_steps = _grid_steps(t_final, dt)
    st = sys.structure
    n = sys.dims.n
    if sigma0 is None:
        sigma0 = np.eye(n) + 1j * st.theta_n
    sigma0 = np.asarray(sigma0, dtype=complex)
    mu = np.zeros(n) if mu0 is None else np.asarray(mu0, dtype=float).copy()
    for name, value, shape in (("sigma0", sigma0, (n, n)), ("mu0", mu, (n,))):
        if value.shape != shape:
            raise ValueError(f"{name}: expected shape {shape}, got {value.shape}")
        if not np.isfinite(value).all():
            raise ValueError(f"{name}: entries must be finite")
    herm = np.max(np.abs(sigma0 - sigma0.conj().T)) if n else 0.0
    if herm > _SIGMA0_SKEW_TOL:
        raise ValueError(f"sigma0 is not Hermitian (max asymmetry {herm:.3e})")
    skew = np.max(np.abs((sigma0 - sigma0.T) / 2j - st.theta_n)) if n else 0.0
    if skew > _SIGMA0_SKEW_TOL:
        raise ValueError("sigma0 skew part does not match the state "
                         f"commutation matrix (max deviation {skew:.3e})")

    means = np.empty((n_steps + 1, n))
    sigmas = np.empty((n_steps + 1, n, n), dtype=complex)
    means[0] = mu
    sigmas[0] = (sigma0 + sigma0.conj().T) / 2.0
    stride = math.isqrt(n_steps - 1) + 1 if n_steps else 1
    # overflow is already reported through the non-finite abort below
    with np.errstate(over="ignore", invalid="ignore"):
        phi, q_d = _exact_step(sys.a, sys.b @ st.f_w @ sys.b.T, dt)
        # powers[j - 1] = Phi^j and sums[j - 1] = Q_j for j = 1..stride
        powers = np.empty((stride, n, n))
        powers[0] = phi
        for j in range(1, stride):
            powers[j] = phi @ powers[j - 1]
        terms = np.empty((stride, n, n), dtype=complex)
        terms[0] = q_d
        terms[1:] = _congruences(powers[:-1], q_d)
        sums = np.cumsum(terms, axis=0)
        for start in range(0, n_steps, stride):
            size = min(stride, n_steps - start)
            mu_out = means[start + 1:start + 1 + size]
            sigma_out = sigmas[start + 1:start + 1 + size]
            mu_out[:] = (powers[:size].reshape(size * n, n) @ means[start]).reshape(size, n)
            np.add(_congruences(powers[:size], sigmas[start]), sums[:size], out=sigma_out)
            # S + S^H on the float views: the same sums as the complex add
            re, im = sigma_out.real, sigma_out.imag
            re += re.transpose(0, 2, 1)
            im -= im.transpose(0, 2, 1)
            sigma_out *= 0.5
        # a sample depends only on earlier ones, so the first non-finite
        # sample is where the run diverged, whatever follows it
        finite = (np.isfinite(means[1:]).all(axis=1)
                  & np.isfinite(sigmas[1:].view(float)).all(axis=(1, 2)))
        if not finite.all():
            step = 1 + int(np.argmin(finite))
            raise ValueError(f"moments diverged to non-finite values at step "
                             f"{step} (t = {step * dt:.6g})")
    means.setflags(write=False)
    sigmas.setflags(write=False)
    times = tuple((np.arange(n_steps + 1) * dt).tolist())
    return MomentTrajectory(times, means, sigmas)


def skew_drift(traj: MomentTrajectory, theta_n) -> float:
    """Largest distance of the skew part of Sigma from theta_n over the run."""
    theta_n = np.asarray(theta_n)
    n = theta_n.shape[0]
    # a view of simulate's stack; a hand-built tuple of samples is stacked
    # once.  The sample count is given, as -1 is ambiguous when n = 0.
    sigmas = traj.second_moments
    sigmas = np.asarray(sigmas).reshape(len(sigmas), n, n)
    two_theta = 2.0 * theta_n
    chunk = max(1, _DRIFT_CHUNK // max(1, n * n))
    worst = 0.0
    for start in range(0, len(sigmas), chunk):
        s = sigmas[start:start + chunk]
        # 2 (S - S^T)/2i has real part Im S - Im S^T and imaginary part
        # Re S^T - Re S; the factor 2 comes off exactly at the end
        re, im = s.real, s.imag
        dev_re = im - im.transpose(0, 2, 1) - two_theta
        dev_im = re - re.transpose(0, 2, 1)
        sq = (np.einsum("kij,kij->k", dev_re, dev_re)
              + np.einsum("kij,kij->k", dev_im, dev_im))
        worst = max(worst, float(sq.max()))
    return math.sqrt(worst) / 2.0
