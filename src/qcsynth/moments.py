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
from functools import lru_cache

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
        phi, q = _doubled(phi, q)
    return phi, (q + q.conj().T) / 2.0


def _doubled(phi: np.ndarray, q: np.ndarray):
    """Two steps of h as one of 2h: (Phi_2h, Q_2h) = (Phi_h^2, Phi_h Q_h Phi_h^T + Q_h)."""
    return phi @ phi, phi @ q @ phi.T + q


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

    Samples are filled by doubling: with samples 0..h-1 known and (Phi_h, Q_h)
    the transition and noise term of h steps, Sigma_{h+j} = Phi_h Sigma_j
    Phi_h^T + Q_h and mu_{h+j} = Phi_h mu_j for j < h, and then h doubles.
    N steps take ceil(log2(N + 1)) rounds of batched products, two per sample.
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

    chunk = min(max(1, _DRIFT_CHUNK // max(1, n * n)), max(1, n_steps))
    # overflow is already reported through the non-finite abort below
    with np.errstate(over="ignore", invalid="ignore"):
        # the step's temporaries are freed before the stacks and the one
        # block buffer are allocated, so those set the peak footprint
        phi, q = _exact_step(sys.a, sys.b @ st.f_w @ sys.b.T, dt)
        means = np.empty((n_steps + 1, n))
        sigmas = np.empty((n_steps + 1, n, n), dtype=complex)
        means[0] = mu
        sigmas[0] = (sigma0 + sigma0.conj().T) / 2.0
        work = np.empty((chunk, n, n), dtype=complex)
        h = 1  # samples 0..h-1 are filled and (phi, q) = (Phi_h, Q_h)
        while h <= n_steps:
            size = min(h, n_steps + 1 - h)
            np.matmul(means[:size], phi.T, out=means[h:h + size])
            # the Hermitian average's 1/2, applied to the second product and
            # to Q: halving is exact, so the samples keep every bit, except
            # in the subnormal range, and except sums between half the float
            # maximum and the maximum, which no longer overflow
            half_phi, half_q_t = 0.5 * phi, np.ascontiguousarray(0.5 * q.T)
            for start in range(0, size, chunk):
                stop = min(start + chunk, size)
                out, lo = sigmas[h + start:h + stop], work[:stop - start]
                # Phi acts on the real and imaginary parts of Sigma alike, so
                # both products run in real arithmetic on float views, with
                # the output block as scratch for the transposed product:
                # lo = Phi (Phi Sigma)^T / 2 + Q^T / 2 = (Phi Sigma Phi^T + Q)^T / 2
                np.matmul(phi, sigmas[start:stop].view(float), out=lo.view(float))
                np.copyto(out, lo.transpose(0, 2, 1))
                np.matmul(half_phi, out.view(float), out=lo.view(float))
                lo += half_q_t
                # (S + S^H) / 2 of S = 2 lo^T, as conj(lo) + lo^T in place
                np.conjugate(lo, out=out)
                out += lo.transpose(0, 2, 1)
            h *= 2
            if h <= n_steps:
                phi, q = _doubled(phi, q)
        # One pass over all samples; only a failed run scans step by step.
        # A sample depends only on earlier ones, so the first non-finite
        # sample is where the run diverged, whatever follows it.
        if not (np.isfinite(means[1:]).all() and np.isfinite(sigmas[1:].view(float)).all()):
            finite = (np.isfinite(means[1:]).all(axis=1)
                      & np.isfinite(sigmas[1:].view(float)).all(axis=(1, 2)))
            step = 1 + int(np.argmin(finite))
            raise ValueError(f"moments diverged to non-finite values at step "
                             f"{step} (t = {step * dt:.6g})")
    means.setflags(write=False)
    sigmas.setflags(write=False)
    times = tuple((np.arange(n_steps + 1) * dt).tolist())
    return MomentTrajectory(times, means, sigmas)


def _binade(x: float) -> float:
    """The power of two at the leading bit of x >= 0 (0.5 for 0, inf and NaN):
    dividing by it is exact and brings a finite x into [1, 2)."""
    return math.ldexp(0.5, math.frexp(x)[1])


@lru_cache
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices, into an n x n matrix, of (i, j) and of (j, i) for every
    i <= j: each off-diagonal pair once, and the diagonal."""
    i, j = np.triu_indices(n)
    index = i * n + j, j * n + i
    for k in index:
        k.setflags(write=False)
    return index


def _scaled(x: np.ndarray, p: float) -> np.ndarray:
    """x / p, on the float view: a complex division turns inf into NaN."""
    return (x.view(float) / p).view(x.dtype)


def _chunk_drift(flat: np.ndarray, index, two_skew: np.ndarray, sym: np.ndarray,
                 scaled: bool):
    """The largest skew drift over a stack of flattened samples.

    Twice the deviation, 2 (S - S^T)/2i - 2 theta_n, is the antisymmetric
    (S - S^T)/i - (theta_n - theta_n^T) minus the symmetric
    sym = theta_n + theta_n^T, and the two are orthogonal.  The pairs (i, j),
    (j, i) of the first have equal squares, so each pair is read once, as
    S_ij - S_ji - two_skew with two_skew = i (theta_ij - theta_ji), whose
    modulus is that entry's; the sum is doubled, exactly, and sym adds
    |sym|^2.  On the diagonal S - S^T is 0, or NaN from a non-finite entry.

    Unscaled, the squared deviations overflow once a drift passes about
    1e154.  Scaled, the samples are divided by the power of two at their
    largest entry and the deviations by the one at their largest value,
    both exactly, so that only the final product can overflow.
    """
    upper, lower = (np.take(flat, k, axis=1) for k in index)
    unit = 0.5
    if scaled:
        top = _binade(max(np.abs(x.view(float)).max(initial=0.0)
                          for x in (upper, lower, two_skew, sym)))
        upper, lower, two_skew, sym = (_scaled(x, top) for x in (upper, lower, two_skew, sym))
        unit *= top
    dev = np.subtract(upper, lower, out=upper)
    dev -= two_skew[:len(dev)]
    dev = dev.view(float)
    if scaled:
        step = _binade(max(np.abs(dev).max(initial=0.0), np.abs(sym).max(initial=0.0)))
        dev, sym, unit = dev / step, sym / step, unit * step
    sq = 2.0 * np.vecdot(dev, dev) + sym @ sym
    return np.sqrt(sq.max()) * unit


def skew_drift(traj: MomentTrajectory, theta_n) -> float:
    """Largest distance of the skew part of Sigma from theta_n over the run.

    The distance is the Frobenius norm of (Sigma - Sigma^T)/2i - theta_n.
    With theta_n skew that deviation is antisymmetric, so each (i, j), (j, i)
    pair of entries is read once; a theta_n that is not skew adds the
    squared norm of its symmetric part to every sample's squared drift.
    theta_n must be square and of the samples' shape, else ValueError.  A NaN sample, or a non-finite
    entry on a diagonal, gives NaN, and an infinite off-diagonal entry gives
    inf (NaN when the same part of its mirror entry is an infinity of the
    same sign).  A finite drift beyond the float range gives inf; below it
    the result is finite, as a sum of squares that overflows is summed again
    scaled.
    """
    theta_n = np.asarray(theta_n)
    # a view of simulate's stack; a hand-built tuple of samples is stacked once
    sigmas = np.asarray(traj.second_moments)
    if (theta_n.ndim != 2 or theta_n.shape[0] != theta_n.shape[1]
            or (len(sigmas) and sigmas.shape[1:] != theta_n.shape)):
        raise ValueError(f"skew_drift: theta_n of shape {theta_n.shape} does not "
                         f"match second moments of shape {sigmas.shape}")
    # shapes an empty run, whose samples have no shape to check
    flat = sigmas.astype(complex, copy=False).reshape(len(sigmas), theta_n.size)
    theta_n = theta_n.astype(float)
    index = _pair_index(len(theta_n))
    chunk = max(1, _DRIFT_CHUNK // max(1, theta_n.size))
    # one row per sample of a chunk: subtracting a broadcast row is slower
    two_skew = np.zeros((min(chunk, len(flat)), len(index[0])), dtype=complex)
    two_skew.imag = theta_n.flat[index[0]] - theta_n.flat[index[1]]
    sym = (theta_n + theta_n.T).ravel()
    chunks = [flat[start:start + chunk] for start in range(0, len(flat), chunk)]
    # np.max, unlike max (max(0.0, nan) is 0.0), carries a NaN through
    with np.errstate(over="ignore", invalid="ignore"):
        worst = np.max([_chunk_drift(s, index, two_skew, sym, False) for s in chunks],
                       initial=0.0)
        # scaling more than doubles the passes over the samples, so only a
        # sum that overflowed pays for it
        if worst == math.inf:
            worst = np.max([_chunk_drift(s, index, two_skew, sym, True) for s in chunks])
    return float(worst)
