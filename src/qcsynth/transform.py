"""General-form to standard-form conversion and transfer-function checks.

The conversion produces a witness (p_n, w, p_y) tying the two models
together: state change of basis, input factor routing each noise channel
through a quadrature pair, and output change of basis.  Correctness is
always checked behaviorally, through the witness identities and
transfer-function agreement, never through equality of the non-unique
factors themselves.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .matkit import DEFAULT_TOL, ito_factorize, skew_canonical
from .sysmodel import Dimensions, GeneralSystem, StandardSystem, validate

__all__ = [
    "TransformWitness",
    "to_standard",
    "transfer_equiv_check",
    "DEFAULT_SAMPLE_POINTS",
]

DEFAULT_SAMPLE_POINTS = (1.0 + 0.0j, 2.0 + 1.0j, -1.0 + 3.0j, 0.5 - 0.5j, 10.0 + 0.0j)

# A sample point closer than this (relative to 1 + |s|) to an eigenvalue of
# the general model's dynamics is shifted before evaluation.  Round-off in the
# resolvent grows like 1/distance: at 2.7e-4 from an eigenvalue of a
# 24-state model an exact witness deviated by 1e-7 relative, and at 1e-2 the
# same case reads 2e-13.
_EIGEN_CLEARANCE = 1e-2
_RESAMPLE_SHIFT = 0.37
# Sample points per batched evaluation are capped so that each stacked
# temporary holds at most this many complex entries (128 KiB).  Larger
# temporaries go back to the OS when freed (glibc's malloc maps them
# separately) and are faulted in again on every call: at n = 48, five points
# in one batch took 478 page faults and ran 1.3x slower than one at a time.
_BATCH_ENTRIES = 8192


@dataclass(frozen=True)
class TransformWitness:
    """Invertible factors relating a general-form model to its standard form.

    The defining identities, each checkable by direct multiplication:
    standard.a = p_n a_g p_n^{-1}, standard.b = p_n b_g w,
    standard.c = p_y c_g p_n^{-1}, standard.d = p_y d_g w,
    theta_n = p_n big_theta_n p_n^T, theta_y_target = p_y theta_y p_y^T.
    """

    p_n: np.ndarray
    w: np.ndarray
    p_y: np.ndarray
    standard: StandardSystem


def _right_div(m_mat: np.ndarray, p: np.ndarray) -> np.ndarray:
    # m_mat @ inv(p) without forming the inverse.
    return np.linalg.solve(p.T, m_mat.T).T


def to_standard(g: GeneralSystem, tol: float = DEFAULT_TOL) -> TransformWitness:
    """Convert a general-form model to standard form.

    The state commutation matrix is brought to canonical form by congruence
    (fixing p_n and the split n = 2 n_q + n_c), the input Ito matrix is
    factored through vacuum quadrature channels (fixing w), and the output
    commutation matrix is brought to canonical form the same way (fixing
    p_y and the split n_y = 2 n_yq + n_yc).  A conversion whose products
    overflow raises ValueError naming the first standard-form block that is
    not finite.
    """
    problems = validate(g)
    if problems:
        raise ValueError("invalid general-form system: " + "; ".join(problems))
    witness = _convert(g, tol)
    std = witness.standard
    bad = next((name for name in ("a", "b", "c", "d")
                if not np.isfinite(getattr(std, name)).all()), None)
    if bad is not None:
        raise ValueError(f"to_standard: the standard-form {bad} is not finite "
                         "(the conversion products overflowed)")
    return witness


def _convert(g: GeneralSystem, tol: float) -> TransformWitness:
    # to_standard on a model that validate already passed.
    canon_n = skew_canonical(g.big_theta_n, tol)
    w = ito_factorize(g.f_v, tol).w
    # theta_y is computed from f_y, so round-off dust rides along at the
    # scale of f_y; without this cut an all-classical output block would be
    # mistaken for quantum pairs and scaled by 1/sqrt(dust)
    theta_y = g.theta_y
    if theta_y.size and np.abs(theta_y).max() <= tol * np.abs(g.f_y).max():
        theta_y = np.zeros_like(theta_y)
    canon_y = skew_canonical(theta_y, tol)
    dims = Dimensions(canon_n.n_q, canon_n.n_c, g.m, canon_y.n_q, canon_y.n_c)
    p_n, p_y = canon_n.p, canon_y.p
    # an overflow leaves non-finite entries, which transfer_equiv_check reports
    with np.errstate(over="ignore", invalid="ignore"):
        # A and C share the right factor p_n^{-1}: one solve, stacked
        a, c = np.split(_right_div(np.concatenate([p_n @ g.a_g, p_y @ g.c_g]), p_n), [g.n])
        b = p_n @ g.b_g @ w
        d = p_y @ g.d_g @ w
    return TransformWitness(p_n, w, p_y, StandardSystem(dims, a, b, c, d))


def _transfer_stack(a, b, c, d, points) -> np.ndarray:
    # C (sI - A)^{-1} B + D for every s in points, stacked along axis 0: one
    # batched solve on the pencils sI - A, against B or, when C has fewer
    # rows than B has columns, on the transposed system, since
    # Xi(s)^T = B^T (sI - A^T)^{-1} C^T + D^T.  Real A and B at real points
    # are solved on real pencils, an LU at a quarter of the complex flops.
    a = np.asarray(a)
    b = np.asarray(b)
    c = np.asarray(c)
    d = np.asarray(d)
    n = a.shape[0]
    if n == 0:
        return np.repeat(d[None].astype(complex), len(points), axis=0)
    if c.shape[0] < b.shape[1]:
        return _transfer_stack(a.T, c.T, b.T, d.T, points).transpose(0, 2, 1)
    s = np.asarray(points, dtype=complex)
    if a.dtype.kind == "c" or b.dtype.kind == "c" or s.imag.any():
        pencils, rhs = s[:, None, None] * np.eye(n) - a, b.astype(complex)
    else:
        pencils, rhs = s.real[:, None, None] * np.eye(n) - a, b
    try:
        resolvent_b = np.linalg.solve(pencils, rhs)
    except np.linalg.LinAlgError:
        raise ValueError(f"sample point {' or '.join(map(str, points))} is an "
                         "eigenvalue of the dynamics")
    if resolvent_b.dtype.kind == "c" and c.dtype.kind != "c":
        # a real C acts on the real and imaginary parts alike: one real product
        # on the float view, half the flops of the complex one
        return (c @ resolvent_b.view(float)).view(complex) + d
    return (c @ resolvent_b + d).astype(complex, copy=False)


def _clear_of_eigenvalues(points, spectra: list[np.ndarray],
                          clearance: float) -> np.ndarray:
    # Shift each point by _RESAMPLE_SHIFT until its distance from every
    # spectrum exceeds clearance (1 + |s|), at most 100 times; every point
    # is measured in one distance matrix per round.
    points = np.array(points, dtype=complex)
    eig = np.concatenate(spectra)
    for _ in range(100):
        dist = np.abs(points[:, None] - eig).min(axis=1, initial=np.inf)
        close = ~(dist > clearance * (1.0 + np.abs(points)))
        if not close.any():
            return points
        points[close] += _RESAMPLE_SHIFT
    raise ValueError("could not clear the sample point of eigenvalues")


def transfer_equiv_check(g: GeneralSystem, tw: TransformWitness,
                         sample_points=None, tol: float = DEFAULT_TOL) -> float:
    """Max deviation of the two transfer functions over the sample points.

    Evaluates || Xi_standard(s) - p_y Xi_general(s) w ||_F at each sample,
    shifting any sample that lands within tol (at least a fixed clearance)
    of an eigenvalue of a_g.  Only that one spectrum is computed: a valid
    witness gives standard.a = p_n a_g p_n^{-1} the same eigenvalues, and
    keeps the result at round-off level; an invalid one already deviates by
    O(1), which a pole of standard.a near a sample can only enlarge.  A
    sample that is exactly an eigenvalue of standard.a raises ValueError,
    and so does a non-finite sample.  An overflow gives inf or NaN, without
    a warning.
    """
    if sample_points is None:
        sample_points = DEFAULT_SAMPLE_POINTS
    clearance = max(tol, _EIGEN_CLEARANCE)
    std = tw.standard
    points = [complex(s) for s in sample_points]
    for s in points:
        if not cmath.isfinite(s):
            raise ValueError(f"sample point {s} is not finite")
    poles = np.linalg.eigvals(g.a_g) if g.n else np.zeros(0)
    points = _clear_of_eigenvalues(points, [poles], clearance)
    # p_y Xi_general(s) w is the transfer function of the general model
    # folded through the witness, (A_g, B_g w, p_y C_g, p_y D_g w), which has
    # the standard model's shapes.  Per point the largest temporaries are a
    # pencil (n x n) and a transfer matrix (n_y x width).
    (n_y, n), width = std.c.shape, std.b.shape[1]
    step = max(1, _BATCH_ENTRIES // max(1, n * n, n_y * width))
    worst = 0.0
    # An overflow leaves inf or NaN entries, without a warning; np.maximum,
    # unlike max (max(0.0, nan) is 0.0), carries a NaN through.
    with np.errstate(over="ignore", invalid="ignore"):
        b_fold, c_fold, d_fold = g.b_g @ tw.w, tw.p_y @ g.c_g, tw.p_y @ g.d_g @ tw.w
        for i in range(0, len(points), step):
            batch = points[i:i + step]
            xi_s = _transfer_stack(std.a, std.b, std.c, std.d, batch)
            xi_f = _transfer_stack(g.a_g, b_fold, c_fold, d_fold, batch)
            worst = np.maximum(worst, np.linalg.norm(xi_s - xi_f, axis=(1, 2)).max())
    return float(worst)
