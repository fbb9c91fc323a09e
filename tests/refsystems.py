"""Reference systems and matrices shared across the test suite.

The mixed reference system has one oscillator mode, one classical state
variable, three field channels, one output quadrature pair and one
classical output.  Its entries satisfy all realizability conditions
exactly in decimal arithmetic, which makes it the anchor for regression
tests: residuals must come out at rounding level, not merely below a
loose tolerance.
"""

import numpy as np

from qcsynth import Dimensions, StandardSystem, generate_realizable

MIXED_DIMS = Dimensions(n_q=1, n_c=1, m=3, n_yq=1, n_yc=1)

MIXED_A = np.array([
    [-9.0, -3.0, -1.0],
    [1.0, -7.0, -3.0],
    [-0.72, -0.6, -12.0],
])
MIXED_B = np.array([
    [1.0, 2.0, -7.0, 0.0, -3.0, 5.0],
    [2.0, 5.0, 1.0, -3.0, 6.0, -8.0],
    [0.0, 0.12, 0.0, 0.0, 0.0, -0.16],
])
MIXED_C = np.array([
    [38.0, 46.0, -42.0],
    [0.31, 0.4, 0.35],
    [4.2, -6.0, 5.0],
])
MIXED_D = np.array([
    [8.0, 0.0, 10.0, 0.0, 6.0, 0.0],
    [0.0, 0.04, 0.0, 0.05, 0.0, 0.03],
    [0.0, 0.8, 0.0, -1.0, 0.0, 0.6],
])


def mixed_reference() -> StandardSystem:
    return StandardSystem(MIXED_DIMS, MIXED_A, MIXED_B, MIXED_C, MIXED_D)


CAVITY_DIMS = Dimensions(n_q=1, n_c=0, m=1, n_yq=1, n_yc=0)


def damped_cavity() -> StandardSystem:
    # A = -I/2 cancels the vacuum pump term; C = -I is forced by the
    # non-demolition condition once B = D = I.
    eye = np.eye(2)
    return StandardSystem(CAVITY_DIMS, -0.5 * eye, eye, -eye, eye)


# Rank-2 Hermitian test matrix for the Ito factorization, given through its
# eigenfactors so the product is nonnegative by construction.  FV_ROUNDED is
# the same matrix carried at four decimals; the rounding pushes its smallest
# eigenvalue to about -1.7e-5, so the rounded copy is (just) indefinite.
FV_EIGVECS = np.array([
    [0.6814, 0.6814, 0.2673],
    [-0.1572 - 0.3922j, -0.1572 + 0.3922j, 0.8018],
    [0.1048 - 0.5883j, 0.1048 + 0.5883j, -0.5345],
])
FV_EIGVALS = np.array([18.0, 0.0, 8.0])


def fv_exact() -> np.ndarray:
    f = FV_EIGVECS @ np.diag(FV_EIGVALS) @ FV_EIGVECS.conj().T
    return (f + f.conj().T) / 2.0


FV_ROUNDED = np.array([
    [8.9286, -0.2143 + 4.8107j, 0.1429 + 7.2161j],
    [-0.2143 - 4.8107j, 8.3571, 0.4286 - 2.4054j],
    [0.1429 - 7.2161j, 0.4286 + 2.4054j, 8.7143],
])

# An independently worked-out real factor of the same matrix, also carried
# at four decimals; W_REFERENCE @ F_w @ W_REFERENCE.T reproduces fv_exact()
# only to about 3e-3, which is what four-decimal entries allow.
W_REFERENCE = np.array([
    [0.0, 2.8909, 0.0, 0.0, 0.0, 0.7559],
    [-1.6641, -0.6671, 0.0, 0.0, 0.0, 2.2678],
    [-2.4962, 0.4447, 0.0, 0.0, 0.0, -1.5119],
])

# Hand-checked feedthrough completion rows for the mixed reference system:
# stacked under MIXED_D's quadrature rows they form a symplectic matrix.
DQP_REFERENCE = np.array([
    [0.4, 0.0, -0.5, 0.0, 0.3, 0.0],
    [0.0, 0.8, 0.0, -1.0, 0.0, 0.6],
    [3.0, 0.0, 0.0, 0.0, -4.0, 0.0],
    [0.0, 0.12, 0.0, 0.0, 0.0, -0.16],
])

# Hand-checked measurement network for the same system; its rows span an
# isotropic subspace of the two completion channels.
G_REFERENCE = np.array([
    [0.0, 0.0971, 0.0, 0.2769],
    [0.0, 0.8235, 0.0, 0.0462],
])


def scaled_generated(factor: float) -> StandardSystem:
    """The generated Dimensions(1, 1, 2, 1, 1) seed-3 system with a and c
    times `factor`.

    Scaling a and c together keeps the system realizable in exact
    arithmetic; augment's b_prime then grows like c, and its
    b_prime theta_w b_prime^T like c^2, so 1e160 overflows the auxiliary
    blocks and 1e140 only the norm of the auxiliary-skew residual.
    """
    model = generate_realizable(Dimensions(1, 1, 2, 1, 1), seed=3)
    return StandardSystem(model.dims, model.a * factor, model.b, model.c * factor, model.d)


def dimension_grid() -> list:
    """Every valid dimension record with n_q, n_c, n_yc <= 3 and m <= 4."""
    out = []
    for n_q in range(4):
        for n_c in range(4):
            for m in range(1, 5):
                for n_yq in range(m + 1):
                    for n_yc in range(4):
                        if 2 * n_q + n_c == 0 or 2 * n_yq + n_yc == 0:
                            continue
                        out.append(Dimensions(n_q, n_c, m, n_yq, n_yc))
    return out


def grid_sample(count: int = 100, seed: int = 2026) -> list:
    """Reproducible sample of the dimension grid, biased toward nothing."""
    grid = dimension_grid()
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(grid), size=count, replace=False)
    return [grid[i] for i in picks]
