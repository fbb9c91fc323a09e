"""Core data types for mixed quantum-classical linear stochastic models.

Variable ordering is fixed throughout the package: quantum quadratures come
first, interleaved as (q1, p1, ..., q_nq, p_nq), followed by the classical
state variables.  Outputs follow the same convention, quantum quadrature
pairs first, classical signals last.  All types are immutable values after
construction and safe to share read-only across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "J2",
    "diag_j",
    "Dimensions",
    "StructureMatrices",
    "StandardSystem",
    "GeneralSystem",
    "QuantumOnlySystem",
    "make_structure",
    "validate",
]

# Commutation kernel of a single (q, p) pair.
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
J2.setflags(write=False)

# Absolute max-norm tolerance for user-supplied structure matrices; inputs
# are short decimals in practice, so anything larger signals a real defect.
STRUCTURE_TOL = 1e-10


def diag_j(k: int) -> np.ndarray:
    """Block-diagonal stack of k copies of J2, shape (2k, 2k).

    Bitwise equal to np.kron(np.eye(k), J2), whose off-diagonal blocks carry
    -0.0 where J2 holds -1.
    """
    out = np.zeros((2 * k, 2 * k))
    below = out[1::2, ::2]
    below[...] = -0.0
    np.fill_diagonal(below, -1.0)
    np.fill_diagonal(out[::2, 1::2], 1.0)
    return out


def _frozen(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _maxabs(a: np.ndarray) -> float:
    return 0.0 if a.size == 0 else float(np.abs(a).max())


@dataclass(frozen=True)
class Dimensions:
    """Mode and channel counts for a standard-form system.

    n_q oscillator modes contribute 2*n_q state variables and n_c classical
    variables complete the state (n = 2*n_q + n_c).  m field channels enter
    through 2m input quadratures.  Outputs comprise n_yq quadrature pairs
    followed by n_yc classical signals (n_y = 2*n_yq + n_yc).

    The optional split n_w1 + n_w2 = m records which input channels feed the
    classical modulators; it labels synthesized outputs only and affects no
    matrix.
    """

    n_q: int
    n_c: int
    m: int
    n_yq: int
    n_yc: int
    n_w1: int = 0

    def __post_init__(self):
        for name in ("n_q", "n_c", "m", "n_yq", "n_yc", "n_w1"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n_yq > self.m:
            raise ValueError(f"n_yq={self.n_yq} exceeds the channel count m={self.m}")
        if self.n_w1 > self.m:
            raise ValueError(f"n_w1={self.n_w1} exceeds the channel count m={self.m}")

    @property
    def n(self) -> int:
        return 2 * self.n_q + self.n_c

    @property
    def n_y(self) -> int:
        return 2 * self.n_yq + self.n_yc

    @property
    def input_width(self) -> int:
        return 2 * self.m

    @property
    def n_w2(self) -> int:
        return self.m - self.n_w1


@dataclass(frozen=True)
class StructureMatrices:
    """Canonical commutation and Ito matrices attached to a Dimensions record."""

    dims: Dimensions
    theta_n: np.ndarray         # diag(diag_{n_q}(J), 0): state commutations
    theta_w: np.ndarray         # diag_m(J): input field commutations
    f_w: np.ndarray             # I + i*diag_m(J): vacuum input Ito matrix
    theta_y_target: np.ndarray  # diag(diag_{n_yq}(J), 0): output commutations

    @property
    def theta_nq(self) -> np.ndarray:
        """Quantum block of theta_n (the invertible 2n_q x 2n_q corner)."""
        k = 2 * self.dims.n_q
        return self.theta_n[:k, :k]

    @property
    def theta_yq(self) -> np.ndarray:
        k = 2 * self.dims.n_yq
        return self.theta_y_target[:k, :k]

    @property
    def f_y_target(self) -> np.ndarray:
        """A canonical Hermitian psd output Ito matrix with skew part theta_y_target."""
        n_y = self.dims.n_y
        return np.eye(n_y) + 1j * self.theta_y_target


def make_structure(dims: Dimensions) -> StructureMatrices:
    """Build the canonical structure matrices for the given dimensions."""
    theta_n = np.zeros((dims.n, dims.n))
    theta_n[: 2 * dims.n_q, : 2 * dims.n_q] = diag_j(dims.n_q)
    theta_w = diag_j(dims.m)
    f_w = np.eye(2 * dims.m) + 1j * theta_w
    theta_y = np.zeros((dims.n_y, dims.n_y))
    theta_y[: 2 * dims.n_yq, : 2 * dims.n_yq] = diag_j(dims.n_yq)
    return StructureMatrices(dims, _frozen(theta_n), _frozen(theta_w),
                             _frozen(f_w, complex), _frozen(theta_y))


@lru_cache
def _shared_structure(dims: Dimensions) -> StructureMatrices:
    # One copy per Dimensions rather than per system: a k=32 structure
    # outweighs the system's own matrices.  Sharing is safe because the
    # record is frozen and its arrays are read-only.
    return make_structure(dims)


@dataclass(frozen=True)
class StandardSystem:
    """Standard-form model dx = A x dt + B dw, dy = C x dt + D dw.

    The matrices are stored whole; the twelve partition blocks induced by
    the quantum-first ordering are exposed as read-only views.
    """

    dims: Dimensions
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def structure(self) -> StructureMatrices:
        return _shared_structure(self.dims)

    # -- state partitions ---------------------------------------------------
    @property
    def a_qq(self) -> np.ndarray:
        k = 2 * self.dims.n_q
        return self.a[:k, :k]

    @property
    def a_qc(self) -> np.ndarray:
        k = 2 * self.dims.n_q
        return self.a[:k, k:]

    @property
    def a_cq(self) -> np.ndarray:
        k = 2 * self.dims.n_q
        return self.a[k:, :k]

    @property
    def a_cc(self) -> np.ndarray:
        k = 2 * self.dims.n_q
        return self.a[k:, k:]

    @property
    def b_q(self) -> np.ndarray:
        return self.b[: 2 * self.dims.n_q, :]

    @property
    def b_c(self) -> np.ndarray:
        return self.b[2 * self.dims.n_q:, :]

    # -- output partitions --------------------------------------------------
    @property
    def c_qq(self) -> np.ndarray:
        return self.c[: 2 * self.dims.n_yq, : 2 * self.dims.n_q]

    @property
    def c_qc(self) -> np.ndarray:
        return self.c[: 2 * self.dims.n_yq, 2 * self.dims.n_q:]

    @property
    def c_cq(self) -> np.ndarray:
        return self.c[2 * self.dims.n_yq:, : 2 * self.dims.n_q]

    @property
    def c_cc(self) -> np.ndarray:
        return self.c[2 * self.dims.n_yq:, 2 * self.dims.n_q:]

    @property
    def c_q(self) -> np.ndarray:
        """Quantum output rows, all state columns."""
        return self.c[: 2 * self.dims.n_yq, :]

    @property
    def d_q(self) -> np.ndarray:
        return self.d[: 2 * self.dims.n_yq, :]

    @property
    def d_c(self) -> np.ndarray:
        return self.d[2 * self.dims.n_yq:, :]


@dataclass(frozen=True)
class GeneralSystem:
    """General-form model with arbitrary skew commutation matrix and Ito data.

    dx = A x dt + B dv, dy = C x dt + D dv, where dv dv^T = F_v dt and the
    state commutation matrix is an arbitrary real skew matrix.  The skew
    parts theta_v and theta_y are computed on demand.
    """

    a_g: np.ndarray
    b_g: np.ndarray
    c_g: np.ndarray
    d_g: np.ndarray
    big_theta_n: np.ndarray
    f_v: np.ndarray
    f_y: np.ndarray

    def __post_init__(self):
        for name in ("a_g", "b_g", "c_g", "d_g", "big_theta_n"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        for name in ("f_v", "f_y"):
            object.__setattr__(self, name, _frozen(getattr(self, name), complex))

    @property
    def n(self) -> int:
        return self.a_g.shape[0]

    @property
    def m(self) -> int:
        return self.b_g.shape[1]

    @property
    def n_y(self) -> int:
        return self.c_g.shape[0]

    @property
    def theta_v(self) -> np.ndarray:
        # Real for Hermitian f_v; stray imaginary round-off is dropped.
        return np.real((self.f_v - self.f_v.T) / 2j)

    @property
    def theta_y(self) -> np.ndarray:
        return np.real((self.f_y - self.f_y.T) / 2j)


@dataclass(frozen=True)
class QuantumOnlySystem:
    """Fully quantum open-oscillator model with canonical commutations.

    The feedthrough matrix is required (by the realizability conditions,
    not at construction time) to be the identity or an identity padded
    with zero columns.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def n_q(self) -> int:
        return self.a.shape[0] // 2

    @property
    def m(self) -> int:
        return self.b.shape[1] // 2

    @property
    def n_z(self) -> int:
        return self.c.shape[0] // 2


def _shape_violations(pairs) -> list[str]:
    out = []
    for name, mat, expected in pairs:
        if mat.shape != expected:
            out.append(f"{name}: expected shape {expected}, got {mat.shape}")
    return out


def _hermitian_psd_violations(name: str, mat: np.ndarray) -> list[str]:
    out = []
    if mat.shape[0] != mat.shape[1]:
        out.append(f"{name}: expected a square matrix, got shape {mat.shape}")
        return out
    herm = _maxabs(mat - mat.conj().T)
    if herm > STRUCTURE_TOL:
        out.append(f"{name}: not Hermitian (max asymmetry {herm:.3e})")
        return out
    if mat.shape[0]:
        lo = float(np.linalg.eigvalsh(mat).min())
        if lo < -STRUCTURE_TOL:
            out.append(f"{name}: not nonnegative definite (eigenvalue {lo:.6e})")
    return out


def validate(sys) -> list[str]:
    """Collect invariant violations as human-readable descriptors.

    Returns an empty list when every shape and structure constraint holds.
    Violations are data, not exceptions; callers decide what is fatal.
    Non-finite entries are reported alone, before any structure check.
    """
    if not isinstance(sys, (StandardSystem, GeneralSystem, QuantumOnlySystem)):
        raise TypeError(f"unsupported system type {type(sys).__name__}")
    nonfinite = [f"{name}: entries must be finite" for name, value in vars(sys).items()
                 if isinstance(value, np.ndarray) and not np.isfinite(value).all()]
    if nonfinite:
        return nonfinite
    if isinstance(sys, StandardSystem):
        d = sys.dims
        return _shape_violations([
            ("a", sys.a, (d.n, d.n)),
            ("b", sys.b, (d.n, 2 * d.m)),
            ("c", sys.c, (d.n_y, d.n)),
            ("d", sys.d, (d.n_y, 2 * d.m)),
        ])
    if isinstance(sys, GeneralSystem):
        n, m, n_y = sys.n, sys.m, sys.n_y
        out = _shape_violations([
            ("a_g", sys.a_g, (n, n)),
            ("b_g", sys.b_g, (n, m)),
            ("c_g", sys.c_g, (n_y, n)),
            ("d_g", sys.d_g, (n_y, m)),
            ("big_theta_n", sys.big_theta_n, (n, n)),
            ("f_v", sys.f_v, (m, m)),
            ("f_y", sys.f_y, (n_y, n_y)),
        ])
        if sys.big_theta_n.shape == (n, n):
            skew = _maxabs(sys.big_theta_n + sys.big_theta_n.T)
            if skew > STRUCTURE_TOL:
                out.append(f"big_theta_n: not skew-symmetric (max residual {skew:.3e})")
        if sys.f_v.shape == (m, m):
            out.extend(_hermitian_psd_violations("f_v", sys.f_v))
        if sys.f_y.shape == (n_y, n_y):
            out.extend(_hermitian_psd_violations("f_y", sys.f_y))
        return out
    if isinstance(sys, QuantumOnlySystem):
        out = []
        for name in ("a", "b", "c", "d"):
            mat = getattr(sys, name)
            if mat.shape[0] % 2 or (name != "a" and mat.shape[1] % 2):
                out.append(f"{name}: dimensions must be even, got {mat.shape}")
        if out:
            return out
        n, w = 2 * sys.n_q, 2 * sys.m
        out = _shape_violations([
            ("a", sys.a, (n, n)),
            ("b", sys.b, (n, w)),
            ("c", sys.c, (2 * sys.n_z, n)),
            ("d", sys.d, (2 * sys.n_z, w)),
        ])
        if not out:
            expected = np.zeros((2 * sys.n_z, w))
            expected[:, : 2 * sys.n_z] = np.eye(2 * sys.n_z)
            if sys.n_z > sys.m or _maxabs(sys.d - expected) > 0.0:
                out.append("d: must equal the identity or an identity padded "
                           "with zero columns")
        return out
