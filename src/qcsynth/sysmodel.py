"""Core data types for mixed quantum-classical linear stochastic models.

Variable ordering is fixed throughout the package: quantum quadratures come
first, interleaved as (q1, p1, ..., q_nq, p_nq), followed by the classical
state variables.  Outputs follow the same convention, quantum quadrature
pairs first, classical signals last.  The three system models (StandardSystem,
GeneralSystem, QuantumOnlySystem) hold read-only copies of their matrices and
are safe to share across threads; the realization records keep the arrays
they are given, writeable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

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

# Max-norm tolerance for user-supplied structure matrices, relative to
# max(1, max|M|): the zero eigenvalues of a singular Ito matrix come out as
# -eps * |M|, so an absolute bound rejects valid models with large entries.
STRUCTURE_TOL = 1e-10

# Default tolerance of the realizability checks, of synthesize and of the CLI.
DEFAULT_CHECK_TOL = 1e-8


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


@lru_cache
def _canonical_j(k: int) -> np.ndarray:
    # A read-only diag_j(k), built once per k.
    return _frozen(diag_j(k))


# diag_j(k) is a signed permutation, so a product with it is a swap of
# column or row pairs with one sign flipped.  The kernels below apply it by
# index as 0 - x and x + 0: like the dense product, whose sum starts from
# +0.0, they never write -0.0, so finite results equal x @ diag_j(k) and
# diag_j(k) @ x bit for bit.  Both return a C-contiguous array, as @ does.
# Up to _DENSE_J_WORK multiply-adds (the entries of x times 2k) they take
# the dense product with the cached diag_j(k) instead, the same bits from
# one BLAS call.  With one OpenBLAS thread on a Xeon VM that costs 1.0 us
# against 2.6 us for the two strided passes on 16 x 4 operands, and 3.4
# against 4.5 us at 64 x 32; from 32 x 64 on (5.3 against 4.0 us) the
# index form is the cheaper one.
_DENSE_J_WORK = 1 << 16
_ZERO = np.zeros(())
_EVEN, _ODD = slice(0, None, 2), slice(1, None, 2)
_EVEN_COLS, _ODD_COLS = (..., _EVEN), (..., _ODD)
_EVEN_ROWS, _ODD_ROWS = (..., _EVEN, slice(None)), (..., _ODD, slice(None))


def _times_j(x: np.ndarray) -> np.ndarray:
    """x @ diag_j(k) for x of shape (..., 2k): column pairs (a, b) -> (-b, a)."""
    two_k = x.shape[-1]
    if x.size * two_k <= _DENSE_J_WORK:
        return x @ _canonical_j(two_k // 2)
    out = np.empty(x.shape)
    np.subtract(_ZERO, x[_ODD_COLS], out[_EVEN_COLS])
    np.add(x[_EVEN_COLS], _ZERO, out[_ODD_COLS])
    return out


def _j_times(x: np.ndarray) -> np.ndarray:
    """diag_j(k) @ x for x of shape (..., 2k, n): row pairs (a, b) -> (b, -a)."""
    two_k = x.shape[-2]
    if x.size * two_k <= _DENSE_J_WORK:
        return _canonical_j(two_k // 2) @ x
    out = np.empty(x.shape)
    np.add(x[_ODD_ROWS], _ZERO, out[_EVEN_ROWS])
    np.subtract(_ZERO, x[_EVEN_ROWS], out[_ODD_ROWS])
    return out


def _frozen(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _maxabs(a: np.ndarray) -> float:
    return 0.0 if a.size == 0 else float(np.abs(a).max())


def _passes(residual: float, threshold: float) -> bool:
    """The pass rule of every verification: residual and threshold both
    finite, and residual <= threshold.  An overflow makes both infinite
    together, and inf <= inf must not read as a pass; a NaN fails."""
    return math.isfinite(residual) and math.isfinite(threshold) and residual <= threshold


def _fro(a: np.ndarray) -> float:
    """Frobenius norm of a real array, bit for bit np.linalg.norm(a).

    norm takes the dot product of the contiguous ravel with itself; np.vdot
    runs the same dot kernel on it without norm's dispatch, and without the
    floating-point status check after it, so an overflowing sum of squares
    reads inf with no RuntimeWarning.
    """
    x = a.ravel(order="K")
    return math.sqrt(np.vdot(x, x))


def _freeze_matrices(model) -> None:
    # the __post_init__ of each system class: its fields in _SHAPES, read-only
    for name in _SHAPES[type(model)]:
        value = _frozen(getattr(model, name), complex if name in _COMPLEX else float)
        object.__setattr__(model, name, value)


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
            # bool is an int subclass; np.bool_ is not an np.integer
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
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

    @cached_property
    def _slices(self) -> dict:
        # The quantum-first partition: the slice of each block of states (q,
        # c) and of outputs (yq, yc), and "all" for a whole axis.  Computed
        # once and held on the instance, outside the fields, so equality and
        # hashing are untouched.
        q, yq = 2 * self.n_q, 2 * self.n_yq
        return {"q": slice(None, q), "c": slice(q, None), "yq": slice(None, yq),
                "yc": slice(yq, None), "all": slice(None)}


def _block(matrix: str, rows: str, cols: str = "all", doc: str | None = None) -> property:
    """A property returning the (rows, cols) partition block of the named
    matrix field as a view; it is read-only because the matrix is."""
    def view(self) -> np.ndarray:
        blocks = self.dims._slices
        return getattr(self, matrix)[blocks[rows], blocks[cols]]
    return property(view, doc=doc)


def _skew_part(matrix: str) -> property:
    # Re((f - f^T) / 2i) for the named f, up to the sign of a zero, as Im(f/2 - f^T/2):
    # halved first, so that it cannot overflow; no complex division, and a
    # strided view as np.real's, so matmul keeps its loop
    def part(self) -> np.ndarray:
        half = getattr(self, matrix) * 0.5
        return (half - half.T).imag
    return property(part)


@dataclass(frozen=True)
class StructureMatrices:
    """Canonical commutation and Ito matrices attached to a Dimensions record."""

    dims: Dimensions
    theta_n: np.ndarray         # diag(diag_{n_q}(J), 0): state commutations
    theta_w: np.ndarray         # diag_m(J): input field commutations
    f_w: np.ndarray             # I + i*diag_m(J): vacuum input Ito matrix
    theta_y_target: np.ndarray  # diag(diag_{n_yq}(J), 0): output commutations

    theta_nq = _block("theta_n", "q", "q",
                      "Quantum block of theta_n (the invertible 2n_q x 2n_q corner).")
    theta_yq = _block("theta_y_target", "yq", "yq")

    @property
    def f_y_target(self) -> np.ndarray:
        """A canonical Hermitian psd output Ito matrix with skew part theta_y_target."""
        n_y = self.dims.n_y
        return np.eye(n_y) + 1j * self.theta_y_target


def make_structure(dims: Dimensions) -> StructureMatrices:
    """Build the canonical structure matrices for the given dimensions."""
    theta_n = np.zeros((dims.n, dims.n))
    theta_n[: 2 * dims.n_q, : 2 * dims.n_q] = diag_j(dims.n_q)
    theta_w = _canonical_j(dims.m)
    f_w = np.eye(2 * dims.m) + 1j * theta_w
    theta_y = np.zeros((dims.n_y, dims.n_y))
    theta_y[: 2 * dims.n_yq, : 2 * dims.n_yq] = diag_j(dims.n_yq)
    return StructureMatrices(dims, _frozen(theta_n), theta_w,
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

    __post_init__ = _freeze_matrices

    @property
    def structure(self) -> StructureMatrices:
        return _shared_structure(self.dims)

    # -- state partitions ---------------------------------------------------
    a_qq = _block("a", "q", "q")
    a_qc = _block("a", "q", "c")
    a_cq = _block("a", "c", "q")
    a_cc = _block("a", "c", "c")
    b_q = _block("b", "q")
    b_c = _block("b", "c")

    # -- output partitions --------------------------------------------------
    c_qq = _block("c", "yq", "q")
    c_qc = _block("c", "yq", "c")
    c_cq = _block("c", "yc", "q")
    c_cc = _block("c", "yc", "c")
    c_q = _block("c", "yq", doc="Quantum output rows, all state columns.")
    d_q = _block("d", "yq")
    d_c = _block("d", "yc")


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

    __post_init__ = _freeze_matrices

    @property
    def n(self) -> int:
        return self.a_g.shape[0]

    @property
    def m(self) -> int:
        return self.b_g.shape[1]

    @property
    def n_y(self) -> int:
        return self.c_g.shape[0]

    theta_v = _skew_part("f_v")
    theta_y = _skew_part("f_y")


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

    __post_init__ = _freeze_matrices

    @property
    def n_q(self) -> int:
        return self.a.shape[0] // 2

    @property
    def m(self) -> int:
        return self.b.shape[1] // 2

    @property
    def n_z(self) -> int:
        return self.c.shape[0] // 2


@dataclass(frozen=True)
class QuantumSubsystem:
    """Fully quantum part: original quantum blocks plus completion outputs.

    d_q_prime completes d_q to a symplectic matrix (stacked underneath);
    c_qq_prime = d_q_prime theta_w b_q^T theta_nq pairs with it so that the
    stacked outputs keep the quantum realizability conditions.  e_mat
    carries the classical actuation x_c -> x_q and k_q = -theta_nq e_mat is
    the corresponding coupling gain.
    """

    a_qq: np.ndarray
    b_q: np.ndarray
    e_mat: np.ndarray
    c_qq: np.ndarray
    d_q: np.ndarray
    c_qq_prime: np.ndarray
    d_q_prime: np.ndarray
    k_q: np.ndarray


@dataclass(frozen=True)
class ClassicalSubsystem:
    """Classical part driven by the measurement signal u_c.

    c_c_prime_1 / c_c_prime_2 split the actuation read-out by the stored
    channel partition; stacked they solve d_q c_c_prime = c_qc.
    """

    a_cc_prime: np.ndarray
    b_c_prime: np.ndarray
    c_cc_prime: np.ndarray
    d_c_prime: np.ndarray
    c_c_prime_1: np.ndarray
    c_c_prime_2: np.ndarray

    @property
    def c_c_prime(self) -> np.ndarray:
        return np.concatenate([self.c_c_prime_1, self.c_c_prime_2])


@dataclass(frozen=True)
class Realization:
    """Quantum subsystem, classical subsystem and measurement network.

    g_mat = k_sel v_sympl taps commuting quadratures of the completion
    outputs (g_mat theta' g_mat^T = 0), and p_perm, z, k_sel, v_sympl are
    the factors of the read-out decomposition that produced it.
    """

    g1: QuantumSubsystem
    g2: ClassicalSubsystem
    g_mat: np.ndarray
    k_sel: np.ndarray
    v_sympl: np.ndarray
    p_perm: np.ndarray
    z: np.ndarray
    dims: Dimensions


# Each record's matrix fields in constructor order, with their shapes in
# symbols (see _symbols); a record class in place of a shape nests its
# matrices.  r is the rank of a realization's read-out network.
_SHAPES = {
    StandardSystem: {"a": ("n", "n"), "b": ("n", "2m"), "c": ("n_y", "n"), "d": ("n_y", "2m")},
    GeneralSystem: {"a_g": ("n", "n"), "b_g": ("n", "m"), "c_g": ("n_y", "n"),
                    "d_g": ("n_y", "m"), "big_theta_n": ("n", "n"),
                    "f_v": ("m", "m"), "f_y": ("n_y", "n_y")},
    QuantumOnlySystem: {"a": ("2n_q", "2n_q"), "b": ("2n_q", "2m"),
                        "c": ("2n_z", "2n_q"), "d": ("2n_z", "2m")},
    QuantumSubsystem: {"a_qq": ("2n_q", "2n_q"), "b_q": ("2n_q", "2m"),
                       "e_mat": ("2n_q", "n_c"), "c_qq": ("2n_yq", "2n_q"),
                       "d_q": ("2n_yq", "2m"), "c_qq_prime": ("2(m-n_yq)", "2n_q"),
                       "d_q_prime": ("2(m-n_yq)", "2m"), "k_q": ("2n_q", "n_c")},
    ClassicalSubsystem: {"a_cc_prime": ("n_c", "n_c"), "b_c_prime": ("n_c", "r"),
                         "c_cc_prime": ("n_yc", "n_c"), "d_c_prime": ("n_yc", "r"),
                         "c_c_prime_1": ("2n_w1", "n_c"), "c_c_prime_2": ("2n_w2", "n_c")},
    Realization: {"g1": QuantumSubsystem, "g2": ClassicalSubsystem,
                  "g_mat": ("r", "2(m-n_yq)"), "k_sel": ("r", "2(m-n_yq)"),
                  "v_sympl": ("2(m-n_yq)", "2(m-n_yq)"),
                  "p_perm": ("n_c+n_yc", "n_c+n_yc"), "z": ("n_c+n_yc", "r")},
}
_COMPLEX = ("f_v", "f_y")


def _dims_sizes(d: Dimensions) -> dict:
    """Size of each shape symbol that a Dimensions record fixes."""
    return {"n": d.n, "n_y": d.n_y, "2m": 2 * d.m, "2n_q": 2 * d.n_q, "n_c": d.n_c,
            "2n_yq": 2 * d.n_yq, "n_yc": d.n_yc, "2n_w1": 2 * d.n_w1, "2n_w2": 2 * d.n_w2,
            "2(m-n_yq)": 2 * (d.m - d.n_yq), "n_c+n_yc": d.n_c + d.n_yc}


def _matrices(cls, values: dict, prefix: str = "") -> dict:
    """name -> (matrix, shape in symbols) over the matrices of cls and of the
    records nested in it, given as dicts or instances; nested names are
    dotted (g1.a_qq)."""
    out = {}
    for name, shape in _SHAPES[cls].items():
        value = values[name]
        if isinstance(shape, type):
            out.update(_matrices(shape, value if isinstance(value, dict) else vars(value),
                                 f"{prefix}{name}."))
        else:
            out[prefix + name] = (value, shape)
    return out


def _symbols(cls, values: dict) -> dict:
    """Sizes of the shape symbols of cls, given its field values.

    The dims, if any, fix the symbols they can; every other symbol takes its
    size from the first matrix that uses it, matrices with rows first: a
    file's [] gives no column count.
    """
    out = _dims_sizes(values["dims"]) if "dims" in values else {}
    for mat, pair in sorted(_matrices(cls, values).values(), key=lambda item: not len(item[0])):
        for sym, size in zip(pair, mat.shape):
            out.setdefault(sym, size)
    return out


def _build(cls, values: dict, sym: dict | None = None):
    """cls(**values), nested records built from their dicts and each matrix
    without rows given the column count its symbol binds to; validate
    judges the shapes."""
    sym = _symbols(cls, values) if sym is None else sym
    values = dict(values)
    for name, shape in _SHAPES[cls].items():
        if isinstance(shape, type):
            values[name] = _build(shape, values[name], sym)
        elif not len(values[name]):
            values[name] = values[name].reshape(0, sym[shape[1]])
    return cls(**values)


def _structure_violations(name: str, mat: np.ndarray) -> list[str]:
    # big_theta_n must be skew, f_v and f_y Hermitian and nonnegative, each
    # to within STRUCTURE_TOL relative to max(1, max|M|)
    bound = STRUCTURE_TOL * max(1.0, _maxabs(mat))
    with np.errstate(over="ignore"):    # an overflowing residual reads inf, and fails
        if name == "big_theta_n":
            skew = _maxabs(mat + mat.T)
            return ([f"{name}: not skew-symmetric (max residual {skew:.3e})"]
                    if skew > bound else [])
        herm = _maxabs(mat - mat.conj().T)
    if herm > bound:
        return [f"{name}: not Hermitian (max asymmetry {herm:.3e})"]
    # M + bound I factors exactly when every eigenvalue of M exceeds -bound,
    # up to O(eps |M|) round-off: a Cholesky factorization is the cheap test
    # (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10).  Only
    # a failure pays for the spectrum, which decides and names the eigenvalue.
    try:
        np.linalg.cholesky(mat + bound * np.eye(len(mat)))
        return []
    except np.linalg.LinAlgError:
        pass
    lo = float(np.linalg.eigvalsh(mat).min())
    if lo < -bound:
        return [f"{name}: not nonnegative definite (eigenvalue {lo:.6e})"]
    return []


def validate(sys) -> list[str]:
    """Collect invariant violations as human-readable descriptors.

    Returns an empty list when every shape and structure constraint holds.
    Violations are data, not exceptions; callers decide what is fatal.
    Non-finite entries are reported alone, before any structure check.
    """
    if type(sys) not in _SHAPES:
        raise TypeError(f"unsupported system type {type(sys).__name__}")
    shapes = _matrices(type(sys), vars(sys))
    mats = {name: mat for name, (mat, _) in shapes.items()}
    early = ([f"{name}: entries must be finite" for name, mat in mats.items()
              if not np.isfinite(mat).all()]
             or [f"{name}: expected a matrix, got shape {mat.shape}"
                 for name, mat in mats.items() if mat.ndim != 2])
    if isinstance(sys, QuantumOnlySystem) and not early:
        early = [f"{name}: dimensions must be even, got {mat.shape}"
                 for name, mat in mats.items()
                 if mat.shape[0] % 2 or (name != "a" and mat.shape[1] % 2)]
    if early:
        return early
    sym = _symbols(type(sys), vars(sys))
    expected = {name: (sym[rows], sym[cols]) for name, (_, (rows, cols)) in shapes.items()}
    out = [f"{name}: expected shape {expected[name]}, got {mat.shape}"
           for name, mat in mats.items() if mat.shape != expected[name]]
    if isinstance(sys, GeneralSystem):
        for name in ("big_theta_n", "f_v", "f_y"):
            if mats[name].shape == expected[name]:
                out.extend(_structure_violations(name, mats[name]))
    if isinstance(sys, QuantumOnlySystem) and not out:
        d = sys.d
        if d.shape[0] > d.shape[1] or _maxabs(d - np.eye(*d.shape)) > 0.0:
            out.append("d: must equal the identity or an identity padded "
                       "with zero columns")
    return out
