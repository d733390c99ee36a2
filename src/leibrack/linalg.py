"""Exact rational dense linear algebra plus the float kernels (matrix
exponential/logarithm, the path integral phi1 and Gauss-Legendre
quadrature on [0,1]).

Each scalar world has its own types:

* exact: ``Matrix`` and vectors hold ``fractions.Fraction`` entries and make
  every structural decision (ranks, centers, identities, nilpotency).
  ``Rational`` is a re-export of ``Fraction``, which already is an
  always-reduced p/q with positive denominator.  ``as_vec`` and
  ``Matrix.from_rows`` pass Fraction entries through unchanged (they are
  immutable) and convert only other numbers, and ``mat_vec`` and ``@``
  skip zero entries, so sparse exact data costs by its nonzeros.
  ``matrix_exp`` and ``matrix_log`` are finite series on
  nilpotent/unipotent input only.
* float: plain ``numpy`` arrays, used only on the integration side, with
  the kernels ``exp_float``, ``phi1_float`` (the integral
  int_0^1 exp(s a) v ds, in closed form), ``log_float`` and
  ``integrate_01`` (quadrature of values at the nodes: iota2's outer
  integral and phi1's cross-check).

``exp_float``, ``phi1_float``, ``log_float``, ``norm1_float`` and ``matvec``
take a stack of square arrays, shape (..., n, n), and give each slice bit
for bit what the call on that slice alone gives.  Each has one code path:
one element is a stack with no leading axes.  ``log_float`` takes an
optional mask of the slices that succeeded, which it narrows where a slice
leaves the log chart instead of raising.  They use only operations that are
exact slice by slice with numpy's OpenBLAS build and scipy: stacked ``@``
(matrix-matrix, and matrix-vector written as (..., n, 1)), elementwise
arithmetic, reductions within a slice, ``np.linalg.solve`` and scipy's
``expm``, which runs the same algorithm on each slice of a stack.  ``np.einsum`` over a
stack is not among them: it can sum in another order.

scipy is a runtime dependency but not an import-time one: ``scipy.linalg``
is imported inside the two branches that call its ``expm`` (``exp_float``
and ``phi1_float`` without an index), on the first such call.  Nilpotent
input never takes them, so ``import leibrack`` and every report on
nilpotent input run without loading scipy.  ``expm`` is looked up on the
module at each call, never bound to a name here, so a patch of
``scipy.linalg.expm`` sees every call.

``Matrix.to_numpy`` is the one crossing, from exact to float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence

import numpy as np

Rational = Fraction

Vec = tuple[Fraction, ...]


class OutOfChartError(ValueError):
    """An argument left the neighborhood where log (and the local rack
    operations built on it) are defined."""


# ---------------------------------------------------------------------------
# vectors (plain tuples of Fraction)
# ---------------------------------------------------------------------------

def _frac(e) -> Fraction:
    """e itself if it already is a Fraction, else Fraction(e)."""
    return e if isinstance(e, Fraction) else Fraction(e)


def as_vec(entries: Sequence) -> Vec:
    return tuple(map(_frac, entries))


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c, v: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in v)


def vec_is_zero(v: Vec) -> bool:
    return all(a == 0 for a in v)


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


class Matrix:
    """Dense exact matrix: a tuple of row tuples of Fraction.

    Instances are immutable; all operations return new matrices.  Floats
    never enter: ``to_numpy`` is the one way out to the float layer.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        self.rows = rows
        self.cols = cols
        self.data = data

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        data = tuple(tuple(map(_frac, r)) for r in rows)
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        return Matrix(len(data), ncols, data)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.from_rows(
            [[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        # built directly so degenerate shapes (0 x n, n x 0) keep both counts
        data = tuple(tuple(Fraction(0) for _ in range(cols)) for _ in range(rows))
        return Matrix(rows, cols, data)

    @staticmethod
    def from_cols(cols: Sequence[Sequence]) -> "Matrix":
        return Matrix.from_rows(list(zip(*cols))) if cols else Matrix.from_rows([])

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> Vec:
        return self.data[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.data)

    def to_numpy(self) -> np.ndarray:
        return np.array([[float(e) for e in r] for r in self.data],
                        dtype=float).reshape(self.rows, self.cols)

    # -- arithmetic ---------------------------------------------------------

    def _check_same_shape(self, other: "Matrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} "
                             f"vs {other.rows}x{other.cols}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix.from_rows([
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix.from_rows([
            [a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix.from_rows([[c * e for e in r] for r in self.data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ocols = list(zip(*other.data)) if other.data else []
        return Matrix.from_rows([
            [sum((a * b for a, b in zip(r, c) if a and b), Fraction(0)) for c in ocols]
            for r in self.data])

    def mat_vec(self, v: Sequence) -> Vec:
        v = as_vec(v)
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum((a * b for a, b in zip(r, v) if a and b), Fraction(0))
                     for r in self.data)

    def transpose(self) -> "Matrix":
        return Matrix.from_rows(list(zip(*self.data)) if self.data else [])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.data == other.data

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def is_zero(self) -> bool:
        return all(e == 0 for r in self.data for e in r)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# exact elimination: rref, nullspace, inverse
# ---------------------------------------------------------------------------

def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with pivot column indices."""
    a = [list(r) for r in m.data]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [e * inv for e in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [e - f * p if p else e for e, p in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return Matrix.from_rows(a), tuple(pivots)


def nullspace(m: Matrix) -> list[Vec]:
    """Exact basis of ker(m); empty iff m is injective on columns."""
    return rref_nullspace(*rref(m))


def rref_nullspace(red: Matrix, pivots: Sequence[int]) -> list[Vec]:
    """Exact basis of the kernel of a matrix, read from its reduced row
    echelon form and pivot columns as ``rref`` returns them."""
    free = [c for c in range(red.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * red.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red.data[r][fc]
        basis.append(tuple(v))
    return basis


def inverse_exact(a: Matrix) -> Matrix:
    """a^-1 from one reduced row echelon form of [a | I]; ValueError if a
    is not square or is singular."""
    n = a.rows
    if a.cols != n:
        raise ValueError("square matrix required")
    eye = Matrix.identity(n).data
    red, pivots = rref(Matrix(n, 2 * n, tuple(r + e for r, e in zip(a.data, eye))))
    if pivots != tuple(range(n)):
        raise ValueError("singular matrix")
    return Matrix(n, n, tuple(r[n:] for r in red.data))


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


# ---------------------------------------------------------------------------
# matrix exponential / logarithm
# ---------------------------------------------------------------------------

def nilpotency_index(m: Matrix) -> int | None:
    """Smallest k >= 1 with m^k = 0, else None: the joint nilpotency index
    of the family {m}.  The 0 x 0 matrix has index 1."""
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    return joint_nilpotency_index([m])


def joint_nilpotency_index(mats: Sequence[Matrix]) -> int | None:
    """Smallest k >= 1 such that every product of k matrices of the family
    ``mats`` vanishes, else None (the algebra they generate is not
    nilpotent).  Every element X of their span then has X^k = 0.

    Decided on the flag V_0 = F^n, V_(j+1) = sum_i A_i V_j, which shrinks
    strictly until it reaches 0 exactly when the family is nilpotent.
    Nilpotency of each member is not enough: sl2 has a basis of nilpotent
    matrices whose span is not nilpotent."""
    if not mats:
        return 1
    n = mats[0].rows
    if any(m.rows != n or m.cols != n for m in mats):
        raise ValueError("a family of square matrices of one size is required")
    basis = Matrix.identity(n).data
    k = 1
    while True:
        red, pivots = rref(Matrix.from_rows([m.mat_vec(v) for m in mats for v in basis]))
        if not pivots:
            return k
        if len(pivots) == len(basis):
            return None
        basis = red.data[:len(pivots)]
        k += 1


def matrix_exp(m: Matrix) -> Matrix:
    """exp(m) of a nilpotent matrix, as its finite series.  Any other
    input raises ValueError: its exp is not rational, and the float kernel
    ``exp_float`` takes ``m.to_numpy()``."""
    k = nilpotency_index(m)
    if k is None:
        raise ValueError("matrix_exp needs a nilpotent matrix; use exp_float for floats")
    acc = p = Matrix.identity(m.rows)
    for j in range(1, k):
        p = p @ m
        acc = acc + p.scale(Fraction(1, factorial(j)))
    return acc


def matrix_log(m: Matrix) -> Matrix:
    """Principal log of a unipotent matrix (m - I nilpotent), as its finite
    series; the inverse of matrix_exp at any norm.  Any other input raises
    OutOfChartError: the float kernel ``log_float`` takes ``m.to_numpy()``."""
    n = m - Matrix.identity(m.rows)
    k = nilpotency_index(n)
    if k is None:
        raise OutOfChartError("matrix_log needs a unipotent matrix; use log_float for floats")
    acc = Matrix.zeros(m.rows, m.rows)
    p = Matrix.identity(m.rows)
    for j in range(1, k):
        p = p @ n
        acc = acc + p.scale(Fraction((-1) ** (j + 1), j))
    return acc


def norm1_float(a: np.ndarray) -> float | np.ndarray:
    """Induced 1-norm (max column abs sum) of a float square array, 0 if
    empty; of a stack (..., n, n), the array of its slices' norms, each
    equal bit for bit to the norm of that slice alone (a column sum adds
    the rows in order either way)."""
    return np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)


def sup_norm(x: np.ndarray) -> float:
    """max |x_i| (NaN if an entry is NaN); 0 for an empty array."""
    return float(np.abs(x).max()) if x.size else 0.0


def nan_max(*values: float) -> float:
    """The largest value, NaN if any is NaN.  The builtin max keeps its
    first argument when a later one is NaN, which would let a NaN defect
    pass as the defect before it."""
    return float(np.max(values))


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a x for a vector x (..., k), slice by slice for stacks: a is a
    matrix or a stack of them that broadcasts against x's."""
    return (a @ x[..., None])[..., 0]


def exp_float(a: np.ndarray, index: int | None = None) -> np.ndarray:
    """exp(a) for a float square array or a stack of them, shape
    (..., n, n), slice by slice.

    ``index`` is the exact joint nilpotency index of a family whose span
    contains ``a`` (see ``joint_nilpotency_index``).  With it a^index = 0,
    so the finite series sum_(j < index) a^j / j! is exact and is used;
    without it, scipy's scaling-and-squaring (one call on the whole
    stack)."""
    if not a.size:
        return np.zeros_like(a)
    if index is None:
        import scipy.linalg
        return scipy.linalg.expm(a)
    term = np.eye(a.shape[-1])
    acc = term + np.zeros(a.shape)  # the identity, a fresh array of a's shape
    for j in range(1, index):
        term = (term @ a) / j  # broadcasts over a stack from the first product on
        acc = acc + term
    return acc


def phi1_float(a: np.ndarray, v: np.ndarray, index: int | None = None) -> np.ndarray:
    """phi1(a) v = int_0^1 exp(s a) v ds = sum_j a^j v / (j+1)! for a float
    square array a of shape (..., n, n) and, for each of its slices, a
    vector v of shape (..., n) or a block of columns of shape (..., n, k).

    ``index`` is as for ``exp_float``.  With it the finite series
    sum_(j < index) a^j v / (j+1)! is exact and is summed by matrix-vector
    products; without it, one scipy expm of the augmented matrices
    [[a, v], [0, 0]], whose last k columns hold phi1(a) v above the zero
    block (Van Loan, IEEE TAC 1978)."""
    v = np.asarray(v, dtype=float)
    n = a.shape[-1]
    if not n:
        return np.zeros(v.shape)
    # a vector is taken as one column, so every product is (..., n, 1)
    cols = v[..., None] if v.ndim < a.ndim else v
    if index is None:
        k = cols.shape[-1]
        aug = np.zeros(a.shape[:-2] + (n + k, n + k))
        aug[..., :n, :n] = a
        aug[..., :n, n:] = cols
        import scipy.linalg
        return scipy.linalg.expm(aug)[..., :n, n:].reshape(v.shape)
    acc = term = cols
    for j in range(1, index):
        term = (a @ term) / (j + 1)
        acc = acc + term
    return acc.reshape(v.shape)


LOG_SERIES_TERMS = 800  # terms of the float log series before it counts as not converging


def _log_series_float(n: np.ndarray) -> tuple[np.ndarray, list[int]]:
    # log(I+N) = sum (-1)^(k+1) N^k / k over a stack (N, n, n); terminates
    # exactly on nilpotent N, converges for ||N|| < 1 otherwise.  A slice
    # stops before its first zero term, or after its first term with
    # max|term| / k < 1e-18; its sum is then written out and it leaves the
    # stack the series runs on.  Returns the sums and the slices still
    # running after LOG_SERIES_TERMS (did not converge; their sum is zero).
    out = np.empty_like(n)
    rows = list(range(len(n)))
    acc = term = n
    for k in range(2, LOG_SERIES_TERMS + 1):
        term = term @ n
        sizes = np.abs(term).max(axis=(1, 2)).tolist()
        nxt = acc + ((-1) ** (k + 1) / k) * term
        done = [size / k < 1e-18 for size in sizes]
        if any(done):
            for i, (row, size) in enumerate(zip(rows, sizes)):
                if done[i]:
                    out[row] = acc[i] if size == 0 else nxt[i]
            keep = [i for i, stop in enumerate(done) if not stop]
            if not keep:
                return out, []
            rows = [rows[i] for i in keep]
            n, term, nxt = n[keep], term[keep], nxt[keep]
        acc = nxt
    out[rows] = 0.0
    return out, rows


def log_float(g: np.ndarray, ok: np.ndarray | None = None) -> np.ndarray:
    """Principal log of a float square array near the identity, or of each
    slice of a stack of them, shape (..., n, n).

    If some float power of n = g - I up to the dimension is exactly zero,
    the series for log(I + n) is finite and is summed at any norm.
    Otherwise it converges only for ||n|| < 1 (induced 1-norm): a larger n
    fails the log chart, and a series that has not converged after 800
    terms fails too.  Rounding in g can hide the nilpotency of a unipotent
    g, which then meets the norm gate.

    Without ``ok``, a failing slice raises OutOfChartError, that of the
    first failing slice of a stack.  With ``ok``, a writable bool array
    that g.shape[:-2] broadcasts to, failing slices clear their entries
    instead and their log is zero; the other slices are the same either
    way."""
    g = np.asarray(g, dtype=float)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise ValueError("square matrix required")
    shape, dim = g.shape, g.shape[-1]
    n = (g - np.eye(dim)).reshape(-1, dim, dim)
    if not n.size:
        return n.reshape(shape)
    # a zero float power stays zero, so n^dim is zero iff some power up to
    # the dimension is
    p = n
    for _ in range(dim - 1):
        if not np.count_nonzero(p):
            break
        p = p @ n
    gated = np.zeros(len(n), dtype=bool)
    if np.count_nonzero(p):  # some slice is not nilpotent in float: gate those
        norm = norm1_float(n)
        gated = p.any(axis=(1, 2)) & (norm >= 1)
        if np.count_nonzero(gated):
            n = np.where(gated[:, None, None], 0.0, n)  # their series ends at once
    ell, stuck = _log_series_float(n)
    if stuck or np.count_nonzero(gated):
        bad = gated.copy()
        bad[stuck] = True
        if ok is None:
            first = int(bad.argmax())
            raise OutOfChartError(
                f"||m - I|| = {norm[first]:.6g} >= 1: outside the log chart" if gated[first]
                else "matrix log series did not converge")
        np.logical_and(ok, ~bad.reshape(shape[:-2]), out=ok)
    return ell.reshape(shape)


# ---------------------------------------------------------------------------
# Gauss-Legendre quadrature on [0,1]
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights mapped to [0,1]; exact for polynomial
    integrands of degree <= 2*order - 1."""

    order: int
    nodes: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")
        s = sum(self.weights)
        if abs(s - 1.0) > 1e-14:
            raise ValueError(f"weights sum to {s}, expected 1")
        if not all(0.0 < x < 1.0 for x in self.nodes):
            raise ValueError("nodes must lie in (0,1)")
        if not all(w > 0 for w in self.weights):
            raise ValueError("weights must be positive")


def gauss_legendre_01(order: int) -> QuadratureRule:
    x, w = np.polynomial.legendre.leggauss(order)
    return QuadratureRule(order, tuple((x + 1.0) / 2.0), tuple(w / 2.0))


def integrate_01(rule: QuadratureRule, values) -> np.ndarray:
    """Quadrature over [0,1] of an integrand given by its values at the
    rule's nodes, stacked on a leading axis (order, ...): the weighted sum,
    added node by node in node order."""
    values = np.asarray(values, dtype=float)
    acc = np.zeros(values.shape[1:])
    for w, v in zip(rule.weights, values, strict=True):
        acc = acc + w * v
    return acc
