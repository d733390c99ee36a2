"""Exact rational dense linear algebra plus the two numerical kernels
(matrix exponential/logarithm and Gauss-Legendre quadrature on [0,1]).

Two scalar worlds coexist and never mix silently:

* exact: ``fractions.Fraction`` entries, used for every structural decision
  (ranks, centers, identities).  ``Rational`` is a re-export of ``Fraction``,
  which already is an always-reduced p/q with positive denominator.
* float: ``numpy`` arrays, used only on the integration side.

Conversion is explicit via ``Matrix.to_float`` / ``Matrix.to_numpy``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

Rational = Fraction

Vec = tuple[Fraction, ...]


class OutOfChartError(ValueError):
    """An argument left the neighborhood where log (and the local rack
    operations built on it) are defined."""


# ---------------------------------------------------------------------------
# vectors (plain tuples of Fraction)
# ---------------------------------------------------------------------------

def as_vec(entries: Sequence) -> Vec:
    return tuple(Fraction(e) for e in entries)


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
    """Dense matrix tagged ``exact`` (Fraction entries) or float (ndarray).

    Instances are immutable; all operations return new matrices.  Mixing an
    exact and a float matrix in arithmetic raises ``TypeError``.
    """

    __slots__ = ("rows", "cols", "data", "exact", "flags")

    def __init__(self, rows, cols, data, exact, flags=frozenset()):
        self.rows = rows
        self.cols = cols
        self.data = data  # tuple-of-row-tuples (exact) or ndarray (float)
        self.exact = exact
        self.flags = flags

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        data = tuple(tuple(Fraction(e) for e in r) for r in rows)
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        return Matrix(len(data), ncols, data, exact=True)

    @staticmethod
    def from_array(arr) -> "Matrix":
        a = np.array(arr, dtype=float)
        if a.ndim != 2:
            raise ValueError("need a 2-d array")
        a.setflags(write=False)
        return Matrix(a.shape[0], a.shape[1], a, exact=False)

    @staticmethod
    def identity(n: int, exact: bool = True) -> "Matrix":
        if exact:
            return Matrix.from_rows(
                [[Fraction(int(i == j)) for j in range(n)] for i in range(n)])
        return Matrix.from_array(np.eye(n))

    @staticmethod
    def zeros(rows: int, cols: int, exact: bool = True) -> "Matrix":
        if exact:
            # built directly so degenerate shapes (0 x n, n x 0) keep both counts
            data = tuple(tuple(Fraction(0) for _ in range(cols)) for _ in range(rows))
            return Matrix(rows, cols, data, exact=True)
        return Matrix.from_array(np.zeros((rows, cols)))

    @staticmethod
    def from_cols(cols: Sequence[Sequence]) -> "Matrix":
        return Matrix.from_rows(list(zip(*cols))) if cols else Matrix.from_rows([])

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j] if self.exact else float(self.data[i, j])

    def row(self, i: int) -> Vec:
        if self.exact:
            return self.data[i]
        return tuple(self.data[i, :])

    def col(self, j: int) -> Vec:
        if self.exact:
            return tuple(r[j] for r in self.data)
        return tuple(self.data[:, j])

    def to_numpy(self) -> np.ndarray:
        if self.exact:
            return np.array([[float(e) for e in r] for r in self.data],
                            dtype=float).reshape(self.rows, self.cols)
        return np.array(self.data)

    def to_float(self) -> "Matrix":
        return self if not self.exact else Matrix.from_array(self.to_numpy())

    def with_flags(self, *names: str) -> "Matrix":
        return Matrix(self.rows, self.cols, self.data, self.exact,
                      self.flags | frozenset(names))

    # -- arithmetic ---------------------------------------------------------

    def _check_peer(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {type(other).__name__}")
        if self.exact != other.exact:
            raise TypeError("exact and float matrices do not mix; convert explicitly")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_peer(other)
        if self.exact:
            return Matrix.from_rows([
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)])
        return Matrix.from_array(np.asarray(self.data) + other.data)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_peer(other)
        if self.exact:
            return Matrix.from_rows([
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)])
        return Matrix.from_array(np.asarray(self.data) - other.data)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        if self.exact:
            c = Fraction(c)
            return Matrix.from_rows([[c * e for e in r] for r in self.data])
        return Matrix.from_array(float(c) * np.asarray(self.data))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_peer(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if not self.exact:
            return Matrix.from_array(np.asarray(self.data) @ other.data)
        ocols = list(zip(*other.data)) if other.data else []
        return Matrix.from_rows([
            [sum(a * b for a, b in zip(r, c)) for c in ocols] for r in self.data])

    def mat_vec(self, v: Sequence) -> Vec:
        if not self.exact:
            raise TypeError("mat_vec is exact-only; use to_numpy() @ v for floats")
        v = as_vec(v)
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum((a * b for a, b in zip(r, v)), Fraction(0)) for r in self.data)

    def transpose(self) -> "Matrix":
        if self.exact:
            return Matrix.from_rows(list(zip(*self.data)) if self.data else [])
        return Matrix.from_array(np.asarray(self.data).T)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix) or self.exact != other.exact:
            return NotImplemented
        if self.exact:
            return self.data == other.data
        return bool(np.array_equal(self.data, other.data))

    def __hash__(self):
        return hash((self.rows, self.cols, self.data if self.exact else None))

    def is_zero(self) -> bool:
        if self.exact:
            return all(e == 0 for r in self.data for e in r)
        return not np.asarray(self.data).any()

    def norm1(self):
        """Induced 1-norm (max column abs sum); exact on rationals."""
        if self.cols == 0:
            return Fraction(0) if self.exact else 0.0
        if self.exact:
            return max(sum(abs(r[j]) for r in self.data) for j in range(self.cols))
        return float(np.abs(self.data).sum(axis=0).max())

    def __repr__(self):
        tag = "exact" if self.exact else "float"
        return f"Matrix({self.rows}x{self.cols} {tag})"


# ---------------------------------------------------------------------------
# exact elimination: rref, nullspace, solve
# ---------------------------------------------------------------------------

def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with pivot column indices (exact only)."""
    if not m.exact:
        raise TypeError("rref is exact-only")
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
                a[i] = [e - f * p for e, p in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return Matrix.from_rows(a), tuple(pivots)


def nullspace(m: Matrix) -> list[Vec]:
    """Exact basis of ker(m); empty iff m is injective on columns."""
    red, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red.data[r][fc]
        basis.append(tuple(v))
    return basis


def solve_exact(a: Matrix, b: Sequence) -> Vec:
    """Solve a x = b exactly; raises ValueError if inconsistent or
    underdetermined (callers here always have full column rank)."""
    b = as_vec(b)
    aug = Matrix.from_rows([list(r) + [e] for r, e in zip(a.data, b)])
    red, pivots = rref(aug)
    if a.cols in pivots:
        raise ValueError("inconsistent system")
    if len(pivots) < a.cols:
        raise ValueError("underdetermined system")
    x = [Fraction(0)] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = red.data[r][a.cols]
    return tuple(x)


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


# ---------------------------------------------------------------------------
# matrix exponential / logarithm
# ---------------------------------------------------------------------------

def nilpotency_index(m: Matrix) -> int | None:
    """Smallest k <= dim with m^k = 0, else None.  Powers up to the dimension
    suffice for nilpotent matrices; dimensions here are tiny."""
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    if m.exact:
        p = m
        for k in range(1, m.rows + 1):
            if p.is_zero():
                return k
            p = p @ m
        return None
    a = np.asarray(m.data)
    p = a.copy()
    for k in range(1, m.rows + 1):
        if not p.any():
            return k
        p = p @ a
    return None


def joint_nilpotency_index(mats: Sequence[Matrix]) -> int | None:
    """Smallest k >= 1 such that every product of k matrices of the exact
    family ``mats`` vanishes, else None (the algebra they generate is not
    nilpotent).  Every element X of their span then has X^k = 0.

    Decided on the flag V_0 = F^n, V_(j+1) = sum_i A_i V_j, which shrinks
    strictly until it reaches 0 exactly when the family is nilpotent.
    Nilpotency of each member is not enough: sl2 has a basis of nilpotent
    matrices whose span is not nilpotent."""
    if not mats:
        return 1
    n = mats[0].rows
    if any(not m.exact or m.rows != n or m.cols != n for m in mats):
        raise ValueError("an exact family of square matrices of one size is required")
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
    """exp(m).  Exact finite series for exact nilpotent input; otherwise
    scaling-and-squaring (scipy) on floats.  An exact non-nilpotent input is
    not an error: it falls through to the float path with a
    ``float_fallback`` flag on the result."""
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    if m.exact:
        k = nilpotency_index(m)
        if k is not None:
            acc = Matrix.identity(m.rows)
            p = Matrix.identity(m.rows)
            for j in range(1, k):
                p = p @ m
                acc = acc + p.scale(Fraction(1, factorial(j)))
            return acc
        return Matrix.from_array(scipy.linalg.expm(m.to_numpy())).with_flags("float_fallback")
    return Matrix.from_array(scipy.linalg.expm(np.asarray(m.data)))


def exp_float(a: np.ndarray, index: int | None = None) -> np.ndarray:
    """exp(a) for a float square array.

    ``index`` is the exact joint nilpotency index of a family whose span
    contains ``a`` (see ``joint_nilpotency_index``).  With it a^index = 0,
    so the finite series sum_(j < index) a^j / j! is exact and is used;
    without it, scipy's scaling-and-squaring."""
    if not a.size:
        return np.zeros_like(a)
    if index is None:
        return scipy.linalg.expm(a)
    acc = term = np.eye(a.shape[0])
    for j in range(1, index):
        term = (term @ a) / j
        acc = acc + term
    return acc


def _log_series_float(n: np.ndarray, max_terms: int = 800) -> np.ndarray:
    # log(I+N) = sum (-1)^(k+1) N^k / k; terminates exactly on nilpotent N,
    # converges for ||N|| < 1 otherwise.
    acc = n.copy()
    term = n.copy()
    for k in range(2, max_terms + 1):
        term = term @ n
        if not term.any():
            return acc
        acc = acc + ((-1) ** (k + 1) / k) * term
        if np.abs(term).max() / k < 1e-18:
            return acc
    raise OutOfChartError("matrix log series did not converge")


def matrix_log(m: Matrix) -> Matrix:
    """Principal log near the identity, inverse of matrix_exp.

    Unipotent input (m - I nilpotent) is handled by the exact finite series
    at any norm.  Otherwise the precondition ||m - I|| < 1 (induced 1-norm)
    gates the series; violation raises OutOfChartError.
    """
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    n = m - Matrix.identity(m.rows, exact=m.exact)
    k = nilpotency_index(n)
    if k is not None:
        if m.exact:
            acc = Matrix.zeros(m.rows, m.rows)
            p = Matrix.identity(m.rows)
            for j in range(1, k):
                p = p @ n
                acc = acc + p.scale(Fraction((-1) ** (j + 1), j))
            return acc
        return Matrix.from_array(_log_series_float(np.asarray(n.data)))
    if n.norm1() >= 1:
        raise OutOfChartError(
            f"||m - I|| = {float(n.norm1()):.6g} >= 1: outside the log chart")
    return Matrix.from_array(_log_series_float(n.to_numpy() if n.exact else np.asarray(n.data)))


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


def integrate_01(rule: QuadratureRule, integrand: Callable[[float], np.ndarray]) -> np.ndarray:
    """Quadrature of a vector- (or matrix-) valued integrand over [0,1]."""
    acc = None
    for x, w in zip(rule.nodes, rule.weights):
        v = w * np.asarray(integrand(x), dtype=float)
        acc = v if acc is None else acc + v
    return acc
