"""Exact rational linear algebra plus the float kernels (matrix
exponential/logarithm, the path integral phi1 and Gauss-Legendre
quadrature on [0,1]).

Each scalar world has its own types:

* exact: ``Matrix`` and vectors hold ``fractions.Fraction`` entries and make
  every structural decision (ranks, centers, identities, nilpotency).
  ``Rational`` is a re-export of ``Fraction``, which already is an
  always-reduced p/q with positive denominator.  ``as_vec`` and
  ``Matrix.from_rows`` pass Fraction entries through unchanged (they are
  immutable) and convert only other numbers.  A ``Matrix`` stores only its
  sparse rows, ``nonzeros``: the (j, a) with a != 0 of each row.
  ``Matrix.from_terms`` sums (row, column, entry) terms into that form and
  is how every product, sum and action matrix is built; ``from_rows`` and
  ``from_cols`` take dense input, and ``row`` and ``col`` give a dense
  vector on request.  ``@``, ``mat_vec``, ``+``, ``-``, ``to_numpy``, the
  zero and equality tests, ``rref`` (which eliminates rows held as
  {column: entry}), ``inverse_exact`` and ``joint_nilpotency_index`` cost
  by the nonzeros; exact sums do not depend on their order, so the results
  are those of the dense formulas.  ``matrix_exp`` and ``matrix_log`` are
  finite series on nilpotent/unipotent input only.
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
exact slice by slice with numpy's OpenBLAS build: stacked ``@``
(matrix-matrix, and matrix-vector written as (..., n, 1)), elementwise
arithmetic, reductions within a slice, ``np.linalg.solve``, and gathers
and scatters of whole slices by index.  ``np.einsum`` over a stack is not
among them: it can sum in another order.  Without a nilpotency index,
``exp_float`` and ``phi1_float`` go to one Pade kernel, ``_expm_pade``,
built from these operations alone: a slice's result does not depend on
the slices stacked with it.

``Matrix.to_numpy`` is the one crossing, from exact to float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import factorial
from typing import Iterable, Sequence

import numpy as np

Rational = Fraction

Vec = tuple[Fraction, ...]

_ZERO, _ONE = Fraction(0), Fraction(1)


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


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def zero_vec(n: int) -> Vec:
    return (_ZERO,) * n


def _total(terms: list[Fraction]) -> Fraction:
    """The sum of the terms, 0 if there are none; the first term is not
    added to a zero start."""
    return sum(terms[1:], terms[0]) if terms else _ZERO


class Matrix:
    """Exact matrix held as its sparse rows: ``rows``, ``cols`` and
    ``nonzeros``, for each row the (j, a) with a != 0 in increasing j.

    That is the one stored form.  Instances are immutable; all operations
    return new matrices and cost by the nonzeros.  ``row`` and ``col`` make
    a dense vector where a caller asks for one, and ``from_rows`` and
    ``from_cols`` take dense input.  Floats never enter: ``to_numpy`` is
    the one way out to the float layer.
    """

    __slots__ = ("rows", "cols", "nonzeros")

    def __init__(self, rows: int, cols: int,
                 nonzeros: tuple[tuple[tuple[int, Fraction], ...], ...]):
        self.rows = rows
        self.cols = cols
        self.nonzeros = nonzeros

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        data = [tuple(map(_frac, r)) for r in rows]
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        return Matrix(len(data), ncols,
                      tuple(tuple((j, a) for j, a in enumerate(r) if a) for r in data))

    @staticmethod
    def from_terms(rows: int, cols: int,
                   terms: Iterable[tuple[int, int, Fraction]]) -> "Matrix":
        """The rows x cols matrix whose (r, j) entry is the sum of the a over
        the terms (r, j, a), all Fraction: it costs by the number of terms.
        An index outside the shape is a ValueError, checked once per row."""
        sums: dict[int, dict[int, Fraction]] = {}  # only the rows that have terms
        for r, j, a in terms:
            acc = sums.get(r)
            if acc is None:
                sums[r] = {j: a}
            else:
                acc[j] = acc[j] + a if j in acc else a
        nonzeros = [()] * rows
        for r, acc in sums.items():
            js = sorted(acc)
            if not (0 <= r < rows and 0 <= js[0] and js[-1] < cols):
                raise ValueError(f"index ({r}, {js[0] if js[0] < 0 else js[-1]}) "
                                 f"out of range for a {rows}x{cols} matrix")
            nonzeros[r] = tuple((j, acc[j]) for j in js if acc[j])
        return Matrix(rows, cols, tuple(nonzeros))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.from_terms(n, n, ((i, i, _ONE) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, ((),) * rows)

    @staticmethod
    def from_cols(rows: int, cols: Sequence[Sequence]) -> "Matrix":
        """The rows x len(cols) matrix with the given columns, each of length
        rows, so a shape with no rows or no columns keeps both counts."""
        if any(len(c) != rows for c in cols):
            raise ValueError("ragged columns")
        return Matrix.from_terms(rows, len(cols), ((r, j, _frac(a)) for j, c in enumerate(cols)
                                                   for r, a in enumerate(c) if a))

    # -- access ------------------------------------------------------------

    def row(self, i: int) -> Vec:
        out = [_ZERO] * self.cols
        for j, a in self.nonzeros[i]:
            out[j] = a
        return tuple(out)

    def col(self, j: int) -> Vec:
        return tuple(next((a for k, a in row if k == j), _ZERO) for row in self.nonzeros)

    def to_numpy(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        for r, j, a in self._terms():
            out[r, j] = float(a)
        return out

    def _terms(self, sign: int = 1):
        """The (r, j, a) of the nonzero entries, negated if sign is -1."""
        return ((r, j, a if sign > 0 else -a)
                for r, row in enumerate(self.nonzeros) for j, a in row)

    # -- arithmetic ---------------------------------------------------------

    def _check_same_shape(self, other: "Matrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} "
                             f"vs {other.rows}x{other.cols}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix.from_terms(self.rows, self.cols,
                                 chain(self._terms(), other._terms()))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix.from_terms(self.rows, self.cols,
                                 chain(self._terms(), other._terms(-1)))

    def __neg__(self) -> "Matrix":
        return Matrix.from_terms(self.rows, self.cols, self._terms(-1))

    def scale(self, c) -> "Matrix":
        c = _frac(c)
        return Matrix.from_terms(self.rows, self.cols,
                                 ((r, j, c * a) for r, j, a in self._terms()))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product, summed over the pairs of nonzeros a = self[r, k],
        b = other[k, j]."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        right = other.nonzeros
        return Matrix.from_terms(self.rows, other.cols, (
            (r, j, a * b) for r, row in enumerate(self.nonzeros)
            for k, a in row for j, b in right[k]))

    def mat_vec(self, v: Sequence) -> Vec:
        """m v, summed over the nonzeros of each row where v is nonzero."""
        v = as_vec(v)
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(_total([a * v[j] for j, a in row if v[j]]) for row in self.nonzeros)

    def transpose(self) -> "Matrix":
        return Matrix.from_terms(self.cols, self.rows,
                                 ((j, r, a) for r, j, a in self._terms()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.nonzeros) == (other.rows, other.cols, other.nonzeros)

    def __hash__(self):
        return hash((self.rows, self.cols, self.nonzeros))

    def is_zero(self) -> bool:
        return not any(self.nonzeros)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# exact elimination: rref, nullspace, inverse
# ---------------------------------------------------------------------------

def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with pivot column indices.  Rows are
    eliminated as their nonzero entries ({column: entry}), so a step costs
    by the nonzeros of the pivot row and of the rows it clears."""
    a = [dict(r) for r in m.nonzeros]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if c in a[i]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        if a[r][c] != 1:
            inv = 1 / a[r][c]
            a[r] = {j: e * inv for j, e in a[r].items()}
        for i in range(nrows):
            row = a[i]
            if i != r and c in row:
                f = row[c]
                for j, p in a[r].items():
                    e = row[j] - f * p if j in row else -(f * p)
                    if e:
                        row[j] = e
                    else:
                        del row[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return Matrix.from_terms(nrows, ncols, ((i, j, e) for i, row in enumerate(a)
                                            for j, e in row.items())), tuple(pivots)


def nullspace(m: Matrix) -> list[Vec]:
    """Exact basis of ker(m); empty iff m is injective on columns."""
    return rref_nullspace(*rref(m))


def rref_nullspace(red: Matrix, pivots: Sequence[int]) -> list[Vec]:
    """Exact basis of the kernel of a matrix, read from its reduced row
    echelon form and pivot columns as ``rref`` returns them."""
    free = [c for c in range(red.cols) if c not in pivots]
    basis = {fc: [_ZERO] * red.cols for fc in free}  # in the order of free
    for fc, v in basis.items():
        v[fc] = _ONE
    # v[pc] is minus the entry of pivot row r in v's free column
    for r, pc in enumerate(pivots):
        for j, a in red.nonzeros[r]:
            if j in basis:
                basis[j][pc] = -a
    return [tuple(v) for v in basis.values()]


def inverse_exact(a: Matrix) -> Matrix:
    """a^-1 from one reduced row echelon form of [a | I]; ValueError if a
    is not square or is singular."""
    n = a.rows
    if a.cols != n:
        raise ValueError("square matrix required")
    red, pivots = rref(Matrix.from_terms(n, 2 * n, chain(
        a._terms(), ((i, n + i, _ONE) for i in range(n)))))
    if pivots != tuple(range(n)):
        raise ValueError("singular matrix")
    return Matrix(n, n, tuple(tuple((j - n, e) for j, e in row if j >= n)
                              for row in red.nonzeros))


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
    columns = [m.transpose().nonzeros for m in mats]  # [i][j]: column j of mats[i]
    basis = Matrix.identity(n).nonzeros  # V_j, as sparse rows
    k = 1
    while True:
        # the vectors A_i v, v in the basis, over the nonzeros of v and A_i
        images = Matrix.from_terms(len(mats) * len(basis), n, (
            (i * len(basis) + b, r, vj * a)
            for i, cols in enumerate(columns) for b, v in enumerate(basis)
            for j, vj in v for r, a in cols[j]))
        red, pivots = rref(images)
        if not pivots:
            return k
        if len(pivots) == len(basis):
            return None
        basis = red.nonzeros[:len(pivots)]
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


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a x for a vector x (..., k), slice by slice for stacks: a is a
    matrix or a stack of them that broadcasts against x's."""
    return (a @ x[..., None])[..., 0]


# Higham (SIAM J. Matrix Anal. Appl. 26, 2005): the largest 1-norm at which
# the degree-m Pade approximant of exp keeps the backward error below the
# unit roundoff, and the coefficients b_0..b_m of its numerator
_PADE_THETA = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
               2.097847961257068, 5.371920351148152)
_PADE_COEFFS = (
    (120., 60., 12., 1.),
    (30240., 15120., 3360., 420., 30., 1.),
    (17297280., 8648640., 1995840., 277200., 25200., 1512., 56., 1.),
    (17643225600., 8821612800., 2075673600., 302702400., 30270240., 2162160., 110880.,
     3960., 90., 1.),
    (64764752532480000., 32382376266240000., 7771770303897600., 1187353796428800.,
     129060195264000., 10559470521600., 670442572800., 33522128640., 1323241920.,
     40840800., 960960., 16380., 182., 1.),
)


def _pade(a: np.ndarray, b: tuple[float, ...]) -> np.ndarray:
    """The Pade approximant of exp with numerator coefficients b on a stack
    (k, n, n): (V - U)^-1 (V + U), with U the odd and V the even part of
    the numerator polynomial."""
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    if len(b) == 14:  # degree 13, in Higham's grouping through a^6
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2
    else:
        odd, v, power = b[1] * eye + b[3] * a2, b[2] * a2, a2
        for j in range(4, len(b), 2):
            power = power @ a2
            odd, v = odd + b[j + 1] * power, v + b[j] * power
        u = a @ odd
    v = v + b[0] * eye
    return np.linalg.solve(v - u, v + u)


def _expm_pade(a: np.ndarray) -> np.ndarray:
    """exp of each slice of a stack (..., n, n), n >= 1, by scaling and
    squaring (Higham 2005).  A slice's 1-norm picks the least Pade degree
    m in (3, 5, 7, 9, 13) whose theta_m bounds it; past theta_13 the slice
    is halved s times to within it and its degree-13 approximant squared
    s times.  Each degree is one stacked evaluation, and each squaring
    one product of the slices that still need it.  A slice with a
    non-finite entry gives NaN."""
    shape, n = a.shape, a.shape[-1]
    a = np.ascontiguousarray(a, dtype=float).reshape(-1, n, n)  # every slice laid out alike
    norm = norm1_float(a)
    degree = np.searchsorted(_PADE_THETA, norm)  # into _PADE_COEFFS; 5: past theta_13
    degree[~np.isfinite(norm)] = -1  # not evaluated: stays NaN
    big = degree == 5
    squarings = np.zeros(len(a), dtype=int)
    squarings[big] = np.ceil(np.log2(norm[big] / _PADE_THETA[-1]))
    degree[big] = 4
    out = np.full(a.shape, np.nan)
    for d in sorted(set(degree.tolist()) - {-1}):
        rows = np.flatnonzero(degree == d)
        out[rows] = _pade(np.ldexp(a[rows], -squarings[rows, None, None]), _PADE_COEFFS[d])
    for step in range(int(squarings.max(initial=0))):
        rows = np.flatnonzero(squarings > step)
        out[rows] = out[rows] @ out[rows]
    return out.reshape(shape)


def exp_float(a: np.ndarray, index: int | None = None) -> np.ndarray:
    """exp(a) for a float square array or a stack of them, shape
    (..., n, n), slice by slice.

    ``index`` is the exact joint nilpotency index of a family whose span
    contains ``a`` (see ``joint_nilpotency_index``).  With it a^index = 0,
    so the finite series sum_(j < index) a^j / j! is exact and is used;
    without it, Pade scaling and squaring (``_expm_pade``, one call on the
    whole stack)."""
    if not a.size:
        return np.zeros_like(a)
    if index is None:
        return _expm_pade(a)
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
    products; without it, one ``_expm_pade`` of the augmented matrices
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
        return _expm_pade(aug)[..., :n, n:].reshape(v.shape)
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
