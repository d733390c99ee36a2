"""Exact rational linear algebra: the scalar world of the exact layer.

``Matrix`` and vectors hold ``fractions.Fraction`` entries and make every
structural decision (ranks, centers, identities, nilpotency).  ``Rational``
is a re-export of ``Fraction``, which already is an always-reduced p/q with
positive denominator.  ``as_vec`` and ``Matrix.from_rows`` pass Fraction
entries through unchanged (they are immutable) and convert only other
numbers.  A ``Matrix`` stores only its sparse rows, ``nonzeros``: the
(j, a) with a != 0 of each row.  ``Matrix.from_terms`` sums (row, column,
entry) terms into that form and is how every product, sum and action
matrix is built; ``from_rows`` and ``from_cols`` take dense input, and
``row`` and ``col`` give a dense vector on request.  ``@``, ``mat_vec``,
``+``, ``-``, ``to_numpy``, the zero and equality tests, ``rref`` (which
eliminates rows held as {column: entry}), ``inverse_exact`` and
``joint_nilpotency_index`` cost by the nonzeros; exact sums do not depend
on their order, so the results are those of the dense formulas.
``matrix_exp`` and ``matrix_log`` are finite series on nilpotent/unipotent
input only.

Nothing here imports numpy, so parsing, ``verify`` and ``analyze`` run
without it.  ``Matrix.to_numpy``, a matrix's way into the float layer
(``linalg``), imports it when called.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import factorial
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
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
        import numpy as np
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
