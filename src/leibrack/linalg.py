"""The float kernels of the integration side: matrix exponential and
logarithm, the path integral phi1 and Gauss-Legendre quadrature on [0,1],
on plain ``numpy`` arrays.

The exact scalar world (``Matrix``, Fraction vectors, ``rref``, the
nilpotency indices, the finite exp and log series) lives in ``exact``,
which imports no numpy, and each of its names is imported from there.
This module takes four of them: ``OutOfChartError``, which ``log_float``
raises, and ``rref``, ``matrix_log`` and ``nilpotency_index``, which the
benchmark's tracer (``perfbench/tracer.py``) binds under this module's
name.  The crossings from exact to float, ``Matrix.to_numpy`` and
``Cochain.to_numpy``, are made on this side only, by the rack system
(``rack.LocalRackSystem``), each on the first use of the value it gives
and once per system: each imports numpy when called.

The kernels are ``exp_float``, ``phi1_float`` (the integral
int_0^1 exp(s a) v ds in closed form: i2's outer integral and iota2's
inner one), ``log_float`` and ``integrate_01`` (quadrature of values at
the nodes: iota2's outer integral and the quadrature cross-check of
i2).  i1 needs no kernel: it is read off the group element's matrix
(``rack.i1``).

``exp_float``, ``phi1_float``, ``log_float``, ``norm1_float`` and ``matvec``
take a stack of square arrays, shape (..., n, n), and give each slice bit
for bit what the call on that slice alone gives.  Each has one code path:
one element is a stack with no leading axes.  ``log_float`` takes an
optional mask of the slices that succeeded, which it narrows where a slice
leaves the log chart instead of raising, by ``_fail``, the one mask rule
that every gate of ``rack`` applies too.  It sums its series in one pass:
the slices still running are an index array into the stack, and the
slices that finish at a term are written out with one scatter and leave
it.  The kernels use only operations that are exact slice by slice with
numpy's OpenBLAS build: stacked ``@`` (matrix-matrix, and matrix-vector
written as (..., n, 1)), elementwise arithmetic, reductions within a
slice, ``np.linalg.solve``, and gathers and scatters of whole slices by
index.  ``np.einsum`` over a stack is not
among them: it can sum in another order.  Without a nilpotency index,
``exp_float`` and ``phi1_float`` go to one Pade kernel, ``_expm_pade``,
built from these operations alone: a slice's result does not depend on
the slices stacked with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .exact import OutOfChartError
# the benchmark's tracer binds these three under ``leibrack.linalg``
from .exact import matrix_log, nilpotency_index, rref  # noqa: F401


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
    non-finite entry gives NaN.  The scaling runs only on a stack that
    holds such a slice or one past theta_13: otherwise s = 0 for every
    slice, and halving 0 times is the identity, so each degree is
    evaluated on its slices as they are."""
    shape, n = a.shape, a.shape[-1]
    a = np.ascontiguousarray(a, dtype=float).reshape(-1, n, n)  # every slice laid out alike
    norm = norm1_float(a)
    degree = np.searchsorted(_PADE_THETA, norm)  # into _PADE_COEFFS; 5: past theta_13 or NaN
    degrees = sorted(set(degree.tolist()))
    if 5 not in degrees:
        if len(degrees) == 1:
            return _pade(a, _PADE_COEFFS[degrees[0]]).reshape(shape)
        out = np.empty_like(a)
        for d in degrees:
            rows = np.flatnonzero(degree == d)
            out[rows] = _pade(a[rows], _PADE_COEFFS[d])
        return out.reshape(shape)
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
    sum_(j < index) a^j v / (j+1)! is exact and is summed by products;
    without it, one ``_expm_pade`` of the augmented matrices [[a, v], [0, 0]],
    whose top-right block is phi1(a) v (Van Loan, IEEE TAC 1978)."""
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


def _fail(ok: np.ndarray | None, bad, message: Callable[[int], str]) -> bool:
    """Apply a gate that the slices marked in bad fail: without a mask the
    first of them raises OutOfChartError(message(i)); with one they leave
    ok.  True if any slice failed.  The one mask rule of the float layer:
    ``log_float`` and every gate of ``rack`` apply theirs through it."""
    if not bad.any():
        return False
    if ok is None:
        raise OutOfChartError(message(int(np.argmax(bad))))
    ok &= ~bad
    return True


LOG_SERIES_TERMS = 800  # terms of the float log series before it counts as not converging


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
    instead (``_fail``) and their log is zero; the other slices are the
    same either way."""
    g = np.asarray(g, dtype=float)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise ValueError("square matrix required")
    shape, dim = g.shape, g.shape[-1]
    n = (g - np.eye(dim)).reshape(-1, dim, dim)
    if not n.size:
        return n.reshape(shape)
    # only a slice with ||n|| >= 1 can fail the gate, so only those are
    # probed: a zero float power of finite entries stays zero, so n^dim is
    # zero iff some power up to the dimension is, and a slice with an
    # infinite entry has no zero power
    norm = norm1_float(n)
    wide = np.flatnonzero(norm >= 1)
    p = nw = n[wide]
    for _ in range(dim - 1):
        if not np.count_nonzero(p):
            break
        p = p @ nw
    gated = np.zeros(len(n), dtype=bool)
    gated[wide] = p.any(axis=(1, 2))  # not nilpotent in float and wide: gated
    # the series sum (-1)^(k+1) x^k / k of the other slices, in one pass over
    # the stack of those still running (rows): it ends exactly on a
    # nilpotent slice and converges on one with ||x|| < 1.  A slice stops
    # before its first zero term, or after its first term with
    # max|term| / k < 1e-18, and leaves the stack with its sum written out
    ell = np.zeros_like(n)
    rows = np.flatnonzero(~gated)
    acc = term = x = n[rows]
    for k in range(2, LOG_SERIES_TERMS + 1):
        if not rows.size:
            break
        term = term @ x
        size = np.abs(term).max(axis=(1, 2))
        nxt = acc + ((-1) ** (k + 1) / k) * term
        done = size / k < 1e-18
        if done.any():
            ell[rows[done]] = np.where((size == 0)[:, None, None], acc, nxt)[done]
            keep = ~done
            rows, x, term, nxt = rows[keep], x[keep], term[keep], nxt[keep]
        acc = nxt
    bad = gated.copy()
    bad[rows] = True  # still running after LOG_SERIES_TERMS: did not converge
    _fail(ok, bad.reshape(shape[:-2]),
          lambda i: f"||m - I|| = {norm[i]:.6g} >= 1: outside the log chart" if gated[i]
          else "matrix log series did not converge")
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


@cache
def gauss_legendre_01(order: int) -> QuadratureRule:
    """The rule of the given order, built once per order: a rule is an
    immutable record, so every caller may share it."""
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
