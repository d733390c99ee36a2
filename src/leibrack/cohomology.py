"""Leibniz cochains, exact: multilinear cochains held as their nonzero
values, the differential dL, and the degree-shift isomorphism tau that
trades an anti-symmetric coefficient module for the symmetric module
Hom(g, a) (currying the last slot), which only re-keys the values.  dL
sends each nonzero value of the cochain to the outputs it reaches, through
the nonzero actions and the algebra's nonzero table ``terms`` read by
output slot, so it costs by nonzeros, not by the d^(n+1) output tuples;
``Cochain.evaluate`` sums over the nonzero coordinates of its arguments
and values only.  The Hom generators are built from the nonzeros of rho
and of the table, as sparse ``Matrix`` values.  ``lie_cocycle_defect``
checks the extension's omega as a Lie cocycle, for iota2.

No numpy here: ``Cochain.to_numpy`` imports it when called.  The float
cochains of the rack side, evaluator functions on group elements, and the
rack differential are test oracles (``tests/oracles.py``); the package
checks that i2 is a rack cocycle through ``suites.cocycle_suite``, which
expands d_R(i2) over the rack operations.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from typing import TYPE_CHECKING, Iterable, Sequence

from .algebra import CentralExtensionData, Representation
from .exact import Matrix, Vec, as_vec, zero_vec

if TYPE_CHECKING:
    import numpy as np

_ZERO, _ONE = Fraction(0), Fraction(1)


class Cochain:
    """Multilinear map g^(x n) -> coefficients, held as its nonzero values.

    ``nonzeros`` maps each basis-index tuple (i1,...,in) whose value is
    nonzero to that value, an exact coefficient vector with at least one
    nonzero entry; every other tuple has the zero value.  That is the one
    stored form, so equal cochains compare equal.  ``from_terms`` sums
    terms into it and ``from_function`` takes dense input.  Immutable by
    convention, like ``Matrix``."""

    __slots__ = ("degree", "domain_dim", "coeff_dim", "nonzeros")

    def __init__(self, degree: int, domain_dim: int, coeff_dim: int,
                 nonzeros: dict[tuple[int, ...], Vec]):
        self.degree = degree
        self.domain_dim = domain_dim
        self.coeff_dim = coeff_dim
        self.nonzeros = nonzeros
        for idx, val in self.nonzeros.items():
            if len(idx) != self.degree or not all(0 <= i < self.domain_dim for i in idx):
                raise ValueError(f"{idx} is not a degree-{self.degree} index "
                                 f"into dimension {self.domain_dim}")
            if len(val) != self.coeff_dim or not any(val):
                raise ValueError(f"value at {idx} is not a nonzero vector "
                                 f"of length {self.coeff_dim}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cochain):
            return NotImplemented
        return (self.degree, self.domain_dim, self.coeff_dim, self.nonzeros) == \
            (other.degree, other.domain_dim, other.coeff_dim, other.nonzeros)

    def __hash__(self):
        return hash((self.degree, self.domain_dim, self.coeff_dim,
                     frozenset(self.nonzeros.items())))

    @staticmethod
    def from_terms(degree, domain_dim, coeff_dim,
                   terms: Iterable[tuple[tuple[int, ...], int, Fraction]]) -> "Cochain":
        """The cochain whose value at idx has entry k the sum of the a over
        the terms (idx, k, a), all Fraction: it costs by the number of terms.
        An index outside the shape is a ValueError, checked once per entry."""
        sums: dict[tuple[int, ...], dict[int, Fraction]] = {}
        for idx, k, a in terms:
            acc = sums.setdefault(idx, {})
            acc[k] = acc.get(k, _ZERO) + a
        for idx, acc in sums.items():
            for k in acc:
                if not (len(idx) == degree and all(0 <= i < domain_dim for i in idx)
                        and 0 <= k < coeff_dim):
                    raise ValueError(f"index ({idx}, {k}) out of range for degree {degree}, "
                                     f"dimension {domain_dim} and {coeff_dim} coefficients")
        values = ((idx, tuple(acc.get(k, _ZERO) for k in range(coeff_dim)))
                  for idx, acc in sums.items())
        return Cochain(degree, domain_dim, coeff_dim, {idx: v for idx, v in values if any(v)})

    @staticmethod
    def zero(degree, domain_dim, coeff_dim) -> "Cochain":
        return Cochain(degree, domain_dim, coeff_dim, {})

    @staticmethod
    def from_function(degree, domain_dim, coeff_dim, fn) -> "Cochain":
        """fn maps a basis-index tuple to a coefficient vector."""
        values = ((idx, as_vec(fn(*idx))) for idx in product(range(domain_dim), repeat=degree))
        return Cochain(degree, domain_dim, coeff_dim, {idx: v for idx, v in values if any(v)})

    def at(self, *idx: int) -> Vec:
        """Value on basis elements."""
        if len(idx) != self.degree:
            raise ValueError(f"need {self.degree} indices")
        return self.nonzeros.get(idx) or zero_vec(self.coeff_dim)

    def evaluate(self, *vectors: Sequence) -> Vec:
        """Full multilinear evaluation on exact vectors."""
        if len(vectors) != self.degree:
            raise ValueError(f"need {self.degree} arguments")
        vecs = [as_vec(v) for v in vectors]
        if any(len(v) != self.domain_dim for v in vecs):
            raise ValueError(f"arguments must have length {self.domain_dim}")
        supports = [[(i, c) for i, c in enumerate(v) if c] for v in vecs]
        out = list(zero_vec(self.coeff_dim))
        for picks in product(*supports):
            val = self.nonzeros.get(tuple(i for i, _ in picks))
            if val is None:
                continue
            f = _ONE
            for _, c in picks:
                f *= c
            for k, a in enumerate(val):
                if a:
                    out[k] += f * a
        return tuple(out)

    def to_numpy(self) -> np.ndarray:
        import numpy as np
        out = np.zeros((self.domain_dim,) * self.degree + (self.coeff_dim,))
        for idx, val in self.nonzeros.items():
            out[idx] = [float(a) for a in val]
        return out

    def _terms(self):
        """The (idx, k, a) of the nonzero entries, as ``from_terms`` takes them."""
        return ((idx, k, a) for idx, val in self.nonzeros.items()
                for k, a in enumerate(val) if a)

    def __add__(self, other: "Cochain") -> "Cochain":
        if (self.degree, self.domain_dim, self.coeff_dim) != \
                (other.degree, other.domain_dim, other.coeff_dim):
            raise ValueError("cochain shape mismatch")
        return Cochain.from_terms(self.degree, self.domain_dim, self.coeff_dim,
                                  chain(self._terms(), other._terms()))

    def scale(self, c) -> "Cochain":
        c = Fraction(c)
        return Cochain.from_terms(self.degree, self.domain_dim, self.coeff_dim,
                                  ((idx, k, c * a) for idx, k, a in self._terms()))

    def is_zero(self) -> bool:
        return not self.nonzeros


# ---------------------------------------------------------------------------
# the Leibniz differential
# ---------------------------------------------------------------------------

def leibniz_differential(rep: Representation, w: Cochain) -> Cochain:
    """dL of a degree-n cochain valued in the module ``rep``; degree n+1:

        dL w(x_0..x_n) = sum_{i<n} (-1)^i [x_i, w(..hat i..)]_L
                         + (-1)^(n-1) [w(x_0..x_{n-1}), x_n]_R
                         + sum_{i<j} (-1)^(i+1) w(..hat i.., [x_i, x_j] at slot j, ..).

    At degree 0 this reads dL beta(x) = -[beta, x]_R, which on a symmetric
    module equals [x, beta]_L (the form the coboundary computations use)
    and vanishes on anti-symmetric ones; with it dL . dL = 0 holds exactly
    for every module flavor.

    Each nonzero value of w is sent to the outputs it reaches: through the
    nonzero left actions at every insert position i < n, through the
    nonzero right actions appended last (those the flavor fixes: -left on
    a symmetric module, none on an anti-symmetric one), and, for each slot
    s holding p and each nonzero c = [e_a, e_b]_p of the table, to the
    output with b at slot s and a inserted at a position i <= s.  The work
    costs by the nonzeros of w, of the actions and of the table.
    """
    alg = rep.algebra
    if w.domain_dim != alg.dim or w.coeff_dim != rep.carrier_dim:
        raise ValueError("cochain does not match the representation")
    n = w.degree
    left = [(a, m) for a, m in enumerate(rep.left) if not m.is_zero()]
    # [m, e_a]_R is -[e_a, m]_L on a symmetric module, whose sign the
    # right term's (-1)^n absorbs, and 0 on an anti-symmetric one
    right = left if rep.flavor == "symmetric" else ()
    # into[p]: the (a, b, c) with c = [e_a, e_b]_p != 0
    into = [[] for _ in range(alg.dim)]
    for a, row in enumerate(alg.terms):
        for b, t in enumerate(row):
            for p, c in t:
                into[p].append((a, b, c))

    def images(idx, val):
        """(output index, sign, vector) for each output that w(idx) reaches."""
        for a, m in left:
            v = m.mat_vec(val)
            for i in range(n):
                yield idx[:i] + (a,) + idx[i:], (-1) ** i, v
        for a, m in right:
            yield idx + (a,), (-1) ** n, m.mat_vec(val)
        for s, p in enumerate(idx):
            for a, b, c in into[p]:
                for i in range(s + 1):
                    yield idx[:i] + (a,) + idx[i:s] + (b,) + idx[s + 1:], (-1) ** (i + 1) * c, val

    return Cochain.from_terms(n + 1, alg.dim, rep.carrier_dim, (
        (out, k, sign * t) for idx, val in w.nonzeros.items()
        for out, sign, v in images(idx, val) for k, t in enumerate(v) if t))


def lie_cocycle_defect(ext: CentralExtensionData, omega: Cochain):
    """Exact Chevalley-Eilenberg check of omega with the rho action: the max
    absolute entry of d omega as a Fraction, plus the antisymmetry defect.
    With symmetric coefficients the alternating Leibniz cochains form the
    CE complex (Loday-Pirashvili 1993), so d omega is dL omega over rho
    taken as a symmetric module."""
    anti = max((abs(a + b) for p, q in omega.nonzeros
                for a, b in zip(omega.at(p, q), omega.at(q, p))), default=_ZERO)
    rep = Representation.symmetric(ext.g0, ext.rho, ext.center_dim)
    worst = max((abs(a) for val in leibniz_differential(rep, omega).nonzeros.values()
                 for a in val), default=_ZERO)
    return worst, anti


# ---------------------------------------------------------------------------
# tau: curry the last slot into the coefficients
# ---------------------------------------------------------------------------
# Hom(g, a) is flattened with index (k, j) -> k * dim(g) + j, i.e. an element
# is an (a x g)-matrix read row-major.  Only the exact layer flattens; floats keep m x d blocks.

def tau(w: Cochain) -> Cochain:
    """Degree n cochain valued in a -> degree n-1 valued in Hom(g, a):
    tau(w)(x_1,..,x_{n-1})(x_n) = w(x_1,..,x_n)."""
    if w.degree < 1:
        raise ValueError("tau needs degree >= 1")
    dd, cd = w.domain_dim, w.coeff_dim
    return Cochain.from_terms(w.degree - 1, dd, cd * dd, (
        (idx[:-1], k * dd + idx[-1], a) for idx, k, a in w._terms()))


def hom_representation(rep: Representation) -> Representation:
    """Symmetric representation on Hom(g, a) from a Lie representation on a:
    (x.alpha)(y) = x.(alpha(y)) - alpha([x, y]).

    With Hom(g, a) flattened as above, the generator of e_p is
    rho_p (x) I - I (x) ad_p^T, read off the nonzeros of rho_p and of the
    algebra's table: entry (k d + j, k' d + j) is rho_p[k, k'] and entry
    (k d + j, k d + j') is -c_pj^j'.  Only the Lie test of the algebra is
    made: the module axiom (LLM) on Hom(g, a) follows from (LLM) on a and
    the Jacobi identity, which the extension's g0 and rho inherit from the
    parent's Leibniz identity (checked by ``canonical_extension``)."""
    alg = rep.algebra
    if not alg.is_lie:
        raise ValueError("hom_representation requires a Lie algebra")
    m, d = rep.carrier_dim, alg.dim
    mats = []
    for p in range(d):
        rho_terms = ((k * d + j, kk * d + j, a)
                     for k, row in enumerate(rep.left[p].nonzeros) for kk, a in row
                     for j in range(d))
        ad_terms = ((k * d + j, k * d + jj, -c)
                    for k in range(m) for j, t in enumerate(alg.terms[p]) for jj, c in t)
        mats.append(Matrix.from_terms(m * d, m * d, chain(rho_terms, ad_terms)))
    return Representation.symmetric(alg, mats)
