"""Leibniz algebras over the rationals, given by structure constants.

A left Leibniz algebra carries a bracket whose left multiplications are
derivations: [x,[y,z]] = [[x,y],z] + [y,[x,z]].  Everything in this module
is decided exactly (Fraction arithmetic): the identity check, the left
center, the squares ideal, and the canonical abelian extension

    Z_L(g) --> g --> g0

by the left center, with its quotient Lie algebra g0, representation rho and
2-cocycle omega.  The g0 we hand to the integration layer is realized
faithfully as matrices acting on g (the left-adjoint realization), which is
what gets exponentiated.

The Leibniz identity is checked once per algebra, by ``validate_leibniz``,
whose success ``LeibnizAlgebra.leibniz_ok`` records on the instance, and
stands in for the facts it implies (Loday, Enseign. Math. 39, 1993;
Loday-Pirashvili, Math. Ann. 296, 1993): Z_L(g) is an ideal, g0 is a Lie
algebra, rho satisfies the module axiom (LLM) and omega is a 2-cocycle.
None of these is checked again, and the squares ideal is the span of the
squares, with no saturation (see ``squares_ideal``).  The tests keep each
implied fact as an oracle.

An algebra stores only the table ``terms`` of its nonzero structure
constants: ``terms[i][j]`` lists the (k, c_ij^k) with c_ij^k != 0.  Every
constructor sums terms into it, and the bracket, the Leibniz check, the Lie
test, ``ad_matrix``, the left-adjoint map, the squares ideal, the quotient
g0 and omega, ``cohomology.leibniz_differential`` and
``cohomology.hom_representation`` read it, so their cost follows the
nonzeros (2(n-2) for filiform-n), not n^3.  The dense tensor ``c`` is built
only on request; nothing in the package asks.  The matrices they build are
``Matrix`` values, stored as their sparse rows alone (see ``exact``).

The extension is stored as one change of basis, ``to_parent`` (columns: the
lifts of g0, then the center) and its inverse, beside g0, rho and omega,
which are read off the sparse products from_parent ad(lift) to_parent.  It
is checked as one algebra isomorphism: to_parent must carry the bracket
that ``assemble_extension`` rebuilds from (g0, rho, omega) onto g's, so no
cochain or action is evaluated on a dense vector.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from typing import Sequence

from .exact import (
    Matrix,
    Vec,
    as_vec,
    inverse_exact,
    nullspace,
    rref,
    rref_nullspace,
    vec_sub,
)


_ZERO, _ONE = Fraction(0), Fraction(1)


class ValidationError(ValueError):
    """A structure tensor failed the Leibniz identity.

    Carries the offending basis triple (indices) and the exact defect vector.
    """

    def __init__(self, message, triple=None, defect=None):
        super().__init__(message)
        self.triple = triple
        self.defect = defect


class LeibnizAlgebra:
    """[e_i, e_j] = sum_k c_ij^k e_k, stored only as ``terms``: terms[i][j] lists
    the (k, c_ij^k) with c_ij^k != 0 in increasing k; ``c`` builds the dense tensor.
    Immutable by convention, like ``Matrix``; equal tables compare equal."""

    # __dict__ holds what ``leibniz_ok`` records
    __slots__ = ("dim", "basis_names", "terms", "__dict__")

    def __init__(self, dim: int, basis_names: tuple[str, ...],
                 terms: tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]):
        self.dim = n = dim
        self.basis_names = basis_names
        self.terms = terms
        if len(self.basis_names) != n:
            raise ValueError("need one name per basis element")
        if len(self.terms) != n or any(len(row) != n for row in self.terms):
            raise ValueError(f"terms must be a {n}x{n} table")
        for i, row in enumerate(self.terms):
            for j, t in enumerate(row):
                # the filter drops a zero entry, an index out of range and a repeat
                if [k for k, _ in t] != sorted({k for k, a in t if a and 0 <= k < n}):
                    raise ValueError(f"terms[{i}][{j}] is not a list of nonzero (k, c) "
                                     f"with k increasing in [0, {n})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LeibnizAlgebra):
            return NotImplemented
        return (self.dim, self.basis_names, self.terms) == \
            (other.dim, other.basis_names, other.terms)

    def __hash__(self):
        return hash((self.dim, self.basis_names, self.terms))

    @cached_property
    def leibniz_ok(self) -> bool:
        """True: the Leibniz identity holds (``validate_leibniz`` raises a
        ValidationError otherwise).  Read it to check the algebra: the
        triples are walked on the first read only, since cached_property
        records a returned value and never a raised error."""
        validate_leibniz(self)
        return True

    @property
    def c(self) -> tuple[tuple[Vec, ...], ...]:
        """The dense dim x dim x dim tensor, c[i][j][k] = c_ij^k."""
        n = self.dim
        return tuple(tuple(map(Matrix(n, n, row).row, range(n))) for row in self.terms)

    @staticmethod
    def from_terms(dim, terms, basis_names=None, check=True) -> "LeibnizAlgebra":
        """The algebra whose c_ij^k is the sum of the a over the terms
        (i, j, k, a), summed as the row i*dim + j of a matrix: it costs by
        the number of terms.  An index outside [0, dim) is a ValueError."""
        def flat():
            for i, j, k, a in terms:
                if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                    raise ValueError(f"index ({i}, {j}, {k}) out of range for dimension {dim}")
                yield i * dim + j, k, Fraction(a)
        rows = Matrix.from_terms(dim * dim, dim, flat()).nonzeros
        names = tuple(basis_names) if basis_names else tuple(f"e{i+1}" for i in range(dim))
        alg = LeibnizAlgebra(dim, names, tuple(rows[i * dim:(i + 1) * dim] for i in range(dim)))
        if check:
            alg.leibniz_ok  # walks the triples; a ValidationError if they fail
        return alg

    @staticmethod
    def from_brackets(dim, brackets, check=True) -> "LeibnizAlgebra":
        """brackets: {(i, j): {k: coeff}} with all indices 0-based."""
        return LeibnizAlgebra.from_terms(dim, ((i, j, k, coeff) for (i, j), val in brackets.items()
                                               for k, coeff in val.items()), check=check)

    def basis_vector(self, i: int) -> Vec:
        return tuple(_ONE if j == i else _ZERO for j in range(self.dim))


def bracket(alg: LeibnizAlgebra, x: Sequence, y: Sequence) -> Vec:
    """Bilinear contraction [x, y] against the structure tensor."""
    x, y = as_vec(x), as_vec(y)
    if len(x) != alg.dim or len(y) != alg.dim:
        raise ValueError("vector length must equal the algebra dimension")
    acc: dict[int, Fraction] = {}
    ys = [(j, yj) for j, yj in enumerate(y) if yj]
    for i, xi in enumerate(x):
        if not xi:
            continue
        ti = alg.terms[i]
        for j, yj in ys:
            f = xi * yj
            for k, cij in ti[j]:
                t = f * cij
                acc[k] = acc[k] + t if k in acc else t
    out = [_ZERO] * alg.dim
    for k, a in acc.items():
        out[k] = a
    return tuple(out)


def leibniz_defect(alg: LeibnizAlgebra, x, y, z) -> Vec:
    """[x,[y,z]] - [[x,y],z] - [y,[x,z]]; identically zero iff valid."""
    t1 = bracket(alg, x, bracket(alg, y, z))
    t2 = bracket(alg, bracket(alg, x, y), z)
    t3 = bracket(alg, y, bracket(alg, x, z))
    return vec_sub(vec_sub(t1, t2), t3)


def _triple_fails(t, i: int, j: int, k: int) -> bool:
    """Whether [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] - [e_j,[e_i,e_k]] != 0,
    summed over the nonzero table t = alg.terms alone."""
    acc: dict[int, Fraction] = {}
    for m, a in t[j][k]:
        for p, b in t[i][m]:
            acc[p] = acc.get(p, 0) + a * b
    for m, a in t[i][j]:
        for p, b in t[m][k]:
            acc[p] = acc.get(p, 0) - a * b
    for m, a in t[i][k]:
        for p, b in t[j][m]:
            acc[p] = acc.get(p, 0) - a * b
    return any(acc.values())


def validate_leibniz(alg: LeibnizAlgebra) -> None:
    """Exact check of the Leibniz identity on all n^3 basis triples, in
    lexicographic order.  Each triple is summed from the nonzero table; the
    dense ``leibniz_defect`` runs only on the first failing triple, to give
    the error its defect vector.  Every call walks the triples; the package
    reads ``LeibnizAlgebra.leibniz_ok``, which walks them once per algebra."""
    t = alg.terms
    for i, j, k in product(range(alg.dim), repeat=3):
        if (t[j][k] or t[i][j] or t[i][k]) and _triple_fails(t, i, j, k):
            d = leibniz_defect(alg, alg.basis_vector(i),
                               alg.basis_vector(j), alg.basis_vector(k))
            names = alg.basis_names
            raise ValidationError(
                f"Leibniz identity fails on ({names[i]},{names[j]},{names[k]}): "
                f"defect {tuple(str(e) for e in d)}",
                triple=(i, j, k), defect=d)


def is_lie(alg: LeibnizAlgebra) -> bool:
    """True iff the bracket is anti-symmetric (then Leibniz = Jacobi)."""
    t = alg.terms
    return all(t[i][j] == tuple((k, -a) for k, a in t[j][i])
               for i, j in product(range(alg.dim), repeat=2))


def ad_matrix(alg: LeibnizAlgebra, x) -> Matrix:
    """Left adjoint ad_x = [x, -] as an exact dim x dim matrix, summed over
    the nonzero coordinates of x and the nonzero table: its (k, j) entry
    is sum_i x_i c_ij^k."""
    x = as_vec(x)
    if len(x) != alg.dim:
        raise ValueError("vector length must equal the algebra dimension")
    return Matrix.from_terms(alg.dim, alg.dim, (
        (k, j, xi * c) for i, xi in enumerate(x) if xi
        for j, t in enumerate(alg.terms[i]) for k, c in t))


def left_adjoint_map(alg: LeibnizAlgebra) -> Matrix:
    """The flattened map x -> vec([x, -]), an n^2 x n exact matrix whose
    kernel is the left center: row (r, j), column i holds [e_i, e_j]_r,
    read off the nonzero table."""
    n = alg.dim
    return Matrix.from_terms(n * n, n, ((r * n + j, i, a) for i, row in enumerate(alg.terms)
                                        for j, t in enumerate(row) for r, a in t))


def left_center(alg: LeibnizAlgebra) -> list[Vec]:
    """Exact basis of Z_L(g) = {x | [x, y] = 0 for all y}."""
    return nullspace(left_adjoint_map(alg))


def squares_ideal(alg: LeibnizAlgebra) -> list[Vec]:
    """Basis of the two-sided ideal generated by all squares [v, v], in
    reduced echelon form; alg must be Leibniz.

    By bilinearity the squares span the same space as the symmetrized
    brackets [e_i, e_j] + [e_j, e_i] (i <= j), so the basis is one ``rref``
    of those, read off the nonzero table.  That span is already the ideal:
    the Leibniz identity gives [[x,x],y] = 0 and
    [y,[x,x]] = [[y,x],x] + [x,[y,x]], itself a symmetrized bracket.
    """
    n, t = alg.dim, alg.terms
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    red, pivots = rref(Matrix.from_terms(len(pairs), n, (
        (r, k, a) for r, (i, j) in enumerate(pairs)
        for k, a in t[i][j] + t[j][i])))
    return [red.row(r) for r in range(len(pivots))]


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

class Representation:
    """A Leibniz module: the left action [x, m]_L on a carrier, one exact
    matrix per algebra basis element, and the flavor that fixes the right
    action [m, x]_R: -[x, m]_L for 'symmetric', 0 for 'anti_symmetric'.
    No right action is stored, so none can contradict the flavor.

    A plain record: construction checks one action per basis element and
    the flavor.  The module axiom (LLM) is not checked here; every module
    the package builds (rho on the left center, the symmetric rho module,
    and ``cohomology.hom_representation``'s Hom(g0, Z_L), which the float
    layer does not use: i1 acts on it through rho and ad0) gets it from the
    parent's Leibniz identity, which ``canonical_extension`` checks.  With
    right = -left, (LML) is -(LLM) and (MLL) is (LLM); with right = 0, both
    read 0 = 0.  ``carrier_dim`` None reads the carrier off the first
    action.  Immutable by convention; two compare by identity.
    """

    __slots__ = ("algebra", "carrier_dim", "left", "flavor")

    def __init__(self, algebra: LeibnizAlgebra, carrier_dim: int | None,
                 left: Sequence[Matrix], flavor: str):
        left = tuple(left)
        if len(left) != algebra.dim:
            raise ValueError("need one action matrix per basis element")
        if flavor not in ("symmetric", "anti_symmetric"):
            raise ValueError(f"unknown flavor {flavor!r}")
        if carrier_dim is None:
            carrier_dim = left[0].rows if left else 0
        self.algebra = algebra
        self.carrier_dim = carrier_dim
        self.left = left
        self.flavor = flavor

    @staticmethod
    def symmetric(alg, left, carrier_dim=None) -> "Representation":
        return Representation(alg, carrier_dim, left, "symmetric")

    @staticmethod
    def anti_symmetric(alg, left, carrier_dim=None) -> "Representation":
        return Representation(alg, carrier_dim, left, "anti_symmetric")

    @staticmethod
    def trivial(alg, carrier_dim) -> "Representation":
        z = Matrix.zeros(carrier_dim, carrier_dim)
        return Representation(alg, carrier_dim, (z,) * alg.dim, "symmetric")


# ---------------------------------------------------------------------------
# canonical abelian extension by the left center
# ---------------------------------------------------------------------------

class CentralExtensionData:
    """The decomposition g = g0 (+)_omega Z_L(g), stored as one exact change
    of basis and the data (g0, rho, omega), each once.

    * to_parent maps (g0, center) coordinates to g coordinates: its columns
      are the lifts of g0, the standard basis vectors at complement_pivots
      (the pivot columns of the left-adjoint map, so runs are
      reproducible), then the basis center_basis of Z_L(g).  from_parent
      is its inverse; split and unsplit read them.
    * rep is the anti-symmetric representation of g0 = rep.algebra on the
      center, with rho = rep.left; omega(x, y) = pi_Z([sx, sy]) is a
      degree-2 cochain.  to_parent is an algebra isomorphism from
      assemble_extension(g0, rho, omega) onto the parent.
    * g0_matrices realize g0 faithfully inside End(g); that realization is
      what the integration layer exponentiates.

    Immutable by convention; two compare by identity.
    """

    __slots__ = ("parent", "complement_pivots", "rep", "omega", "g0_matrices",
                 "to_parent", "from_parent")

    def __init__(self, parent: LeibnizAlgebra, complement_pivots: tuple[int, ...],
                 rep: Representation, omega: "Cochain", g0_matrices: tuple[Matrix, ...],
                 to_parent: Matrix, from_parent: Matrix):
        self.parent = parent
        self.complement_pivots = complement_pivots
        self.rep = rep
        self.omega = omega
        self.g0_matrices = g0_matrices
        self.to_parent = to_parent      # (g0, center) coords -> g coords (n x n)
        self.from_parent = from_parent  # g coords -> (g0, center) coords (n x n)

    @property
    def g0(self) -> LeibnizAlgebra:
        return self.rep.algebra

    @property
    def rho(self) -> tuple[Matrix, ...]:
        return self.rep.left

    @property
    def g0_dim(self) -> int:
        return self.g0.dim

    @property
    def center_dim(self) -> int:
        return self.rep.carrier_dim

    @property
    def center_basis(self) -> tuple[Vec, ...]:
        return tuple(map(self.to_parent.col, range(self.g0_dim, self.parent.dim)))

    def split(self, v) -> tuple[Vec, Vec]:
        """g -> (g0 coords, center coords) along the chosen complement."""
        xa = self.from_parent.mat_vec(v)
        return xa[:self.g0_dim], xa[self.g0_dim:]

    def unsplit(self, x, a) -> Vec:
        return self.to_parent.mat_vec((*x, *a))


def assemble_extension(g0: LeibnizAlgebra, rho, omega: "Cochain") -> LeibnizAlgebra:
    """The bracket [(x,a),(y,b)] = ([x,y], rho_x(b) + omega(x,y)) on g0 (+) a,
    with the g0 basis first and the center coordinates last: the inverse of
    ``canonical_extension``.  Unchecked; ``validate_leibniz`` is the caller's."""
    d, m = g0.dim, omega.coeff_dim
    return LeibnizAlgebra.from_terms(d + m, chain(
        ((p, q, r, a) for p, row in enumerate(g0.terms) for q, t in enumerate(row) for r, a in t),
        ((p, q, d + k, a) for (p, q), val in omega.nonzeros.items() for k, a in enumerate(val)),
        ((p, d + k, d + r, a) for p in range(d)
         for r, row in enumerate(rho[p].nonzeros) for k, a in row)), check=False)


def canonical_extension(alg: LeibnizAlgebra) -> CentralExtensionData:
    """Build Z_L(g) -> g -> g0 with representation and cocycle, exactly.

    Its one precondition, the Leibniz identity of alg, is checked first
    (``LeibnizAlgebra.leibniz_ok``: a ValidationError names the failing
    triple, and an algebra already checked is not walked again).  It
    makes Z_L(g) an ideal, g0 a Lie algebra, rho a representation
    satisfying (LLM) and omega a 2-cocycle, so none of these is checked
    again; ``_validate_extension`` checks only the arithmetic below.

    The complement of the center is spanned by the standard basis vectors at
    the pivot columns of the reduced echelon form of the left-adjoint map;
    abelian input yields a zero-dimensional g0.  g0, rho and omega are read
    off [lift_p, -] in the new basis, from_parent @ ad(lift_p) @ to_parent.
    """
    from .cohomology import Cochain

    alg.leibniz_ok  # walks the triples unless the parse already did
    n = alg.dim
    red, pivots = rref(left_adjoint_map(alg))
    center = rref_nullspace(red, pivots)
    d, m = len(pivots), len(center)
    to_parent = Matrix.from_cols(n, [alg.basis_vector(p) for p in pivots] + center)
    from_parent = inverse_exact(to_parent)
    g0_matrices = tuple(ad_matrix(alg, alg.basis_vector(p)) for p in pivots)
    # rows r < d of [lift_p, -] in the new basis are g0's constants [e_p, e_q]_r
    # (q < d: the center is an ideal); row d + k holds omega(p, q)_k at
    # column q < d and entry (k, l) of rho_p at column d + l
    blocks = [(from_parent @ ad @ to_parent).nonzeros for ad in g0_matrices]
    g0 = LeibnizAlgebra.from_terms(d, ((p, q, r, a) for p, b in enumerate(blocks)
                                       for r, row in enumerate(b[:d]) for q, a in row),
                                   basis_names=tuple(alg.basis_names[p] for p in pivots),
                                   check=False)
    rho = [Matrix.from_terms(m, m, ((k, q - d, a) for k, row in enumerate(b[d:])
                                    for q, a in row if q >= d)) for b in blocks]
    omega = Cochain.from_terms(2, d, m, (((p, q), k, a) for p, b in enumerate(blocks)
                                         for k, row in enumerate(b[d:]) for q, a in row if q < d))
    ext = CentralExtensionData(alg, pivots, Representation.anti_symmetric(g0, rho, m),
                               omega, g0_matrices, to_parent, from_parent)
    _validate_extension(ext)
    return ext


def _validate_extension(ext: CentralExtensionData) -> None:
    """The two checks of the extension's arithmetic: to_parent and
    from_parent are inverse, and to_parent is an algebra isomorphism from
    the reassembled g0 (+)_omega Z_L(g) onto the parent.  Through this
    isomorphism the parent's Leibniz identity gives g0's, (LLM) for rho and
    d omega = 0, so none of them is checked."""
    alg, t = ext.parent, ext.to_parent
    if t @ ext.from_parent != Matrix.identity(alg.dim):
        raise AssertionError("to_parent and from_parent do not split the identity")
    # [t e_u, t y] = t [e_u, y]' for every u and y, with [-, -]' reassembled
    assembled = assemble_extension(ext.g0, ext.rho, ext.omega)
    for u in range(alg.dim):
        if ad_matrix(alg, t.col(u)) @ t != t @ ad_matrix(assembled, assembled.basis_vector(u)):
            raise AssertionError("extension data do not reassemble the bracket")
