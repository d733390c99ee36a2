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

An algebra stores only the table ``terms`` of its nonzero structure
constants: ``terms[i][j]`` lists the (k, c_ij^k) with c_ij^k != 0.  Every
constructor sums terms into it, and the bracket, the Leibniz check, the Lie
test, ``ad_matrix``, the left-adjoint map, the module axiom (LLM), the
quotient g0 and omega, ``cohomology.leibniz_differential`` and
``cohomology.hom_representation`` read it, so their cost follows the
nonzeros (2(n-2) for filiform-n), not n^3.  The dense tensor ``c`` is built
only on request; nothing in the package asks.  The matrices they build are
``Matrix`` values, stored as their sparse rows alone (see ``linalg``):
``left_of`` and the checks of the extension multiply and compare them over
their nonzeros, the extension's projections are slices of those rows, and
the squares ideal grows one echelon basis held as sparse rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .linalg import (
    Matrix,
    Vec,
    as_vec,
    inverse_exact,
    nullspace,
    rref,
    rref_nullspace,
    vec_add,
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


@dataclass(frozen=True)
class LeibnizAlgebra:
    """[e_i, e_j] = sum_k c_ij^k e_k, stored only as ``terms``: terms[i][j] lists
    the (k, c_ij^k) with c_ij^k != 0 in increasing k; ``c`` builds the dense tensor."""

    dim: int
    basis_names: tuple[str, ...]
    terms: tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]

    def __post_init__(self):
        n = self.dim
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
            validate_leibniz(alg)
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
    the error its defect vector."""
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


def _reduce(echelon: dict[int, dict[int, Fraction]], v: Vec) -> dict[int, Fraction]:
    """The nonzero entries {k: a} of v less its combination of the echelon
    rows: empty iff v lies in their span.  echelon[p] is a row that is zero
    before column p and 1 at p, given by its nonzero entries after p."""
    rest = {k: a for k, a in enumerate(v) if a}
    for p in sorted(echelon):
        f = rest.pop(p, None)
        if f is None:
            continue
        for k, a in echelon[p].items():
            t = f * a
            s = rest[k] - t if k in rest else -t
            if s:
                rest[k] = s
            else:
                del rest[k]
    return rest


def _insert_independent(echelon: dict[int, dict[int, Fraction]], v: Vec) -> bool:
    """Add v's reduction as an echelon row (see ``_reduce``) unless v lies
    in the rows' span; True if it was added."""
    rest = _reduce(echelon, v)
    if not rest:
        return False
    p = min(rest)
    inv = 1 / rest[p]
    echelon[p] = {k: a * inv for k, a in rest.items() if k != p}
    return True


def squares_ideal(alg: LeibnizAlgebra) -> list[Vec]:
    """Basis of the two-sided ideal generated by all squares [v, v].

    Generators: [e_i, e_i] and [e_i + e_j, e_i + e_j] (these span all
    symmetrized squares by bilinearity); then saturate under left and right
    bracketing with basis elements, breadth-first, until stable.  One
    echelon basis of the span found so far grows with each independent
    vector, and decides membership by one reduction over its nonzeros.
    """
    n = alg.dim
    gens: list[Vec] = []
    echelon: dict[int, dict[int, Fraction]] = {}

    def append_independent(v: Vec) -> bool:
        if not _insert_independent(echelon, v):
            return False
        gens.append(v)
        return True

    for i in range(n):
        append_independent(bracket(alg, alg.basis_vector(i), alg.basis_vector(i)))
    for i in range(n):
        for j in range(i + 1, n):
            v = tuple(_ONE if k in (i, j) else _ZERO for k in range(n))  # e_i + e_j
            append_independent(bracket(alg, v, v))
    frontier = list(gens)
    while frontier:
        new_frontier = []
        for v in frontier:
            for i in range(n):
                e = alg.basis_vector(i)
                for w in (bracket(alg, e, v), bracket(alg, v, e)):
                    if append_independent(w):
                        new_frontier.append(w)
        frontier = new_frontier
    # normalize to the echelon basis for reproducible output
    if not gens:
        return []
    red, pivots = rref(Matrix.from_rows(gens))
    return [red.row(r) for r in range(len(pivots))]


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Representation:
    """A Leibniz module: two actions [x, m]_L and [m, x]_R on a carrier,
    one exact matrix per algebra basis element each.

    flavor 'symmetric' forces right = -left, 'anti_symmetric' forces
    right = 0.  One module axiom, (LLM), is checked exactly on
    construction: with right = -left, (LML) is -(LLM) and (MLL) is (LLM);
    with right = 0, both read 0 = 0.
    """

    algebra: LeibnizAlgebra
    carrier_dim: int
    left: tuple[Matrix, ...]
    right: tuple[Matrix, ...]
    flavor: str

    @staticmethod
    def symmetric(alg, left, carrier_dim=None) -> "Representation":
        left = tuple(left)
        return Representation._build(alg, left, tuple(-m for m in left),
                                     "symmetric", carrier_dim)

    @staticmethod
    def anti_symmetric(alg, left, carrier_dim=None) -> "Representation":
        left = tuple(left)
        m = Representation._carrier(left, carrier_dim)
        zeros = tuple(Matrix.zeros(m, m) for _ in left)
        return Representation._build(alg, left, zeros, "anti_symmetric", m)

    @staticmethod
    def trivial(alg, carrier_dim) -> "Representation":
        z = tuple(Matrix.zeros(carrier_dim, carrier_dim) for _ in range(alg.dim))
        return Representation._build(alg, z, z, "symmetric", carrier_dim)

    @staticmethod
    def _carrier(left, carrier_dim):
        if carrier_dim is not None:
            return carrier_dim
        return left[0].rows if left else 0

    @staticmethod
    def _build(alg, left, right, flavor, carrier_dim=None) -> "Representation":
        if len(left) != alg.dim or len(right) != alg.dim:
            raise ValueError("need one action matrix per basis element")
        m = Representation._carrier(left, carrier_dim)
        rep = Representation(alg, m, left, right, flavor)
        rep._validate()
        return rep

    def left_of(self, x) -> Matrix:
        """Action matrix of [x, -]_L, x a vector of the algebra's dimension."""
        x = as_vec(x)
        if len(x) != self.algebra.dim:
            raise ValueError("vector length must equal the algebra dimension")
        return self._left_sum((i, xi) for i, xi in enumerate(x) if xi)

    def _left_sum(self, coords) -> Matrix:
        """sum_i x_i left[i] over the (i, x_i) in coords, by the nonzeros."""
        return Matrix.from_terms(self.carrier_dim, self.carrier_dim, (
            (r, j, xi * a) for i, xi in coords
            for r, row in enumerate(self.left[i].nonzeros) for j, a in row))

    def _validate(self):
        """(LLM): [x, [y, m]_L]_L = [[x, y], m]_L + [y, [x, m]_L]_L on basis
        pairs, with [e_i, e_j] read off the nonzero table."""
        alg = self.algebra
        for i, j in product(range(alg.dim), repeat=2):
            lb = self._left_sum(alg.terms[i][j])
            li, lj = self.left[i], self.left[j]
            if not (li @ lj - lb - lj @ li).is_zero():
                raise ValueError(f"module axiom (LLM) fails on basis pair ({i},{j})")


# ---------------------------------------------------------------------------
# canonical abelian extension by the left center
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CentralExtensionData:
    """The decomposition g = g0 (+)_omega Z_L(g), all maps exact.

    * center_basis spans Z_L(g); complement_basis is the echelon-pivot lift
      of g0 (standard basis vectors at the pivot columns of the left-adjoint
      map, so runs are reproducible).
    * section/projection/center_projection/inclusion split the identity:
      section . projection + inclusion . center_projection = id.
    * rho[p] is the action of the p-th g0 basis vector on the center,
      omega(x, y) = pi_Z([sx, sy]) stored as a degree-2 cochain.
    * g0_matrices realize g0 faithfully inside End(g); that realization is
      what the integration layer exponentiates.
    """

    parent: LeibnizAlgebra
    center_basis: tuple[Vec, ...]
    complement_basis: tuple[Vec, ...]
    complement_pivots: tuple[int, ...]
    g0: LeibnizAlgebra
    g0_matrices: tuple[Matrix, ...]
    rho: tuple[Matrix, ...]
    omega: "Cochain"
    rep: Representation
    section: Matrix            # g0 coords -> g coords   (n x d)
    projection: Matrix         # g coords  -> g0 coords  (d x n)
    center_projection: Matrix  # g coords  -> center coords (m x n)
    inclusion: Matrix          # center coords -> g coords (n x m)

    @property
    def g0_dim(self) -> int:
        return self.g0.dim

    @property
    def center_dim(self) -> int:
        return len(self.center_basis)

    def split(self, v) -> tuple[Vec, Vec]:
        """g -> (g0 coords, center coords) along the chosen complement."""
        return self.projection.mat_vec(v), self.center_projection.mat_vec(v)

    def unsplit(self, x, a) -> Vec:
        return vec_add(self.section.mat_vec(x), self.inclusion.mat_vec(a))


def canonical_extension(alg: LeibnizAlgebra) -> CentralExtensionData:
    """Build Z_L(g) -> g -> g0 with representation and cocycle, exactly.

    The complement of the center is spanned by the standard basis vectors at
    the pivot columns of the reduced echelon form of the left-adjoint map;
    abelian input yields a zero-dimensional g0.
    """
    from .cohomology import Cochain, leibniz_differential

    n = alg.dim
    admap = left_adjoint_map(alg)
    red, pivots = rref(admap)
    center = rref_nullspace(red, pivots)
    d, m = len(pivots), len(center)
    if d + m != n:
        raise AssertionError("rank-nullity violated")  # cannot happen

    complement = tuple(alg.basis_vector(p) for p in pivots)

    # change of basis: columns are complement lifts then center vectors
    basis_cols = list(complement) + list(center)
    to_parent = Matrix.from_cols(n, basis_cols)  # (x, a) coords -> g coords
    from_parent = inverse_exact(to_parent)  # g coords -> (x, a) coords
    projection = Matrix(d, n, from_parent.nonzeros[:d])
    center_projection = Matrix(m, n, from_parent.nonzeros[d:])
    section = Matrix.from_cols(n, complement)
    inclusion = Matrix.from_cols(n, center)

    # [lift_p, lift_q] is a table entry (the lifts are basis vectors), and
    # column k of from_parent is e_k in (g0, center) coordinates: r < d gives
    # g0's constants, r = d + k entry k of omega(p, q) = pi_Z([lift_p, lift_q])
    cols = from_parent.transpose().nonzeros
    lifted = [(p, q, r, a * b) for p, pp in enumerate(pivots) for q, qq in enumerate(pivots)
              for k, a in alg.terms[pp][qq] for r, b in cols[k]]
    g0 = LeibnizAlgebra.from_terms(d, ((p, q, r, a) for p, q, r, a in lifted if r < d),
                                   basis_names=tuple(alg.basis_names[p] for p in pivots))
    if not is_lie(g0):
        raise AssertionError("quotient by the left center must be Lie")  # cannot happen

    g0_matrices = tuple(ad_matrix(alg, complement[p]) for p in range(d))

    # rho_p = [lift_p, -] restricted to the center (the center is an ideal)
    rho = []
    for p in range(d):
        cols = [center_projection.mat_vec(bracket(alg, complement[p], z)) for z in center]
        rho.append(Matrix.from_cols(m, cols))
    rho = tuple(rho)

    omega = Cochain.from_terms(2, d, m, (((p, q), r - d, a) for p, q, r, a in lifted if r >= d))

    rep = Representation.anti_symmetric(g0, rho, carrier_dim=m)
    ext = CentralExtensionData(alg, tuple(center), complement, pivots, g0,
                               g0_matrices, rho, omega, rep, section,
                               projection, center_projection, inclusion)
    _validate_extension(ext, leibniz_differential)
    return ext


def _validate_extension(ext: CentralExtensionData, leibniz_differential) -> None:
    alg, n = ext.parent, ext.parent.dim
    d, m = ext.g0_dim, ext.center_dim
    section, projection = ext.section, ext.projection
    inclusion, center_projection = ext.inclusion, ext.center_projection
    # split/unsplit is the identity on g
    if section @ projection + inclusion @ center_projection != Matrix.identity(n):
        raise AssertionError("section/projection do not split the identity")
    # reassembled bracket [(x,a),(y,b)] = ([x,y], rho_x(b) + omega(x,y))
    # reproduces the parent bracket [e_i, e_j] = c[i][j] on all basis pairs:
    # with e_i split as (x, a), the reassembled [e_i, -] is the matrix
    #   section ad0(x) projection + inclusion (rho_x center_projection
    #                                          + omega(x, -) projection)
    # and it must equal ad(e_i), whose column j is c[i][j]
    g0_basis = [ext.g0.basis_vector(q) for q in range(d)]
    for i in range(n):
        x = projection.col(i)
        omega_cols = [ext.omega.evaluate(x, y) for y in g0_basis]
        omega_x = Matrix.from_terms(m, d, ((k, q, a) for q, col in enumerate(omega_cols)
                                           for k, a in enumerate(col)))
        reassembled = (section @ ad_matrix(ext.g0, x) @ projection
                       + inclusion @ (ext.rep.left_of(x) @ center_projection
                                      + omega_x @ projection))
        if reassembled != ad_matrix(alg, alg.basis_vector(i)):
            raise AssertionError("extension data do not reassemble the bracket")
    # omega is an exact Leibniz 2-cocycle for the anti-symmetric representation
    if not leibniz_differential(ext.rep, ext.omega).is_zero():
        raise AssertionError("omega is not a cocycle")
