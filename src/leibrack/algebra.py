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

The dense tensor ``c`` is the public form of the structure constants.  Each
algebra also builds, once, the table ``terms`` of its nonzero entries:
``terms[i][j]`` lists the (k, c_ij^k) with c_ij^k != 0.  The bracket, the
Leibniz check, the Lie test and ``cohomology.leibniz_differential`` read
that table, so their cost follows the nonzeros (2(n-2) for filiform-n)
rather than n^3 dense contractions per basis triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Sequence

from .linalg import (
    Matrix,
    Vec,
    as_vec,
    inverse_exact,
    nullspace,
    rank,
    rref,
    rref_nullspace,
    vec_add,
    vec_is_zero,
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
    """Structure-constant model: [e_i, e_j] = sum_k c[i][j][k] e_k."""

    dim: int
    basis_names: tuple[str, ...]
    c: tuple[tuple[Vec, ...], ...]  # shape dim x dim x dim, exact

    def __post_init__(self):
        n = self.dim
        if len(self.basis_names) != n:
            raise ValueError("need one name per basis element")
        if len(self.c) != n or any(len(r) != n for r in self.c) or any(
                len(v) != n for r in self.c for v in r):
            raise ValueError(f"structure tensor must be {n}x{n}x{n}")

    @cached_property
    def terms(self) -> tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]:
        """terms[i][j]: the nonzero (k, c_ij^k) of [e_i, e_j], in increasing k."""
        return tuple(tuple(tuple((k, a) for k, a in enumerate(v) if a) for v in row)
                     for row in self.c)

    @staticmethod
    def from_structure(c, basis_names=None, check=True) -> "LeibnizAlgebra":
        n = len(c)
        names = tuple(basis_names) if basis_names else tuple(f"e{i+1}" for i in range(n))
        tensor = tuple(tuple(as_vec(v) for v in row) for row in c)
        alg = LeibnizAlgebra(n, names, tensor)
        if check:
            validate_leibniz(alg)
        return alg

    @staticmethod
    def from_brackets(dim, brackets, check=True) -> "LeibnizAlgebra":
        """brackets: {(i, j): {k: coeff}} with all indices 0-based."""
        c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), val in brackets.items():
            for k, coeff in val.items():
                c[i][j][k] = Fraction(coeff)
        return LeibnizAlgebra.from_structure(c, check=check)

    def basis_vector(self, i: int) -> Vec:
        return tuple(_ONE if j == i else _ZERO for j in range(self.dim))


def bracket(alg: LeibnizAlgebra, x: Sequence, y: Sequence) -> Vec:
    """Bilinear contraction [x, y] against the structure tensor."""
    x, y = as_vec(x), as_vec(y)
    if len(x) != alg.dim or len(y) != alg.dim:
        raise ValueError("vector length must equal the algebra dimension")
    out = [_ZERO] * alg.dim
    ys = [(j, yj) for j, yj in enumerate(y) if yj]
    for i, xi in enumerate(x):
        if not xi:
            continue
        ti = alg.terms[i]
        for j, yj in ys:
            f = xi * yj
            for k, cij in ti[j]:
                out[k] += f * cij
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
    """Left adjoint ad_x = [x, -] as an exact dim x dim matrix."""
    cols = [bracket(alg, x, alg.basis_vector(j)) for j in range(alg.dim)]
    return Matrix.from_rows(list(zip(*cols)))


def left_adjoint_map(alg: LeibnizAlgebra) -> Matrix:
    """The flattened map x -> vec([x, -]), an n^2 x n exact matrix whose
    kernel is the left center: row (r, j), column i holds [e_i, e_j]_r."""
    n, c = alg.dim, alg.c
    return Matrix.from_rows([[c[i][j][r] for i in range(n)]
                             for r in range(n) for j in range(n)])


def left_center(alg: LeibnizAlgebra) -> list[Vec]:
    """Exact basis of Z_L(g) = {x | [x, y] = 0 for all y}."""
    return nullspace(left_adjoint_map(alg))


def _span_contains(basis_rows: list[Vec], v: Vec) -> bool:
    if vec_is_zero(v):
        return True
    if not basis_rows:
        return False
    m = Matrix.from_rows(basis_rows)
    return rank(Matrix.from_rows(basis_rows + [v])) == rank(m)


def _append_independent(basis_rows: list[Vec], v: Vec) -> bool:
    if _span_contains(basis_rows, v):
        return False
    basis_rows.append(v)
    return True


def squares_ideal(alg: LeibnizAlgebra) -> list[Vec]:
    """Basis of the two-sided ideal generated by all squares [v, v].

    Generators: [e_i, e_i] and [e_i + e_j, e_i + e_j] (these span all
    symmetrized squares by bilinearity); then saturate under left and right
    bracketing with basis elements, breadth-first, until stable.
    """
    n = alg.dim
    gens: list[Vec] = []
    for i in range(n):
        _append_independent(gens, bracket(alg, alg.basis_vector(i), alg.basis_vector(i)))
    for i in range(n):
        for j in range(i + 1, n):
            v = vec_add(alg.basis_vector(i), alg.basis_vector(j))
            _append_independent(gens, bracket(alg, v, v))
    frontier = list(gens)
    while frontier:
        new_frontier = []
        for v in frontier:
            for i in range(n):
                e = alg.basis_vector(i)
                for w in (bracket(alg, e, v), bracket(alg, v, e)):
                    if _append_independent(gens, w):
                        new_frontier.append(w)
        frontier = new_frontier
    # normalize to the echelon basis for reproducible output
    if not gens:
        return []
    red, pivots = rref(Matrix.from_rows(gens))
    return [red.data[r] for r in range(len(pivots))]


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
        """Action matrix of [x, -]_L for an algebra element x."""
        x = as_vec(x)
        acc = Matrix.zeros(self.carrier_dim, self.carrier_dim)
        for xi, m in zip(x, self.left):
            if xi:
                acc = acc + m.scale(xi)
        return acc

    def _validate(self):
        """(LLM): [x, [y, m]_L]_L = [[x, y], m]_L + [y, [x, m]_L]_L on basis pairs."""
        alg = self.algebra
        for i in range(alg.dim):
            for j in range(alg.dim):
                lb = self.left_of(alg.c[i][j])
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
      omega(x, y) = pi_Z([sx, sy]) stored as a degree-2 cochain tensor.
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
    to_parent = Matrix.from_cols(basis_cols)  # (x, a) coords -> g coords
    from_parent = inverse_exact(to_parent)  # g coords -> (x, a) coords
    projection = Matrix.from_rows([from_parent.data[r] for r in range(d)]) \
        if d else Matrix.zeros(0, n)
    center_projection = Matrix.from_rows([from_parent.data[r] for r in range(d, n)]) \
        if m else Matrix.zeros(0, n)
    section = Matrix.from_cols(complement) if complement else Matrix.zeros(n, 0)
    inclusion = Matrix.from_cols(center) if center else Matrix.zeros(n, 0)

    # the lifts are basis vectors, so [lift_p, lift_q] is a row of c
    lifted = [[alg.c[p][q] for q in pivots] for p in pivots]
    # quotient structure constants on the pivot lifts
    c0 = [[projection.mat_vec(v) for v in row] for row in lifted]
    g0 = LeibnizAlgebra.from_structure(c0,
                                       basis_names=tuple(alg.basis_names[p] for p in pivots))
    if not is_lie(g0):
        raise AssertionError("quotient by the left center must be Lie")  # cannot happen

    g0_matrices = tuple(ad_matrix(alg, complement[p]) for p in range(d))

    # rho_p = [lift_p, -] restricted to the center (the center is an ideal)
    rho = []
    for p in range(d):
        cols = [center_projection.mat_vec(bracket(alg, complement[p], z)) for z in center]
        rho.append(Matrix.from_cols(cols) if center else Matrix.zeros(0, 0))
    rho = tuple(rho)

    omega_values = []
    for row in lifted:
        for v in row:
            omega_values.extend(center_projection.mat_vec(v))
    omega = Cochain(2, d, m, tuple(omega_values))

    rep = Representation.anti_symmetric(g0, rho, carrier_dim=m)
    ext = CentralExtensionData(alg, tuple(center), complement, pivots, g0,
                               g0_matrices, rho, omega, rep, section,
                               projection, center_projection, inclusion)
    _validate_extension(ext, leibniz_differential)
    return ext


def _validate_extension(ext: CentralExtensionData, leibniz_differential) -> None:
    alg, d = ext.parent, ext.g0_dim
    # split/unsplit is the identity on g
    splits = [ext.split(alg.basis_vector(i)) for i in range(alg.dim)]
    for i, (x, a) in enumerate(splits):
        if ext.unsplit(x, a) != alg.basis_vector(i):
            raise AssertionError("section/projection do not split the identity")
    # reassembled bracket [(x,a),(y,b)] = ([x,y], rho_x(b) + omega(x,y))
    # reproduces the parent bracket [e_i, e_j] = c[i][j] on all basis pairs
    for i, (x, _) in enumerate(splits):
        rho_x = ext.rep.left_of(x)
        for j, (y, b) in enumerate(splits):
            xy = bracket(ext.g0, x, y)
            zc = vec_add(rho_x.mat_vec(b), ext.omega.evaluate(x, y))
            if ext.unsplit(xy, zc) != alg.c[i][j]:
                raise AssertionError("extension data do not reassemble the bracket")
    # omega is an exact Leibniz 2-cocycle for the anti-symmetric representation
    if d and not all(v == 0 for v in leibniz_differential(ext.rep, ext.omega).values):
        raise AssertionError("omega is not a cocycle")
