"""Cochain complexes on both sides of the integration.

Leibniz side (exact): dense multilinear cochains, the differential dL, and
the degree-shift isomorphism tau that trades an anti-symmetric coefficient
module for the symmetric module Hom(g, a) (currying the last slot).  dL reads
the brackets [x_i, x_j] of basis elements from the algebra's nonzero table
``terms``, and ``Cochain.evaluate`` sums over the nonzero coordinates of its
arguments only.

Rack side (float): cochains are evaluator functions on tuples of group
elements, differentiated by the rack differential d_R over a module
structure (phi, psi).

Sign convention for d_R: at arity 1 over a symmetric module, the general
formula's psi term and the expansions the cocycle-integration identities
require disagree by a global sign.  ``rack_differential_eval`` carries the
sign those identities need (normative here); ``rack_differential_general``
keeps the other convention visible rather than silently reconciling them.
For anti-symmetric modules (psi = 0) the two coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .algebra import Representation, ad_matrix, is_lie
from .linalg import Matrix, Vec, as_vec, matvec, nan_max, sup_norm, vec_scale, zero_vec


@dataclass(frozen=True)
class Cochain:
    """Multilinear map g^(x n) -> coefficients, stored densely as an exact
    order-(n+1) tensor; index (i1,...,in,k) is flattened row-major."""

    degree: int
    domain_dim: int
    coeff_dim: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        want = (self.domain_dim ** self.degree) * self.coeff_dim
        if len(self.values) != want:
            raise ValueError(f"expected {want} entries, got {len(self.values)}")

    @staticmethod
    def zero(degree, domain_dim, coeff_dim) -> "Cochain":
        n = (domain_dim ** degree) * coeff_dim
        return Cochain(degree, domain_dim, coeff_dim, (Fraction(0),) * n)

    @staticmethod
    def from_function(degree, domain_dim, coeff_dim, fn) -> "Cochain":
        """fn maps a basis-index tuple to a coefficient vector."""
        values = []
        for idx in product(range(domain_dim), repeat=degree):
            values.extend(as_vec(fn(*idx)))
        return Cochain(degree, domain_dim, coeff_dim, tuple(values))

    def _offset(self, idx: tuple[int, ...]) -> int:
        off = 0
        for i in idx:
            off = off * self.domain_dim + i
        return off * self.coeff_dim

    def at(self, *idx: int) -> Vec:
        """Value on basis elements."""
        if len(idx) != self.degree:
            raise ValueError(f"need {self.degree} indices")
        off = self._offset(idx)
        return self.values[off:off + self.coeff_dim]

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
            f = Fraction(1)
            for _, c in picks:
                f *= c
            val = self.at(*(i for i, _ in picks))
            for k in range(self.coeff_dim):
                out[k] += f * val[k]
        return tuple(out)

    def to_numpy(self) -> np.ndarray:
        shape = (self.domain_dim,) * self.degree + (self.coeff_dim,)
        return np.array([float(v) for v in self.values]).reshape(shape)

    def __add__(self, other: "Cochain") -> "Cochain":
        if (self.degree, self.domain_dim, self.coeff_dim) != \
                (other.degree, other.domain_dim, other.coeff_dim):
            raise ValueError("cochain shape mismatch")
        return Cochain(self.degree, self.domain_dim, self.coeff_dim,
                       tuple(a + b for a, b in zip(self.values, other.values)))

    def scale(self, c) -> "Cochain":
        c = Fraction(c)
        return Cochain(self.degree, self.domain_dim, self.coeff_dim,
                       tuple(c * v for v in self.values))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


# ---------------------------------------------------------------------------
# the Leibniz differential
# ---------------------------------------------------------------------------

def _axpy(out: list, s, term) -> None:
    """out += s * term, skipping the zero entries of term."""
    for k, t in enumerate(term):
        if t:
            out[k] += s * t


def leibniz_differential(rep: Representation, w: Cochain) -> Cochain:
    """dL of a degree-n cochain valued in the module ``rep``; degree n+1.

    Degree 0 is the convention dL beta(x) = -[beta, x]_R, which on a
    symmetric module equals [x, beta]_L (the form the coboundary
    computations use) and vanishes on anti-symmetric ones; with it
    dL . dL = 0 holds exactly for every module flavor.
    """
    alg = rep.algebra
    if w.domain_dim != alg.dim or w.coeff_dim != rep.carrier_dim:
        raise ValueError("cochain does not match the representation")
    n = w.degree

    if n == 0:
        beta = w.values

        def d0(x):
            return vec_scale(-1, rep.right[x].mat_vec(beta))
        return Cochain.from_function(1, alg.dim, rep.carrier_dim, d0)

    def dw(*idx):
        out = list(zero_vec(rep.carrier_dim))
        # sum_{i<n} (-1)^i [x_i, w(..hat i..)]_L
        for i in range(n):
            rest = idx[:i] + idx[i + 1:]
            _axpy(out, (-1) ** i, rep.left[idx[i]].mat_vec(w.at(*rest)))
        # (-1)^(n-1) [w(x_0..x_{n-1}), x_n]_R
        _axpy(out, (-1) ** (n - 1), rep.right[idx[n]].mat_vec(w.at(*idx[:n])))
        # sum_{i<j} (-1)^(i+1) w(.., hat i, .., [x_i, x_j] at slot j, ..), with
        # [x_i, x_j] = sum of c e_p over the nonzero table
        for i in range(n + 1):
            rest = idx[:i] + idx[i + 1:]
            for j in range(i + 1, n + 1):
                for p, c in alg.terms[idx[i]][idx[j]]:
                    _axpy(out, (-1) ** (i + 1) * c, w.at(*rest[:j - 1], p, *rest[j:]))
        return tuple(out)

    return Cochain.from_function(n + 1, alg.dim, rep.carrier_dim, dw)


# ---------------------------------------------------------------------------
# tau: curry the last slot into the coefficients
# ---------------------------------------------------------------------------
# Hom(g, a) is flattened with index (k, j) -> k * dim(g) + j, i.e. an element
# is an (a x g)-matrix read row-major.

def tau(w: Cochain) -> Cochain:
    """Degree n cochain valued in a -> degree n-1 valued in Hom(g, a):
    tau(w)(x_1,..,x_{n-1})(x_n) = w(x_1,..,x_n)."""
    if w.degree < 1:
        raise ValueError("tau needs degree >= 1")
    dd, cd = w.domain_dim, w.coeff_dim

    def fn(*idx):
        return tuple(w.at(*idx, j)[k] for k in range(cd) for j in range(dd))
    return Cochain.from_function(w.degree - 1, dd, cd * dd, fn)


def tau_inverse(w: Cochain) -> Cochain:
    """Exact inverse of tau."""
    dd = w.domain_dim
    if w.coeff_dim % dd != 0:
        raise ValueError("coefficient space is not Hom(g, a)")
    cd = w.coeff_dim // dd

    def fn(*idx):
        hom = w.at(*idx[:-1])
        j = idx[-1]
        return tuple(hom[k * dd + j] for k in range(cd))
    return Cochain.from_function(w.degree + 1, dd, cd, fn)


def _kron(a: Matrix, b: Matrix) -> Matrix:
    rows = []
    for i in range(a.rows):
        for k in range(b.rows):
            rows.append([a.data[i][j] * b.data[k][l]
                         for j in range(a.cols) for l in range(b.cols)])
    return Matrix.from_rows(rows)


def hom_representation(rep: Representation) -> Representation:
    """Symmetric representation on Hom(g, a) from a Lie representation on a:
    (x.alpha)(y) = x.(alpha(y)) - alpha([x, y])."""
    alg = rep.algebra
    if not is_lie(alg):
        raise ValueError("hom_representation requires a Lie algebra")
    m, d = rep.carrier_dim, alg.dim
    eye_d, eye_m = Matrix.identity(d), Matrix.identity(m)
    mats = []
    for p in range(d):
        ad_p = ad_matrix(alg, alg.basis_vector(p))
        mats.append(_kron(rep.left[p], eye_d) - _kron(eye_m, ad_p.transpose()))
    return Representation.symmetric(alg, mats)


# ---------------------------------------------------------------------------
# rack modules and the rack differential
# ---------------------------------------------------------------------------

GroupElement = np.ndarray
ConjFn = Callable[[GroupElement, GroupElement], GroupElement]


@dataclass(frozen=True)
class RackModuleStructure:
    """An abelian-group coefficient module for rack cochains: two families
    phi_{x,y}, psi_{x,y} of endomorphisms of the carrier, indexed by pairs
    of group elements.  Those built by ``symmetric`` and ``anti_symmetric``
    also take stacks: group elements (..., n, n) and carrier vectors
    (..., m), mapped slice by slice."""

    carrier_dim: int
    phi: Callable[[GroupElement, GroupElement, np.ndarray], np.ndarray]
    psi: Callable[[GroupElement, GroupElement, np.ndarray], np.ndarray]

    @staticmethod
    def symmetric(carrier_dim, action, conj: ConjFn) -> "RackModuleStructure":
        """phi_{x,y} = action(x), psi_{x,y} = id - action(x |> y).  No
        production path builds one: the suites check i2 in the
        anti-symmetric module.  It is kept as the module in which i1 is a
        rack 1-cocycle, and the one on which the two sign conventions of the
        psi term differ, so it is what the tests pinning
        ``rack_differential_eval`` against ``rack_differential_general``
        run on."""
        def phi(x, y, v):
            return matvec(action(x), v)

        def psi(x, y, v):
            return v - matvec(action(conj(x, y)), v)
        return RackModuleStructure(carrier_dim, phi, psi)

    @staticmethod
    def anti_symmetric(carrier_dim, action) -> "RackModuleStructure":
        """phi_{x,y} = action(x), psi = 0."""
        def phi(x, y, v):
            return matvec(action(x), v)

        def psi(x, y, v):
            return np.zeros(np.shape(v))
        return RackModuleStructure(carrier_dim, phi, psi)


@dataclass(frozen=True)
class RackCochainFn:
    """An arity-n rack cochain: a total evaluator on n-tuples of group
    elements, required to vanish whenever an argument is the identity."""

    arity: int
    evaluator: Callable[..., np.ndarray]

    def __call__(self, *args):
        return np.asarray(self.evaluator(*args), dtype=float)


def _fold_conj(conj: ConjFn, elems, identity):
    """x_1 |> (x_2 |> (... |> x_k)); empty chain is the identity."""
    if not elems:
        return identity
    acc = elems[-1]
    for x in reversed(elems[:-1]):
        acc = conj(x, acc)
    return acc


def _rack_differential(mod, f, args, conj, psi_sign):
    n = f.arity
    if len(args) != n + 1:
        raise ValueError(f"arity-{n} cochain needs {n + 1} arguments")
    identity = np.eye(args[0].shape[-1])
    total = np.zeros(mod.carrier_dim)
    for i in range(1, n + 1):
        sign = (-1) ** (i - 1)
        hat = args[:i - 1] + args[i:]
        sub1 = _fold_conj(conj, args[:i], identity)
        sub2 = _fold_conj(conj, hat, identity)
        t1 = mod.phi(sub1, sub2, f(*hat))
        conjed = tuple(conj(args[i - 1], a) for a in args[i:])
        t2 = f(*(args[:i - 1] + conjed))
        total = total + sign * (t1 - t2)
    sub1 = _fold_conj(conj, args[:n], identity)
    sub2 = _fold_conj(conj, args[:n - 1] + args[n:], identity)
    pv = mod.psi(sub1, sub2, f(*args[:n]))
    return total + psi_sign * ((-1) ** n) * pv


def rack_differential_general(mod: RackModuleStructure, f: RackCochainFn,
                              args, conj: ConjFn) -> np.ndarray:
    """The general-arity formula with the psi term signed (-1)^n."""
    return _rack_differential(mod, f, tuple(args), conj, +1)


def rack_differential_eval(mod: RackModuleStructure, f: RackCochainFn,
                           args, conj: ConjFn) -> np.ndarray:
    """Normative d_R: same as the general formula except the psi term
    carries sign (-1)^(n+1), which reproduces the arity-1 symmetric
    expansion g.f(h) - f(g|>h) - (g|>h).f(g) + f(g) that the cocycle
    integration needs and, psi being zero there, the arity-2 anti-symmetric
    expansion unchanged."""
    return _rack_differential(mod, f, tuple(args), conj, -1)


def rack_diff1_expansion(mod, f, g, h, conj):
    """Hard-coded arity-1 normative expansion (verification suite)."""
    return mod.phi(g, h, f(h)) - f(conj(g, h)) + mod.psi(g, h, f(g))


def rack_diff2_expansion(mod, f, g, h, k, conj):
    """Hard-coded arity-2 normative expansion (verification suite)."""
    gh, gk, hk = conj(g, h), conj(g, k), conj(h, k)
    return (mod.phi(g, hk, f(h, k)) - f(gh, gk)
            - mod.phi(gh, gk, f(g, k)) + f(g, hk)
            - mod.psi(gh, gk, f(g, h)))


# ---------------------------------------------------------------------------
# module axiom checking
# ---------------------------------------------------------------------------

def check_module_axioms(mod: RackModuleStructure, conj: ConjFn, samples) -> dict:
    """Per-axiom max defect of (M0)-(M4) over sampled group-element triples;
    passes iff every defect <= 1e-10.  A NaN defect stays NaN and fails."""
    tol = 1e-10
    m = mod.carrier_dim
    basis = [np.eye(m)[:, b] for b in range(m)]
    defects = {name: 0.0 for name in ("M0", "M1", "M2", "M3", "M4")}

    def upd(name, arr):
        defects[name] = nan_max(defects[name], sup_norm(np.asarray(arr)))

    for (x, y, z) in samples:
        identity = np.eye(x.shape[-1])
        yz, xy, xz = conj(y, z), conj(x, y), conj(x, z)
        phimat = np.column_stack([mod.phi(x, y, v) for v in basis]) if m else np.zeros((0, 0))
        if m:
            if abs(np.linalg.det(phimat)) < 1e-12:
                upd("M0", np.inf)
            else:
                upd("M0", phimat @ np.linalg.inv(phimat) - np.eye(m))
        for v in basis:
            upd("M1", mod.phi(x, yz, mod.phi(y, z, v)) - mod.phi(xy, xz, mod.phi(x, z, v)))
            upd("M2", mod.phi(x, yz, mod.psi(y, z, v)) - mod.psi(xy, xz, mod.phi(x, y, v)))
            upd("M3", mod.psi(x, yz, v) - mod.phi(xy, xz, mod.psi(x, z, v))
                - mod.psi(xy, xz, mod.psi(x, y, v)))
            upd("M4", mod.phi(identity, y, v) - v)
            upd("M4", mod.psi(x, identity, v))

    defects["passes"] = all(defects[k] <= tol for k in ("M0", "M1", "M2", "M3", "M4"))
    defects["tolerance"] = tol
    return defects
