"""The one-sample-at-a-time oracles of the stacked suites, and the dense
oracles of the sparse exact layer.

Each suite and ``example`` extra as it ran before its samples became
stacks: one draw (``sample_group_element``, ``sample_rack_element``,
``sample_point``), one 2-D rack operation and one ``sampled`` step at a
time.  Each draw comes with the coordinates it exponentiated, a point of
X = g0 x a with its center part.  The loops of the sampled suites act on
one point of X at a time by the acting element's split (``x_action``,
``carried_i2``), as the suites do: a draw's group element, exp(ad A eta)
for a product x |> y, or g h, with no conjugation, inverse or gate; the
Lie loop alone conjugates (``carried_action``), and the quadrature loop
integrates from the carried coordinates.  The finite differences take
their four probes one after another, as ``delta2`` and
``tangent_bracket`` once did, each probe acting on X, and
``bracket_coords_by_brackets`` forms the
tangent suite's expected values with one ``bracket`` and one ``split`` per
basis pair.  ``ONE_BY_ONE`` and ``EXTRAS_ONE_BY_ONE``
map the names of the production suites and extras to these loops, so a
report can be built from them.

``combo_per_basis`` and ``omega_per_node`` form a linear combination of
a generator family term by term, as the chart and iota2 once did.
``log_float_probe_all`` is the float log as it was before its nilpotency
probe was narrowed to the slices the norm gate can fail, on its own copy
of the list-based series, ``log_series_float``.
``i1_in_hom_module`` evaluates i1 as it was before it ran on m x d blocks:
phi1 of the (m*d)-sided Hom(g0, a) generators at their exact joint
nilpotency index.  ``i1_closed_form`` is i1 of any beta as the package
took it before it read i1(tau omega) off the group element's split: the
two-sided integral int_0^1 exp(s rho_xi) beta(xi) exp(-s ad0_xi) ds in
closed form (``phi1_two_sided``, the finite series or the Pade kernel of
[[rho_xi, beta(xi)], [0, ad0_xi]]), and ``i2_closed_form`` the paper's i2
through it.

The last section holds the dense exact layer that the sparse row form
replaced: ``Matrix`` products, ``mat_vec``, ``left_of`` and the zero test
over every entry, row reduction of dense rows, the flag nilpotency index
through ``mat_vec``, ``ad_matrix`` column by column, the squares ideal
saturated under brackets breadth-first with two rank computations per
candidate, the Hom generators as Kronecker products, and the extension's
bracket reassembled pair by pair.  It also holds the checks that the
package leaves to the one Leibniz check: ``left_of`` (the action of a
vector) and ``module_axiom_failure``, the module axiom (LLM) that
``Representation`` once checked on construction.
``DENSE_EXACT_LAYER`` lists what to patch in to run ``canonical_extension``
on them.  The dense structure tensor that ``LeibnizAlgebra`` once stored
survives in ``tensor_from_brackets`` (the old ``from_brackets`` loop),
``algebra_from_tensor``, ``quotient_and_omega_by_projection`` (g0 and
omega as the projections of the dense lifted brackets) and
``assemble_extension_dense`` (the n^3 loop).  ``dense`` and
``from_dense`` convert between a ``Matrix``, which stores only its sparse
rows, and dense row tuples; ``cochain_dense`` and
``cochain_from_dense`` do the same between a ``Cochain``, which stores only
its nonzero values, and its flat row-major values.
``leibniz_differential_by_definition`` is dL gathered output by output,
with the right action that the module's flavor fixes (``right_action``).

The first section holds the forms of rack operations that the package
does not run, kept out of ``rack``: the action ``action_from_coords``
from log coordinates and the group-element action ``group_action``, the
stacked finite difference ``delta2`` of a rack 2-cochain (on the
package's own ``rack._mixed_difference``, so that the round trip's row
compares with it bit for bit), the Lie group inverse
``lie_group_inverse``, and the rack cochains ``RackCochainFn`` with their
module structures ``RackModuleStructure`` and the rack differential d_R in
both sign conventions of its psi term, ``rack_differential_eval``
(normative) and ``rack_differential_general``.

The second section holds the helpers that only the tests call, kept out of
the package: the NaN-propagating ``nan_max`` and ``sup_norm``, exact
``vec_scale``, ``rank`` and ``tau_inverse``, ``coboundary_witness``
(which decides whether omega is a coboundary), ``random_corpus``,
``i2_quadrature`` (i2 by quadrature at a rule, from g and h),
``linear_rack`` (eta', i1, i2 and the action read off the linear rack of
the parent, twisted by phi1), its 40-digit twin ``LinearRackMp`` in
mpmath, the one-element ``sample_rack_element``, the hard-coded
rack-differential expansions, the ghost identity defect and the
rack-module axiom check."""

import itertools
import sys
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from leibrack import algebra, exact, linalg, rack
from leibrack.algebra import LeibnizAlgebra, bracket, is_lie
from leibrack.cohomology import Cochain, hom_representation, leibniz_differential
from leibrack.corpus import random_leibniz
from leibrack.exact import Matrix, OutOfChartError, as_vec, joint_nilpotency_index, rref, zero_vec
from leibrack.linalg import exp_float, gauss_legendre_01, matvec, phi1_float
from leibrack.rack import (
    LocalRackElement,
    LocalRackSystem,
    action_from_split,
    augmented_from_split,
    conjugate,
    conjugate_and_split,
    conjugate_coords,
    group_from_coords,
    group_inverse,
    group_product,
    i1,
    i2,
    i2_from_coords,
    i2_from_split,
    iota2,
    lie_group_product,
    log_coords,
    rack_product,
    split,
)
from leibrack.rack_report import (
    PHI_TYPO_NOTE,
    dim5_conjugation,
    dim5_f,
    dim5_i1_matrix,
    heisenberg_iota2,
)
from leibrack.suites import PropertyResult, elem_distance, sample_group_element


# -- the rack's group-element forms and its cochains -------------------------

def action_from_coords(sys_: LocalRackSystem, xi: np.ndarray) -> np.ndarray:
    """phi_g = exp(rho_xi) from the log coordinates xi of g; the package
    reads phi_g off g's split instead (``rack.action_from_split``)."""
    return exp_float(sys_.rho_of(xi), sys_.rho_index)


def group_action(sys_: LocalRackSystem, g: np.ndarray,
                 ok: np.ndarray | None = None) -> np.ndarray:
    """phi_g = exp(rho_{log g}), the integrated action of G0 on the center,
    from the group element g."""
    return action_from_coords(sys_, log_coords(sys_, g, ok))


def delta2(sys_: LocalRackSystem, f: Callable[..., np.ndarray], x, y) -> np.ndarray:
    """Differentiate a rack 2-cochain at the unit: central second mixed
    finite difference of (s,t) -> f(exp(s x), exp(t y)); O(fd_step^2).
    x and y are g0 vectors or stacks of them (..., d); f takes stacks of
    group elements g and h, all four steps as one stack (4, ..., n, n),
    and the log coordinates t y that h carries, as f(g, h, eta); a cochain
    of group elements alone ignores eta.  The difference is the package's
    own, ``rack._mixed_difference``, which the round trip reads off the
    tangent suite's basis-pair difference."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def probe(s, t):
        eta = np.multiply.outer(t, y)
        return f(group_from_coords(sys_, np.multiply.outer(s, x)), group_from_coords(sys_, eta),
                 eta)
    return rack._mixed_difference(sys_, probe)


def lie_group_inverse(sys_: LocalRackSystem, u: LocalRackElement,
                      ok: np.ndarray | None = None) -> LocalRackElement:
    """(g,a)^-1 = (g^-1, -a - iota2(g, g^-1)) in the local Lie group G0 x a
    of Lie input, g^-1 behind the chart gate."""
    ginv = rack._chart_gate(sys_, group_inverse(u.g, ok=ok), "group inverse", ok)
    return LocalRackElement(ginv, -u.a - iota2(sys_, u.g, ginv, ok))


# Rack cochains are evaluator functions on tuples of group elements,
# differentiated by the rack differential d_R over a module structure
# (phi, psi).  Sign convention for d_R: at arity 1 over a symmetric module,
# the general formula's psi term and the expansions the cocycle-integration
# identities require disagree by a global sign.  ``rack_differential_eval``
# carries the sign those identities need (normative here);
# ``rack_differential_general`` keeps the other convention visible rather
# than silently reconciling them.  For anti-symmetric modules (psi = 0) the
# two coincide.

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
        """phi_{x,y} = action(x), psi_{x,y} = id - action(x |> y): the
        module in which i1 is a rack 1-cocycle, and the one on which the
        two sign conventions of the psi term differ."""
        def phi(x, y, v):
            return matvec(action(x), v)

        def psi(x, y, v):
            return v - matvec(action(conj(x, y)), v)
        return RackModuleStructure(carrier_dim, phi, psi)

    @staticmethod
    def anti_symmetric(carrier_dim, action) -> "RackModuleStructure":
        """phi_{x,y} = action(x), psi = 0: the module in which i2 is a
        rack 2-cocycle."""
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


# -- helpers that only the tests call ----------------------------------------

def sup_norm(x: np.ndarray) -> float:
    """max |x_i| (NaN if an entry is NaN); 0 for an empty array."""
    return float(np.abs(x).max()) if x.size else 0.0


def nan_max(*values: float) -> float:
    """The largest value, NaN if any is NaN.  The builtin max keeps its
    first argument when a later one is NaN, which would let a NaN defect
    pass as the defect before it."""
    return float(np.max(values))


def vec_scale(c, v):
    c = Fraction(c)
    return tuple(c * a for a in v)


def rank(m) -> int:
    return len(rref(m)[1])


def tau_inverse(w: Cochain) -> Cochain:
    """Exact inverse of tau."""
    dd = w.domain_dim
    if w.coeff_dim % dd != 0:
        raise ValueError("coefficient space is not Hom(g, a)")
    return Cochain.from_terms(w.degree + 1, dd, w.coeff_dim // dd, (
        (idx + (h % dd,), h // dd, a) for idx, h, a in w._terms()))


def coboundary_witness(ext) -> Cochain | None:
    """A 1-cochain beta of C^1(g0, Z_L) with dL beta = omega, or None when
    omega is not a coboundary (the input is not split), from one exact
    ``rref`` of [d^1 | omega]: column p*m + k is dL of the basis cochain
    e_p -> e_k, column d*m is omega, and row (x*d + y)*m + k holds entry k
    at (e_x, e_y).  omega is a coboundary iff its column is not a pivot;
    beta then takes that column's entries at the pivots and 0 elsewhere."""
    d, m = ext.g0_dim, ext.center_dim
    cols = [leibniz_differential(ext.rep, Cochain.from_terms(1, d, m, [((p,), k, Fraction(1))]))
            for p in range(d) for k in range(m)] + [ext.omega]
    red, pivots = rref(Matrix.from_terms(d * d * m, d * m + 1, (
        ((x * d + y) * m + k, j, a) for j, w in enumerate(cols) for (x, y), k, a in w._terms())))
    if d * m in pivots:
        return None
    return Cochain.from_terms(1, d, m, (((c // m,), c % m, a) for r, c in enumerate(pivots)
                                        for j, a in red.nonzeros[r] if j == d * m))


def random_corpus(count: int, seed: int = 0) -> list[LeibnizAlgebra]:
    """Deterministic list of distinct random algebras."""
    return [random_leibniz(seed * 1000 + i) for i in range(count)]


def i2_quadrature(sys_, g, h, rule, ok=None) -> np.ndarray:
    """i2 with both path integrals, i1's and the outer one, taken by
    Gauss-Legendre quadrature at rule from the logs of g and g |> h: the
    quadrature cross-check of i2 as a function of group elements.  The
    gates run in this order: the conjugation, which gates g once, g's log,
    the log of g |> h; g's slices outside the chart are logged as the
    identity.  The suite integrates from the coordinates its draws carry
    instead, with no log."""
    g, _, gh = rack._conjugate(sys_, g, h, ok)
    return i2_from_coords(sys_, log_coords(sys_, g, ok), log_coords(sys_, gh, ok), rule)


def linear_rack(sys_: LocalRackSystem, g: np.ndarray, h: np.ndarray,
                twisted: bool = True) -> tuple[np.ndarray, ...]:
    """(eta', i1, i2, action) of the pairs (g, h), read off the linear rack
    x |> y = exp(ad x) y of the parent g with no path integral.  In (g0,
    center) coordinates g is G = F g T = [[A, 0], [C, D]], F and T the float
    ``from_parent`` and ``to_parent``; with eta the log coordinates of h:

    * eta' = A eta, the log coordinates of g |> h;
    * i1(tau omega)(g) = C A^-1, as m x d blocks;
    * i2(g, h) = phi1(rho_eta') C eta, the linear rack's center part twisted
      by phi1, or C eta untwisted (twisted False);
    * phi_g = D.

    phi1(X) v is the top-right column of scipy's expm of [[X, v], [0, 0]],
    so no value comes from ``linalg.phi1_float``."""
    import scipy.linalg

    d, m = sys_.g0_dim, sys_.center_dim
    big = sys_.ext.from_parent.to_numpy() @ g @ sys_.ext.to_parent.to_numpy()
    a, c = big[..., :d, :d], big[..., d:, :d]
    eta = log_coords(sys_, h)
    eta2, v = matvec(a, eta), matvec(c, eta)
    if twisted:
        aug = np.zeros(v.shape[:-1] + (m + 1, m + 1))
        aug[..., :m, :m], aug[..., :m, m] = sys_.rho_of(eta2), v
        v = scipy.linalg.expm(aug)[..., :m, m]
    return eta2, c @ np.linalg.inv(a), v, big[..., d:, d:]


def _mp_array(mat: Matrix) -> np.ndarray:
    """The exact matrix mat as an object array of mpmath numbers, each
    entry rounded once to the working precision."""
    import mpmath

    return np.array([[mpmath.mpf(x.numerator) / x.denominator for x in row]
                     for row in dense(mat)], dtype=object).reshape(mat.rows, mat.cols)


def _mp_expm(x: np.ndarray) -> np.ndarray:
    """mpmath's expm of the square object array x, as an object array."""
    import mpmath

    return np.array(mpmath.expm(mpmath.matrix(x.tolist())).tolist(), dtype=object)


class LinearRackMp:
    """``linear_rack`` at mpmath's working precision, in (g0, center)
    coordinates, with no float step: every exact value of ext is rounded
    once to the working precision, and exp and phi1 are mpmath's expm.
    Build it and call it inside one ``mpmath.workdps``.  Coordinates are
    object arrays of mpmath numbers.

    * ``group(xi)`` is g = exp(ad s(xi)), in the parent's basis;
    * ``split(xi)`` is G = F g T = [[A, 0], [C, D]], once per xi;
    * ``i1(xi)`` is i1(tau omega)(g) = C A^-1, as an m x d block;
    * ``product((xi, a), (eta, b))`` is (A eta, D b + phi1(rho_{A eta}) C eta),
      the rack product in coordinates, with phi1(X) v the top-right column
      of expm of [[X, v], [0, 0]]."""

    def __init__(self, ext: algebra.CentralExtensionData):
        self.d, self.m = ext.g0_dim, ext.center_dim
        self.ad = [_mp_array(mat) for mat in ext.g0_matrices]
        self.rho = [_mp_array(mat) for mat in ext.rho]
        self.f, self.t = _mp_array(ext.from_parent), _mp_array(ext.to_parent)
        self._splits = {}

    def group(self, xi) -> np.ndarray:
        return _mp_expm(sum(x * ad for x, ad in zip(xi, self.ad)))

    def split(self, xi) -> np.ndarray:
        key = tuple(xi)
        if key not in self._splits:
            self._splits[key] = self.f @ self.group(xi) @ self.t
        return self._splits[key]

    def i1(self, xi) -> np.ndarray:
        import mpmath

        d, big = self.d, self.split(xi)
        inverse = np.array(mpmath.inverse(mpmath.matrix(big[:d, :d].tolist())).tolist(),
                           dtype=object)
        return big[d:, :d] @ inverse

    def product(self, u, v) -> tuple[np.ndarray, np.ndarray]:
        import mpmath

        (xi, a), (eta, b) = u, v
        d, m, big = self.d, self.m, self.split(xi)
        eta2 = big[:d, :d] @ eta
        aug = np.full((m + 1, m + 1), mpmath.mpf(0), dtype=object)
        aug[:m, :m] = sum(x * rho for x, rho in zip(eta2, self.rho))
        aug[:m, m] = big[d:, :d] @ eta
        return eta2, big[d:, d:] @ b + _mp_expm(aug)[:m, m]


def sample_rack_element(sys_, rng, max_norm: float) -> tuple[LocalRackElement, np.ndarray]:
    """(u, xi): a group element as ``sample_group_element`` draws it, with
    center coordinates in [-1/4, 1/4], and the coordinates xi its group
    element exponentiated."""
    g, xi = sample_group_element(sys_, rng, max_norm)
    a = rng.uniform(-1.0, 1.0, size=sys_.center_dim) * 0.25
    return LocalRackElement(g, a), xi


def sample_point(sys_, rng, max_norm: float) -> tuple[np.ndarray, np.ndarray]:
    """(g, x): ``sample_rack_element``'s draw as a point x = (xi, a) of
    X = g0 x a, with the group element g = exp(ad xi) by which it acts."""
    u, xi = sample_rack_element(sys_, rng, max_norm)
    return u.g, np.concatenate([xi, u.a])


def x_action(sys_, big, x) -> np.ndarray:
    """g.x = (A eta, D b + i2(g, h)) on one point x = (eta, b) of X, with
    big the split of g, as the suites act: no log, inverse or gate."""
    d = sys_.g0_dim
    return np.concatenate(augmented_from_split(sys_, big, x[:d], x[d:]))


def carried_action(sys_, g, v: LocalRackElement, eta,
                   ok=None) -> tuple[LocalRackElement, np.ndarray]:
    """(g |> v, A eta): g's augmented action on v, whose group part carries
    its log coordinates eta, as the Lie suite takes it: the conjugation's
    gates, then g's split, with no log, and the coordinates that g |> v.g
    carries."""
    gh, big = conjugate_and_split(sys_, g, v.g, ok)
    eta_gh, a = augmented_from_split(sys_, big, eta, v.a)
    return LocalRackElement(gh, a), eta_gh


def carried_i2(sys_, g, h, eta) -> np.ndarray:
    """i2(g, h) as the suites take it, h carrying its log coordinates eta:
    read off g's split, with no log, gate or conjugation; h itself is not
    read."""
    return i2_from_split(sys_, split(sys_, g), eta)


def rack_diff1_expansion(mod, f, g, h, conj):
    """Hard-coded arity-1 normative expansion."""
    return mod.phi(g, h, f(h)) - f(conj(g, h)) + mod.psi(g, h, f(g))


def rack_diff2_expansion(mod, f, g, h, k, conj):
    """Hard-coded arity-2 normative expansion."""
    gh, gk, hk = conj(g, h), conj(g, k), conj(h, k)
    return (mod.phi(g, hk, f(h, k)) - f(gh, gk)
            - mod.phi(gh, gk, f(g, k)) + f(g, hk)
            - mod.psi(gh, gk, f(g, h)))


def ghost_identity_defect(sys_, g, h, k, ok=None) -> np.ndarray:
    """g.f(h,k) - f(gh,k) + f(g,h|>k) for f = i2; zero for cocycles.
    Note gh is the group product, not a conjugation."""
    gh = group_product(sys_, g, h, ok)
    hk = conjugate(sys_, h, k, ok)
    return (matvec(group_action(sys_, g, ok), i2(sys_, h, k, ok))
            - i2(sys_, gh, k, ok) + i2(sys_, g, hk, ok))


def check_module_axioms(mod: RackModuleStructure, conj, samples) -> dict:
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


def sampled(n: int, draw: Callable[[], tuple], check: Callable[..., Iterable[float]],
            props: list[tuple[str, float]]) -> list[PropertyResult]:
    """One PropertyResult per (name, tolerance) in props, over n samples.
    check(*draw()) yields the sample's defects in the order of props; each
    property keeps the NaN-propagating worst of its defects.  An
    OutOfChartError ends the sample and counts as one skip for every
    property; the defects it already yielded still count."""
    worst = [0.0] * len(props)
    skipped = 0
    for _ in range(n):
        args = draw()
        try:
            for k, defect in enumerate(check(*args)):
                worst[k] = nan_max(worst[k], defect)
        except OutOfChartError:
            skipped += 1
    return [PropertyResult(name, w, tol, n, skipped)
            for (name, tol), w in zip(props, worst, strict=True)]


def distance(u, v):
    return nan_max(sup_norm(u.g - v.g), sup_norm(u.a - v.a))


def _injectivity(ins, outs):
    """The injectivity check over all pairs of rows (N, k)."""
    for i in range(len(ins) - 1):
        d_in = np.abs(ins[i + 1:] - ins[i]).max(axis=1, initial=0.0)
        d_out = np.abs(outs[i + 1:] - outs[i]).max(axis=1, initial=0.0)
        if ((d_in > 1e-6) & (d_out <= 1e-12)).any():
            return 1.0
    return 0.0


# -- the finite differences, one probe at a time ----------------------------

def _mixed_difference(sys_, probe):
    hstep = sys_.fd_step
    return (probe(hstep, hstep) - probe(hstep, -hstep)
            - probe(-hstep, hstep) + probe(-hstep, -hstep)) / (4.0 * hstep * hstep)


def delta2_one_by_one(sys_, f, x, y):
    """delta2 of f(g, h, eta), eta the coordinates t y that h carries."""
    x = np.asarray([float(c) for c in x])
    y = np.asarray([float(c) for c in y])
    return _mixed_difference(sys_, lambda s, t: f(group_from_coords(sys_, s * x),
                                                  group_from_coords(sys_, t * y), t * y))


def tangent_bracket_one_by_one(sys_, u, v):
    d = sys_.g0_dim
    return _mixed_difference(sys_, lambda s, t: x_action(
        sys_, split(sys_, group_from_coords(sys_, s * u[:d])), t * v))


# -- the suites ----------------------------------------------------------------

def rack_axioms_one_by_one(sys_, n_samples=200, seed=0):
    """Each product x |> y = p(x).y on X: a draw acts by its group
    element's split, a product x |> y by that of exp(ad A eta)."""
    rng = np.random.default_rng(seed)
    max_norm = sys_.chart_radius / 4.0
    d = sys_.g0_dim
    zero = np.zeros(d + sys_.center_dim)
    draws = [sample_point(sys_, rng, max_norm) for _ in range(3 * n_samples)]
    triples = [draws[3 * i:3 * i + 3] for i in range(n_samples)]

    def self_distributivity(*triple):
        (g_u, u), (g_v, v), (_, w) = triple
        big_u = split(sys_, g_u)
        lhs = x_action(sys_, big_u, x_action(sys_, split(sys_, g_v), w))
        uv, uw = x_action(sys_, big_u, v), x_action(sys_, big_u, w)
        rhs = x_action(sys_, split(sys_, group_from_coords(sys_, uv[:d])), uw)
        yield sup_norm(lhs - rhs)

    def pointedness(*triple):
        (g_u, _), (_, v), _ = triple
        yield nan_max(sup_norm(x_action(sys_, split(sys_, g_u), zero)),
                      sup_norm(x_action(sys_, split(sys_, sys_.identity()), v) - v))

    results = sampled(n_samples, iter(triples).__next__, self_distributivity,
                      [("self_distributivity", 1e-9)])
    results += sampled(n_samples, iter(triples).__next__, pointedness,
                       [("pointedness", 1e-12)])
    big_0 = split(sys_, draws[0][0])
    ins = np.array([x for _, x in draws[1:n_samples + 1]])
    outs = np.array([x_action(sys_, big_0, x) for x in ins])
    results.append(PropertyResult("injectivity_on_samples", _injectivity(ins, outs),
                                  1e-9, n_samples, 0))
    return results


def cocycle_one_by_one(sys_, n_triples=100, seed=1):
    """The cocycle suite's three rows, one triple at a time, with the
    suite's arithmetic: each i2(x, y) and action of x read off x's split,
    g |> h acting as exp(ad A_g eta_h), and the log coordinates of k,
    g |> k and h |> k taken as the coordinates eta_k that k's draw
    carries, A_g eta_k and A_h eta_k: no log, inverse or gate.  The
    identities' normative forms, on group elements, stay in
    ``rack_diff2_expansion`` and ``ghost_identity_defect``."""
    rng = np.random.default_rng(seed)
    max_norm = sys_.chart_radius / 8.0

    def check(*draws):
        (g, _), (h, eta_h), (k, eta_k) = draws
        big_h, big_g = split(sys_, h), split(sys_, g)
        gh = group_from_coords(sys_, conjugate_coords(sys_, big_g, eta_h))
        big_gh, big_g_h, big_gh_g = (split(sys_, x) for x in (gh, g @ h, gh @ g))
        eta_gk, eta_hk = conjugate_coords(sys_, big_g, eta_k), conjugate_coords(sys_, big_h, eta_k)
        f_h_k, f_g_k = i2_from_split(sys_, big_h, eta_k), i2_from_split(sys_, big_g, eta_k)
        f_gh_gk, f_g_hk = i2_from_split(sys_, big_gh, eta_gk), i2_from_split(sys_, big_g, eta_hk)
        f_gh_k, f_ghg_k = i2_from_split(sys_, big_g_h, eta_k), i2_from_split(sys_, big_gh_g, eta_k)
        g_f_hk = matvec(action_from_split(sys_, big_g), f_h_k)
        gh_f_gk = matvec(action_from_split(sys_, big_gh), f_g_k)
        dr = g_f_hk - f_gh_gk - gh_f_gk + f_g_hk
        ghost = g_f_hk - f_gh_k + f_g_hk
        ghost_shift = gh_f_gk - f_ghg_k + f_gh_gk
        return sup_norm(dr), sup_norm(ghost), sup_norm(dr - (ghost - ghost_shift))

    return sampled(n_triples,
                   lambda: tuple(sample_group_element(sys_, rng, max_norm) for _ in range(3)),
                   check, [("rack_cocycle_identity", 1e-9), ("ghost_identity", 1e-9),
                           ("ghost_induces_cocycle", 2e-9)])


def augmented_action_one_by_one(sys_, n_samples=50, seed=3):
    """The action axioms on X, each element acting by its split: the
    identity's, g's, h's and that of the product g h."""
    rng = np.random.default_rng(seed)
    max_norm = sys_.chart_radius / 8.0
    zero = np.zeros(sys_.g0_dim + sys_.center_dim)

    def check(*draws):
        (g, _), (h, _), (_, w) = draws
        big_g = split(sys_, g)
        yield sup_norm(x_action(sys_, split(sys_, sys_.identity()), w) - w)
        yield sup_norm(x_action(sys_, big_g, zero))
        lhs = x_action(sys_, big_g, x_action(sys_, split(sys_, h), w))
        yield sup_norm(lhs - x_action(sys_, split(sys_, g @ h), w))

    return sampled(n_samples,
                   lambda: (sample_group_element(sys_, rng, max_norm),
                            sample_group_element(sys_, rng, max_norm),
                            sample_point(sys_, rng, max_norm)),
                   check, [("action_unit", 1e-12), ("action_fixed_point", 1e-12),
                           ("action_compatibility", 1e-9)])


def roundtrip_one_by_one(sys_, diff=None):
    """diff, the stacked suite's basis-pair difference, is not read:
    this loop differentiates each pair itself."""
    d = sys_.g0_dim
    omega_np = sys_.ext.omega.to_numpy() if d else np.zeros((0, 0, sys_.center_dim))
    basis = np.eye(d)

    def check(p, q):
        got = delta2_one_by_one(sys_, partial(carried_i2, sys_), basis[p], basis[q])
        yield sup_norm(got - omega_np[p, q])

    return sampled(d * d, iter(itertools.product(range(d), repeat=2)).__next__, check,
                   [("delta2_left_inverse", 1e-5)])


def bracket_coords_by_brackets(ext) -> np.ndarray:
    """The (g0, center) coordinates of [e_i, e_j] in row i*n + j, from one
    ``bracket`` and one ``split`` per pair, as ``tangent_suite`` formed
    them before it took them as one sparse product."""
    basis = [ext.parent.basis_vector(i) for i in range(ext.parent.dim)]
    return np.array([[float(c) for c in itertools.chain(*ext.split(bracket(ext.parent, ei, ej)))]
                     for ei in basis for ej in basis])


def tangent_one_by_one(sys_, diff=None):
    """diff is not read, as in ``roundtrip_one_by_one``."""
    ext = sys_.ext
    n = ext.parent.dim

    def split_coords(v):
        x, a = ext.split(v)
        return np.array([float(c) for c in (*x, *a)])

    def check(i, j):
        ei, ej = ext.parent.basis_vector(i), ext.parent.basis_vector(j)
        got = tangent_bracket_one_by_one(sys_, split_coords(ei), split_coords(ej))
        yield sup_norm(got - split_coords(bracket(ext.parent, ei, ej)))

    return sampled(n * n, iter(itertools.product(range(n), repeat=2)).__next__, check,
                   [("tangent_bracket_roundtrip", 1e-4)])


def quadrature_stability_one_by_one(sys_, n_pairs=20, seed=4):
    rng = np.random.default_rng(seed)
    max_norm = sys_.chart_radius / 4.0
    fine = gauss_legendre_01(2 * sys_.quad.order)

    def check(*draws):
        (g, xi), (_, eta) = draws
        eta_gh = conjugate_coords(sys_, split(sys_, g), eta)
        yield sup_norm(i2_from_coords(sys_, xi, eta_gh, sys_.quad)
                       - i2_from_coords(sys_, xi, eta_gh, fine))

    return sampled(n_pairs,
                   lambda: (sample_group_element(sys_, rng, max_norm),
                            sample_group_element(sys_, rng, max_norm)),
                   check, [("quadrature_order_stability", 1e-12)])


def lie_specialization_one_by_one(sys_, n_samples=50, seed=2):
    assert is_lie(sys_.ext.parent)
    rng = np.random.default_rng(seed)
    max_norm = sys_.chart_radius / 8.0

    def product(u, v):
        return lie_group_product(sys_, u, v)

    def check(*draws):
        (u, _), (v, eta_v), (w, _) = draws
        yield distance(product(product(u, v), w), product(u, product(v, w)))
        uinv = lie_group_inverse(sys_, u)
        yield distance(product(product(u, v), uinv), carried_action(sys_, u.g, v, eta_v)[0])
        gh = conjugate(sys_, u.g, v.g)
        lhs = carried_i2(sys_, u.g, v.g, eta_v)
        yield sup_norm(lhs - (iota2(sys_, u.g, v.g) - iota2(sys_, gh, u.g)))

    return sampled(n_samples,
                   lambda: tuple(sample_rack_element(sys_, rng, max_norm) for _ in range(3)),
                   check, [("lie_group_associativity", 1e-9),
                           ("lie_conjugation_equals_rack", 1e-9), ("i2_from_iota2", 1e-9)])


ONE_BY_ONE = {
    "rack_axiom_suite": rack_axioms_one_by_one,
    "cocycle_suite": cocycle_one_by_one,
    "augmented_action_suite": augmented_action_one_by_one,
    "roundtrip_suite": roundtrip_one_by_one,
    "tangent_suite": tangent_one_by_one,
    "quadrature_stability_suite": quadrature_stability_one_by_one,
    "lie_specialization_suite": lie_specialization_one_by_one,
}


# -- the example extras --------------------------------------------------------

def dim5_extras_one_by_one(sys_, args):
    rng = np.random.default_rng(args.seed)
    sys_ = sys_.with_chart_radius(max(args.chart_radius, 8.0))

    def sample_coords():
        while True:
            a = rng.uniform(-0.25, 0.25, size=2)
            if np.hypot(a[0], a[1]) <= 0.25:
                return a

    def draw():
        return (sample_coords(), sample_coords(),
                rng.uniform(-0.5, 0.5, size=3), rng.uniform(-0.5, 0.5, size=3))

    def check(a, b, ac, bc):
        g = group_from_coords(sys_, a)
        yield sup_norm(i1(sys_, g) - dim5_i1_matrix(*a))
        # g acts on the point (b, bc) by its split: nothing is logged
        yield sup_norm(i2_from_split(sys_, split(sys_, g), b) - dim5_f(a, b))
        want = dim5_conjugation(np.concatenate([a, ac]), np.concatenate([b, bc]))
        yield sup_norm(x_action(sys_, split(sys_, g), np.concatenate([b, bc])) - want)

    return sampled(20, draw, check, [("i1_closed_form", 1e-10), ("i2_closed_form", 1e-9),
                                     ("conjugation_closed_form", 1e-9)])


def heisenberg_extras_one_by_one(sys_, args):
    rng = np.random.default_rng(args.seed)

    def check(a, b):
        g = group_from_coords(sys_, a)
        h = group_from_coords(sys_, b)
        yield sup_norm(iota2(sys_, g, h) - heisenberg_iota2(a, b))

    return sampled(20, lambda: (rng.uniform(-0.05, 0.05, size=2),
                                rng.uniform(-0.05, 0.05, size=2)),
                   check, [("iota2_analytic_value", 1e-9)])


def abelian_extras_one_by_one(sys_, args):
    rng = np.random.default_rng(args.seed)
    max_norm = sys_.chart_radius / 4

    def check(*draws):
        (u, _), (v, _) = draws
        yield elem_distance(rack_product(sys_, u, v), v)

    return sampled(20, lambda: (sample_rack_element(sys_, rng, max_norm),
                                sample_rack_element(sys_, rng, max_norm)),
                   check, [("trivial_rack_product", 1e-12)])


# name -> (extras, notes), as in rack_report.EXAMPLE_EXTRAS
EXTRAS_ONE_BY_ONE = {"dim5": (dim5_extras_one_by_one, (PHI_TYPO_NOTE,)),
                     "heisenberg": (heisenberg_extras_one_by_one, ()),
                     "abelian3": (abelian_extras_one_by_one, ())}


# -- linear combinations of a generator family, term by term ----------------

def combo_per_basis(basis, xi):
    """sum_p xi_p basis[p], one basis matrix at a time in basis order, as
    ``LocalRackSystem.combo`` summed before it became one matrix product."""
    xi = np.asarray(xi, dtype=float)
    acc = np.zeros(xi.shape[:-1] + basis.shape[1:])
    for p, b in zip(range(xi.shape[-1]), basis, strict=True):
        acc = acc + xi[..., p, None, None] * b
    return acc


def omega_per_node(omega, a):
    """omega(a, -) as m x d matrices from omega's (d, d, m) array, one
    einsum per coordinate vector of the stack a (..., d), as iota2 once
    formed it at each quadrature node."""
    d, m = omega.shape[1:]
    return np.reshape([np.einsum("p,pqk->kq", a_s, omega) for a_s in a.reshape(-1, d)],
                      a.shape[:-1] + (m, d))


# -- i1 in the Hom(g0, a) module ---------------------------------------------

def i1_in_hom_module(sys_, bmat, xi):
    """i1(beta) = int_0^1 exp(s gen_xi) B xi ds at log coordinates xi
    (..., d), with gen_xi the combination of the left actions of
    ``hom_representation(ext.rep)`` at xi, at their exact joint nilpotency
    index, and bmat beta's (m*d) x d matrix: phi1 on (m*d)-sided matrices,
    zero where xi is."""
    ext = sys_.ext
    d, m = ext.g0_dim, ext.center_dim
    left = hom_representation(ext.rep).left if d else ()
    gens = np.array([mat.to_numpy() for mat in left]).reshape(d, m * d, m * d)
    index = joint_nilpotency_index(left)
    xi = np.asarray(xi, dtype=float)
    v = matvec(bmat, xi)
    vanish = np.abs(xi).max(axis=-1, initial=0.0) == 0
    if vanish.all():
        return np.zeros(v.shape)
    out = phi1_float(sys_.combo(gens, xi), v, index)
    out[vanish] = 0.0
    return out


# -- i1 of any beta by the paper's closed form -------------------------------

def phi1_two_sided(a, v, index=None, b=None, b_index=None):
    """int_0^1 exp(s a) v exp(-s b) ds for stacks a (..., n, n), b (..., k, k)
    and blocks v (..., n, k): phi1 of L(x) = a x - x b applied to v, as
    ``linalg.phi1_float`` took it given a right factor.  With both exact
    nilpotency indices the finite series sum_(j < index + b_index - 1)
    L^j v / (j+1)!, summed by products; otherwise ``linalg._expm_pade`` of
    [[a, v], [0, b]], whose top-right block is the integral times exp(b)
    (Van Loan, IEEE TAC 1978)."""
    v = np.asarray(v, dtype=float)
    n = a.shape[-1]
    if not n:
        return np.zeros(v.shape)
    if index is None or b_index is None:
        k = v.shape[-1]
        aug = np.zeros(a.shape[:-2] + (n + k, n + k))
        aug[..., :n, :n], aug[..., :n, n:], aug[..., n:, n:] = a, v, b
        return linalg._expm_pade(aug)[..., :n, n:] @ exp_float(-b, b_index)
    acc = term = v
    for j in range(1, index + b_index - 1):
        term = (a @ term - term @ b) / (j + 1)
        acc = acc + term
    return acc


def i1_closed_form(sys_, beta, xi):
    """i1(beta)(g) = int_0^1 exp(s rho_xi) beta(xi) exp(-s ad0_xi) ds as
    blocks (..., m, d) from g's log coordinates xi (..., d), for any
    Hom(g0, a)-valued 1-cochain beta given as its stack (d, m, d) of blocks
    beta(e_p): the two-sided closed form that ``rack.i1`` took before it
    read i1(tau omega) off g's split, zero where xi is."""
    xi = np.asarray(xi, dtype=float)
    out = phi1_two_sided(sys_.rho_of(xi), sys_.combo(beta, xi), sys_.rho_index,
                         sys_.ad0_of(xi), sys_.ad0_index)
    out[np.abs(xi).max(axis=-1, initial=0.0) == 0] = 0.0
    return out


def i2_closed_form(sys_, beta, xi, eta):
    """The paper's i2 of a 2-cochain whose tau is beta, as two closed-form
    path integrals: ``i1_closed_form`` along log g, at g's log coordinates
    xi, then phi1(rho_eta) along log(g |> h), at its coordinates eta."""
    return phi1_float(sys_.rho_of(eta), matvec(i1_closed_form(sys_, beta, xi), eta),
                      sys_.rho_index)


# -- the float log, probing every slice ---------------------------------------

def log_series_float(n):
    # log(I+N) = sum (-1)^(k+1) N^k / k over a stack (N, n, n); terminates
    # exactly on nilpotent N, converges for ||N|| < 1 otherwise.  A slice
    # stops before its first zero term, or after its first term with
    # max|term| / k < 1e-18; its sum is then written out and it leaves the
    # stack the series runs on.  Returns the sums and the slices still
    # running after LOG_SERIES_TERMS (did not converge; their sum is zero).
    out = np.empty_like(n)
    rows = list(range(len(n)))
    acc = term = n
    for k in range(2, linalg.LOG_SERIES_TERMS + 1):
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


def log_float_probe_all(g, ok=None):
    """``linalg.log_float`` as it was before it probed only the slices with
    ||g - I|| >= 1 and summed its series in one pass over index arrays:
    the float nilpotency probe runs on the whole stack, up to dim - 1
    stacked products, the norm is taken only if some slice is not
    nilpotent, and the series, ``log_series_float``, runs on every slice
    (the gated ones zeroed, so theirs ends at once) and tracks the slices
    still running in Python lists."""
    g = np.asarray(g, dtype=float)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise ValueError("square matrix required")
    shape, dim = g.shape, g.shape[-1]
    n = (g - np.eye(dim)).reshape(-1, dim, dim)
    if not n.size:
        return n.reshape(shape)
    p = n
    for _ in range(dim - 1):
        if not np.count_nonzero(p):
            break
        p = p @ n
    gated = np.zeros(len(n), dtype=bool)
    if np.count_nonzero(p):
        norm = linalg.norm1_float(n)
        gated = p.any(axis=(1, 2)) & (norm >= 1)
        if np.count_nonzero(gated):
            n = np.where(gated[:, None, None], 0.0, n)
    ell, stuck = log_series_float(n)
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


# -- the dense exact layer ---------------------------------------------------

_ZERO = Fraction(0)


def dense(m):
    """m's entries as a tuple of dense row tuples."""
    return tuple(m.row(i) for i in range(m.rows))


def from_dense(rows, cols, data):
    """The rows x cols matrix with the dense row tuples data."""
    return Matrix.from_terms(rows, cols, ((r, j, a) for r, row in enumerate(data)
                                          for j, a in enumerate(row)))


def cochain_dense(w):
    """w's values as one flat tuple, entry (i1,...,in,k) at the row-major
    offset, zero values included."""
    return tuple(a for idx in itertools.product(range(w.domain_dim), repeat=w.degree)
                 for a in w.at(*idx))


def cochain_from_dense(degree, domain_dim, coeff_dim, values):
    """The cochain whose flat row-major values (as ``cochain_dense`` gives
    them) are values."""
    if len(values) != domain_dim ** degree * coeff_dim:
        raise ValueError(f"expected {domain_dim ** degree * coeff_dim} entries, got {len(values)}")
    cells = itertools.product(itertools.product(range(domain_dim), repeat=degree),
                              range(coeff_dim))
    return Cochain.from_terms(degree, domain_dim, coeff_dim,
                              ((idx, k, Fraction(a)) for (idx, k), a in zip(cells, values)))


def _axpy(out: list, s, term) -> None:
    """out += s * term, skipping the zero entries of term."""
    for k, t in enumerate(term):
        if t:
            out[k] += s * t


def right_action(rep, a):
    """[-, e_a]_R as the module's flavor defines it: -[e_a, -]_L on a
    symmetric module, 0 on an anti-symmetric one."""
    if rep.flavor == "symmetric":
        return -rep.left[a]
    return Matrix.zeros(rep.carrier_dim, rep.carrier_dim)


def leibniz_differential_by_definition(rep, w):
    """dL read off its defining formula one output at a time: each of the
    d^(n+1) index tuples gathers the module terms and the bracket terms
    from the values of w, the gather form that the scatter in
    ``cohomology.leibniz_differential`` replaced, with the right action
    read off the flavor by ``right_action``.  Degree 0 is the convention
    dL beta(x) = -[beta, x]_R."""
    alg = rep.algebra
    if w.domain_dim != alg.dim or w.coeff_dim != rep.carrier_dim:
        raise ValueError("cochain does not match the representation")
    n = w.degree

    if n == 0:
        beta = w.at()

        def d0(x):
            return vec_scale(-1, right_action(rep, x).mat_vec(beta))
        return Cochain.from_function(1, alg.dim, rep.carrier_dim, d0)

    def dw(*idx):
        out = list(zero_vec(rep.carrier_dim))
        # sum_{i<n} (-1)^i [x_i, w(..hat i..)]_L
        for i in range(n):
            _axpy(out, (-1) ** i, rep.left[idx[i]].mat_vec(w.at(*(idx[:i] + idx[i + 1:]))))
        # (-1)^(n-1) [w(x_0..x_{n-1}), x_n]_R
        _axpy(out, (-1) ** (n - 1), right_action(rep, idx[n]).mat_vec(w.at(*idx[:n])))
        # sum_{i<j} (-1)^(i+1) w(.., hat i, .., [x_i, x_j] at slot j, ..)
        for i in range(n + 1):
            rest = idx[:i] + idx[i + 1:]
            for j in range(i + 1, n + 1):
                for p, c in alg.terms[idx[i]][idx[j]]:
                    _axpy(out, (-1) ** (i + 1) * c, w.at(*rest[:j - 1], p, *rest[j:]))
        return tuple(out)

    return Cochain.from_function(n + 1, alg.dim, rep.carrier_dim, dw)


def dense_matmul(a, b):
    """a @ b over every entry pair, skipping a product where a factor is 0."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    bcols = [b.col(j) for j in range(b.cols)]
    return from_dense(a.rows, b.cols, tuple(
        tuple(sum((x * y for x, y in zip(r, c) if x and y), _ZERO) for c in bcols)
        for r in dense(a)))


def dense_mat_vec(m, v):
    v = as_vec(v)
    if len(v) != m.cols:
        raise ValueError("dimension mismatch")
    return tuple(sum((a * b for a, b in zip(r, v) if a and b), _ZERO) for r in dense(m))


def dense_is_zero(m):
    return all(e == 0 for r in dense(m) for e in r)


def left_of(rep, x):
    """The action matrix of [x, -]_L, sum_i x_i left[i] summed over the
    nonzero x_i and the nonzero entries, x a vector of the algebra's
    dimension."""
    x = as_vec(x)
    if len(x) != rep.algebra.dim:
        raise ValueError("vector length must equal the algebra dimension")
    k = rep.carrier_dim
    return Matrix.from_terms(k, k, (
        (r, j, xi * a) for i, xi in enumerate(x) if xi
        for r, row in enumerate(rep.left[i].nonzeros) for j, a in row))


def module_axiom_failure(rep):
    """The first basis pair (i, j), in lexicographic order, on which (LLM)
    [e_i, [e_j, m]_L]_L = [[e_i, e_j], m]_L + [e_j, [e_i, m]_L]_L fails, or
    None.  With right = -left or right = 0 the other two module axioms
    follow from it."""
    alg = rep.algebra
    for i, j in itertools.product(range(alg.dim), repeat=2):
        li, lj = rep.left[i], rep.left[j]
        lb = left_of(rep, bracket(alg, alg.basis_vector(i), alg.basis_vector(j)))
        if not (li @ lj - lb - lj @ li).is_zero():
            return i, j
    return None


def dense_left_of(rep, x):
    """sum_i x_i left[i], entry by entry."""
    x = as_vec(x)
    k = rep.carrier_dim
    left = [dense(m) for m in rep.left]
    return from_dense(k, k, tuple(
        tuple(sum((xi * m[r][j] for xi, m in zip(x, left)), _ZERO)
              for j in range(k)) for r in range(k)))


def dense_ad_matrix(alg, x):
    """ad_x, column j the bracket [x, e_j]."""
    cols = [bracket(alg, x, alg.basis_vector(j)) for j in range(alg.dim)]
    return Matrix.from_cols(alg.dim, cols)


def dense_rref(m):
    """Reduced row echelon form of dense rows, with pivot column indices."""
    a = [list(r) for r in dense(m)]
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
    return from_dense(nrows, ncols, tuple(map(tuple, a))), tuple(pivots)


def flag_nilpotency_index(mats):
    """joint_nilpotency_index through mat_vec on each basis vector of the
    flag and a dense row reduction."""
    if not mats:
        return 1
    n = mats[0].rows
    basis = dense(Matrix.identity(n))
    k = 1
    while True:
        red, pivots = dense_rref(Matrix.from_rows(
            [dense_mat_vec(m, v) for m in mats for v in basis]))
        if not pivots:
            return k
        if len(pivots) == len(basis):
            return None
        basis = dense(red)[:len(pivots)]
        k += 1


def _rank(rows):
    return len(dense_rref(Matrix.from_rows(rows))[1])


def span_contains(basis_rows, v):
    """v in span(basis_rows), by comparing two ranks."""
    if all(c == 0 for c in v):
        return True
    if not basis_rows:
        return False
    return _rank(basis_rows + [v]) == _rank(basis_rows)


def squares_ideal_two_rank(alg):
    """squares_ideal, deciding each candidate by span_contains."""
    n = alg.dim
    gens = []

    def append_independent(v):
        if span_contains(gens, v):
            return False
        gens.append(v)
        return True

    e = [alg.basis_vector(i) for i in range(n)]
    for i in range(n):
        append_independent(bracket(alg, e[i], e[i]))
    for i in range(n):
        for j in range(i + 1, n):
            v = tuple(a + b for a, b in zip(e[i], e[j]))
            append_independent(bracket(alg, v, v))
    frontier = list(gens)
    while frontier:
        new_frontier = []
        for v in frontier:
            for i in range(n):
                for w in (bracket(alg, e[i], v), bracket(alg, v, e[i])):
                    if append_independent(w):
                        new_frontier.append(w)
        frontier = new_frontier
    if not gens:
        return []
    red, pivots = dense_rref(Matrix.from_rows(gens))
    return list(dense(red)[:len(pivots)])


def kron(a, b):
    da, db = dense(a), dense(b)
    return from_dense(a.rows * b.rows, a.cols * b.cols, tuple(
        tuple(da[i][j] * db[k][l] for j in range(a.cols) for l in range(b.cols))
        for i in range(a.rows) for k in range(b.rows)))


def hom_generators_kron(rep):
    """The Hom(g, a) generators rho_p (x) I - I (x) ad_p^T, entry by entry."""
    alg = rep.algebra
    m, d = rep.carrier_dim, alg.dim
    eye_d, eye_m = Matrix.identity(d), Matrix.identity(m)
    mats = []
    for p in range(d):
        # ad_p^T: row j is the column [e_p, e_j] of ad_p
        ad_t = from_dense(d, d, tuple(bracket(alg, alg.basis_vector(p), alg.basis_vector(j))
                                      for j in range(d)))
        a, b = kron(rep.left[p], eye_d), kron(eye_m, ad_t)
        mats.append(from_dense(m * d, m * d, tuple(
            tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in zip(dense(a), dense(b)))))
    return tuple(mats)


def _projections(ext):
    """The rows of from_parent as the projections onto g0 (d x n) and onto
    the center (m x n)."""
    n, d, rows = ext.parent.dim, ext.g0_dim, ext.from_parent.nonzeros
    return Matrix(d, n, rows[:d]), Matrix(n - d, n, rows[d:])


def validate_extension_pairwise(ext):
    """_validate_extension with split/unsplit checked basis vector by basis
    vector, each split projected through the rows of from_parent, and the
    bracket reassembled on each of the n^2 basis pairs."""
    alg = ext.parent
    projection, center_projection = _projections(ext)
    splits = [(projection.mat_vec(e), center_projection.mat_vec(e))
              for e in map(alg.basis_vector, range(alg.dim))]
    for i, (x, a) in enumerate(splits):
        if ext.unsplit(x, a) != alg.basis_vector(i):
            raise AssertionError("to_parent and from_parent do not split the identity")
    for i, (x, _) in enumerate(splits):
        rho_x = left_of(ext.rep, x)
        for j, (y, b) in enumerate(splits):
            xy = bracket(ext.g0, x, y)
            zc = tuple(p + q for p, q in zip(rho_x.mat_vec(b), ext.omega.evaluate(x, y)))
            if ext.unsplit(xy, zc) != alg.c[i][j]:
                raise AssertionError("extension data do not reassemble the bracket")


def tensor_from_brackets(dim, brackets):
    """The dense dim x dim x dim tensor of {(i, j): {k: coeff}}, entry by entry."""
    c = [[[_ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), val in brackets.items():
        for k, coeff in val.items():
            c[i][j][k] = Fraction(coeff)
    return tuple(tuple(tuple(v) for v in row) for row in c)


def algebra_from_tensor(c, basis_names=None):
    """The checked algebra with the dense structure tensor c."""
    return LeibnizAlgebra.from_terms(len(c), ((i, j, k, a) for i, row in enumerate(c)
                                              for j, v in enumerate(row)
                                              for k, a in enumerate(v) if a),
                                     basis_names)


def quotient_and_omega_by_projection(alg, ext):
    """(g0, omega) of the extension, each lifted bracket [e_p, e_q] projected
    from its dense tensor row through the rows of from_parent: g0 through
    the first d, omega through the rest."""
    pivots, d, m = ext.complement_pivots, ext.g0_dim, ext.center_dim
    projection, center_projection = _projections(ext)
    lifted = [[alg.c[p][q] for q in pivots] for p in pivots]
    g0 = algebra_from_tensor([[projection.mat_vec(v) for v in row] for row in lifted],
                             tuple(alg.basis_names[p] for p in pivots))
    omega = Cochain.from_function(2, d, m, lambda p, q: center_projection.mat_vec(lifted[p][q]))
    return g0, omega


def assemble_extension_dense(g0, rho, omega):
    """algebra.assemble_extension filling the dense n^3 tensor entry by entry."""
    d, m = g0.dim, omega.coeff_dim
    n = d + m
    c = [[[_ZERO] * n for _ in range(n)] for _ in range(n)]
    for p in range(d):
        for q in range(d):
            for r in range(d):
                c[p][q][r] = g0.c[p][q][r]
            for k, val in enumerate(omega.at(p, q)):
                c[p][q][d + k] += val
        for k in range(m):
            col = rho[p].col(k)
            for r in range(m):
                c[p][d + k][d + r] = col[r]
    return algebra_from_tensor(c)


# (owner, attribute, dense replacement): patched in, canonical_extension
# runs on the dense oracles above
DENSE_EXACT_LAYER = (
    (exact.Matrix, "__matmul__", dense_matmul),
    (exact.Matrix, "mat_vec", dense_mat_vec),
    (exact.Matrix, "is_zero", dense_is_zero),
    (sys.modules[__name__], "left_of", dense_left_of),
    (exact, "rref", dense_rref),
    (algebra, "rref", dense_rref),
    (algebra, "ad_matrix", dense_ad_matrix),
    (algebra, "_validate_extension", validate_extension_pairwise),
)
