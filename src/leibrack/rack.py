"""Integration of a Leibniz 2-cocycle into a local augmented Lie rack.

The group G0 is realized concretely as matrices inside Aut(g) (exponentials
of the left-adjoint realization of g0), with a chart gate ||g - I|| < r in
the induced 1-norm.  All numerics on this side are floats; the exact layer
stops at the extension data.

The two path integrals:

    i1(beta)(g) = integral_0^1  exp(s X).beta(X) ds,        X = log g
    i2(omega)(g,h) = integral_0^1 phi_{exp(tY)}( i1(tau omega)(g)(Y) ) dt,
                                                            Y = log(g |> h)

use the reduction that along the canonical path exp(sX) the left-logarithmic
derivative is constantly X, so the pulled-back equivariant form needs no
path differentiation.  G0 acts on Hom(g0, a) by alpha -> phi_g o alpha o
Ad_g^-1, so with xi the log coordinates of g and M = omega(xi, -), an
m x d block (``LocalRackSystem.omega``, which iota2 reads too, is the
stack (d, m, d) of the omega(e_p, -)), i1(tau omega)(g) =
int_0^1 exp(s rho_xi) M exp(-s ad0_xi) ds and i2 = int_0^1 exp(t rho_eta)
(H eta) dt with H = i1(tau omega)(g).

The package reads both off g's matrix.  In (g0, center) coordinates g is
G = F g T = [[A, 0], [C, D]] (``split``), F and T the float
``from_parent`` and ``to_parent``: G is exp of the left multiplication by
the lift of xi, whose bottom-left block is omega(xi, -), so A = exp(ad0
xi), D = exp(rho_xi) = phi_g and C = i1(tau omega)(g) A.  So ``i1`` is
C A^-1, with no log, and with eta the log coordinates of h, those of
g |> h are A eta, so

    i2(omega)(g, h) = phi1(rho_{A eta}) C eta,

one phi1 on m x m matrices and no log of g or of g |> h: the linear rack
x |> y = exp(ad x) y of the parent, twisted by phi1 (Kinyon, J. Lie Theory
17, 2007; Bordemann and Wagemann, J. Lie Theory 27, 2017).
One tail, ``augmented_from_split``, maps (G, eta, b) to
(A eta, D b + i2), with ``i2_from_split`` its i2.

That tail is an action of G0 on all of X = g0 x a, not only on the
chart: g.(eta, b) = (A eta, D b + phi1(rho_{A eta}) C eta) is compatible
with products because ``split`` is multiplicative and rho a
representation (phi1(rho_{A zeta}) D = D phi1(rho_zeta)), and
p(eta, b) = exp(ad eta) is equivariant, p(g.x) = g p(x) g^-1, since
A = Ad_g on g0.  So x |> y = p(x).y is a rack on all of X, an augmented
rack over the whole group G0, and exp x id carries it onto the paper's
rack on the chart.  The sampled suites and the tangent bracket compute on
X: an element acts by its split, that of exp(ad A eta) for a product
x |> y, with no conjugation, float inverse or chart gate; the Lie suite
forms g |> h = exp(ad A eta) and g^-1 = exp(-ad xi) the same way, and
only its iota2 and group products meet a gate.  The operations on group
elements (``i2``, ``augmented_action``, ``rack_product``) are the
paper's local form: they conjugate behind the chart's gates and log h for
eta.

The paper's form from the log coordinates xi of g and A eta of g |> h
(``i2_from_coords``) is i2's quadrature cross-check: it takes both
integrands, i1's with its right factor exp(-s ad0_xi), at every node of a
Gauss-Legendre rule, so it shares no evaluator with the production i2.
Its caller carries both coordinates (a draw's, and A eta under g's split),
so it takes no log.  The tests keep the logged form, i1 of any beta in
closed form and a finite-difference evaluator along an arbitrary path.

For Lie input, the group 2-cocycle iota2 is a double integral over a
2-chain.  Its inner integral is phi1 of a block-triangular matrix, in
closed form too, so the system's Gauss-Legendre rule (``LocalRackSystem.quad``)
drives only iota2's outer integral and the quadrature cross-check.

One record, ``LocalRackSystem``, holds the four choices that make a
system: the extension, G0's chart radius, iota2's quadrature rule and the
finite-difference step, and every operation takes it.  Every other value
is derived from the extension one way: on first use, once per system.
Those are the float change of basis (F, T), the float bases and the joint
nilpotency indices of the ad, rho and ad0 families (the float exp and
phi1 of a nilpotent family are finite series; others go to the kernel
``linalg._expm``: degree-18 Taylor scaling and squaring), the
pseudo-inverse that reads log coordinates, omega's float stack and its
exact Lie-cocycle check for iota2 (``lie_omega``), and the suites' parent
basis and brackets in (g0, center) coordinates.  So the system makes every
crossing from the exact extension to floats, never inside a float call,
and the suites convert nothing.  It holds arrays, which have no
single-valued ==, so it compares and hashes by identity (``eq=False``).

The local rack product on G0 x a is then

    (g, a) |> (h, b) = (g h g^-1, g.b + i2(omega)(g, h)),

with neutral element (1, 0), and the projection to the first factor makes it
a local augmented rack, the restriction of the rack on X above.
``augmented_action`` conjugates once, splits g and logs h: g's split gives
both its action D and i2.

Every operation here is evaluated one way.  The chart operations, i1, i2,
the augmented action, iota2 and the Lie group product each take one group
element (n, n) or a stack of them (..., n, n), and those the Lie suite
skips through also a mask of the slices that succeeded (see the comment
at the head of the chart operations); i2_from_coords takes their log
coordinates (..., d), i2_from_split, conjugate_coords, action_from_split
and augmented_from_split their splits (..., n, n), and the tangent
bracket tangent vectors (..., d + m).  The suites run their sample sets
as stacks, in chunks of a bounded size.  One element is a stack with no
leading axes and takes the same code, with no branch of its own, and the
bases of a trivial g0 are (0, k, k) stacks.  A slice equals its
one-element call bit for bit.  numpy's matmul calls BLAS or its own loop
depending on the strides of its operands, and the two can round
differently, so the stacked code keeps each slice's strides as the
one-element code has them.

This module holds only what the package runs.  The tests' oracles
(``tests/oracles.py``) keep the other forms: the closed form of i1 for
any beta, ``i1_closed_form``, the group-element action
``group_action``, the finite difference ``delta2`` of a rack 2-cochain,
``lie_group_inverse``, and the rack cochains with the rack differential
d_R in both sign conventions of its psi term, against which the tests
check that i1 and i2 are rack cocycles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .algebra import CentralExtensionData, ad_matrix
from .cohomology import lie_cocycle_defect
from .exact import Matrix, OutOfChartError, joint_nilpotency_index
from .linalg import (
    QuadratureRule,
    _fail,
    exp_float,
    gauss_legendre_01,
    integrate_01,
    log_float,
    matvec,
    norm1_float,
    phi1_float,
)


class NotLieCocycleError(ValueError):
    """iota2 was fed a cochain that is not an anti-symmetric Lie cocycle."""


# ---------------------------------------------------------------------------
# the system
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LocalRackElement:
    """A pair (group element of G0, coefficient vector in the center), or
    a stack of pairs: g of shape (..., n, n) and a of shape (..., m)."""

    g: np.ndarray
    a: np.ndarray


@dataclass(frozen=True, eq=False)
class LocalRackSystem:
    """The local augmented Lie rack of one algebra on G0 x a.  Its fields
    are the four choices that make it: ext, the exact extension data;
    chart_radius, the radius of G0's chart inside Aut(g), whose group
    elements are n x n arrays with ||g - I|| < chart_radius, where
    0 < chart_radius < inf; quad, the Gauss-Legendre rule of iota2's outer
    integral and of the quadrature cross-check (i1, i2 and iota2's inner
    integral are closed forms); and fd_step, the step of the finite
    differences at the unit.

    Every other value is derived from ext on first use and kept, one
    ``cached_property`` each, so a system on another extension
    (``replace(sys, ext=...)``) derives each afresh.  The sizes dim (n),
    g0_dim (d) and center_dim (m) are read off ext.  The span of ad_basis
    is the realized g0, rho_basis acts on the center, ad0_basis is the
    adjoint of g0 on itself; each is a (g0_dim, k, k) stack, (0, k, k) for
    trivial g0.  ad_index, rho_index and ad0_index are the exact joint
    nilpotency indices of the ad, rho and ad0 families (None if not
    nilpotent); they select exp's series.  change_of_basis is the float
    pair (from_parent, to_parent) that ``split`` reads."""

    ext: CentralExtensionData
    chart_radius: float
    quad: QuadratureRule
    fd_step: float

    def __post_init__(self):
        if not 0 < self.chart_radius < np.inf:
            raise ValueError("chart radius must be positive and finite")
        if self.quad.order < 3:
            raise ValueError("quadrature order must be >= 3")
        if not 0 < self.fd_step:
            raise ValueError("fd_step must be positive")

    @property
    def dim(self) -> int:
        return self.ext.parent.dim

    @property
    def g0_dim(self) -> int:
        return self.ext.g0_dim

    @property
    def center_dim(self) -> int:
        return self.ext.center_dim

    def identity(self) -> np.ndarray:
        return np.eye(self.dim)

    @cached_property
    def _gate_identity(self) -> np.ndarray:
        """The read-only identity the chart gates subtract."""
        eye = self.identity()
        eye.flags.writeable = False
        return eye

    def combo(self, basis: np.ndarray, xi) -> np.ndarray:
        """sum_p xi_p basis[p] for a basis stack (d, r, c), as one matrix
        product; coordinates of shape (..., d) give a stack of matrices,
        and coordinates of another length are a ValueError."""
        d, r, c = basis.shape
        xi = np.asarray(xi, dtype=float)
        return (xi @ basis.reshape(d, r * c)).reshape(xi.shape[:-1] + (r, c))

    def ad_of(self, xi) -> np.ndarray:
        return self.combo(self.ad_basis, xi)

    def rho_of(self, xi) -> np.ndarray:
        return self.combo(self.rho_basis, xi)

    def ad0_of(self, xi) -> np.ndarray:
        return self.combo(self.ad0_basis, xi)

    def neutral(self) -> LocalRackElement:
        return LocalRackElement(self.identity(), np.zeros(self.center_dim))

    def with_chart_radius(self, chart_radius: float) -> "LocalRackSystem":
        """The same system, rule and step on a chart of another radius, with
        every value it already derived from ext: no exact work reruns."""
        wide = replace(self, chart_radius=chart_radius)
        vars(wide).update((k, v) for k, v in vars(self).items() if k not in vars(wide))
        return wide

    @cached_property
    def ad_basis(self) -> np.ndarray:
        return _basis_stack(self.ext.g0_matrices, self.dim)

    @cached_property
    def rho_basis(self) -> np.ndarray:
        return _basis_stack(self.ext.rho, self.center_dim)

    @cached_property
    def _ad0(self) -> list[Matrix]:
        """The exact adjoint matrices of g0's basis, for ad0_basis and ad0_index."""
        g0 = self.ext.g0
        return [ad_matrix(g0, g0.basis_vector(p)) for p in range(self.g0_dim)]

    @cached_property
    def ad0_basis(self) -> np.ndarray:
        return _basis_stack(self._ad0, self.g0_dim)

    @cached_property
    def coord_pinv(self) -> np.ndarray:
        """The least-squares inverse of the flattened ad basis, which reads
        log coordinates."""
        d, n = self.g0_dim, self.dim
        return np.linalg.pinv(np.ascontiguousarray(self.ad_basis.reshape(d, n * n).T))

    @cached_property
    def ad_index(self) -> int | None:
        return joint_nilpotency_index(self.ext.g0_matrices)

    @cached_property
    def rho_index(self) -> int | None:
        return joint_nilpotency_index(self.ext.rho)

    @cached_property
    def ad0_index(self) -> int | None:
        return joint_nilpotency_index(self._ad0)

    @cached_property
    def omega(self) -> np.ndarray:
        """omega as the C-contiguous stack (d, m, d) of the blocks omega(e_p, -)
        = tau omega(e_p); ``transpose(0, 2, 1)`` gives the values omega(e_p, e_q)."""
        return np.ascontiguousarray(self.ext.omega.to_numpy().transpose(0, 2, 1))

    @cached_property
    def lie_omega(self) -> np.ndarray:
        """``omega``, checked once to be an anti-symmetric Lie cocycle (NotLieCocycleError)."""
        cocycle, anti = lie_cocycle_defect(self.ext, self.ext.omega)
        if anti != 0:
            raise NotLieCocycleError("omega is not anti-symmetric")
        if cocycle != 0:
            raise NotLieCocycleError("omega fails the Lie cocycle identity")
        return self.omega

    @cached_property
    def change_of_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """(F, T), the float ``from_parent`` and ``to_parent``: F maps g
        coordinates to (g0, center) coordinates, T back."""
        return self.ext.from_parent.to_numpy(), self.ext.to_parent.to_numpy()

    @cached_property
    def basis_coords(self) -> np.ndarray:
        """The parent's basis in (g0, center) coordinates, row i that of e_i."""
        return self.change_of_basis[0].T

    @cached_property
    def bracket_coords(self) -> np.ndarray:
        """The (g0, center) coordinates of [e_i, e_j] in row i*n + j: from_parent @ B,
        where column i*n + j of the exact n x n^2 matrix B holds the c_ij^k."""
        n = self.dim
        b = Matrix.from_terms(n, n * n, ((k, i * n + j, c) for i, row in enumerate(
            self.ext.parent.terms) for j, terms in enumerate(row) for k, c in terms))
        return (self.ext.from_parent @ b).to_numpy().T


def _basis_stack(mats, k: int) -> np.ndarray:
    """The exact k x k matrices mats as one float stack (len(mats), k, k)."""
    return np.array([mat.to_numpy() for mat in mats]).reshape(len(mats), k, k)


def build_rack_system(ext: CentralExtensionData, chart_radius: float = 0.5,
                      quad_order: int = 8, fd_step: float = 1e-3) -> LocalRackSystem:
    """ext's system on a chart of chart_radius, with the Gauss-Legendre rule
    of quad_order nodes and the finite-difference step fd_step.  It does
    no exact work: the system derives each value from ext on first use."""
    return LocalRackSystem(ext, chart_radius, gauss_legendre_01(quad_order), fd_step)


# ---------------------------------------------------------------------------
# chart operations
# ---------------------------------------------------------------------------
#
# Every rack operation below is written once for one group element g, an
# (n, n) array, and for stacks of them, (..., n, n); the stacks of one call
# broadcast against each other like numpy arrays, so one element (a stack
# of one, say) acting on a stack is computed once.  The first gate that
# fails raises its OutOfChartError, for a stack that of its first failing
# slice.  The operations that a report can skip through, the Lie suite's
# ``iota2`` and group products with ``log_coords`` and ``_chart_gate``
# under them, also take a mask, a writable bool array ok of the call's
# broadcast stack shape: the slices that fail a gate are cleared in ok
# instead (``linalg._fail``, whose rule ``log_float`` applies too) and
# the chart gates stand in the identity for them, so what follows runs on
# every slice without raising.  ok[i] then ends false exactly where the
# call on slice i alone raises, and the ok slices equal those calls bit
# for bit.  A mask is only ever narrowed, so operations can share one.

def _slices(g: np.ndarray) -> np.ndarray:
    """g as a stack (N, n, n); one element is the stack of one."""
    return g.reshape((-1,) + g.shape[-2:])


def in_chart(sys: LocalRackSystem, g: np.ndarray):
    """||g - I|| < radius for g, or as a bool array for each slice of a
    stack: the one chart gate."""
    return norm1_float(g - sys._gate_identity) < sys.chart_radius


def _chart_gate(sys: LocalRackSystem, g: np.ndarray, what: str,
                ok: np.ndarray | None = None) -> np.ndarray:
    """g, with the slices outside the chart failed (see ``_fail``) and
    replaced by the identity."""
    bad = np.logical_not(in_chart(sys, g))
    if _fail(ok, bad, lambda i: f"{what}: ||g - I|| = "
             f"{norm1_float(_slices(g)[i] - sys._gate_identity):.4g} "
             f">= chart radius {sys.chart_radius}"):
        return np.where(bad[..., None, None], sys._gate_identity, g)
    return g


def log_coords(sys: LocalRackSystem, g: np.ndarray, ok: np.ndarray | None = None) -> np.ndarray:
    """g0 coordinates of log(g); fails (OutOfChartError) if log(g) does not
    lie in the realized subalgebra (cannot happen for chart-gated input).
    Without a mask, the error raised for a stack is that of the first
    failing slice, a failing log before any residual; with one, failing
    slices have zero coordinates."""
    ell = log_float(g, ok)
    n = sys.dim
    xi = (sys.coord_pinv @ ell.reshape(ell.shape[:-2] + (n * n, 1)))[..., 0]
    resid = np.abs(sys.ad_of(xi) - ell).max(axis=(-2, -1), initial=0.0)
    bad = resid > 1e-7 * (1.0 + np.abs(ell).max(axis=(-2, -1), initial=0.0))
    if _fail(ok, bad, lambda i: f"log(g) leaves the realized g0 "
             f"(residual {np.ravel(resid)[i]:.3g})"):
        xi[bad] = 0.0
    return xi


def group_from_coords(sys: LocalRackSystem, xi) -> np.ndarray:
    return exp_float(sys.ad_of(xi), sys.ad_index)


def group_inverse(g: np.ndarray, what: str = "group element") -> np.ndarray:
    """g^-1; fails (OutOfChartError) where g is singular in floating point,
    which an element of a non-unipotent G0 far from the identity can be."""
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError:
        raise OutOfChartError(f"{what}: singular in floating point") from None


def conjugate(sys: LocalRackSystem, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """g |> h = g h g^-1, gated so the result stays in the chart (the
    dynamic U_loc gate: every conjugation must land in the neighborhood)."""
    g = _chart_gate(sys, g, "conjugator")
    h = _chart_gate(sys, h, "conjugated element")
    return _chart_gate(sys, g @ h @ group_inverse(g, "conjugator"), "conjugation result")


def _gated_product(sys: LocalRackSystem, g: np.ndarray, h: np.ndarray, ok: np.ndarray | None):
    """(g, h, gh), g and h behind their chart gates and gh behind the product's."""
    g, h = (_chart_gate(sys, x, "group element", ok) for x in (g, h))
    return g, h, _chart_gate(sys, g @ h, "group product", ok)


def group_product(sys: LocalRackSystem, g: np.ndarray, h: np.ndarray,
                  ok: np.ndarray | None = None) -> np.ndarray:
    return _gated_product(sys, g, h, ok)[2]


# ---------------------------------------------------------------------------
# the path integrals
# ---------------------------------------------------------------------------

def split(sys: LocalRackSystem, g: np.ndarray) -> np.ndarray:
    """G = F g T, g in (g0, center) coordinates, F and T the float
    ``from_parent`` and ``to_parent``: the block-triangular [[A, 0], [C, D]]
    with A = exp(ad0 xi), C = i1(tau omega)(g) A and D = phi_g, xi the log
    coordinates of g."""
    f, t = sys.change_of_basis
    return f @ g @ t


def i1(sys: LocalRackSystem, g: np.ndarray) -> np.ndarray:
    """i1(tau omega)(g), the path integral of tau omega, valued in the
    symmetric module Hom(g0, a), along the canonical path to g, as m x d
    blocks (..., m, d): C A^-1, read off g's ``split``.  It takes no log
    and no chart gate, as G0 acts on all of X; it fails only where A is
    singular in floating point (``group_inverse``)."""
    d = sys.g0_dim
    big = split(sys, g)
    return big[..., d:, :d] @ group_inverse(big[..., :d, :d])


def _conjugate_split_and_log(sys: LocalRackSystem, g: np.ndarray,
                             h: np.ndarray) -> tuple[np.ndarray, ...]:
    """(g |> h, G, eta) with eta the log coordinates of h, for the
    operations on group elements: the conjugation's gates, then h's log."""
    gh = conjugate(sys, g, h)
    return gh, split(sys, g), log_coords(sys, h)


def conjugate_coords(sys: LocalRackSystem, big: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """A eta, the log coordinates of g |> h, from g's split G (see ``split``)
    and the log coordinates eta of h: no log is taken."""
    d = sys.g0_dim
    return matvec(big[..., :d, :d], eta)


def i2_from_split(sys: LocalRackSystem, big: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """i2(omega)(g, h) = phi1(rho_{A eta}) C eta from g's split G and the
    log coordinates eta of h: A eta are those of g |> h
    (``conjugate_coords``), and C eta = i1(tau omega)(g)(A eta) is i2's
    integrand at t = 0."""
    d = sys.g0_dim
    v = matvec(big[..., d:, :d], eta)
    # zero where C eta is exactly zero (a NaN is not): a fresh zero array with
    # no kernel call if every slice is, else zeroed in place, so that the
    # kernel's result keeps the strides that decide whether numpy's matmul
    # on it calls BLAS, and so how it rounds, in a 2-D call and a stack
    vanish = np.abs(v).max(axis=-1, initial=0.0) == 0
    if vanish.all():
        return np.zeros(v.shape)
    out = phi1_float(sys.rho_of(conjugate_coords(sys, big, eta)), v, sys.rho_index)
    out[vanish] = 0.0
    return out


def action_from_split(sys: LocalRackSystem, big: np.ndarray) -> np.ndarray:
    """phi_g = exp(rho_xi), the block D of g's split G."""
    d = sys.g0_dim
    return big[..., d:, d:]


def augmented_from_split(sys: LocalRackSystem, big: np.ndarray, eta: np.ndarray,
                         b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A eta, D b + i2(omega)(g, h)): the log coordinates of g |> h and the
    center part of g's action on (h, b), from g's split G and the log
    coordinates eta of h.  The one tail of every augmented action, whether
    eta is h's log (``augmented_action``) or coordinates its caller carries
    (the suites)."""
    return conjugate_coords(sys, big, eta), \
        matvec(action_from_split(sys, big), b) + i2_from_split(sys, big, eta)


def i2_from_coords(sys: LocalRackSystem, xi: np.ndarray, eta: np.ndarray,
                   rule: QuadratureRule) -> np.ndarray:
    """i2(omega)(g, h) as the paper's two path integrals, both by
    Gauss-Legendre quadrature at rule, from the log coordinates xi of g and
    eta of g |> h: H = i1(tau omega)(g) = integral_0^1 exp(s rho_xi) M
    exp(-s ad0_xi) ds along log g, M = omega(xi, -), then integral_0^1
    exp(t rho_eta) H eta dt along log(g |> h).  i2's cross-check, exact up
    to rounding when rho is nilpotent and 2 * rule.order exceeds the
    polynomial degree of the integrands.  It shares no evaluator with
    ``i2_from_split``: no split and no phi1."""
    # every node's integrand in one stack (..., nodes, m, d) or (..., nodes, m)
    nodes = np.array(rule.nodes)[:, None, None]
    left = exp_float(nodes * sys.rho_of(xi)[..., None, :, :], sys.rho_index)
    right = exp_float(-nodes * sys.ad0_of(xi)[..., None, :, :], sys.ad0_index)
    block = sys.combo(sys.omega, xi)[..., None, :, :]
    i1_xi = integrate_01(rule, np.moveaxis(left @ block @ right, -3, 0))
    outer = exp_float(nodes * sys.rho_of(eta)[..., None, :, :], sys.rho_index)
    return integrate_01(rule, np.moveaxis(matvec(outer, matvec(i1_xi, eta)[..., None, :]), -2, 0))


def i2(sys: LocalRackSystem, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The rack 2-cocycle integrating the extension's omega: the
    equivariant form of i1(tau omega)(g) integrated along the canonical
    path to g |> h, read off g's split (``i2_from_split``), the i2 term
    of ``augmented_from_split``.  The gates run in this order: the
    conjugation, which gates g and h once, then h's log."""
    _, big, eta = _conjugate_split_and_log(sys, g, h)
    return i2_from_split(sys, big, eta)


# ---------------------------------------------------------------------------
# the local augmented Lie rack on G0 x a
# ---------------------------------------------------------------------------

def rack_product(sys: LocalRackSystem, u: LocalRackElement,
                 v: LocalRackElement) -> LocalRackElement:
    """(g,a) |> (h,b) = (g |> h, g.b + i2(omega)(g,h)): the augmented
    action of g on (h,b)."""
    return augmented_action(sys, u.g, v)


def augmented_action(sys: LocalRackSystem, g: np.ndarray,
                     v: LocalRackElement) -> LocalRackElement:
    """The local G0-action rho(g, (h,b)) = (g |> h, g.b + i2(omega)(g,h));
    (1,0) is a fixed point and rho(g, rho(h, w)) = rho(gh, w) in-chart.
    g is conjugated and split once, and h logged once, behind the
    conjugation's gates; g's split gives both its action and i2
    (``augmented_from_split``)."""
    gh, big, eta = _conjugate_split_and_log(sys, g, v.g)
    return LocalRackElement(gh, augmented_from_split(sys, big, eta, v.a)[1])


def _mixed_difference(sys: LocalRackSystem, probe: Callable[..., np.ndarray]) -> np.ndarray:
    """Central second mixed finite difference of probe(s, t) at (0, 0),
    with step sys.fd_step; O(fd_step^2).  The step is checked against the
    chart radius at each call, as ``with_chart_radius`` can narrow the
    chart.  probe takes its four steps at once, as arrays s and t of shape
    (4,), and returns their values as a stack (4, ...)."""
    hstep = sys.fd_step
    if not 0 < hstep < sys.chart_radius / 4:
        raise ValueError("fd_step must lie in (0, chart_radius/4)")
    s, t = hstep * np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])
    pp, pm, mp, mm = probe(s, t)
    return (pp - pm - mp + mm) / (4.0 * hstep * hstep)


def tangent_bracket(sys: LocalRackSystem, u, v) -> np.ndarray:
    """Recover the Leibniz bracket of g0 (+) a from the rack product on
    X = g0 x a by a second mixed finite difference at 0: of
    p(s u) . (t v) = (A(s) t v0, D(s) t va + i2), with G(s) = [[A(s), 0],
    [C(s), D(s)]] the split of exp(ad s u0) (``augmented_from_split``).
    Coordinates are (g0, center); u and v are vectors or stacks of them
    (..., d + m).  Only s u0 is exponentiated: no log, inverse or chart
    gate is taken."""
    d, m = sys.g0_dim, sys.center_dim
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1:] != (d + m,) or v.shape[-1:] != (d + m,):
        raise ValueError("tangent vectors live in g0 (+) a")

    def probe(s, t):
        big = split(sys, group_from_coords(sys, np.multiply.outer(s, u[..., :d])))
        return np.concatenate(augmented_from_split(sys, big, np.multiply.outer(t, v[..., :d]),
                                                   np.multiply.outer(t, v[..., d:])), axis=-1)

    return _mixed_difference(sys, probe)


# ---------------------------------------------------------------------------
# the Lie specialization: iota^2 and the local group product
# ---------------------------------------------------------------------------

def iota2(sys: LocalRackSystem, g: np.ndarray, h: np.ndarray,
          ok: np.ndarray | None = None) -> np.ndarray:
    """Group-cocycle integral of an anti-symmetric Lie cocycle over the
    2-chain gamma_{g,h}(t,s) = exp(t log(g exp(s log h))), whose boundary is
    gamma_g - gamma_{gh} + g gamma_h.  The omega integrated is the
    extension's own, checked once per system (``LocalRackSystem.lie_omega``).

    The s-integral takes the system's rule sys.quad; the t-integral is closed.  At
    a = log(g exp(s log h)), with A = ad0(a), R = rho(a) and
    Omega = omega(a, -), the chain's left-logarithmic s-derivative is
    w_t = int_0^t exp(-uA) a' du, where phi1(-A) a' = log h, and
    int_0^1 exp(tR) Omega w_t dt is exp(R) times the center part of
    phi1(X) (0, a') with X = [[-R, Omega], [0, -A]] (Van Loan 1978).  ad0
    is the quotient of the ad family on g0 = g / Z_L and X is block
    triangular, so ad_index and ad_index + rho_index bound their
    nilpotency indices.

    g and h may be stacks of pairs.  All nodes s of all pairs go through
    the kernels as one stack (..., nodes, n, n), whose slices equal the
    per-node values bit for bit; a node that fails the log chart fails its
    pair.  The weighted sum over the nodes is ``integrate_01``."""
    m, d = sys.center_dim, sys.g0_dim
    omega_np = sys.lie_omega
    g, h, _ = _gated_product(sys, g, h, ok)
    shape = np.broadcast_shapes(g.shape[:-2], h.shape[:-2])
    if d == 0:
        return np.zeros(shape + (m,))
    eta_h = log_coords(sys, h, ok)
    big_h = sys.ad_of(eta_h)
    x_index = None if sys.ad_index is None or sys.rho_index is None \
        else sys.ad_index + sys.rho_index

    nodes = np.array(sys.quad.nodes)
    q = len(nodes)
    node_ok = None if ok is None else np.broadcast_to(ok[..., None], shape + (q,)).copy()
    a = log_coords(sys, g[..., None, :, :] @ exp_float(
        nodes[:, None, None] * big_h[..., None, :, :], sys.ad_index), node_ok)
    if ok is not None:
        ok &= node_ok.all(axis=-1)
    ad_a, rho_a = sys.ad0_of(a), sys.rho_of(a)
    eye = np.broadcast_to(np.eye(d), ad_a.shape)
    aprime = np.linalg.solve(phi1_float(-ad_a, eye, sys.ad_index),
                             eta_h[..., None, :, None])[..., 0]
    x = np.zeros(shape + (q, m + d, m + d))
    x[..., :m, :m] = -rho_a
    x[..., :m, m:] = sys.combo(omega_np, a)
    x[..., m:, m:] = -ad_a
    inner = phi1_float(x, np.concatenate([np.zeros(shape + (q, m)), aprime], axis=-1),
                       x_index)[..., :m]
    values = matvec(exp_float(rho_a, sys.rho_index), inner)
    return integrate_01(sys.quad, np.moveaxis(values, -2, 0))


def lie_group_product(sys: LocalRackSystem, u: LocalRackElement, v: LocalRackElement,
                      ok: np.ndarray | None = None) -> LocalRackElement:
    """(g,a)(h,b) = (gh, a + b + iota2(g,h)), the local Lie group structure
    carried by G0 x a when the input algebra is Lie."""
    gh = group_product(sys, u.g, v.g, ok)
    return LocalRackElement(gh, u.a + v.a + iota2(sys, u.g, v.g, ok))

