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
path differentiation.  G0 acts on Hom(g0, a), where beta takes values, by
alpha -> phi_g o alpha o Ad_g^-1, so with xi the log coordinates of g and
M = beta(xi), i1 = int_0^1 exp(s rho_xi) M exp(-s ad0_xi) ds, and
i2 = int_0^1 exp(t rho_eta) (H eta) dt with H = i1(tau omega)(g).  Hom(g0, a)
values are m x d blocks here, and beta the stack (d, m, d) of the blocks
beta(e_p): ``LocalRackSystem.omega`` for tau omega, which iota2 reads too.
``_integral`` takes each, in closed form by ``linalg.phi1_float`` (i1 with
the right factor ad0_xi, on m x m and d x d matrices, never on Hom(g0, a)
itself), or by Gauss-Legendre quadrature at a rule, their independent
cross-check.  i2 depends on g and h only through the log coordinates of g
and g |> h (``conjugate_and_log``), from which ``i2_from_coords``
integrates.  The tests keep a finite-difference evaluator along an
arbitrary path as an independent check of i1.

For Lie input, the group 2-cocycle iota2 is a double integral over a
2-chain.  Its inner integral is phi1 of a block-triangular matrix, in
closed form too, so the system's Gauss-Legendre rule (``LocalRackSystem.quad``)
drives only iota2's outer integral and the quadrature cross-check.

One record, ``LocalRackSystem``, holds the extension, G0's chart,
iota2's quadrature rule and the finite-difference step, and every
operation takes it.  It makes every crossing from the exact extension to
floats, once per system and never inside a float call; the suites convert
nothing.  When it is built: the float bases and the joint nilpotency
indices of the ad, rho and ad0 families (the float exp and phi1 of a
nilpotent family are finite series; others go to the Pade kernel
``linalg._expm_pade``).  On first use: omega's float stack and its exact
Lie-cocycle check for iota2 (``lie_omega``), and the suites' parent basis
and brackets in (g0, center) coordinates and Lie flag.  It holds arrays,
which have no single-valued ==, so it compares and hashes by identity
(``eq=False``).

The local rack product on G0 x a is then

    (g, a) |> (h, b) = (g h g^-1, g.b + i2(omega)(g, h)),

with neutral element (1, 0), and the projection to the first factor makes it
a local augmented rack.  ``augmented_action`` conjugates and logs once
(``conjugate_and_log``): g's log coordinates give both its action and
i1(tau omega)(g), and those of g |> h go on to i2's integrand.

Every operation here is evaluated one way.  The chart operations, i1, i2,
the augmented action, the tangent bracket's finite difference, iota2 and
the Lie group product each take one group element (n, n) or a stack of them
(..., n, n), with a mask of the slices that succeeded (see the comment at
the head of the chart operations), and i2_from_coords and
action_from_coords their log coordinates (..., d).  The suites run their
sample sets as stacks, in chunks of a bounded size.  One element is a
stack with no leading axes and takes the same code, with no branch of its
own, and the bases of a trivial g0 are (0, k, k) stacks.  A slice equals
its one-element call bit for bit.  numpy's matmul calls BLAS or its own
loop depending on the strides of its operands, and the two can round
differently, so the stacked code keeps each slice's strides as the
one-element code has them.

This module holds only what the package runs.  The tests' oracles
(``tests/oracles.py``) keep the other forms: the group-element action
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

from .algebra import CentralExtensionData, ad_matrix, is_lie
from .cohomology import lie_cocycle_defect
from .exact import Matrix, joint_nilpotency_index
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
    """The local augmented Lie rack of one algebra on G0 x a: the exact
    extension data, G0's matrix chart inside Aut(g), from which omega and
    the suites' values are derived on first use, and two float knobs:
    quad, the Gauss-Legendre rule of iota2's outer integral and of the
    quadrature cross-check (i1, i2 and iota2's inner integral are closed
    forms), and fd_step, the step of the finite differences at the unit.
    The sizes dim (n), g0_dim (d) and center_dim (m) are read off ext, so a
    system on another extension (``replace(sys, ext=...)``) has its sizes.  The span of
    ad_basis is the realized g0, rho_basis acts on the center, ad0_basis
    is the adjoint of g0 on itself; each is a (g0_dim, k, k) stack,
    (0, k, k) for trivial g0.
    Group elements are n x n arrays with ||g - I|| < chart_radius, where
    0 < chart_radius < inf.  ad_index, rho_index and ad0_index are the
    exact joint nilpotency indices of the ad, rho and ad0 families (None
    if not nilpotent); they select exp's series."""

    ext: CentralExtensionData
    chart_radius: float
    ad_basis: np.ndarray
    rho_basis: np.ndarray
    ad0_basis: np.ndarray
    coord_pinv: np.ndarray  # least-squares inverse of the flattened ad basis
    ad_index: int | None
    rho_index: int | None
    ad0_index: int | None
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
    def basis_coords(self) -> np.ndarray:
        """The parent's basis in (g0, center) coordinates, row i that of e_i."""
        return self.ext.from_parent.to_numpy().T

    @cached_property
    def bracket_coords(self) -> np.ndarray:
        """The (g0, center) coordinates of [e_i, e_j] in row i*n + j: from_parent @ B,
        where column i*n + j of the exact n x n^2 matrix B holds the c_ij^k."""
        n = self.dim
        b = Matrix.from_terms(n, n * n, ((k, i * n + j, c) for i, row in enumerate(
            self.ext.parent.terms) for j, terms in enumerate(row) for k, c in terms))
        return (self.ext.from_parent @ b).to_numpy().T

    @cached_property
    def parent_is_lie(self) -> bool:
        return is_lie(self.ext.parent)


def _basis_stack(mats, k: int) -> np.ndarray:
    """The exact k x k matrices mats as one float stack (len(mats), k, k)."""
    return np.array([mat.to_numpy() for mat in mats]).reshape(len(mats), k, k)


def build_rack_system(ext: CentralExtensionData, chart_radius: float = 0.5,
                      quad_order: int = 8, fd_step: float = 1e-3) -> LocalRackSystem:
    """ext's system on a chart of chart_radius, with the Gauss-Legendre rule
    of quad_order nodes and the finite-difference step fd_step.  Taken
    now: the float stacks of the ad, rho and ad0 families, the
    pseudo-inverse that reads log coordinates, and the joint nilpotency
    indices; every other value derived from ext is taken on first use,
    once per system (see ``LocalRackSystem``), and a system on another
    extension (``replace(sys, ext=...)``) derives it afresh."""
    n, d, m = ext.parent.dim, ext.g0_dim, ext.center_dim
    ad_basis = _basis_stack(ext.g0_matrices, n)
    ad0 = [ad_matrix(ext.g0, ext.g0.basis_vector(p)) for p in range(d)]
    pinv = np.linalg.pinv(np.ascontiguousarray(ad_basis.reshape(d, n * n).T))
    return LocalRackSystem(ext, chart_radius, ad_basis, _basis_stack(ext.rho, m),
                           _basis_stack(ad0, d), pinv, joint_nilpotency_index(ext.g0_matrices),
                           joint_nilpotency_index(ext.rho), joint_nilpotency_index(ad0),
                           gauss_legendre_01(quad_order), fd_step)


# ---------------------------------------------------------------------------
# chart operations
# ---------------------------------------------------------------------------
#
# Every rack operation below is written once for one group element g, an
# (n, n) array, and for stacks of them, (..., n, n); the stacks of one call
# broadcast against each other like numpy arrays, so one element (a stack
# of one, say) acting on a stack is computed once.  Without a mask (ok
# None) the first gate that fails raises its OutOfChartError, for a stack
# that of its first failing slice.  With a mask, a writable bool array ok
# of the call's broadcast stack shape, the slices that fail a gate are
# cleared in ok instead (``linalg._fail``, whose rule ``log_float``
# applies too) and the chart gates stand in the identity for them, so what
# follows runs on every slice without raising.
# ok[i] then ends false exactly where the call on slice i alone raises,
# and the ok slices equal those calls bit for bit.  A mask is only ever
# narrowed, so operations can share one.

def _slices(g: np.ndarray) -> np.ndarray:
    """g as a stack (N, n, n); one element is the stack of one."""
    return g.reshape((-1,) + g.shape[-2:])


def in_chart(sys: LocalRackSystem, g: np.ndarray):
    """||g - I|| < radius for g, or as a bool array for each slice of a
    stack: the one chart gate."""
    return norm1_float(g - sys._gate_identity) < sys.chart_radius


def _chart_gate(sys: LocalRackSystem, g: np.ndarray, what: str,
                ok: np.ndarray | None) -> np.ndarray:
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


def group_inverse(g: np.ndarray, what: str = "group element",
                  ok: np.ndarray | None = None) -> np.ndarray:
    """g^-1; fails (OutOfChartError) where g is singular in floating point,
    which an element of a non-unipotent G0 far from the identity can be;
    with a mask such a slice gets the identity.  np.linalg.inv raises if
    any slice of a stack is singular, so then each is inverted alone."""
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError:
        pass
    inv = np.empty_like(_slices(g))
    singular = np.zeros(len(inv), dtype=bool)
    for k, gk in enumerate(_slices(g)):
        try:
            inv[k] = np.linalg.inv(gk)
        except np.linalg.LinAlgError:
            inv[k], singular[k] = np.eye(len(gk)), True
    _fail(ok, singular.reshape(g.shape[:-2]), lambda i: f"{what}: singular in floating point")
    return inv.reshape(g.shape)


def _conjugate(sys: LocalRackSystem, g: np.ndarray, h: np.ndarray,
               ok: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """(g behind its chart gate, g |> h), for ``conjugate`` and
    ``conjugate_and_log``."""
    g = _chart_gate(sys, g, "conjugator", ok)
    h = _chart_gate(sys, h, "conjugated element", ok)
    r = g @ h @ group_inverse(g, "conjugator", ok)
    return g, _chart_gate(sys, r, "conjugation result", ok)


def conjugate(sys: LocalRackSystem, g: np.ndarray, h: np.ndarray,
              ok: np.ndarray | None = None) -> np.ndarray:
    """g |> h = g h g^-1, gated so the result stays in the chart (the
    dynamic U_loc gate: every conjugation must land in the neighborhood)."""
    return _conjugate(sys, g, h, ok)[1]


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

def _vanishing(x: np.ndarray) -> np.ndarray:
    """Where the vector x (..., k) is exactly zero, as when k = 0; a NaN
    entry is not zero."""
    return np.abs(x).max(axis=-1, initial=0.0) == 0


def _integral(a: np.ndarray, v: np.ndarray, vanish: np.ndarray, index: int | None,
              rule: QuadratureRule | None, b: np.ndarray | None = None,
              b_index: int | None = None) -> np.ndarray:
    """integral_0^1 exp(s a) v ds, or, given a right factor b and a block v,
    integral_0^1 exp(s a) v exp(-s b) ds: by ``phi1_float`` if rule is None,
    else Gauss-Legendre at rule.  index and b_index are the nilpotency
    indices of a's and b's families.  Zero where vanish: a fresh zero array
    with no kernel call if every slice vanishes, else zeroed in place, so
    that the kernel's result keeps the strides that decide whether numpy's
    matmul on it calls BLAS, and so how it rounds, in a 2-D call and a
    stack."""
    if vanish.all():
        return np.zeros(v.shape)
    if rule is None:
        out = phi1_float(a, v, index, b, b_index)
    else:
        # every node's integrand in one stack (..., nodes, k) or (..., nodes, k, l)
        nodes = np.array(rule.nodes)[:, None, None]
        left = exp_float(nodes * a[..., None, :, :], index)
        if b is None:
            values = np.moveaxis(matvec(left, v[..., None, :]), -2, 0)
        else:
            right = exp_float(-nodes * b[..., None, :, :], b_index)
            values = np.moveaxis(left @ v[..., None, :, :] @ right, -3, 0)
        out = integrate_01(rule, values)
    out[vanish] = 0.0
    return out


def _i1(sys: LocalRackSystem, beta: np.ndarray, xi: np.ndarray,
        rule: QuadratureRule | None = None) -> np.ndarray:
    """i1(beta)(g) = integral_0^1 exp(s rho_xi) M exp(-s ad0_xi) ds, M = beta(xi),
    as blocks (..., m, d) from g's log coordinates xi (..., d)."""
    return _integral(sys.rho_of(xi), sys.combo(beta, xi), _vanishing(xi), sys.rho_index,
                     rule, sys.ad0_of(xi), sys.ad0_index)


def _i2(sys: LocalRackSystem, hom: np.ndarray, eta: np.ndarray,
        rule: QuadratureRule | None = None) -> np.ndarray:
    """i2(omega)(g, h) = integral_0^1 exp(t rho_eta) hom(eta) dt from the
    blocks hom = i1(tau omega)(g) and the log coordinates eta of g |> h."""
    v = matvec(hom, eta)
    return _integral(sys.rho_of(eta), v, _vanishing(v), sys.rho_index, rule)


def i1(sys: LocalRackSystem, beta, g: np.ndarray, ok: np.ndarray | None = None) -> np.ndarray:
    """Path integral of a Leibniz 1-cocycle beta, valued in the symmetric
    module Hom(g0, a), along the canonical path to g, as m x d blocks
    (..., m, d); vanishes at the identity.  beta is the stack (d, m, d) of
    its blocks beta(e_p), such as ``sys.omega`` for tau omega; a stack of
    another shape is a ValueError."""
    d, m = sys.g0_dim, sys.center_dim
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (d, m, d):
        raise ValueError(f"beta stack must be {d} x {m} x {d}")
    return _i1(sys, beta, log_coords(sys, _chart_gate(sys, g, "group element", ok), ok))


def conjugate_and_log(sys: LocalRackSystem, g: np.ndarray, h: np.ndarray,
                      ok: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """(g |> h, xi, eta), with xi and eta the log coordinates of g and of
    g |> h, all that i2(g, h) and g's action need.  The gates run in i2's
    order: the conjugation, which gates g once, g's log, the log of g |> h.
    g's slices outside the chart are logged as the identity."""
    g, gh = _conjugate(sys, g, h, ok)
    return gh, log_coords(sys, g, ok), log_coords(sys, gh, ok)


def i2_from_coords(sys: LocalRackSystem, xi: np.ndarray, eta: np.ndarray,
                   rule: QuadratureRule | None = None) -> np.ndarray:
    """i2(omega)(g, h) from the log coordinates xi of g and eta of g |> h;
    with a rule, both path integrals by quadrature, i2's cross-check, exact
    up to rounding when rho is nilpotent and 2 * rule.order exceeds the
    polynomial degree of the integrands."""
    return _i2(sys, _i1(sys, sys.omega, xi, rule), eta, rule)


def action_from_coords(sys: LocalRackSystem, xi: np.ndarray) -> np.ndarray:
    """phi_g = exp(rho_xi) from the log coordinates xi of g."""
    return exp_float(sys.rho_of(xi), sys.rho_index)


def i2(sys: LocalRackSystem, g: np.ndarray, h: np.ndarray,
       ok: np.ndarray | None = None) -> np.ndarray:
    """The rack 2-cocycle integrating the extension's omega: the
    equivariant form of i1(tau omega)(g) integrated along the canonical
    path to g |> h."""
    gh = conjugate(sys, g, h, ok)
    # i1 by name, not i2_from_coords: perfbench/tracer.py counts rack.i1 here
    return _i2(sys, i1(sys, sys.omega, g, ok), log_coords(sys, gh, ok))


# ---------------------------------------------------------------------------
# the local augmented Lie rack on G0 x a
# ---------------------------------------------------------------------------

def rack_product(sys: LocalRackSystem, u: LocalRackElement, v: LocalRackElement,
                 ok: np.ndarray | None = None) -> LocalRackElement:
    """(g,a) |> (h,b) = (g |> h, g.b + i2(omega)(g,h)): the augmented
    action of g on (h,b)."""
    return augmented_action(sys, u.g, v, ok)


def augmented_action(sys: LocalRackSystem, g: np.ndarray, v: LocalRackElement,
                     ok: np.ndarray | None = None) -> LocalRackElement:
    """The local G0-action rho(g, (h,b)) = (g |> h, g.b + i2(omega)(g,h));
    (1,0) is a fixed point and rho(g, rho(h, w)) = rho(gh, w) in-chart.
    g is conjugated once and logged once; its log coordinates give both
    its action and i1(tau omega)(g)."""
    gh, xi, eta = conjugate_and_log(sys, g, v.g, ok)
    a = matvec(action_from_coords(sys, xi), v.a) + i2_from_coords(sys, xi, eta)
    return LocalRackElement(gh, a)


def _mixed_difference(sys: LocalRackSystem, probe: Callable[..., np.ndarray],
                      ok: np.ndarray | None) -> np.ndarray:
    """Central second mixed finite difference of probe(s, t, mask) at
    (0, 0), with step sys.fd_step; O(fd_step^2).  The step is checked
    against the chart radius at each call, as ``with_chart_radius`` can
    narrow the chart.  probe takes its four steps at once, as arrays s and
    t of shape (4,), and returns their values as a stack (4, ...).  With a
    mask ok of the stack shape of the directions, mask is one of the
    probes' stack shape (4,) + ok.shape, and ok loses the directions one of
    whose probes failed; without, mask is None."""
    hstep = sys.fd_step
    if not 0 < hstep < sys.chart_radius / 4:
        raise ValueError("fd_step must lie in (0, chart_radius/4)")
    mask = None if ok is None else np.broadcast_to(ok, (4,) + ok.shape).copy()
    s, t = hstep * np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])
    pp, pm, mp, mm = probe(s, t, mask)
    if ok is not None:
        ok &= mask.all(axis=0)
    return (pp - pm - mp + mm) / (4.0 * hstep * hstep)


def tangent_bracket(sys: LocalRackSystem, u, v, ok: np.ndarray | None = None) -> np.ndarray:
    """Recover the Leibniz bracket of g0 (+) a from the rack product by a
    second mixed finite difference at (1,0); coordinates are (g0, center).
    u and v are vectors or stacks of them (..., d + m); a mask ok of their
    stack shape loses the pairs one of whose probes left the chart."""
    d, m = sys.g0_dim, sys.center_dim
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1:] != (d + m,) or v.shape[-1:] != (d + m,):
        raise ValueError("tangent vectors live in g0 (+) a")
    n2 = sys.dim * sys.dim

    def elem(w, s):
        return LocalRackElement(group_from_coords(sys, np.multiply.outer(s, w[..., :d])),
                                np.multiply.outer(s, w[..., d:]))

    def probe(s, t, mask):
        r = rack_product(sys, elem(u, s), elem(v, t), mask)
        return np.concatenate([r.g.reshape(r.g.shape[:-2] + (n2,)), r.a], axis=-1)

    mix = _mixed_difference(sys, probe, ok)
    # the group-part difference quotient lies in the realized g0 only up to
    # O(h^2), so project without the strict residual gate
    return np.concatenate([matvec(sys.coord_pinv, mix[..., :n2]), mix[..., n2:]], axis=-1)


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

