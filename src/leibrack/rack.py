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
closed form too, so the configured Gauss-Legendre rule (IntegratorConfig.quad)
drives only iota2's outer integral and the quadrature cross-check.

Exact decisions are made once per system, never inside a float call.
When it is built: the joint nilpotency indices of the ad, rho and ad0
families (the float exp and phi1 of any element of a nilpotent family are
finite series; other families go to the Pade kernel
``linalg._expm_pade``).  On first use: omega's float stack, and for iota2
(``LocalRackSystem.lie_omega``) the Lie-cocycle check of the extension's
omega, which is ``leibniz_differential`` over rho taken as a symmetric
module (on alternating cochains, the Leibniz differential with symmetric
coefficients is the Chevalley-Eilenberg one).

The chart and system dataclasses hold arrays, which have no
single-valued ==, so they compare and hash by identity (``eq=False``).

The local rack product on G0 x a is then

    (g, a) |> (h, b) = (g h g^-1, g.b + i2(omega)(g, h)),

with neutral element (1, 0), and the projection to the first factor makes it
a local augmented rack.  ``augmented_action`` conjugates and logs once
(``conjugate_and_log``): g's log coordinates give both its action and
i1(tau omega)(g), and those of g |> h go on to i2's integrand.

Every operation here is evaluated one way.  The chart operations, i1, i2,
the augmented action, the finite differences, iota2 and the Lie group
product and inverse each take one group element (n, n) or a stack of them
(..., n, n), with a mask of the slices that succeeded (see the comment at
the head of the chart operations), and i2_from_coords their log
coordinates (..., d).  The suites run every sample set as one stack.  One
element is a stack with no leading axes and takes the same code, with no
branch of its own, and the bases of a trivial g0 are (0, k, k) stacks.  A
slice equals its one-element call bit for bit.  numpy's matmul calls BLAS
or its own loop depending on the strides of its operands, and the two can
round differently, so the stacked code keeps each slice's strides as the
one-element code has them.

The last section holds the rack cochains: evaluator functions on group
elements, the module structures (phi, psi) they take values in, and the
rack differential d_R, against which the tests check that i1 and i2 are
rack cocycles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from .algebra import CentralExtensionData, Representation, ad_matrix
from .cohomology import Cochain, leibniz_differential
from .exact import OutOfChartError, joint_nilpotency_index
from .linalg import (
    QuadratureRule,
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
# chart and configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LocalGroupChart:
    """Matrix chart for G0 inside Aut(g): the span of ad_basis is the
    realized g0, rho_basis acts on the center, ad0_basis is the adjoint of
    g0 on itself; each is a (g0_dim, k, k) stack, (0, k, k) for trivial g0.
    Group elements are n x n arrays with ||g - I|| < radius, where
    0 < radius < inf.  ad_index, rho_index and ad0_index are the exact
    joint nilpotency indices of the ad, rho and ad0 families (None if not
    nilpotent), derived from the extension; they select exp's series."""

    dim: int
    g0_dim: int
    center_dim: int
    chart_radius: float
    ad_basis: np.ndarray
    rho_basis: np.ndarray
    ad0_basis: np.ndarray
    coord_pinv: np.ndarray  # least-squares inverse of the flattened ad basis
    ad_index: int | None
    rho_index: int | None
    ad0_index: int | None

    def __post_init__(self):
        if not 0 < self.chart_radius < np.inf:
            raise ValueError("chart radius must be positive and finite")

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


def _basis_stack(mats, k: int) -> np.ndarray:
    """The exact k x k matrices mats as one float stack (len(mats), k, k)."""
    return np.array([mat.to_numpy() for mat in mats]).reshape(len(mats), k, k)


def chart_from_extension(ext: CentralExtensionData, chart_radius: float = 0.5) -> LocalGroupChart:
    n, d, m = ext.parent.dim, ext.g0_dim, ext.center_dim
    ad_basis = _basis_stack(ext.g0_matrices, n)
    ad0 = [ad_matrix(ext.g0, ext.g0.basis_vector(p)) for p in range(d)]
    pinv = np.linalg.pinv(np.ascontiguousarray(ad_basis.reshape(d, n * n).T))
    return LocalGroupChart(n, d, m, chart_radius, ad_basis, _basis_stack(ext.rho, m),
                           _basis_stack(ad0, d), pinv, joint_nilpotency_index(ext.g0_matrices),
                           joint_nilpotency_index(ext.rho), joint_nilpotency_index(ad0))


@dataclass(frozen=True)
class IntegratorConfig:
    """quad is the Gauss-Legendre rule of iota2's outer integral and of the
    quadrature cross-check (i1, i2 and iota2's inner integral are closed
    forms); fd_step is the step of the finite differences at the unit."""

    quad: QuadratureRule
    fd_step: float = 1e-3

    def __post_init__(self):
        if self.quad.order < 3:
            raise ValueError("quadrature order must be >= 3")
        if not 0 < self.fd_step:
            raise ValueError("fd_step must be positive")


def default_config(quad_order: int = 8, fd_step: float = 1e-3) -> IntegratorConfig:
    return IntegratorConfig(gauss_legendre_01(quad_order), fd_step)


@dataclass(frozen=True, eq=False)
class LocalRackElement:
    """A pair (group element of G0, coefficient vector in the center), or
    a stack of pairs: g of shape (..., n, n) and a of shape (..., m)."""

    g: np.ndarray
    a: np.ndarray


@dataclass(frozen=True, eq=False)
class LocalRackSystem:
    """Everything the integration of one algebra needs: the exact extension
    data and the float chart, from which the rest is derived on first use."""

    ext: CentralExtensionData
    chart: LocalGroupChart

    @property
    def g0_dim(self) -> int:
        return self.chart.g0_dim

    @property
    def center_dim(self) -> int:
        return self.chart.center_dim

    def neutral(self) -> LocalRackElement:
        return LocalRackElement(self.chart.identity(), np.zeros(self.center_dim))

    def with_chart_radius(self, chart_radius: float) -> "LocalRackSystem":
        """The same system on a chart of another radius; no exact work or conversion reruns."""
        wide = replace(self, chart=replace(self.chart, chart_radius=chart_radius))
        vars(wide).update((k, v) for k, v in vars(self).items() if k in ("omega", "lie_omega"))
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


def build_rack_system(ext: CentralExtensionData,
                      chart_radius: float = 0.5) -> LocalRackSystem:
    return LocalRackSystem(ext, chart_from_extension(ext, chart_radius))


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
# cleared in ok instead (``_fail``) and the chart gates stand in the
# identity for them, so what follows runs on every slice without raising.
# ok[i] then ends false exactly where the call on slice i alone raises,
# and the ok slices equal those calls bit for bit.  A mask is only ever
# narrowed, so operations can share one.

def _fail(ok: np.ndarray | None, bad, message: Callable[[int], str]) -> bool:
    """Apply a gate that the slices marked in bad fail: without a mask the
    first of them raises OutOfChartError(message(i)); with one they leave
    ok.  True if any slice failed."""
    if not bad.any():
        return False
    if ok is None:
        raise OutOfChartError(message(int(np.argmax(bad))))
    ok &= ~bad
    return True


def _slices(g: np.ndarray) -> np.ndarray:
    """g as a stack (N, n, n); one element is the stack of one."""
    return g.reshape((-1,) + g.shape[-2:])


def in_chart(chart: LocalGroupChart, g: np.ndarray):
    """||g - I|| < radius for g, or as a bool array for each slice of a
    stack: the one chart gate."""
    return norm1_float(g - chart._gate_identity) < chart.chart_radius


def _chart_gate(chart: LocalGroupChart, g: np.ndarray, what: str,
                ok: np.ndarray | None) -> np.ndarray:
    """g, with the slices outside the chart failed (see ``_fail``) and
    replaced by the identity."""
    bad = np.logical_not(in_chart(chart, g))
    if _fail(ok, bad, lambda i: f"{what}: ||g - I|| = "
             f"{norm1_float(_slices(g)[i] - chart._gate_identity):.4g} "
             f">= chart radius {chart.chart_radius}"):
        return np.where(bad[..., None, None], chart._gate_identity, g)
    return g


def log_coords(chart: LocalGroupChart, g: np.ndarray, ok: np.ndarray | None = None) -> np.ndarray:
    """g0 coordinates of log(g); fails (OutOfChartError) if log(g) does not
    lie in the realized subalgebra (cannot happen for chart-gated input).
    Without a mask, the error raised for a stack is that of the first
    failing slice, a failing log before any residual; with one, failing
    slices have zero coordinates."""
    ell = log_float(g, ok)
    n = chart.dim
    xi = (chart.coord_pinv @ ell.reshape(ell.shape[:-2] + (n * n, 1)))[..., 0]
    resid = np.abs(chart.ad_of(xi) - ell).max(axis=(-2, -1), initial=0.0)
    bad = resid > 1e-7 * (1.0 + np.abs(ell).max(axis=(-2, -1), initial=0.0))
    if _fail(ok, bad, lambda i: f"log(g) leaves the realized g0 "
             f"(residual {np.ravel(resid)[i]:.3g})"):
        xi[bad] = 0.0
    return xi


def group_from_coords(chart: LocalGroupChart, xi) -> np.ndarray:
    return exp_float(chart.ad_of(xi), chart.ad_index)


def group_action(chart: LocalGroupChart, g: np.ndarray,
                 ok: np.ndarray | None = None) -> np.ndarray:
    """phi_g = exp(rho_{log g}), the integrated action of G0 on the center."""
    return _action(chart, log_coords(chart, g, ok))


def _action(chart: LocalGroupChart, xi: np.ndarray) -> np.ndarray:
    """phi_g from the log coordinates xi of g."""
    return exp_float(chart.rho_of(xi), chart.rho_index)


def _gated_log(chart: LocalGroupChart, g: np.ndarray, ok: np.ndarray | None) -> np.ndarray:
    """log_coords of g behind the chart gate, so a stack's slices outside
    the chart are logged as the identity."""
    return log_coords(chart, _chart_gate(chart, g, "group element", ok), ok)


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


def conjugate(chart: LocalGroupChart, g: np.ndarray, h: np.ndarray,
              ok: np.ndarray | None = None) -> np.ndarray:
    """g |> h = g h g^-1, gated so the result stays in the chart (the
    dynamic U_loc gate: every conjugation must land in the neighborhood)."""
    g = _chart_gate(chart, g, "conjugator", ok)
    h = _chart_gate(chart, h, "conjugated element", ok)
    r = g @ h @ group_inverse(g, "conjugator", ok)
    return _chart_gate(chart, r, "conjugation result", ok)


def group_product(chart: LocalGroupChart, g: np.ndarray, h: np.ndarray,
                  ok: np.ndarray | None = None) -> np.ndarray:
    g = _chart_gate(chart, g, "group element", ok)
    h = _chart_gate(chart, h, "group element", ok)
    return _chart_gate(chart, g @ h, "group product", ok)


# ---------------------------------------------------------------------------
# the path integrals
# ---------------------------------------------------------------------------

def _beta_stack(beta, m: int, d: int) -> np.ndarray:
    """beta, a Hom-valued degree-1 cochain or blocks, as a float stack (d, m, d)."""
    if isinstance(beta, Cochain):
        if beta.degree != 1 or beta.domain_dim != d or beta.coeff_dim != m * d:
            raise ValueError("beta must be a degree-1 cochain on g0 valued in the module")
        # Hom(g0, a) is flattened row by row (``cohomology.tau``)
        return beta.to_numpy().reshape(d, m, d)
    b = np.asarray(beta, dtype=float)
    if b.shape != (d, m, d):
        raise ValueError(f"beta stack must be {d} x {m} x {d}")
    return b


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
    chart = sys.chart
    return _integral(chart.rho_of(xi), chart.combo(beta, xi), _vanishing(xi), chart.rho_index,
                     rule, chart.ad0_of(xi), chart.ad0_index)


def _i2(sys: LocalRackSystem, hom: np.ndarray, eta: np.ndarray,
        rule: QuadratureRule | None = None) -> np.ndarray:
    """i2(omega)(g, h) = integral_0^1 exp(t rho_eta) hom(eta) dt from the
    blocks hom = i1(tau omega)(g) and the log coordinates eta of g |> h."""
    chart = sys.chart
    v = matvec(hom, eta)
    return _integral(chart.rho_of(eta), v, _vanishing(v), chart.rho_index, rule)


def i1(sys: LocalRackSystem, beta, g: np.ndarray, ok: np.ndarray | None = None) -> np.ndarray:
    """Path integral of a Leibniz 1-cocycle beta, valued in the symmetric
    module Hom(g0, a), along the canonical path to g, as m x d blocks
    (..., m, d); vanishes at the identity.  beta is a degree-1 cochain or
    its stack (d, m, d) of blocks, such as ``sys.omega`` for tau omega."""
    xi = _gated_log(sys.chart, g, ok)
    return _i1(sys, _beta_stack(beta, sys.center_dim, sys.g0_dim), xi)


def conjugate_and_log(chart: LocalGroupChart, g: np.ndarray, h: np.ndarray,
                      ok: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """(g |> h, xi, eta), with xi and eta the log coordinates of g and of
    g |> h, all that i2(g, h) and g's action need.  The gates run in i2's
    order: the conjugation, g's chart gate and log, the log of g |> h."""
    gh = conjugate(chart, g, h, ok)
    return gh, _gated_log(chart, g, ok), log_coords(chart, gh, ok)


def i2_from_coords(sys: LocalRackSystem, xi: np.ndarray, eta: np.ndarray,
                   rule: QuadratureRule | None = None) -> np.ndarray:
    """i2(omega)(g, h) from the log coordinates xi of g and eta of g |> h;
    with a rule, both path integrals by quadrature, i2's cross-check, exact
    up to rounding when rho is nilpotent and 2 * rule.order exceeds the
    polynomial degree of the integrands."""
    return _i2(sys, _i1(sys, sys.omega, xi, rule), eta, rule)


def i2(sys: LocalRackSystem, g: np.ndarray, h: np.ndarray,
       ok: np.ndarray | None = None) -> np.ndarray:
    """The rack 2-cocycle integrating the extension's omega: the
    equivariant form of i1(tau omega)(g) integrated along the canonical
    path to g |> h."""
    gh = conjugate(sys.chart, g, h, ok)
    return _i2(sys, i1(sys, sys.omega, g, ok), log_coords(sys.chart, gh, ok))


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
    gh, xi, eta = conjugate_and_log(sys.chart, g, v.g, ok)
    a = matvec(_action(sys.chart, xi), v.a) + i2_from_coords(sys, xi, eta)
    return LocalRackElement(gh, a)


def _mixed_difference(chart: LocalGroupChart, cfg: IntegratorConfig,
                      probe: Callable[..., np.ndarray], ok: np.ndarray | None) -> np.ndarray:
    """Central second mixed finite difference of probe(s, t, mask) at
    (0, 0), with step cfg.fd_step; O(fd_step^2).  probe takes its four
    steps at once, as arrays s and t of shape (4,), and returns their
    values as a stack (4, ...).  With a mask ok of the stack shape of the
    directions, mask is one of the probes' stack shape (4,) + ok.shape,
    and ok loses the directions one of whose probes failed; without, mask
    is None."""
    hstep = cfg.fd_step
    if not 0 < hstep < chart.chart_radius / 4:
        raise ValueError("fd_step must lie in (0, chart_radius/4)")
    mask = None if ok is None else np.broadcast_to(ok, (4,) + ok.shape).copy()
    s, t = hstep * np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])
    pp, pm, mp, mm = probe(s, t, mask)
    if ok is not None:
        ok &= mask.all(axis=0)
    return (pp - pm - mp + mm) / (4.0 * hstep * hstep)


def delta2(sys: LocalRackSystem, f: Callable[..., np.ndarray], x, y, cfg: IntegratorConfig,
           ok: np.ndarray | None = None) -> np.ndarray:
    """Differentiate a rack 2-cochain at the unit: central second mixed
    finite difference of (s,t) -> f(exp(s x), exp(t y)); O(fd_step^2).
    x and y are g0 vectors or stacks of them (..., d); f takes stacks of
    group elements, all four steps as one stack (4, ..., n, n).  With a
    mask ok of the directions' stack shape, f is called as f(g, h, mask)
    with a mask of the probes' stack shape, and ok loses the directions one
    of whose probes failed."""
    chart = sys.chart
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def probe(s, t, mask):
        g = group_from_coords(chart, np.multiply.outer(s, x))
        h = group_from_coords(chart, np.multiply.outer(t, y))
        return f(g, h) if mask is None else f(g, h, mask)
    return _mixed_difference(chart, cfg, probe, ok)


def tangent_bracket(sys: LocalRackSystem, u, v, cfg: IntegratorConfig,
                    ok: np.ndarray | None = None) -> np.ndarray:
    """Recover the Leibniz bracket of g0 (+) a from the rack product by a
    second mixed finite difference at (1,0); coordinates are (g0, center).
    u and v are vectors or stacks of them (..., d + m); a mask ok of their
    stack shape loses the pairs one of whose probes left the chart."""
    chart = sys.chart
    d, m = sys.g0_dim, sys.center_dim
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1:] != (d + m,) or v.shape[-1:] != (d + m,):
        raise ValueError("tangent vectors live in g0 (+) a")
    n2 = chart.dim * chart.dim

    def elem(w, s):
        return LocalRackElement(group_from_coords(chart, np.multiply.outer(s, w[..., :d])),
                                np.multiply.outer(s, w[..., d:]))

    def probe(s, t, mask):
        r = rack_product(sys, elem(u, s), elem(v, t), mask)
        return np.concatenate([r.g.reshape(r.g.shape[:-2] + (n2,)), r.a], axis=-1)

    mix = _mixed_difference(chart, cfg, probe, ok)
    # the group-part difference quotient lies in the realized g0 only up to
    # O(h^2), so project without the strict residual gate
    return np.concatenate([matvec(chart.coord_pinv, mix[..., :n2]), mix[..., n2:]], axis=-1)


# ---------------------------------------------------------------------------
# the Lie specialization: iota^2 and the local group product
# ---------------------------------------------------------------------------

def lie_cocycle_defect(ext: CentralExtensionData, omega: Cochain):
    """Exact Chevalley-Eilenberg check of omega with the rho action: the max
    absolute entry of d omega as a Fraction, plus the antisymmetry defect.
    With symmetric coefficients the alternating Leibniz cochains form the
    CE complex (Loday-Pirashvili 1993), so d omega is dL omega over rho
    taken as a symmetric module."""
    anti = max((abs(a + b) for p, q in omega.nonzeros
                for a, b in zip(omega.at(p, q), omega.at(q, p))), default=Fraction(0))
    rep = Representation.symmetric(ext.g0, ext.rho, ext.center_dim)
    worst = max((abs(a) for val in leibniz_differential(rep, omega).nonzeros.values()
                 for a in val), default=Fraction(0))
    return worst, anti


def iota2(sys: LocalRackSystem, g: np.ndarray, h: np.ndarray,
          cfg: IntegratorConfig, ok: np.ndarray | None = None) -> np.ndarray:
    """Group-cocycle integral of an anti-symmetric Lie cocycle over the
    2-chain gamma_{g,h}(t,s) = exp(t log(g exp(s log h))), whose boundary is
    gamma_g - gamma_{gh} + g gamma_h.  The omega integrated is the
    extension's own, checked once per system (``LocalRackSystem.lie_omega``).

    The s-integral takes cfg.quad's rule and the t-integral is closed.  At
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
    chart = sys.chart
    m, d = sys.center_dim, sys.g0_dim
    omega_np = sys.lie_omega
    g = _chart_gate(chart, g, "group element", ok)
    h = _chart_gate(chart, h, "group element", ok)
    _chart_gate(chart, g @ h, "group product", ok)
    shape = np.broadcast_shapes(g.shape[:-2], h.shape[:-2])
    if d == 0:
        return np.zeros(shape + (m,))
    eta_h = log_coords(chart, h, ok)
    big_h = chart.ad_of(eta_h)
    x_index = None if chart.ad_index is None or chart.rho_index is None \
        else chart.ad_index + chart.rho_index

    nodes = np.array(cfg.quad.nodes)
    q = len(nodes)
    node_ok = None if ok is None else np.broadcast_to(ok[..., None], shape + (q,)).copy()
    a = log_coords(chart, g[..., None, :, :] @ exp_float(
        nodes[:, None, None] * big_h[..., None, :, :], chart.ad_index), node_ok)
    if ok is not None:
        ok &= node_ok.all(axis=-1)
    ad_a, rho_a = chart.ad0_of(a), chart.rho_of(a)
    eye = np.broadcast_to(np.eye(d), ad_a.shape)
    aprime = np.linalg.solve(phi1_float(-ad_a, eye, chart.ad_index),
                             eta_h[..., None, :, None])[..., 0]
    x = np.zeros(shape + (q, m + d, m + d))
    x[..., :m, :m] = -rho_a
    x[..., :m, m:] = chart.combo(omega_np, a)
    x[..., m:, m:] = -ad_a
    inner = phi1_float(x, np.concatenate([np.zeros(shape + (q, m)), aprime], axis=-1),
                       x_index)[..., :m]
    values = matvec(exp_float(rho_a, chart.rho_index), inner)
    return integrate_01(cfg.quad, np.moveaxis(values, -2, 0))


def lie_group_product(sys: LocalRackSystem, u: LocalRackElement, v: LocalRackElement,
                      cfg: IntegratorConfig, ok: np.ndarray | None = None) -> LocalRackElement:
    """(g,a)(h,b) = (gh, a + b + iota2(g,h)), the local Lie group structure
    carried by G0 x a when the input algebra is Lie."""
    gh = group_product(sys.chart, u.g, v.g, ok)
    return LocalRackElement(gh, u.a + v.a + iota2(sys, u.g, v.g, cfg, ok))


def lie_group_inverse(sys: LocalRackSystem, u: LocalRackElement,
                      cfg: IntegratorConfig, ok: np.ndarray | None = None) -> LocalRackElement:
    ginv = _chart_gate(sys.chart, group_inverse(u.g, ok=ok), "group inverse", ok)
    return LocalRackElement(ginv, -u.a - iota2(sys, u.g, ginv, cfg, ok))


# ---------------------------------------------------------------------------
# rack cochains and the rack differential
# ---------------------------------------------------------------------------
#
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
        """phi_{x,y} = action(x), psi_{x,y} = id - action(x |> y).  No
        production path builds one: ``cocycle_suite`` checks i2 in the
        anti-symmetric module, expanded over the rack operations.  It is
        kept as the module in which i1 is a rack 1-cocycle, and the one on
        which the two sign conventions of the psi term differ, so it is
        what the tests pinning
        ``rack_differential_eval`` against ``rack_differential_general``
        run on."""
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
