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
path differentiation.  Both integrands then have the form exp(sA) v, so
each integral is phi1(A) v (``linalg.phi1_float``), in closed form:
i1 = phi1(gen_xi) B xi and i2 = phi1(rho_eta) (H eta).  Gauss-Legendre
quadrature of the same integrands (``i2_quadrature``) is kept as their
independent cross-check, and the tests keep a finite-difference evaluator
along an arbitrary path as an independent check of i1.

For Lie input, the group 2-cocycle iota2 is a double integral over a
2-chain.  Its inner integral is phi1 of a block-triangular matrix, in
closed form too, so the configured Gauss-Legendre rule (IntegratorConfig.quad)
drives only iota2's outer integral and the quadrature cross-check.

Exact decisions are made once per system.  When it is built: the joint
nilpotency index of the ad, rho and Hom(g0, a) generator families (the
float exp and phi1 of any element of a nilpotent family are finite series;
other families go to scipy).  On the first iota2 call: the Lie-cocycle
check of the extension's omega.

The local rack product on G0 x a is then

    (g, a) |> (h, b) = (g h g^-1, g.b + i2(omega)(g, h)),

with neutral element (1, 0), and the projection to the first factor makes it
a local augmented rack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .algebra import CentralExtensionData, bracket
from .cohomology import Cochain, hom_representation, tau
from .linalg import (
    OutOfChartError,
    QuadratureRule,
    exp_float,
    gauss_legendre_01,
    integrate_01,
    joint_nilpotency_index,
    log_float,
    norm1_float,
    phi1_float,
)


class NotLieCocycleError(ValueError):
    """iota2 was fed a cochain that is not an anti-symmetric Lie cocycle."""


# ---------------------------------------------------------------------------
# chart and configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalGroupChart:
    """Matrix chart for G0 inside Aut(g): the span of ad_basis is the
    realized g0, rho_basis acts on the center, ad0_basis is the adjoint of
    g0 on itself.  Group elements are n x n arrays with ||g - I|| < radius.
    ad_index and rho_index are the exact joint nilpotency indices of the ad
    and rho families (None if not nilpotent); they select exp's series."""

    dim: int
    g0_dim: int
    center_dim: int
    chart_radius: float
    ad_basis: tuple[np.ndarray, ...]
    rho_basis: tuple[np.ndarray, ...]
    ad0_basis: tuple[np.ndarray, ...]
    coord_pinv: np.ndarray  # least-squares inverse of the flattened ad basis
    ad_index: int | None
    rho_index: int | None

    def identity(self) -> np.ndarray:
        return np.eye(self.dim)

    def combo(self, basis, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        shape = basis[0].shape if basis else (0, 0)
        acc = np.zeros(shape)
        for c, b in zip(xi, basis, strict=True):
            acc = acc + c * b
        return acc

    def ad_of(self, xi) -> np.ndarray:
        m = self.combo(self.ad_basis, xi)
        return m if self.g0_dim else np.zeros((self.dim, self.dim))

    def rho_of(self, xi) -> np.ndarray:
        m = self.combo(self.rho_basis, xi)
        return m if self.g0_dim else np.zeros((self.center_dim, self.center_dim))

    def ad0_of(self, xi) -> np.ndarray:
        return self.combo(self.ad0_basis, xi)


def chart_from_extension(ext: CentralExtensionData, chart_radius: float = 0.5) -> LocalGroupChart:
    if not 0 < chart_radius < np.inf:
        raise ValueError("chart radius must be positive and finite")
    n, d, m = ext.parent.dim, ext.g0_dim, ext.center_dim
    ad_basis = tuple(mat.to_numpy() for mat in ext.g0_matrices)
    rho_basis = tuple(mat.to_numpy() for mat in ext.rho)
    ad0_basis = tuple(
        np.array([[float(ext.g0.c[p][q][r]) for q in range(d)] for r in range(d)])
        for p in range(d))
    flat = np.stack([b.flatten() for b in ad_basis], axis=1) if d else np.zeros((n * n, 0))
    pinv = np.linalg.pinv(flat)
    return LocalGroupChart(n, d, m, chart_radius, ad_basis, rho_basis, ad0_basis, pinv,
                           joint_nilpotency_index(ext.g0_matrices),
                           joint_nilpotency_index(ext.rho))


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
    """A pair (group element of G0, coefficient vector in the center)."""

    g: np.ndarray
    a: np.ndarray


@dataclass(frozen=True)
class SymmetricModule:
    """A symmetric coefficient module presented infinitesimally: one carrier
    action matrix per g0 basis element; the group acts through exp.  index
    is the generators' exact joint nilpotency index; None (not nilpotent,
    or not known for a module built by hand) sends exp to scipy."""

    dim: int
    generators: tuple[np.ndarray, ...]
    index: int | None = None


@dataclass(frozen=True)
class LocalRackSystem:
    """Everything the integration of one algebra needs: the exact extension
    data, the float chart, the Hom(g0, a) module, and tau^2(omega) as a
    (center_dim * g0_dim) x g0_dim matrix."""

    ext: CentralExtensionData
    chart: LocalGroupChart
    hom_module: SymmetricModule
    tau_matrix: np.ndarray

    @property
    def g0_dim(self) -> int:
        return self.chart.g0_dim

    @property
    def center_dim(self) -> int:
        return self.chart.center_dim

    def neutral(self) -> LocalRackElement:
        return LocalRackElement(self.chart.identity(), np.zeros(self.center_dim))

    def with_chart_radius(self, chart_radius: float) -> "LocalRackSystem":
        """The same system on a chart of another radius, without redoing
        any exact work."""
        if not 0 < chart_radius < np.inf:
            raise ValueError("chart radius must be positive and finite")
        return replace(self, chart=replace(self.chart, chart_radius=chart_radius))

    @cached_property
    def lie_omega(self) -> np.ndarray:
        """The extension's omega as a (d, d, m) array, checked once to be an
        anti-symmetric Lie cocycle (NotLieCocycleError otherwise)."""
        return _checked_lie_omega(self.ext, self.ext.omega)


def _tau_matrix(omega: Cochain) -> np.ndarray:
    """Columns are the flattened Hom(g0, a) values of tau(omega) on basis
    elements; shape (m*d, d)."""
    t = tau(omega)
    d, q = t.domain_dim, t.coeff_dim
    if d == 0:
        return np.zeros((0, 0))
    return np.stack([np.array([float(v) for v in t.at(p)]) for p in range(d)], axis=1)


def build_rack_system(ext: CentralExtensionData,
                      chart_radius: float = 0.5) -> LocalRackSystem:
    chart = chart_from_extension(ext, chart_radius)
    d, m = ext.g0_dim, ext.center_dim
    hom_left = hom_representation(ext.rep).left if d else ()
    hom_mod = SymmetricModule(m * d, tuple(mat.to_numpy() for mat in hom_left),
                              joint_nilpotency_index(hom_left))
    return LocalRackSystem(ext, chart, hom_mod, _tau_matrix(ext.omega))


# ---------------------------------------------------------------------------
# chart operations
# ---------------------------------------------------------------------------

def in_chart(chart: LocalGroupChart, g: np.ndarray) -> bool:
    return norm1_float(g - chart.identity()) < chart.chart_radius


def require_in_chart(chart: LocalGroupChart, g: np.ndarray, what: str = "group element"):
    if not in_chart(chart, g):
        raise OutOfChartError(
            f"{what}: ||g - I|| = {norm1_float(g - chart.identity()):.4g} "
            f">= chart radius {chart.chart_radius}")


def log_coords(chart: LocalGroupChart, g: np.ndarray) -> np.ndarray:
    """g0 coordinates of log(g); raises OutOfChartError if log(g) does not
    lie in the realized subalgebra (cannot happen for chart-gated input)."""
    ell = log_float(g)
    xi = chart.coord_pinv @ ell.flatten()
    resid = np.abs(chart.ad_of(xi) - ell).max() if ell.size else 0.0
    if resid > 1e-7 * (1.0 + np.abs(ell).max()):
        raise OutOfChartError(f"log(g) leaves the realized g0 (residual {resid:.3g})")
    return xi


def group_from_coords(chart: LocalGroupChart, xi) -> np.ndarray:
    return exp_float(chart.ad_of(xi), chart.ad_index)


def group_action(chart: LocalGroupChart, g: np.ndarray) -> np.ndarray:
    """phi_g = exp(rho_{log g}), the integrated action of G0 on the center."""
    return exp_float(chart.rho_of(log_coords(chart, g)), chart.rho_index)


def canonical_path(chart: LocalGroupChart, g: np.ndarray, s: float) -> np.ndarray:
    """gamma_g(s) = exp(s log g); s=0 is the identity, s=1 is g."""
    require_in_chart(chart, g)
    return exp_float(s * log_float(g))


def group_inverse(g: np.ndarray, what: str = "group element") -> np.ndarray:
    """g^-1; OutOfChartError if g is singular in floating point, which an
    element of a non-unipotent G0 far from the identity can be."""
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError:
        raise OutOfChartError(f"{what}: singular in floating point") from None


def conjugate(chart: LocalGroupChart, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """g |> h = g h g^-1, gated so the result stays in the chart (the
    dynamic U_loc gate: every conjugation must land in the neighborhood)."""
    require_in_chart(chart, g, "conjugator")
    require_in_chart(chart, h, "conjugated element")
    r = g @ h @ group_inverse(g, "conjugator")
    require_in_chart(chart, r, "conjugation result")
    return r


def group_product(chart: LocalGroupChart, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    require_in_chart(chart, g)
    require_in_chart(chart, h)
    r = g @ h
    require_in_chart(chart, r, "group product")
    return r


# ---------------------------------------------------------------------------
# the path integrals
# ---------------------------------------------------------------------------

def _beta_matrix(beta, q: int, d: int) -> np.ndarray:
    if isinstance(beta, Cochain):
        if beta.degree != 1 or beta.domain_dim != d or beta.coeff_dim != q:
            raise ValueError("beta must be a degree-1 cochain on g0 valued in the module")
        return np.stack([np.array([float(v) for v in beta.at(p)]) for p in range(d)],
                        axis=1) if d else np.zeros((q, 0))
    b = np.asarray(beta, dtype=float)
    if b.shape != (q, d):
        raise ValueError(f"beta matrix must be {q} x {d}")
    return b


def _i1_integrand(sys: LocalRackSystem, beta,
                  g: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(gen, bx) with i1(beta)(g) = integral_0^1 exp(s gen) bx ds; None
    where i1 vanishes (trivial g0 or g the identity)."""
    chart, module = sys.chart, sys.hom_module
    require_in_chart(chart, g)
    d = chart.g0_dim
    bmat = _beta_matrix(beta, module.dim, d)
    xi = log_coords(chart, g)
    if d == 0 or not np.abs(xi).max():
        return None
    gen = chart.combo(module.generators, xi) if module.generators \
        else np.zeros((module.dim, module.dim))
    return gen, bmat @ xi


def _i2_integrand(sys: LocalRackSystem, g: np.ndarray, h: np.ndarray,
                  hom_i1: Callable[[], np.ndarray]
                  ) -> tuple[np.ndarray, np.ndarray] | None:
    """(rho_eta, v) with i2(omega)(g, h) = integral_0^1 exp(t rho_eta) v dt,
    where eta = log(g |> h) and v = i1(tau omega)(g) eta; hom_i1()
    evaluates i1(tau omega) at g.  None where i2 vanishes."""
    chart = sys.chart
    m, d = sys.center_dim, sys.g0_dim
    gh = conjugate(chart, g, h)
    if d == 0:
        return None
    hom_value = hom_i1().reshape(m, d)
    eta = log_coords(chart, gh)
    v = hom_value @ eta
    if v.size == 0 or not np.abs(v).max():
        return None
    return chart.rho_of(eta), v


def i1(sys: LocalRackSystem, beta, g: np.ndarray) -> np.ndarray:
    """Path integral of a Leibniz 1-cocycle beta, valued in the symmetric
    module Hom(g0, a) (``sys.hom_module``), along the canonical path to g;
    vanishes at the identity.  beta is a degree-1 cochain or its
    (m*d) x d matrix, such as ``sys.tau_matrix``."""
    module = sys.hom_module
    data = _i1_integrand(sys, beta, g)
    return np.zeros(module.dim) if data is None else phi1_float(*data, module.index)


def i2(sys: LocalRackSystem, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The rack 2-cocycle integrating the extension's omega: the
    equivariant form of i1(tau omega)(g) integrated along the canonical
    path to g |> h."""
    data = _i2_integrand(sys, g, h, lambda: i1(sys, sys.tau_matrix, g))
    return np.zeros(sys.center_dim) if data is None \
        else phi1_float(*data, sys.chart.rho_index)


def _quadrature(rule: QuadratureRule, data, dim: int, index: int | None) -> np.ndarray:
    """integral_0^1 exp(s a) v ds for data = (a, v) by Gauss-Legendre
    quadrature; zeros(dim) for data None."""
    if data is None:
        return np.zeros(dim)
    a, v = data
    return integrate_01(rule, lambda s: exp_float(s * a, index) @ v)


def i2_quadrature(sys: LocalRackSystem, g: np.ndarray, h: np.ndarray,
                  rule: QuadratureRule) -> np.ndarray:
    """i2 with both path integrals, i1's and the outer one, taken by
    Gauss-Legendre quadrature at rule instead of phi1: the independent
    cross-check of i2.  Exact up to rounding when rho is nilpotent and
    2 * rule.order exceeds the polynomial degree of the integrands."""
    hom = sys.hom_module
    data = _i2_integrand(
        sys, g, h,
        lambda: _quadrature(rule, _i1_integrand(sys, sys.tau_matrix, g), hom.dim, hom.index))
    return _quadrature(rule, data, sys.center_dim, sys.chart.rho_index)


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
    (1,0) is a fixed point and rho(g, rho(h, w)) = rho(gh, w) in-chart."""
    gh = conjugate(sys.chart, g, v.g)
    a = group_action(sys.chart, g) @ v.a + i2(sys, g, v.g)
    return LocalRackElement(gh, a)


def ghost_identity_defect(sys: LocalRackSystem, g, h, k) -> np.ndarray:
    """g.f(h,k) - f(gh,k) + f(g,h|>k) for f = i2; zero for cocycles.
    Note gh is the group product, not a conjugation."""
    gh = group_product(sys.chart, g, h)
    hk = conjugate(sys.chart, h, k)
    return (group_action(sys.chart, g) @ i2(sys, h, k)
            - i2(sys, gh, k) + i2(sys, g, hk))


def delta2(sys: LocalRackSystem, f: Callable[[np.ndarray, np.ndarray], np.ndarray],
           x, y, cfg: IntegratorConfig) -> np.ndarray:
    """Differentiate a rack 2-cochain at the unit: central second mixed
    finite difference of (s,t) -> f(exp(s x), exp(t y)); O(fd_step^2)."""
    chart = sys.chart
    hstep = cfg.fd_step
    if not 0 < hstep < chart.chart_radius / 4:
        raise ValueError("fd_step must lie in (0, chart_radius/4)")
    x = np.asarray([float(c) for c in x])
    y = np.asarray([float(c) for c in y])

    def probe(s, t):
        return f(group_from_coords(chart, s * x), group_from_coords(chart, t * y))
    return (probe(hstep, hstep) - probe(hstep, -hstep)
            - probe(-hstep, hstep) + probe(-hstep, -hstep)) / (4.0 * hstep * hstep)


def tangent_bracket(sys: LocalRackSystem, u, v, cfg: IntegratorConfig) -> np.ndarray:
    """Recover the Leibniz bracket of g0 (+) a from the rack product by a
    second mixed finite difference at (1,0); coordinates are (g0, center)."""
    chart = sys.chart
    d, m = sys.g0_dim, sys.center_dim
    hstep = cfg.fd_step
    if not 0 < hstep < chart.chart_radius / 4:
        raise ValueError("fd_step must lie in (0, chart_radius/4)")
    u = np.asarray([float(c) for c in u])
    v = np.asarray([float(c) for c in v])
    if u.shape != (d + m,) or v.shape != (d + m,):
        raise ValueError("tangent vectors live in g0 (+) a")

    def elem(w, s):
        return LocalRackElement(group_from_coords(chart, s * w[:d]), s * w[d:])

    def probe(s, t):
        r = rack_product(sys, elem(u, s), elem(v, t))
        return r.g, r.a

    gpp, app = probe(hstep, hstep)
    gpm, apm = probe(hstep, -hstep)
    gmp, amp = probe(-hstep, hstep)
    gmm, amm = probe(-hstep, -hstep)
    scale = 4.0 * hstep * hstep
    gmix = (gpp - gpm - gmp + gmm) / scale
    amix = (app - apm - amp + amm) / scale
    # the group-part difference quotient lies in the realized g0 only up to
    # O(h^2), so project without the strict residual gate
    xi = chart.coord_pinv @ gmix.flatten()
    return np.concatenate([xi, amix])


# ---------------------------------------------------------------------------
# the Lie specialization: iota^2 and the local group product
# ---------------------------------------------------------------------------

def lie_cocycle_defect(ext: CentralExtensionData, omega: Cochain):
    """Exact Chevalley-Eilenberg 3-cochain d omega (with the rho action);
    returns the max absolute entry as a Fraction, plus antisymmetry defect."""
    from fractions import Fraction
    g0, rep = ext.g0, ext.rep
    d = g0.dim
    anti = Fraction(0)
    for p in range(d):
        for q in range(d):
            for k, (a, b) in enumerate(zip(omega.at(p, q), omega.at(q, p))):
                anti = max(anti, abs(a + b))
    worst = Fraction(0)
    for p in range(d):
        for q in range(d):
            for r in range(d):
                ep, eq, er = (g0.basis_vector(i) for i in (p, q, r))
                val = list(rep.left_of(ep).mat_vec(omega.evaluate(eq, er)))
                for k, c in enumerate(rep.left_of(eq).mat_vec(omega.evaluate(ep, er))):
                    val[k] -= c
                for k, c in enumerate(rep.left_of(er).mat_vec(omega.evaluate(ep, eq))):
                    val[k] += c
                for k, c in enumerate(omega.evaluate(bracket(g0, ep, eq), er)):
                    val[k] -= c
                for k, c in enumerate(omega.evaluate(bracket(g0, ep, er), eq)):
                    val[k] += c
                for k, c in enumerate(omega.evaluate(bracket(g0, eq, er), ep)):
                    val[k] -= c
                worst = max(worst, max((abs(c) for c in val), default=Fraction(0)))
    return worst, anti


def _checked_lie_omega(ext: CentralExtensionData, omega: Cochain) -> np.ndarray:
    """omega as a (d, d, m) array, after the exact Lie-cocycle check."""
    cocycle, anti = lie_cocycle_defect(ext, omega)
    if anti != 0:
        raise NotLieCocycleError("omega is not anti-symmetric")
    if cocycle != 0:
        raise NotLieCocycleError("omega fails the Lie cocycle identity")
    return omega.to_numpy()


def iota2(sys: LocalRackSystem, g: np.ndarray, h: np.ndarray,
          cfg: IntegratorConfig, omega: Cochain | None = None) -> np.ndarray:
    """Group-cocycle integral of an anti-symmetric Lie cocycle over the
    2-chain gamma_{g,h}(t,s) = exp(t log(g exp(s log h))), whose boundary is
    gamma_g - gamma_{gh} + g gamma_h.  The extension's own omega is checked
    once per system; an explicit omega is checked on every call.

    The s-integral takes cfg.quad's rule and the t-integral is closed.  At
    a = log(g exp(s log h)), with A = ad0(a), R = rho(a) and
    Omega = omega(a, -), the chain's left-logarithmic s-derivative is
    w_t = int_0^t exp(-uA) a' du, where phi1(-A) a' = log h, and
    int_0^1 exp(tR) Omega w_t dt is exp(R) times the center part of
    phi1(X) (0, a') with X = [[-R, Omega], [0, -A]] (Van Loan 1978).  ad0
    is the quotient of the ad family on g0 = g / Z_L and X is block
    triangular, so ad_index and ad_index + rho_index bound their
    nilpotency indices."""
    chart = sys.chart
    m, d = sys.center_dim, sys.g0_dim
    omega_np = sys.lie_omega if omega is None else _checked_lie_omega(sys.ext, omega)
    require_in_chart(chart, g)
    require_in_chart(chart, h)
    require_in_chart(chart, g @ h, "group product")
    if d == 0:
        return np.zeros(m)
    eta_h = log_coords(chart, h)
    big_h = chart.ad_of(eta_h)
    x_index = None if chart.ad_index is None or chart.rho_index is None \
        else chart.ad_index + chart.rho_index

    total = np.zeros(m)
    for s, ws in zip(cfg.quad.nodes, cfg.quad.weights):
        a_s = log_coords(chart, g @ exp_float(s * big_h, chart.ad_index))
        ad_a, rho_a = chart.ad0_of(a_s), chart.rho_of(a_s)
        aprime = np.linalg.solve(phi1_float(-ad_a, np.eye(d), chart.ad_index), eta_h)
        x = np.block([[-rho_a, np.einsum("p,pqk->kq", a_s, omega_np)],
                      [np.zeros((d, m)), -ad_a]])
        inner = phi1_float(x, np.concatenate([np.zeros(m), aprime]), x_index)[:m]
        total = total + ws * (exp_float(rho_a, chart.rho_index) @ inner)
    return total


def lie_group_product(sys: LocalRackSystem, u: LocalRackElement, v: LocalRackElement,
                      cfg: IntegratorConfig) -> LocalRackElement:
    """(g,a)(h,b) = (gh, a + b + iota2(g,h)), the local Lie group structure
    carried by G0 x a when the input algebra is Lie."""
    gh = group_product(sys.chart, u.g, v.g)
    return LocalRackElement(gh, u.a + v.a + iota2(sys, u.g, v.g, cfg))


def lie_group_inverse(sys: LocalRackSystem, u: LocalRackElement,
                      cfg: IntegratorConfig) -> LocalRackElement:
    ginv = group_inverse(u.g)
    require_in_chart(sys.chart, ginv, "group inverse")
    return LocalRackElement(ginv, -u.a - iota2(sys, u.g, ginv, cfg))
