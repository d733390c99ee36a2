"""Seeded sampling harnesses for the local rack invariants.

Each suite returns ``PropertyResult`` records (max defect, tolerance,
sample/skip counts).  Sampling is deterministic in the seed; points that
leave the local domain raise OutOfChartError inside the operations and are
counted as skips, never crashes.  Defects are accumulated with ``nan_max``,
so a NaN or infinite defect reaches the report and fails its property.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import bracket, is_lie
from .cohomology import RackCochainFn, RackModuleStructure, rack_diff2_expansion
from .linalg import OutOfChartError, gauss_legendre_01
from .rack import (
    IntegratorConfig,
    LocalRackElement,
    LocalRackSystem,
    augmented_action,
    conjugate,
    delta2,
    ghost_identity_defect,
    group_action,
    group_from_coords,
    group_product,
    i2,
    i2_quadrature,
    iota2,
    lie_group_inverse,
    lie_group_product,
    rack_product,
    tangent_bracket,
)


@dataclass
class PropertyResult:
    name: str
    max_defect: float
    tolerance: float
    samples: int
    skipped: int

    @property
    def passed(self) -> bool:
        return self.max_defect <= self.tolerance

    def as_dict(self) -> dict:
        return {"name": self.name, "max_defect": self.max_defect,
                "tolerance": self.tolerance, "samples": self.samples,
                "skipped": self.skipped, "pass": bool(self.passed)}


def nan_max(*values: float) -> float:
    """The largest value, NaN if any is NaN.  The builtin max keeps its
    first argument when a later one is NaN, which would let a NaN defect
    pass as the defect before it."""
    return float(np.max(values))


def sup_norm(x: np.ndarray) -> float:
    """max |x_i| (NaN if an entry is NaN); 0 for an empty array."""
    return float(np.abs(x).max()) if x.size else 0.0


def elem_distance(u: LocalRackElement, v: LocalRackElement) -> float:
    return nan_max(sup_norm(u.g - v.g), sup_norm(u.a - v.a))


def sample_group_element(sys: LocalRackSystem, rng, max_norm: float) -> np.ndarray:
    """Group element with ||g - I|| < max_norm, by halving a random
    coordinate draw until it fits.  The loop ends: a draw that reaches zero
    gives g = I."""
    chart = sys.chart
    if chart.g0_dim == 0:
        return chart.identity()
    xi = rng.uniform(-1.0, 1.0, size=chart.g0_dim) * max_norm
    while True:
        g = group_from_coords(chart, xi)
        if np.abs(g - chart.identity()).sum(axis=0).max() < max_norm:
            return g
        xi = xi * 0.5


def sample_rack_element(sys: LocalRackSystem, rng, max_norm: float,
                        center_scale: float = 0.25) -> LocalRackElement:
    g = sample_group_element(sys, rng, max_norm)
    a = rng.uniform(-1.0, 1.0, size=sys.center_dim) * center_scale
    return LocalRackElement(g, a)


def _i2_cochain(sys) -> RackCochainFn:
    return RackCochainFn(2, lambda g, h: i2(sys, g, h))


def _anti_module(sys) -> RackModuleStructure:
    return RackModuleStructure.anti_symmetric(
        sys.center_dim, lambda g: group_action(sys.chart, g))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def rack_axiom_suite(sys: LocalRackSystem, cfg: IntegratorConfig,
                     n_samples: int = 200, seed: int = 0) -> list[PropertyResult]:
    """Self-distributivity, pointedness and injectivity-on-samples for the
    product (g,a) |> (h,b)."""
    rng = np.random.default_rng(seed)
    max_norm = sys.chart.chart_radius / 4.0
    neutral = sys.neutral()

    sd_defect = point_defect = 0.0
    sd_skip = point_skip = 0
    elems = [sample_rack_element(sys, rng, max_norm) for _ in range(3 * n_samples)]
    for i in range(n_samples):
        u, v, w = elems[3 * i], elems[3 * i + 1], elems[3 * i + 2]
        try:
            lhs = rack_product(sys, u, rack_product(sys, v, w))
            uv = rack_product(sys, u, v)
            uw = rack_product(sys, u, w)
            rhs = rack_product(sys, uv, uw)
            sd_defect = nan_max(sd_defect, elem_distance(lhs, rhs))
        except OutOfChartError:
            sd_skip += 1
        try:
            point_defect = nan_max(point_defect,
                                   elem_distance(rack_product(sys, u, neutral), neutral),
                                   elem_distance(rack_product(sys, neutral, v), v))
        except OutOfChartError:
            point_skip += 1

    # left translation by a fixed u separates separated inputs
    inj_defect = 0.0
    u = elems[0]
    vs = elems[1:n_samples + 1]
    outs = []
    inj_skip = 0
    for v in vs:
        try:
            outs.append((v, rack_product(sys, u, v)))
        except OutOfChartError:
            inj_skip += 1
    for i in range(len(outs)):
        for j in range(i + 1, len(outs)):
            if elem_distance(outs[i][0], outs[j][0]) > 1e-6 and \
                    elem_distance(outs[i][1], outs[j][1]) <= 1e-12:
                inj_defect = 1.0

    return [
        PropertyResult("self_distributivity", sd_defect, 1e-9, n_samples, sd_skip),
        PropertyResult("pointedness", point_defect, 1e-12, n_samples, point_skip),
        PropertyResult("injectivity_on_samples", inj_defect, 1e-9, len(outs), inj_skip),
    ]


def cocycle_suite(sys: LocalRackSystem, cfg: IntegratorConfig,
                  n_triples: int = 100, seed: int = 1) -> list[PropertyResult]:
    """Rack-cocycle identity of i2 (normative arity-2 expansion), the
    stronger identity g.f(h,k) - f(gh,k) + f(g,h|>k) = 0, and the relation
    d_R f(g,h,k) = b(f)(g,h,k) - b(f)(g|>h,g,k) between them."""
    rng = np.random.default_rng(seed)
    max_norm = sys.chart.chart_radius / 8.0
    f = _i2_cochain(sys)
    mod = _anti_module(sys)

    dr_def = ghost_def = rel_def = 0.0
    skips = 0
    for _ in range(n_triples):
        g = sample_group_element(sys, rng, max_norm)
        h = sample_group_element(sys, rng, max_norm)
        k = sample_group_element(sys, rng, max_norm)
        try:
            dr = rack_diff2_expansion(mod, f, g, h, k,
                                      lambda x, y: conjugate(sys.chart, x, y))
            ghost = ghost_identity_defect(sys, g, h, k)
            gh = conjugate(sys.chart, g, h)
            ghost_shift = ghost_identity_defect(sys, gh, g, k)
            dr_def = nan_max(dr_def, sup_norm(dr))
            ghost_def = nan_max(ghost_def, sup_norm(ghost))
            rel_def = nan_max(rel_def, sup_norm(dr - (ghost - ghost_shift)))
        except OutOfChartError:
            skips += 1

    return [
        PropertyResult("rack_cocycle_identity", dr_def, 1e-9, n_triples, skips),
        PropertyResult("ghost_identity", ghost_def, 1e-9, n_triples, skips),
        PropertyResult("ghost_induces_cocycle", rel_def, 2e-9, n_triples, skips),
    ]


def roundtrip_suite(sys: LocalRackSystem, cfg: IntegratorConfig) -> list[PropertyResult]:
    """delta2 of the integrated cocycle recovers omega on all basis pairs."""
    d = sys.g0_dim
    omega_np = sys.ext.omega.to_numpy() if d else np.zeros((0, 0, sys.center_dim))
    f = lambda g, h: i2(sys, g, h)
    worst = 0.0
    for p in range(d):
        for q in range(d):
            x = np.eye(d)[p]
            y = np.eye(d)[q]
            got = delta2(sys, f, x, y, cfg)
            worst = nan_max(worst, sup_norm(got - omega_np[p, q]))
    return [PropertyResult("delta2_left_inverse", worst, 1e-5, d * d, 0)]


def tangent_suite(sys: LocalRackSystem, cfg: IntegratorConfig) -> list[PropertyResult]:
    """The rack product differentiates back to the parent bracket on all
    basis pairs, through the splitting g = g0 (+) center."""
    ext = sys.ext
    n = ext.parent.dim
    worst = 0.0
    def split_coords(v):
        x, a = ext.split(v)
        return np.array([float(c) for c in (*x, *a)])

    for i in range(n):
        for j in range(n):
            ei, ej = ext.parent.basis_vector(i), ext.parent.basis_vector(j)
            got = tangent_bracket(sys, split_coords(ei), split_coords(ej), cfg)
            want = split_coords(bracket(ext.parent, ei, ej))
            worst = nan_max(worst, sup_norm(got - want))
    return [PropertyResult("tangent_bracket_roundtrip", worst, 1e-4, n * n, 0)]


def lie_specialization_suite(sys: LocalRackSystem, cfg: IntegratorConfig,
                             n_samples: int = 50, seed: int = 2) -> list[PropertyResult]:
    """For Lie input: the group product (g,a)(h,b) = (gh, a+b+iota2(g,h)) is
    associative, its conjugation equals the rack product, and
    i2(g,h) = iota2(g,h) - iota2(g|>h, g)."""
    if not is_lie(sys.ext.parent):
        raise ValueError("the Lie specialization needs a Lie algebra input")
    rng = np.random.default_rng(seed)
    max_norm = sys.chart.chart_radius / 8.0

    assoc_def = conj_def = rel_def = 0.0
    skips = 0
    for _ in range(n_samples):
        u = sample_rack_element(sys, rng, max_norm)
        v = sample_rack_element(sys, rng, max_norm)
        w = sample_rack_element(sys, rng, max_norm)
        try:
            uv_w = lie_group_product(sys, lie_group_product(sys, u, v, cfg), w, cfg)
            u_vw = lie_group_product(sys, u, lie_group_product(sys, v, w, cfg), cfg)
            assoc_def = nan_max(assoc_def, elem_distance(uv_w, u_vw))

            uinv = lie_group_inverse(sys, u, cfg)
            conj = lie_group_product(sys, lie_group_product(sys, u, v, cfg), uinv, cfg)
            rp = rack_product(sys, u, v)
            conj_def = nan_max(conj_def, elem_distance(conj, rp))

            gh = conjugate(sys.chart, u.g, v.g)
            lhs = i2(sys, u.g, v.g)
            rhs = iota2(sys, u.g, v.g, cfg) - iota2(sys, gh, u.g, cfg)
            rel_def = nan_max(rel_def, sup_norm(lhs - rhs))
        except OutOfChartError:
            skips += 1

    return [
        PropertyResult("lie_group_associativity", assoc_def, 1e-9, n_samples, skips),
        PropertyResult("lie_conjugation_equals_rack", conj_def, 1e-9, n_samples, skips),
        PropertyResult("i2_from_iota2", rel_def, 1e-9, n_samples, skips),
    ]


def augmented_action_suite(sys: LocalRackSystem, cfg: IntegratorConfig,
                           n_samples: int = 50, seed: int = 3) -> list[PropertyResult]:
    """The G0-action axioms of the augmented structure: unit action, fixed
    point (1,0), and compatibility rho(g, rho(h, w)) = rho(gh, w)."""
    rng = np.random.default_rng(seed)
    max_norm = sys.chart.chart_radius / 8.0
    neutral = sys.neutral()
    ident = sys.chart.identity()

    unit_def = fix_def = compat_def = 0.0
    skips = 0
    for _ in range(n_samples):
        g = sample_group_element(sys, rng, max_norm)
        h = sample_group_element(sys, rng, max_norm)
        w = sample_rack_element(sys, rng, max_norm)
        try:
            unit_def = nan_max(unit_def,
                               elem_distance(augmented_action(sys, ident, w), w))
            fix_def = nan_max(fix_def,
                              elem_distance(augmented_action(sys, g, neutral), neutral))
            lhs = augmented_action(sys, g, augmented_action(sys, h, w))
            rhs = augmented_action(sys, group_product(sys.chart, g, h), w)
            compat_def = nan_max(compat_def, elem_distance(lhs, rhs))
        except OutOfChartError:
            skips += 1

    return [
        PropertyResult("action_unit", unit_def, 1e-12, n_samples, skips),
        PropertyResult("action_fixed_point", fix_def, 1e-12, n_samples, skips),
        PropertyResult("action_compatibility", compat_def, 1e-9, n_samples, skips),
    ]


def quadrature_stability_suite(sys: LocalRackSystem, cfg: IntegratorConfig,
                               n_pairs: int = 20, seed: int = 4) -> list[PropertyResult]:
    """Doubling the order of i2's quadrature cross-check (``i2_quadrature``)
    must not move it: the integrands are polynomial when rho is nilpotent."""
    rng = np.random.default_rng(seed)
    max_norm = sys.chart.chart_radius / 4.0
    fine = gauss_legendre_01(2 * cfg.quad.order)
    worst = 0.0
    skips = 0
    for _ in range(n_pairs):
        g = sample_group_element(sys, rng, max_norm)
        h = sample_group_element(sys, rng, max_norm)
        try:
            a = i2_quadrature(sys, g, h, cfg.quad)
            b = i2_quadrature(sys, g, h, fine)
            worst = nan_max(worst, sup_norm(a - b))
        except OutOfChartError:
            skips += 1
    return [PropertyResult("quadrature_order_stability", worst, 1e-12, n_pairs, skips)]


def full_suite(sys: LocalRackSystem, cfg: IntegratorConfig, n_samples: int = 200,
               seed: int = 0) -> list[PropertyResult]:
    """Everything the integrate command reports."""
    results = []
    results += rack_axiom_suite(sys, cfg, n_samples, seed)
    results += cocycle_suite(sys, cfg, max(10, n_samples // 2), seed + 1)
    results += augmented_action_suite(sys, cfg, max(10, n_samples // 4), seed + 2)
    results += roundtrip_suite(sys, cfg)
    results += tangent_suite(sys, cfg)
    results += quadrature_stability_suite(sys, cfg, min(20, n_samples), seed + 3)
    if is_lie(sys.ext.parent):
        results += lie_specialization_suite(sys, cfg, max(10, n_samples // 4), seed + 4)
    return results
