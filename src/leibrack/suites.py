"""Seeded sampling harnesses for the local rack invariants.

Each suite returns ``PropertyResult`` records (max defect, tolerance,
sample/skip counts).  Sampling is deterministic in the seed.  Every sampled
property runs through ``sampled``: points that leave the local domain raise
OutOfChartError inside the operations and are counted as skips, never
crashes, and defects are accumulated with ``nan_max``, so a NaN or infinite
defect reaches the report and fails its property.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .algebra import bracket, is_lie
from .cohomology import RackCochainFn, RackModuleStructure, rack_diff2_expansion
from .linalg import OutOfChartError, gauss_legendre_01, nan_max, norm1_float, sup_norm
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
        if norm1_float(g - chart.identity()) < max_norm:
            return g
        xi = xi * 0.5


def sample_rack_element(sys: LocalRackSystem, rng, max_norm: float) -> LocalRackElement:
    """A group element as above, with center coordinates in [-1/4, 1/4]."""
    g = sample_group_element(sys, rng, max_norm)
    a = rng.uniform(-1.0, 1.0, size=sys.center_dim) * 0.25
    return LocalRackElement(g, a)


def _injectivity_defect(ins: list[LocalRackElement],
                        outs: list[LocalRackElement]) -> float:
    """1.0 if two inputs more than 1e-6 apart have outputs within 1e-12 of
    each other, else 0.0.  Elements are stacked as rows (g flattened, a),
    so the sup norm of a row difference is elem_distance; one stacked sup
    norm per row, and a NaN distance never trips it."""
    ins, outs = (np.array([np.concatenate([u.g.ravel(), u.a]) for u in us])
                 for us in (ins, outs))
    for i in range(len(ins) - 1):
        d_in = np.abs(ins[i + 1:] - ins[i]).max(axis=1, initial=0.0)
        d_out = np.abs(outs[i + 1:] - outs[i]).max(axis=1, initial=0.0)
        if ((d_in > 1e-6) & (d_out <= 1e-12)).any():
            return 1.0
    return 0.0


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def rack_axiom_suite(sys: LocalRackSystem, n_samples: int = 200,
                     seed: int = 0) -> list[PropertyResult]:
    """Self-distributivity, pointedness and injectivity-on-samples for the
    product (g,a) |> (h,b)."""
    rng = np.random.default_rng(seed)
    max_norm = sys.chart.chart_radius / 4.0
    neutral = sys.neutral()
    elems = [sample_rack_element(sys, rng, max_norm) for _ in range(3 * n_samples)]
    triples = [elems[3 * i:3 * i + 3] for i in range(n_samples)]

    def self_distributivity(u, v, w):
        lhs = rack_product(sys, u, rack_product(sys, v, w))
        rhs = rack_product(sys, rack_product(sys, u, v), rack_product(sys, u, w))
        yield elem_distance(lhs, rhs)

    def pointedness(u, v, _w):
        yield nan_max(elem_distance(rack_product(sys, u, neutral), neutral),
                      elem_distance(rack_product(sys, neutral, v), v))

    results = sampled(n_samples, iter(triples).__next__, self_distributivity,
                      [("self_distributivity", 1e-9)])
    results += sampled(n_samples, iter(triples).__next__, pointedness,
                       [("pointedness", 1e-12)])

    # left translation by a fixed u separates separated inputs; like every
    # other row, samples counts attempts and skipped the ones out of chart
    u = elems[0]
    ins, outs = [], []
    inj_skip = 0
    for v in elems[1:n_samples + 1]:
        try:
            outs.append(rack_product(sys, u, v))
            ins.append(v)
        except OutOfChartError:
            inj_skip += 1
    results.append(PropertyResult("injectivity_on_samples", _injectivity_defect(ins, outs),
                                  1e-9, n_samples, inj_skip))
    return results


def cocycle_suite(sys: LocalRackSystem, n_triples: int = 100,
                  seed: int = 1) -> list[PropertyResult]:
    """Rack-cocycle identity of i2 (normative arity-2 expansion), the
    stronger identity g.f(h,k) - f(gh,k) + f(g,h|>k) = 0, and the relation
    d_R f(g,h,k) = b(f)(g,h,k) - b(f)(g|>h,g,k) between them."""
    rng = np.random.default_rng(seed)
    max_norm = sys.chart.chart_radius / 8.0
    f = RackCochainFn(2, lambda g, h: i2(sys, g, h))
    mod = RackModuleStructure.anti_symmetric(sys.center_dim,
                                             lambda g: group_action(sys.chart, g))
    conj = lambda x, y: conjugate(sys.chart, x, y)

    def check(g, h, k):
        dr = rack_diff2_expansion(mod, f, g, h, k, conj)
        ghost = ghost_identity_defect(sys, g, h, k)
        ghost_shift = ghost_identity_defect(sys, conj(g, h), g, k)
        return sup_norm(dr), sup_norm(ghost), sup_norm(dr - (ghost - ghost_shift))

    return sampled(n_triples,
                   lambda: tuple(sample_group_element(sys, rng, max_norm) for _ in range(3)),
                   check, [("rack_cocycle_identity", 1e-9), ("ghost_identity", 1e-9),
                           ("ghost_induces_cocycle", 2e-9)])


def roundtrip_suite(sys: LocalRackSystem, cfg: IntegratorConfig) -> list[PropertyResult]:
    """delta2 of the integrated cocycle recovers omega on all basis pairs."""
    d = sys.g0_dim
    omega_np = sys.ext.omega.to_numpy() if d else np.zeros((0, 0, sys.center_dim))
    f = lambda g, h: i2(sys, g, h)
    basis = np.eye(d)

    def check(p, q):
        yield sup_norm(delta2(sys, f, basis[p], basis[q], cfg) - omega_np[p, q])

    return sampled(d * d, iter(itertools.product(range(d), repeat=2)).__next__, check,
                   [("delta2_left_inverse", 1e-5)])


def tangent_suite(sys: LocalRackSystem, cfg: IntegratorConfig) -> list[PropertyResult]:
    """The rack product differentiates back to the parent bracket on all
    basis pairs, through the splitting g = g0 (+) center."""
    ext = sys.ext
    n = ext.parent.dim

    def split_coords(v):
        x, a = ext.split(v)
        return np.array([float(c) for c in (*x, *a)])

    def check(i, j):
        ei, ej = ext.parent.basis_vector(i), ext.parent.basis_vector(j)
        got = tangent_bracket(sys, split_coords(ei), split_coords(ej), cfg)
        yield sup_norm(got - split_coords(bracket(ext.parent, ei, ej)))

    return sampled(n * n, iter(itertools.product(range(n), repeat=2)).__next__, check,
                   [("tangent_bracket_roundtrip", 1e-4)])


def lie_specialization_suite(sys: LocalRackSystem, cfg: IntegratorConfig,
                             n_samples: int = 50, seed: int = 2) -> list[PropertyResult]:
    """For Lie input: the group product (g,a)(h,b) = (gh, a+b+iota2(g,h)) is
    associative, its conjugation equals the rack product, and
    i2(g,h) = iota2(g,h) - iota2(g|>h, g)."""
    if not is_lie(sys.ext.parent):
        raise ValueError("the Lie specialization needs a Lie algebra input")
    rng = np.random.default_rng(seed)
    max_norm = sys.chart.chart_radius / 8.0

    def product(u, v):
        return lie_group_product(sys, u, v, cfg)

    def check(u, v, w):
        yield elem_distance(product(product(u, v), w), product(u, product(v, w)))
        uinv = lie_group_inverse(sys, u, cfg)
        yield elem_distance(product(product(u, v), uinv), rack_product(sys, u, v))
        gh = conjugate(sys.chart, u.g, v.g)
        lhs = i2(sys, u.g, v.g)
        yield sup_norm(lhs - (iota2(sys, u.g, v.g, cfg) - iota2(sys, gh, u.g, cfg)))

    return sampled(n_samples,
                   lambda: tuple(sample_rack_element(sys, rng, max_norm) for _ in range(3)),
                   check, [("lie_group_associativity", 1e-9),
                           ("lie_conjugation_equals_rack", 1e-9), ("i2_from_iota2", 1e-9)])


def augmented_action_suite(sys: LocalRackSystem, n_samples: int = 50,
                           seed: int = 3) -> list[PropertyResult]:
    """The G0-action axioms of the augmented structure: unit action, fixed
    point (1,0), and compatibility rho(g, rho(h, w)) = rho(gh, w)."""
    rng = np.random.default_rng(seed)
    max_norm = sys.chart.chart_radius / 8.0
    neutral = sys.neutral()
    ident = sys.chart.identity()

    def check(g, h, w):
        yield elem_distance(augmented_action(sys, ident, w), w)
        yield elem_distance(augmented_action(sys, g, neutral), neutral)
        lhs = augmented_action(sys, g, augmented_action(sys, h, w))
        rhs = augmented_action(sys, group_product(sys.chart, g, h), w)
        yield elem_distance(lhs, rhs)

    return sampled(n_samples,
                   lambda: (sample_group_element(sys, rng, max_norm),
                            sample_group_element(sys, rng, max_norm),
                            sample_rack_element(sys, rng, max_norm)),
                   check, [("action_unit", 1e-12), ("action_fixed_point", 1e-12),
                           ("action_compatibility", 1e-9)])


def quadrature_stability_suite(sys: LocalRackSystem, cfg: IntegratorConfig,
                               n_pairs: int = 20, seed: int = 4) -> list[PropertyResult]:
    """Doubling the order of i2's quadrature cross-check (``i2_quadrature``)
    must not move it: the integrands are polynomial when rho is nilpotent."""
    rng = np.random.default_rng(seed)
    max_norm = sys.chart.chart_radius / 4.0
    fine = gauss_legendre_01(2 * cfg.quad.order)

    def check(g, h):
        yield sup_norm(i2_quadrature(sys, g, h, cfg.quad) - i2_quadrature(sys, g, h, fine))

    return sampled(n_pairs,
                   lambda: (sample_group_element(sys, rng, max_norm),
                            sample_group_element(sys, rng, max_norm)),
                   check, [("quadrature_order_stability", 1e-12)])


def full_suite(sys: LocalRackSystem, cfg: IntegratorConfig, n_samples: int = 200,
               seed: int = 0) -> list[PropertyResult]:
    """Everything the integrate command reports."""
    results = []
    results += rack_axiom_suite(sys, n_samples, seed)
    results += cocycle_suite(sys, max(10, n_samples // 2), seed + 1)
    results += augmented_action_suite(sys, max(10, n_samples // 4), seed + 2)
    results += roundtrip_suite(sys, cfg)
    results += tangent_suite(sys, cfg)
    results += quadrature_stability_suite(sys, cfg, min(20, n_samples), seed + 3)
    if is_lie(sys.ext.parent):
        results += lie_specialization_suite(sys, cfg, max(10, n_samples // 4), seed + 4)
    return results
