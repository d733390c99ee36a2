"""Seeded sampling harnesses for the local rack invariants.

Each suite returns ``PropertyResult`` records (max defect, tolerance,
sample/skip counts).  Sampling is deterministic in the seed.  Points that
leave the local domain fail the chart gates inside the operations and are
counted as skips, never crashes, and defects are accumulated NaN-first, so
a NaN or infinite defect reaches the report and fails its property.

The rule is that of a loop over the samples: a skip ends the sample, and
the defects it already yielded still count.  Every suite runs all its
samples at once: it draws the whole sample set as stacks (``draw_samples``,
in the RNG order of drawing one sample after another, or the basis pairs
of a round trip), calls each rack operation once on the stack with a mask
of the slices that succeeded (see ``rack``), and ``stacked`` applies the
rule with cumulative masks: property k counts the samples where the
operations of properties 1..k all succeeded.  The results equal those of
the one-sample-at-a-time loops bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable

import numpy as np

from .algebra import bracket, is_lie
from .cohomology import RackCochainFn, RackModuleStructure, rack_diff2_expansion
from .linalg import gauss_legendre_01, norm1_float
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


def stacked(n: int, rows: Iterable[tuple[np.ndarray, np.ndarray]],
            props: list[tuple[str, float]]) -> list[PropertyResult]:
    """One PropertyResult per (name, tolerance) in props, over n samples
    run as stacks.  rows gives, in the order of props, each property's
    defects (n,) and the mask of the samples whose operations for it
    succeeded; property k keeps the NaN-propagating worst over the samples
    that succeeded for properties 1..k, and a sample that failed any of
    them is one skip."""
    ok = np.ones(n, dtype=bool)
    worst = []
    for defects, row_ok in rows:
        ok = ok & row_ok
        worst.append(float(np.max(defects[ok], initial=0.0)))
    skipped = n - int(np.count_nonzero(ok))
    return [PropertyResult(name, w, tol, n, skipped)
            for (name, tol), w in zip(props, worst, strict=True)]


def sup_rows(x: np.ndarray) -> np.ndarray:
    """sup |x_k| of each row x_k of a stack (N, ...), NaN where an entry
    is NaN; 0 for empty rows."""
    return np.abs(x).max(axis=tuple(range(1, x.ndim)), initial=0.0)


def elem_distance(u: LocalRackElement, v: LocalRackElement):
    """max(sup |u.g - v.g|, sup |u.a - v.a|), NaN if either is; for stack
    elements, an array of the distances of their slices."""
    return np.maximum(np.abs(u.g - v.g).max(axis=(-2, -1), initial=0.0),
                      np.abs(u.a - v.a).max(axis=-1, initial=0.0))


def _neutral(sys: LocalRackSystem) -> LocalRackElement:
    """The neutral element (1, 0) as a stack of one, which broadcasts."""
    one = sys.neutral()
    return LocalRackElement(one.g[None], one.a[None])


def _side_by_side(*elems: LocalRackElement) -> LocalRackElement:
    """Stack elements of N slices each (or of one, which broadcasts) into
    an (N, k) stack element whose column j is elems[j]."""
    n = max(len(x.g) for x in elems)
    return LocalRackElement(
        *(np.stack([np.broadcast_to(y, (n,) + y.shape[1:]) for y in ys], axis=1)
          for ys in ([x.g for x in elems], [x.a for x in elems])))


def _column(x: LocalRackElement, j: int) -> LocalRackElement:
    return LocalRackElement(x.g[:, j], x.a[:, j])


def _rack_products(sys: LocalRackSystem, u: LocalRackElement, v: LocalRackElement
                   ) -> tuple[LocalRackElement, np.ndarray]:
    """u |> v on stack elements whose shapes broadcast, and its mask."""
    ok = np.ones(np.broadcast_shapes(u.g.shape[:-2], v.g.shape[:-2]), dtype=bool)
    return rack_product(sys, u, v, ok), ok


def _group_elements(sys: LocalRackSystem, xi: np.ndarray, max_norm: float) -> np.ndarray:
    """exp(ad xi) for each row of coordinates xi (N, d), each row halved as
    ``sample_group_element`` halves its draw."""
    chart = sys.chart
    # a wide draw can overflow exp; it then fails the norm test and is
    # halved, so the overflow is no error
    with np.errstate(over="ignore", invalid="ignore"):
        g = group_from_coords(chart, xi)
        far = ~(norm1_float(g - chart.identity()) < max_norm)
        while far.any():
            xi = np.where(far[:, None], xi * 0.5, xi)
            g[far] = group_from_coords(chart, xi[far])
            far[far] = ~(norm1_float(g[far] - chart.identity()) < max_norm)
    return g


def draw_samples(sys: LocalRackSystem, rng, max_norm: float, n: int,
                 parts: str) -> list[np.ndarray]:
    """n samples, each made of the parts named in order: "g" a group
    element as ``sample_group_element`` draws it, "a" the center
    coordinates of a rack element, which ``sample_rack_element`` draws
    after its group element.  All coordinates are drawn first, in the order
    of drawing the samples one after another, then each part is made as one
    stack of n elements or n coordinate vectors; halving draws nothing."""
    d, m = sys.g0_dim, sys.center_dim
    widths = [d if part == "g" else m for part in parts]
    coords = rng.uniform(-1.0, 1.0, size=(n, sum(widths)))
    stacks, start = [], 0
    for part, width in zip(parts, widths):
        block = coords[:, start:start + width]
        start += width
        stacks.append(_group_elements(sys, block * max_norm, max_norm) if part == "g"
                      else block * 0.25)
    return stacks


def sample_group_element(sys: LocalRackSystem, rng, max_norm: float) -> np.ndarray:
    """Group element with ||g - I|| < max_norm, by halving a random
    coordinate draw until it fits.  The loop ends: a draw that reaches zero
    gives g = I."""
    chart = sys.chart
    if chart.g0_dim == 0:
        return chart.identity()
    xi = rng.uniform(-1.0, 1.0, size=chart.g0_dim) * max_norm
    with np.errstate(over="ignore", invalid="ignore"):  # as in _group_elements
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


def _injectivity_defect(ins: LocalRackElement, outs: LocalRackElement) -> float:
    """1.0 if two inputs more than 1e-6 apart have outputs within 1e-12 of
    each other, else 0.0, for stack elements.  Elements are compared as
    rows (g flattened, a), so the sup norm of a row difference is
    elem_distance; one stacked sup norm per row, and a NaN distance never
    trips it."""
    ins, outs = (np.concatenate([u.g.reshape(len(u.g), u.g.shape[-2] * u.g.shape[-1]), u.a],
                                axis=1) for u in (ins, outs))
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
    product (g,a) |> (h,b), over all samples at once."""
    rng = np.random.default_rng(seed)
    n = n_samples
    g, a = draw_samples(sys, rng, sys.chart.chart_radius / 4.0, 3 * n, "ga")
    u, v, w = (LocalRackElement(g[k::3], a[k::3]) for k in range(3))
    neutral = _neutral(sys)

    # u acts on v |> w, v, w and the neutral element as one (n, 4) stack,
    # so that u's own log, action and i1 are taken once per sample
    vw, vw_ok = _rack_products(sys, v, w)
    by_u, by_u_ok = _rack_products(sys, LocalRackElement(u.g[:, None], u.a[:, None]),
                                   _side_by_side(vw, v, w, neutral))
    lhs, uv, uw, u_one = (_column(by_u, j) for j in range(4))
    rhs, rhs_ok = _rack_products(sys, uv, uw)
    one_v, one_v_ok = _rack_products(sys, neutral, v)
    results = stacked(n, [(elem_distance(lhs, rhs),
                           vw_ok & by_u_ok[:, :3].all(axis=1) & rhs_ok)],
                      [("self_distributivity", 1e-9)])
    results += stacked(n, [(np.maximum(elem_distance(u_one, neutral), elem_distance(one_v, v)),
                            by_u_ok[:, 3] & one_v_ok)],
                       [("pointedness", 1e-12)])

    # left translation by a fixed u separates separated inputs; like every
    # other row, samples counts attempts and skipped the ones out of chart
    ins = LocalRackElement(g[1:n + 1], a[1:n + 1])
    outs, ok = _rack_products(sys, LocalRackElement(g[:1], a[:1]), ins)
    kept = [LocalRackElement(x.g[ok], x.a[ok]) for x in (ins, outs)]
    results.append(PropertyResult("injectivity_on_samples", _injectivity_defect(*kept),
                                  1e-9, n, n - int(np.count_nonzero(ok))))
    return results


def cocycle_suite(sys: LocalRackSystem, n_triples: int = 100,
                  seed: int = 1) -> list[PropertyResult]:
    """Rack-cocycle identity of i2 (normative arity-2 expansion), the
    stronger identity g.f(h,k) - f(gh,k) + f(g,h|>k) = 0, and the relation
    d_R f(g,h,k) = b(f)(g,h,k) - b(f)(g|>h,g,k) between them, over all
    triples at once.  A triple that leaves the chart anywhere is one skip
    for all three."""
    rng = np.random.default_rng(seed)
    chart = sys.chart
    g, h, k = draw_samples(sys, rng, chart.chart_radius / 8.0, n_triples, "ggg")
    ok = np.ones(n_triples, dtype=bool)
    f = RackCochainFn(2, lambda x, y: i2(sys, x, y, ok))
    mod = RackModuleStructure.anti_symmetric(sys.center_dim,
                                             lambda x: group_action(chart, x, ok))
    conj = lambda x, y: conjugate(chart, x, y, ok)
    dr = rack_diff2_expansion(mod, f, g, h, k, conj)
    ghost = ghost_identity_defect(sys, g, h, k, ok)
    ghost_shift = ghost_identity_defect(sys, conj(g, h), g, k, ok)
    return stacked(n_triples, [(sup_rows(dr), ok), (sup_rows(ghost), ok),
                               (sup_rows(dr - (ghost - ghost_shift)), ok)],
                   [("rack_cocycle_identity", 1e-9), ("ghost_identity", 1e-9),
                    ("ghost_induces_cocycle", 2e-9)])


def _pairs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (rows[i], rows[j]) as two stacks, i-major."""
    k = len(rows)
    return np.repeat(rows, k, axis=0), np.tile(rows, (k, 1))


def roundtrip_suite(sys: LocalRackSystem, cfg: IntegratorConfig) -> list[PropertyResult]:
    """delta2 of the integrated cocycle recovers omega on all basis pairs,
    all pairs at once."""
    d, m = sys.g0_dim, sys.center_dim
    omega_np = sys.ext.omega.to_numpy() if d else np.zeros((0, 0, m))
    ok = np.ones(d * d, dtype=bool)
    got = delta2(sys, partial(i2, sys), *_pairs(np.eye(d)), cfg, ok)
    return stacked(d * d, [(sup_rows(got - omega_np.reshape(d * d, m)), ok)],
                   [("delta2_left_inverse", 1e-5)])


def tangent_suite(sys: LocalRackSystem, cfg: IntegratorConfig) -> list[PropertyResult]:
    """The rack product differentiates back to the parent bracket on all
    basis pairs, through the splitting g = g0 (+) center; all pairs at
    once."""
    ext = sys.ext
    n = ext.parent.dim
    basis = [ext.parent.basis_vector(i) for i in range(n)]

    def split_coords(v):
        x, a = ext.split(v)
        return np.array([float(c) for c in (*x, *a)])

    want = np.array([split_coords(bracket(ext.parent, ei, ej)) for ei in basis for ej in basis])
    ok = np.ones(n * n, dtype=bool)
    got = tangent_bracket(sys, *_pairs(np.array([split_coords(e) for e in basis])), cfg, ok)
    return stacked(n * n, [(sup_rows(got - want), ok)], [("tangent_bracket_roundtrip", 1e-4)])


def lie_specialization_suite(sys: LocalRackSystem, cfg: IntegratorConfig,
                             n_samples: int = 50, seed: int = 2) -> list[PropertyResult]:
    """For Lie input: the group product (g,a)(h,b) = (gh, a+b+iota2(g,h)) is
    associative, its conjugation equals the rack product, and
    i2(g,h) = iota2(g,h) - iota2(g|>h, g); over all samples at once."""
    if not is_lie(sys.ext.parent):
        raise ValueError("the Lie specialization needs a Lie algebra input")
    rng = np.random.default_rng(seed)
    n = n_samples
    ug, ua, vg, va, wg, wa = draw_samples(sys, rng, sys.chart.chart_radius / 8.0, n, "gagaga")
    u, v, w = LocalRackElement(ug, ua), LocalRackElement(vg, va), LocalRackElement(wg, wa)
    assoc_ok, conj_ok, iota_ok = (np.ones(n, dtype=bool) for _ in range(3))

    def product(x, y, ok):
        return lie_group_product(sys, x, y, cfg, ok)

    uv = product(u, v, assoc_ok)
    assoc = elem_distance(product(uv, w, assoc_ok), product(u, product(v, w, assoc_ok), assoc_ok))
    uinv = lie_group_inverse(sys, u, cfg, conj_ok)
    conj = elem_distance(product(uv, uinv, conj_ok), rack_product(sys, u, v, conj_ok))
    gh = conjugate(sys.chart, u.g, v.g, iota_ok)
    lhs = i2(sys, u.g, v.g, iota_ok)
    from_iota = lhs - (iota2(sys, u.g, v.g, cfg, ok=iota_ok) - iota2(sys, gh, u.g, cfg, ok=iota_ok))
    return stacked(n, [(assoc, assoc_ok), (conj, conj_ok), (sup_rows(from_iota), iota_ok)],
                   [("lie_group_associativity", 1e-9),
                    ("lie_conjugation_equals_rack", 1e-9), ("i2_from_iota2", 1e-9)])


def augmented_action_suite(sys: LocalRackSystem, n_samples: int = 50,
                           seed: int = 3) -> list[PropertyResult]:
    """The G0-action axioms of the augmented structure: unit action, fixed
    point (1,0), and compatibility rho(g, rho(h, w)) = rho(gh, w), over
    all samples at once."""
    rng = np.random.default_rng(seed)
    n = n_samples
    g, h, wg, wa = draw_samples(sys, rng, sys.chart.chart_radius / 8.0, n, "ggga")
    w = LocalRackElement(wg, wa)
    neutral = _neutral(sys)

    def act(x, y):
        ok = np.ones(np.broadcast_shapes(x.shape[:-2], y.g.shape[:-2]), dtype=bool)
        return augmented_action(sys, x, y, ok), ok

    unit, unit_ok = act(neutral.g, w)
    # g acts on the neutral element and on h.w as one (n, 2) stack
    hw, hw_ok = act(h, w)
    by_g, by_g_ok = act(g[:, None], _side_by_side(neutral, hw))
    fixed, lhs = _column(by_g, 0), _column(by_g, 1)
    gh_ok = np.ones(n, dtype=bool)
    rhs, rhs_ok = act(group_product(sys.chart, g, h, gh_ok), w)
    return stacked(n, [(elem_distance(unit, w), unit_ok),
                       (elem_distance(fixed, neutral), by_g_ok[:, 0]),
                       (elem_distance(lhs, rhs), hw_ok & by_g_ok[:, 1] & gh_ok & rhs_ok)],
                   [("action_unit", 1e-12), ("action_fixed_point", 1e-12),
                    ("action_compatibility", 1e-9)])


def quadrature_stability_suite(sys: LocalRackSystem, cfg: IntegratorConfig,
                               n_pairs: int = 20, seed: int = 4) -> list[PropertyResult]:
    """Doubling the order of i2's quadrature cross-check (``i2_quadrature``)
    must not move it: the integrands are polynomial when rho is nilpotent.
    All pairs at once."""
    rng = np.random.default_rng(seed)
    g, h = draw_samples(sys, rng, sys.chart.chart_radius / 4.0, n_pairs, "gg")
    fine = gauss_legendre_01(2 * cfg.quad.order)
    ok = np.ones(n_pairs, dtype=bool)
    diff = i2_quadrature(sys, g, h, cfg.quad, ok) - i2_quadrature(sys, g, h, fine, ok)
    return stacked(n_pairs, [(sup_rows(diff), ok)],
                   [("quadrature_order_stability", 1e-12)])


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
