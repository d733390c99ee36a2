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

A suite makes one call per dependency level, not one per term: the
operations of one level that do not depend on each other run as one call
on a (k, n) stack (``_stack``), and each of the k parts narrows its own
row of the call's (k, n) mask, which goes to the properties the part
serves.  Each part is a C-contiguous copy, so its slices equal its own
call's bit for bit.  ``cocycle_suite`` takes one conjugation of three
pairs, one group product of two, one i2 of six and one action of two;
``rack_axiom_suite`` three rack products, the first of three pairs and
the second of four; ``augmented_action_suite`` two actions, of three
and two; ``lie_specialization_suite`` two iota2, of four pairs and then
three.  The round trips pair the basis as a column (k, 1) against a row
(1, k), so each probe is exponentiated once.

A value is computed once per suite, except in ``cocycle_suite``: its i2
takes group elements, so it conjugates h |> k and g |> k again, which the
suite's conjugation already formed, and logs g in two slices; its
``group_action`` logs g and g |> h again.  A later property may reuse a
value that an earlier one computed, since the gates it passed are already
in the later property's cumulative mask, never the reverse: the three rows of
``cocycle_suite`` share their conjugations, i2 values and actions, and row
3 of ``lie_specialization_suite`` reuses the iota2(u.g, v.g) of row 1 and,
like ``quadrature_stability_suite``, takes i2 from one conjugation and its
logs (``rack.conjugate_and_log``, ``rack.i2_from_coords``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable

import numpy as np

from .algebra import bracket, is_lie
from .linalg import gauss_legendre_01, matvec, norm1_float
from .rack import (
    IntegratorConfig,
    LocalRackElement,
    LocalRackSystem,
    augmented_action,
    conjugate,
    delta2,
    group_action,
    group_from_coords,
    group_inverse,
    group_product,
    conjugate_and_log,
    i2,
    i2_from_coords,
    iota2,
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


def _stack(*parts):
    """Parts of N slices each (or of one, which broadcasts), group elements
    or rack elements, as one (k, N) stack whose part j is parts[j].  Each
    part is copied C-contiguous, so its slices have the strides of its own
    call's (see ``rack``)."""
    if isinstance(parts[0], LocalRackElement):
        return LocalRackElement(_stack(*(x.g for x in parts)), _stack(*(x.a for x in parts)))
    n = max(len(x) for x in parts)
    return np.stack([np.broadcast_to(x, (n,) + x.shape[1:]) for x in parts])


def _parts(x: LocalRackElement) -> list[LocalRackElement]:
    """The parts of a (k, N) stack element, as ``_stack`` stacks them."""
    return [LocalRackElement(g, a) for g, a in zip(x.g, x.a)]


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
    coordinates of a rack element, in [-1/4, 1/4], drawn after its group
    element.  All coordinates are drawn first, in the order
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


def _injectivity_defect(ins: LocalRackElement, outs: LocalRackElement) -> float:
    """1.0 if two inputs more than 1e-6 apart have outputs within 1e-12 of
    each other, else 0.0, for stack elements.  Elements are compared as
    rows (g flattened, a), so the sup norm of a row difference is
    elem_distance, and a NaN distance never trips it.

    Outputs within 1e-12 are within 1e-12 in every coordinate, so only
    pairs close in one coordinate, the one that varies most, are compared:
    the rows are sorted by it and each is compared with the rows after it
    up to 2e-12 further on (a margin over the rounding of that bound).
    A row with a non-finite output is never within 1e-12 of another."""
    ins, outs = (np.concatenate([u.g.reshape(len(u.g), u.g.shape[-2] * u.g.shape[-1]), u.a],
                                axis=1) for u in (ins, outs))
    finite = np.isfinite(outs).all(axis=1)
    ins, outs = ins[finite], outs[finite]
    key = outs[:, np.ptp(outs, axis=0).argmax()] if outs.size else np.zeros(len(outs))
    order = np.argsort(key, kind="stable")
    ins, outs, key = ins[order], outs[order], key[order]
    # rows i + 1 .. i + width[i] lie within the window of row i
    width = np.searchsorted(key, key + 2e-12, side="right") - np.arange(len(key)) - 1
    for lag in range(1, int(width.max(initial=0)) + 1):
        i = np.flatnonzero(width >= lag)
        d_in = np.abs(ins[i + lag] - ins[i]).max(axis=1, initial=0.0)
        d_out = np.abs(outs[i + lag] - outs[i]).max(axis=1, initial=0.0)
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
    ins = LocalRackElement(g[1:n + 1], a[1:n + 1])  # the injectivity row's inputs

    # v |> w, 1 |> v and g_0 |> ins as one (3, n) stack; then u acts on
    # v |> w, v, w and the neutral element as one (4, n) stack, so that u's
    # own log, action and i1 are taken once per sample
    first, first_ok = _rack_products(sys, _stack(v, neutral, LocalRackElement(g[:1], a[:1])),
                                     _stack(w, v, ins))
    vw, one_v, outs = _parts(first)
    by_u, by_u_ok = _rack_products(sys, LocalRackElement(u.g[None], u.a[None]),
                                   _stack(vw, v, w, neutral))
    lhs, uv, uw, u_one = _parts(by_u)
    rhs, rhs_ok = _rack_products(sys, uv, uw)
    results = stacked(n, [(elem_distance(lhs, rhs),
                           first_ok[0] & by_u_ok[:3].all(axis=0) & rhs_ok)],
                      [("self_distributivity", 1e-9)])
    results += stacked(n, [(np.maximum(elem_distance(u_one, neutral), elem_distance(one_v, v)),
                            by_u_ok[3] & first_ok[1])],
                       [("pointedness", 1e-12)])

    # left translation by the fixed g_0 separates separated inputs; like
    # every other row, samples counts attempts and skipped the ones out of
    # chart
    ok = first_ok[2]
    kept = [LocalRackElement(x.g[ok], x.a[ok]) for x in (ins, outs)]
    results.append(PropertyResult("injectivity_on_samples", _injectivity_defect(*kept),
                                  1e-9, n, n - int(np.count_nonzero(ok))))
    return results


def cocycle_suite(sys: LocalRackSystem, n_triples: int = 100,
                  seed: int = 1) -> list[PropertyResult]:
    """Rack-cocycle identity of i2 in the anti-symmetric module (psi = 0),

        d_R f(g,h,k) = g.f(h,k) - f(g|>h, g|>k) - (g|>h).f(g,k) + f(g, h|>k) = 0,

    the stronger identity b(f)(g,h,k) = g.f(h,k) - f(gh,k) + f(g,h|>k) = 0,
    and the relation d_R f(g,h,k) = b(f)(g,h,k) - b(f)(g|>h,g,k) between
    them, over all triples at once.  The three share their terms: the
    three conjugations, the two group products, the six i2 values and the
    two actions are each one call on a stack.  A triple that leaves the
    chart anywhere is one skip for all three."""
    rng = np.random.default_rng(seed)
    chart = sys.chart
    g, h, k = draw_samples(sys, rng, chart.chart_radius / 8.0, n_triples, "ggg")
    # one mask for every call, each narrowing its leading rows: a triple
    # that fails any of them is one skip
    mask = np.ones((6, n_triples), dtype=bool)
    gh, gk, hk = conjugate(chart, _stack(g, g, h), _stack(h, k, k), mask[:3])
    g_h, gh_g = group_product(chart, _stack(g, gh), _stack(h, g), mask[:2])
    f_h_k, f_gh_gk, f_g_k, f_g_hk, f_gh_k, f_ghg_k = i2(
        sys, _stack(h, gh, g, g, g_h, gh_g), _stack(k, gk, k, hk, k, k), mask)
    act_g, act_gh = group_action(chart, _stack(g, gh), mask[:2])
    g_f_hk, gh_f_gk = matvec(act_g, f_h_k), matvec(act_gh, f_g_k)
    dr = g_f_hk - f_gh_gk - gh_f_gk + f_g_hk
    ghost = g_f_hk - f_gh_k + f_g_hk
    ghost_shift = gh_f_gk - f_ghg_k + f_gh_gk
    ok = mask.all(axis=0)
    return stacked(n_triples, [(sup_rows(dr), ok), (sup_rows(ghost), ok),
                               (sup_rows(dr - (ghost - ghost_shift)), ok)],
                   [("rack_cocycle_identity", 1e-9), ("ghost_identity", 1e-9),
                    ("ghost_induces_cocycle", 2e-9)])


def roundtrip_suite(sys: LocalRackSystem, cfg: IntegratorConfig) -> list[PropertyResult]:
    """delta2 of the integrated cocycle recovers omega on all basis pairs,
    all pairs at once: the basis as a column (d, 1) against a row (1, d),
    so that each probe is exponentiated once."""
    d, m = sys.g0_dim, sys.center_dim
    omega_np = sys.omega.transpose(0, 2, 1)
    basis = np.eye(d)
    ok = np.ones((d, d), dtype=bool)
    got = delta2(sys, partial(i2, sys), basis[:, None], basis[None], cfg, ok)
    return stacked(d * d, [(sup_rows((got - omega_np).reshape(d * d, m)), ok.ravel())],
                   [("delta2_left_inverse", 1e-5)])


def tangent_suite(sys: LocalRackSystem, cfg: IntegratorConfig) -> list[PropertyResult]:
    """The rack product differentiates back to the parent bracket on all
    basis pairs, through the splitting g = g0 (+) center; all pairs at
    once, as in ``roundtrip_suite``."""
    ext = sys.ext
    n = ext.parent.dim
    basis = [ext.parent.basis_vector(i) for i in range(n)]

    def split_coords(v):
        x, a = ext.split(v)
        return np.array([float(c) for c in (*x, *a)])

    want = np.array([split_coords(bracket(ext.parent, ei, ej)) for ei in basis for ej in basis])
    coords = np.array([split_coords(e) for e in basis])
    ok = np.ones((n, n), dtype=bool)
    got = tangent_bracket(sys, coords[:, None], coords[None], cfg, ok)
    return stacked(n * n, [(sup_rows(got.reshape(n * n, n) - want), ok.ravel())],
                   [("tangent_bracket_roundtrip", 1e-4)])


def lie_specialization_suite(sys: LocalRackSystem, cfg: IntegratorConfig,
                             n_samples: int = 50, seed: int = 2) -> list[PropertyResult]:
    """For Lie input: the group product (g,a)(h,b) = (gh, a+b+iota2(g,h)) is
    associative, its conjugation equals the rack product, and
    i2(g,h) = iota2(g,h) - iota2(g|>h, g); over all samples at once."""
    if not is_lie(sys.ext.parent):
        raise ValueError("the Lie specialization needs a Lie algebra input")
    rng = np.random.default_rng(seed)
    chart = sys.chart
    n = n_samples
    ug, ua, vg, va, wg, wa = draw_samples(sys, rng, chart.chart_radius / 8.0, n, "gagaga")
    u, v, w = LocalRackElement(ug, ua), LocalRackElement(vg, va), LocalRackElement(wg, wa)
    conj_ok, iota_ok = np.ones(n, dtype=bool), np.ones(n, dtype=bool)
    gh, xi, eta = conjugate_and_log(chart, u.g, v.g, iota_ok)
    # u^-1 as lie_group_inverse forms it; iota2 and the products below apply
    # its chart gate
    uinv_g = group_inverse(u.g, ok=conj_ok)

    # iota2 and the group product of (u, v), (v, w), (u, u^-1) and
    # (u |> v, u) as one (4, n) stack, for rows 1, 1, 2 and 3
    first = np.ones((4, n), dtype=bool)
    x, y = _stack(u.g, v.g, u.g, gh), _stack(v.g, w.g, uinv_g, u.g)
    uv_g, vw_g, _, _ = group_product(chart, x, y, first)
    iota_uv, iota_vw, iota_inv, iota_gh = iota2(sys, x, y, cfg, first)
    uv = LocalRackElement(uv_g, u.a + v.a + iota_uv)
    vw = LocalRackElement(vw_g, v.a + w.a + iota_vw)
    uinv = LocalRackElement(uinv_g, -u.a - iota_inv)
    # the products (uv) w, u (vw) and (uv) u^-1 as one (3, n) stack
    second = np.ones((3, n), dtype=bool)
    uv_w, u_vw, uv_uinv = _parts(lie_group_product(sys, _stack(uv, u, uv),
                                                   _stack(w, vw, uinv), cfg, second))
    assoc = elem_distance(uv_w, u_vw)
    conj = elem_distance(uv_uinv, rack_product(sys, u, v, conj_ok))
    from_iota = i2_from_coords(sys, xi, eta) - (iota_uv - iota_gh)
    assoc_ok = first[:2].all(axis=0) & second[:2].all(axis=0)
    conj_ok &= first[2] & second[2]
    iota_ok &= first[3]
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

    gh_ok = np.ones(n, dtype=bool)
    gh = group_product(sys.chart, g, h, gh_ok)
    # 1, h and gh act on w as one (3, n) stack, then g on the neutral
    # element and on h.w as one (2, n) stack
    on_w, on_w_ok = act(_stack(neutral.g, h, gh), w)
    unit, hw, rhs = _parts(on_w)
    by_g, by_g_ok = act(g[None], _stack(neutral, hw))
    fixed, lhs = _parts(by_g)
    return stacked(n, [(elem_distance(unit, w), on_w_ok[0]),
                       (elem_distance(fixed, neutral), by_g_ok[0]),
                       (elem_distance(lhs, rhs), on_w_ok[1] & by_g_ok[1] & gh_ok & on_w_ok[2])],
                   [("action_unit", 1e-12), ("action_fixed_point", 1e-12),
                    ("action_compatibility", 1e-9)])


def quadrature_stability_suite(sys: LocalRackSystem, cfg: IntegratorConfig,
                               n_pairs: int = 20, seed: int = 4) -> list[PropertyResult]:
    """Doubling the order of i2's quadrature cross-check (``i2_from_coords``
    at a rule) must not move it: the integrands are polynomial when rho is
    nilpotent.  All pairs at once, logged once for both orders."""
    rng = np.random.default_rng(seed)
    g, h = draw_samples(sys, rng, sys.chart.chart_radius / 4.0, n_pairs, "gg")
    fine = gauss_legendre_01(2 * cfg.quad.order)
    ok = np.ones(n_pairs, dtype=bool)
    _, xi, eta = conjugate_and_log(sys.chart, g, h, ok)
    diff = i2_from_coords(sys, xi, eta, cfg.quad) - i2_from_coords(sys, xi, eta, fine)
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
