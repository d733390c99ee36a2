"""Seeded sampling harnesses for the local rack invariants.

Each suite takes the system, which carries iota2's quadrature rule and
the finite-difference step, and its sample count and seed, and returns
``PropertyResult`` records (max defect, tolerance, sample/skip counts).
The suites do no exact arithmetic: what they need of the extension, the
system derives once (see ``rack``).
Sampling is deterministic in the seed.  Points that leave the local domain
fail the chart gates inside the operations and are counted as skips, never
crashes, and defects are accumulated NaN-first, so a NaN or infinite
defect reaches the report and fails its property.

The rule is that of a loop over the samples: a skip ends the sample, and
the defects it already yielded still count.  Every suite runs its samples
as stacks: it draws the whole sample set's coordinates first
(``draw_samples``, in the RNG order of drawing one sample after another,
or the basis pairs of the round trips), calls each rack operation once on a
stack with a mask of the slices that succeeded (see ``rack``), and
``stacked`` applies the rule with cumulative masks: property k counts the
samples where the operations of properties 1..k all succeeded.  The
results equal those of the one-sample-at-a-time loops bit for bit.  A draw
exponentiates the group parts of the rows it is asked for as one stack;
each round then halves the rows that do not fit the ball yet once and
exponentiates exactly those as one stack (``_group_elements``).

The four suites whose stacks grow with the sample count, and the basis
pairs of the round trips, run in chunks (``_chunked``, ``CHUNK_ENTRIES``).
A slice equals its one-element call, so the chunks change no value, mask
or skip.

A suite makes one call per dependency level, not one per term: the
operations of one level that do not depend on each other run as one call
on a (k, n) stack (``_stack``), and each of the k parts narrows its own
row of the call's (k, n) mask, which goes to the properties the part
serves.  Each part is a C-contiguous copy, so its slices equal its own
call's bit for bit.  ``cocycle_suite`` takes one conjugation of three
pairs, one group product of two, one log of five elements, one
conjugation of four pairs, one log of six, and from the log coordinates
one i2 of six pairs and one action of two; ``rack_axiom_suite`` three
rack products, the first of three pairs and the second of four;
``augmented_action_suite`` two actions, of three and two;
``lie_specialization_suite`` one conjugation and two iota2, of 4 and 3 pairs.

The two round trips read one mixed difference, ``basis_pair_difference``,
the tangent bracket of every pair of the parent's basis, which pairs a
chunk of the basis as a column against the whole basis as a row, so each
probe of a chunk is exponentiated once.  ``tangent_suite`` compares it
with the parent bracket.  ``roundtrip_suite`` reads delta2(i2) off it: at
the lifts e_p of g0, whose center coordinates are 0, the rack product of
(exp(s ad e_p), 0) and (exp(t ad e_q), 0) is (g |> h, g.0 + i2(g, h)), so
the center part of the difference at (e_p, e_q) is the mixed difference
of i2 that the tests' delta2 (``tests/oracles.py``) takes, bit for bit.

A value is computed once per suite.  A later property may reuse a value
that an earlier one computed, since the gates it passed are already in the
later property's cumulative mask, never the reverse: the three rows of
``cocycle_suite`` share their conjugations, logs, i2 values and actions,
and row 3 of ``lie_specialization_suite`` reuses the iota2(u.g, v.g) of
row 1 and the i2(u.g, v.g) of row 2.  Where a suite needs i2 or an
action, it takes them from the log coordinates it already has
(``rack.i2_from_coords``, ``rack.action_from_coords``) rather than
conjugating and logging their group elements again: ``cocycle_suite``
logs the elements its conjugations and products formed, and
``lie_specialization_suite`` and ``quadrature_stability_suite`` take i2
from one conjugation and its logs (``rack.conjugate_and_log``), from
which the Lie suite also forms the rack product u |> v.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .linalg import gauss_legendre_01, matvec, norm1_float
from .rack import (
    LocalRackElement,
    LocalRackSystem,
    action_from_coords,
    augmented_action,
    conjugate,
    conjugate_and_log,
    group_from_coords,
    group_inverse,
    group_product,
    i2_from_coords,
    iota2,
    lie_group_product,
    log_coords,
    rack_product,
    tangent_bracket,
)

# The four sampled suites and the basis-pair difference run on chunks of
# their samples (rows of basis pairs) whose widest stack holds at most this
# many entries (8 MiB of float64), and at least one sample.  The quadrature
# suite alone stays one stack, as its stack does not grow with the sample
# count: its 20 pairs of 2 quad-order nodes are bounded by
# cli.MAX_QUAD_ORDER.
CHUNK_ENTRIES = 2 ** 20


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


def _chunked(sys: LocalRackSystem, n: int, width: int, run) -> list[np.ndarray]:
    """run(lo, hi) on consecutive slices lo:hi of n samples, each of as many
    samples as keep width dim x dim matrices a sample within CHUNK_ENTRIES
    entries, and at least one; the arrays run returns, one row per sample
    of its slice, concatenated in order.  A single slice's arrays are
    returned as run gives them."""
    step = max(1, CHUNK_ENTRIES // (width * sys.dim ** 2))
    if step >= n:
        return run(0, n)
    chunks = [run(lo, min(lo + step, n)) for lo in range(0, n, step)]
    return [np.concatenate(rows) for rows in zip(*chunks)]


def _rack_products(sys: LocalRackSystem, u: LocalRackElement, v: LocalRackElement
                   ) -> tuple[LocalRackElement, np.ndarray]:
    """u |> v on stack elements whose shapes broadcast, and its mask."""
    ok = np.ones(np.broadcast_shapes(u.g.shape[:-2], v.g.shape[:-2]), dtype=bool)
    return rack_product(sys, u, v, ok), ok


def _group_elements(sys: LocalRackSystem, xi: np.ndarray, max_norm: float) -> np.ndarray:
    """exp(ad xi) for each row of coordinates xi (N, d), each row halved as
    ``sample_group_element`` halves its draw, each halving x * 0.5 of the
    one before.  A round halves the rows that do not fit yet once and
    exponentiates them as one stack; each row takes its first halving that
    fits, so no exponentiated row is discarded."""
    eye = sys.identity()
    # a wide draw can overflow exp; it then fails the norm test and is
    # halved, so the overflow is no error
    with np.errstate(over="ignore", invalid="ignore"):
        g = group_from_coords(sys, xi)
        left = np.flatnonzero(~(norm1_float(g - eye) < max_norm))
        x = xi[left]
        while len(left):
            x = x * 0.5
            tried = group_from_coords(sys, x)
            fits = norm1_float(tried - eye) < max_norm
            g[left[fits]] = tried[fits]
            left, x = left[~fits], x[~fits]
    return g


def draw_samples(sys: LocalRackSystem, rng, max_norm: float, n: int, parts: str):
    """n samples, each made of the parts named in order: "g" a group
    element as ``sample_group_element`` draws it, "a" the center
    coordinates of a rack element, in [-1/4, 1/4], drawn after its group
    element.  All coordinates are drawn now, in the order of drawing the
    samples one after another; the result is take(rows), which gives each
    part at rows (a slice or index array, default all) as a stack of
    elements or coordinate vectors, the "g" parts of those rows
    exponentiated as one ``_group_elements`` stack.  Halving draws
    nothing."""
    d, m = sys.g0_dim, sys.center_dim
    widths = [d if part == "g" else m for part in parts]
    blocks = np.split(rng.uniform(-1.0, 1.0, size=(n, sum(widths))), np.cumsum(widths)[:-1],
                      axis=1)
    coords = [block * (max_norm if part == "g" else 0.25) for part, block in zip(parts, blocks)]

    def take(rows=slice(None)):
        xi = [x[rows] for part, x in zip(parts, coords) if part == "g"]
        groups = iter(np.split(_group_elements(sys, np.concatenate(xi), max_norm), len(xi)))
        return [next(groups) if part == "g" else x[rows] for part, x in zip(parts, coords)]
    return take


def sample_group_element(sys: LocalRackSystem, rng, max_norm: float) -> np.ndarray:
    """Group element with ||g - I|| < max_norm, by halving a random
    coordinate draw until it fits.  The loop ends: a draw that reaches zero
    gives g = I."""
    if sys.g0_dim == 0:
        return sys.identity()
    xi = rng.uniform(-1.0, 1.0, size=sys.g0_dim) * max_norm
    with np.errstate(over="ignore", invalid="ignore"):  # as in _group_elements
        while True:
            g = group_from_coords(sys, xi)
            if norm1_float(g - sys.identity()) < max_norm:
                return g
            xi = xi * 0.5


def _injectivity_defect(ins: np.ndarray, outs: np.ndarray, ok: np.ndarray) -> float:
    """1.0 if two inputs more than 1e-6 apart have outputs within 1e-12 of
    each other, else 0.0, over the rows i where ok[i].  Inputs and outputs
    are rows (N, k) of rack elements (g flattened, a), so the sup norm of a
    row difference is elem_distance, and a NaN distance never trips it.

    Outputs within 1e-12 are within 1e-12 in every coordinate, so only
    pairs close in one coordinate, the one that varies most, are compared:
    the rows are sorted by it and each is compared with the rows after it
    up to 2e-12 further on (a margin over the rounding of that bound).
    A row with a non-finite output is never within 1e-12 of another.  The
    rows are filtered and sorted through an index, never copied."""
    keep = ok & np.isfinite(outs).all(axis=1)
    rows = np.flatnonzero(keep)
    spread = np.max(outs, axis=0, where=keep[:, None], initial=-np.inf) \
        - np.min(outs, axis=0, where=keep[:, None], initial=np.inf)
    key = outs[rows, spread.argmax()]
    order = np.argsort(key, kind="stable")
    rows, key = rows[order], key[order]
    # rows i + 1 .. i + width[i] lie within the window of row i
    width = np.searchsorted(key, key + 2e-12, side="right") - np.arange(len(key)) - 1
    for lag in range(1, int(width.max(initial=0)) + 1):
        i = np.flatnonzero(width >= lag)
        a, b = rows[i + lag], rows[i]
        d_in = np.abs(ins[a] - ins[b]).max(axis=1, initial=0.0)
        d_out = np.abs(outs[a] - outs[b]).max(axis=1, initial=0.0)
        if ((d_in > 1e-6) & (d_out <= 1e-12)).any():
            return 1.0
    return 0.0


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def rack_axiom_suite(sys: LocalRackSystem, n_samples: int = 200,
                     seed: int = 0) -> list[PropertyResult]:
    """Self-distributivity, pointedness and injectivity-on-samples for the
    product (g,a) |> (h,b), over the samples in chunks."""
    rng = np.random.default_rng(seed)
    n, k = n_samples, sys.dim ** 2
    take = draw_samples(sys, rng, sys.chart_radius / 4.0, 3 * n, "ga")
    neutral = _neutral(sys)
    # the injectivity row's rack elements as rows (g flattened, a): g_0 and
    # the inputs, draws 0..n, each kept by the chunk that exponentiates it,
    # and each sample's output
    ins, outs = np.empty((n + 1, k + sys.center_dim)), np.empty((n, k + sys.center_dim))

    def elements(rows):
        return LocalRackElement(rows[:, :k].reshape(len(rows), sys.dim, sys.dim), rows[:, k:])

    def run(lo, hi):
        # sample i is u, v, w = draws 3i, 3i + 1, 3i + 2, and its injectivity
        # input is draw i + 1 under the fixed g_0 = draw 0.  The chunk
        # exponentiates its own draws alone: its inputs lo + 1..hi lie at or
        # below its last draw 3 hi - 1, so this chunk or an earlier one kept
        # them
        m = hi - lo
        g, a = take(slice(3 * lo, 3 * hi))
        kept = ins[3 * lo:3 * hi]  # its draws among 0..n
        kept[:, :k], kept[:, k:] = g[:len(kept)].reshape(len(kept), k), a[:len(kept)]
        u, v, w = (LocalRackElement(g[j::3], a[j::3]) for j in range(3))

        # v |> w, 1 |> v and g_0 |> inputs as one (3, m) stack; then u acts
        # on v |> w, v, w and the neutral element as one (4, m) stack, the
        # widest, 4 a sample, so that u's own log, action and i1 are taken
        # once per sample
        first, first_ok = _rack_products(sys, _stack(v, neutral, elements(ins[:1])),
                                         _stack(w, v, elements(ins[lo + 1:hi + 1])))
        vw, one_v, out = _parts(first)
        outs[lo:hi, :k], outs[lo:hi, k:] = out.g.reshape(m, k), out.a
        by_u, by_u_ok = _rack_products(sys, LocalRackElement(u.g[None], u.a[None]),
                                       _stack(vw, v, w, neutral))
        lhs, uv, uw, u_one = _parts(by_u)
        rhs, rhs_ok = _rack_products(sys, uv, uw)
        return (elem_distance(lhs, rhs), first_ok[0] & by_u_ok[:3].all(axis=0) & rhs_ok,
                np.maximum(elem_distance(u_one, neutral), elem_distance(one_v, v)),
                by_u_ok[3] & first_ok[1], first_ok[2])

    sd, sd_ok, pointed, pointed_ok, ok = _chunked(sys, n, 4, run)
    results = stacked(n, [(sd, sd_ok)], [("self_distributivity", 1e-9)])
    results += stacked(n, [(pointed, pointed_ok)], [("pointedness", 1e-12)])
    # left translation by the fixed g_0 separates separated inputs; the row
    # keeps the samples in chart, and like every other row, samples counts
    # attempts and skipped the ones out of chart
    results.append(PropertyResult("injectivity_on_samples", _injectivity_defect(ins[1:], outs, ok),
                                  1e-9, n, n - int(np.count_nonzero(ok))))
    return results


def cocycle_suite(sys: LocalRackSystem, n_triples: int = 100,
                  seed: int = 1) -> list[PropertyResult]:
    """Rack-cocycle identity of i2 in the anti-symmetric module (psi = 0),

        d_R f(g,h,k) = g.f(h,k) - f(g|>h, g|>k) - (g|>h).f(g,k) + f(g, h|>k) = 0,

    the stronger identity b(f)(g,h,k) = g.f(h,k) - f(gh,k) + f(g,h|>k) = 0,
    and the relation d_R f(g,h,k) = b(f)(g,h,k) - b(f)(g|>h,g,k) between
    them, over the triples in chunks.  The three share their terms, each
    computed once from log coordinates: the seven conjugations in two
    calls, the two group products in one, the logs of the eleven elements
    they and the triple give in two, then the six i2 values and the two
    actions in one call each.  A triple that leaves the chart anywhere is
    one skip for all three."""
    rng = np.random.default_rng(seed)
    take = draw_samples(sys, rng, sys.chart_radius / 8.0, n_triples, "ggg")

    def run(lo, hi):
        g, h, k = take(slice(lo, hi))
        # one mask for every call, each narrowing its leading rows: a triple
        # that fails any of them is one skip.  The widest stacks, the log of
        # six elements and i2 of six pairs, are 6 a sample
        mask = np.ones((6, hi - lo), dtype=bool)
        gh, gk, hk = conjugate(sys, _stack(g, g, h), _stack(h, k, k), mask[:3])
        g_h, gh_g = group_product(sys, _stack(g, gh), _stack(h, g), mask[:2])
        xi_g, xi_h, xi_gh, xi_gk, xi_hk = log_coords(sys, _stack(g, h, gh, gk, hk), mask[:5])
        # the four conjugations that i2 still needs: (g|>h) |> (g|>k),
        # g |> (h|>k), gh |> k and ((g|>h) g) |> k
        conj = conjugate(sys, _stack(gh, g, g_h, gh_g), _stack(gk, hk, k, k), mask[:4])
        xi_g_h, xi_gh_g, *eta = log_coords(sys, _stack(g_h, gh_g, *conj), mask)
        f_h_k, f_g_k, f_gh_gk, f_g_hk, f_gh_k, f_ghg_k = i2_from_coords(
            sys, _stack(xi_h, xi_g, xi_gh, xi_g, xi_g_h, xi_gh_g), _stack(xi_hk, xi_gk, *eta))
        act_g, act_gh = action_from_coords(sys, _stack(xi_g, xi_gh))
        g_f_hk, gh_f_gk = matvec(act_g, f_h_k), matvec(act_gh, f_g_k)
        dr = g_f_hk - f_gh_gk - gh_f_gk + f_g_hk
        ghost = g_f_hk - f_gh_k + f_g_hk
        ghost_shift = gh_f_gk - f_ghg_k + f_gh_gk
        return (sup_rows(dr), sup_rows(ghost), sup_rows(dr - (ghost - ghost_shift)),
                mask.all(axis=0))

    dr, ghost, induced, ok = _chunked(sys, n_triples, 6, run)
    return stacked(n_triples, [(dr, ok), (ghost, ok), (induced, ok)],
                   [("rack_cocycle_identity", 1e-9), ("ghost_identity", 1e-9),
                    ("ghost_induces_cocycle", 2e-9)])


def basis_pair_difference(sys: LocalRackSystem) -> tuple[np.ndarray, np.ndarray]:
    """The tangent bracket of every pair (e_i, e_j) of the parent's basis,
    in (g0, center) coordinates, as an (n, n, n) array, and its (n, n) mask
    of the pairs whose probes stayed in the chart: the one mixed difference
    that both round trips read.  The rows i of the grid run in chunks, a
    chunk's rows as a column against the whole basis as a row, so a chunk
    exponentiates its own probes once and the 4n probes of the row again."""
    n, coords = sys.dim, sys.basis_coords

    def run(lo, hi):
        ok = np.ones((hi - lo, n), dtype=bool)
        return tangent_bracket(sys, coords[lo:hi, None], coords[None], ok), ok

    # a grid row's widest stack, the conjugations, is 4 steps x n pairs
    diff, ok = _chunked(sys, n, 4 * n, run)
    return diff, ok


def roundtrip_suite(sys: LocalRackSystem,
                    pairs: tuple[np.ndarray, np.ndarray]) -> list[PropertyResult]:
    """delta2 of the integrated cocycle recovers omega on all pairs of g0's
    basis, read off ``basis_pair_difference`` (pairs): the lifts e_p of g0
    have center coordinates 0, so the rack product of (exp(s ad e_p), 0)
    and (exp(t ad e_q), 0) is (g |> h, g.0 + i2(g, h)), and the center part
    of the difference at (e_p, e_q) is delta2(i2)(e_p, e_q)."""
    diff, ok = pairs
    d, m = sys.g0_dim, sys.center_dim
    lifts = np.ix_(sys.ext.complement_pivots, sys.ext.complement_pivots)
    got = diff[lifts][..., d:]
    omega_np = sys.omega.transpose(0, 2, 1)
    return stacked(d * d, [(sup_rows((got - omega_np).reshape(d * d, m)), ok[lifts].ravel())],
                   [("delta2_left_inverse", 1e-5)])


def tangent_suite(sys: LocalRackSystem,
                  pairs: tuple[np.ndarray, np.ndarray]) -> list[PropertyResult]:
    """The rack product differentiates back to the parent bracket on all
    basis pairs, through the splitting g = g0 (+) center: the whole of
    ``basis_pair_difference`` (pairs), of which ``roundtrip_suite`` reads
    the center part at the lifts of g0, where it is delta2(i2)."""
    diff, ok = pairs
    n = sys.dim
    return stacked(n * n, [(sup_rows(diff.reshape(n * n, n) - sys.bracket_coords), ok.ravel())],
                   [("tangent_bracket_roundtrip", 1e-4)])


def lie_specialization_suite(sys: LocalRackSystem, n_samples: int = 50,
                             seed: int = 2) -> list[PropertyResult]:
    """For Lie input: the group product (g,a)(h,b) = (gh, a+b+iota2(g,h)) is
    associative, its conjugation equals the rack product, and
    i2(g,h) = iota2(g,h) - iota2(g|>h, g); over the samples in chunks."""
    if not sys.parent_is_lie:
        raise ValueError("the Lie specialization needs a Lie algebra input")
    rng = np.random.default_rng(seed)
    take = draw_samples(sys, rng, sys.chart_radius / 8.0, n_samples, "gagaga")

    def run(lo, hi):
        ug, ua, vg, va, wg, wa = take(slice(lo, hi))
        n = hi - lo
        u, v, w = LocalRackElement(ug, ua), LocalRackElement(vg, va), LocalRackElement(wg, wa)
        inv_ok, cl_ok = np.ones(n, dtype=bool), np.ones(n, dtype=bool)
        # u.g |> v.g and its logs give row 2's u |> v and i2 for rows 2, 3
        gh, xi, eta = conjugate_and_log(sys, u.g, v.g, cl_ok)
        i2_uv = i2_from_coords(sys, xi, eta)
        # u^-1 = (g^-1, -a - iota2(g, g^-1)), the local Lie group's
        # inverse; iota2 and the products below apply g^-1's chart gate
        uinv_g = group_inverse(u.g, ok=inv_ok)

        # iota2 of (u, v), (v, w), (u, u^-1) and (u |> v, u) as one (4, n)
        # stack, for rows 1, 1, 2 and 3, and the group products of the first
        # two; iota2 applies the products' gates to all four, and its nodes
        # make the widest stack, 4 quad-order a sample
        first = np.ones((4, n), dtype=bool)
        x, y = _stack(u.g, v.g, u.g, gh), _stack(v.g, w.g, uinv_g, u.g)
        uv_g, vw_g = group_product(sys, x[:2], y[:2], first[:2])
        iota_uv, iota_vw, iota_inv, iota_gh = iota2(sys, x, y, first)
        uv = LocalRackElement(uv_g, u.a + v.a + iota_uv)
        vw = LocalRackElement(vw_g, v.a + w.a + iota_vw)
        uinv = LocalRackElement(uinv_g, -u.a - iota_inv)
        # the products (uv) w, u (vw) and (uv) u^-1 as one (3, n) stack
        second = np.ones((3, n), dtype=bool)
        uv_w, u_vw, uv_uinv = _parts(lie_group_product(sys, _stack(uv, u, uv),
                                                       _stack(w, vw, uinv), second))
        u_v = LocalRackElement(gh, matvec(action_from_coords(sys, xi), v.a) + i2_uv)
        return (elem_distance(uv_w, u_vw), first[:2].all(axis=0) & second[:2].all(axis=0),
                elem_distance(uv_uinv, u_v), inv_ok & cl_ok & first[2] & second[2],
                sup_rows(i2_uv - (iota_uv - iota_gh)), cl_ok & first[3])

    assoc, assoc_ok, conj, conj_ok, iota, iota_ok = _chunked(
        sys, n_samples, 4 * sys.quad.order, run)
    return stacked(n_samples, [(assoc, assoc_ok), (conj, conj_ok), (iota, iota_ok)],
                   [("lie_group_associativity", 1e-9),
                    ("lie_conjugation_equals_rack", 1e-9), ("i2_from_iota2", 1e-9)])


def augmented_action_suite(sys: LocalRackSystem, n_samples: int = 50,
                           seed: int = 3) -> list[PropertyResult]:
    """The G0-action axioms of the augmented structure: unit action, fixed
    point (1,0), and compatibility rho(g, rho(h, w)) = rho(gh, w), over
    the samples in chunks."""
    rng = np.random.default_rng(seed)
    take = draw_samples(sys, rng, sys.chart_radius / 8.0, n_samples, "ggga")
    neutral = _neutral(sys)

    def act(x, y):
        ok = np.ones(np.broadcast_shapes(x.shape[:-2], y.g.shape[:-2]), dtype=bool)
        return augmented_action(sys, x, y, ok), ok

    def run(lo, hi):
        g, h, wg, wa = take(slice(lo, hi))
        w = LocalRackElement(wg, wa)
        gh_ok = np.ones(hi - lo, dtype=bool)
        gh = group_product(sys, g, h, gh_ok)
        # 1, h and gh act on w as one (3, m) stack, the widest, 3 a sample;
        # then g on the neutral element and on h.w as one (2, m) stack
        on_w, on_w_ok = act(_stack(neutral.g, h, gh), w)
        unit, hw, rhs = _parts(on_w)
        by_g, by_g_ok = act(g[None], _stack(neutral, hw))
        fixed, lhs = _parts(by_g)
        return (elem_distance(unit, w), on_w_ok[0], elem_distance(fixed, neutral), by_g_ok[0],
                elem_distance(lhs, rhs), on_w_ok[1] & by_g_ok[1] & gh_ok & on_w_ok[2])

    unit, unit_ok, fixed, fixed_ok, compat, compat_ok = _chunked(sys, n_samples, 3, run)
    return stacked(n_samples, [(unit, unit_ok), (fixed, fixed_ok), (compat, compat_ok)],
                   [("action_unit", 1e-12), ("action_fixed_point", 1e-12),
                    ("action_compatibility", 1e-9)])


def quadrature_stability_suite(sys: LocalRackSystem, n_pairs: int = 20,
                               seed: int = 4) -> list[PropertyResult]:
    """Doubling the order of i2's quadrature cross-check (``i2_from_coords``
    at a rule) must not move it: the integrands are polynomial when rho is
    nilpotent.  All pairs at once, logged once for both orders."""
    rng = np.random.default_rng(seed)
    g, h = draw_samples(sys, rng, sys.chart_radius / 4.0, n_pairs, "gg")()
    fine = gauss_legendre_01(2 * sys.quad.order)
    ok = np.ones(n_pairs, dtype=bool)
    _, xi, eta = conjugate_and_log(sys, g, h, ok)
    diff = i2_from_coords(sys, xi, eta, sys.quad) - i2_from_coords(sys, xi, eta, fine)
    return stacked(n_pairs, [(sup_rows(diff), ok)],
                   [("quadrature_order_stability", 1e-12)])


def full_suite(sys: LocalRackSystem, n_samples: int = 200, seed: int = 0
               ) -> list[PropertyResult]:
    """Everything the integrate command reports."""
    results = []
    results += rack_axiom_suite(sys, n_samples, seed)
    results += cocycle_suite(sys, max(10, n_samples // 2), seed + 1)
    results += augmented_action_suite(sys, max(10, n_samples // 4), seed + 2)
    pairs = basis_pair_difference(sys)
    results += roundtrip_suite(sys, pairs)
    results += tangent_suite(sys, pairs)
    results += quadrature_stability_suite(sys, min(20, n_samples), seed + 3)
    if sys.parent_is_lie:
        results += lie_specialization_suite(sys, max(10, n_samples // 4), seed + 4)
    return results
