"""Seeded sampling harnesses for the local rack invariants.

Each suite takes the system, which carries iota2's quadrature rule and
the finite-difference step, and its sample count and seed, and returns
``PropertyResult`` records (max defect, tolerance, sample/skip counts).
The suites do no exact arithmetic: what they need of the extension, the
system derives once (see ``rack``).  Sampling is deterministic in the
seed, and defects are accumulated NaN-first, so a NaN or infinite defect
reaches the report and fails its property.

The rack axiom, cocycle, action and quadrature suites and the round trips
compute on points of X = g0 x a, stored as rows (eta, b) of shape
(N, d + m), where G0 acts everywhere (see ``rack``): g, with split
G = [[A, 0], [C, D]], maps (eta, b) to (A eta, D b + phi1(rho_{A eta})
C eta) (``_act``, ``rack.augmented_from_split``), and x |> y = p(x).y,
p(eta, b) = exp(ad eta), is a rack on all of X.  The element that acts
is split once: a draw's group element, exp(ad A eta) for a product
x |> y (one exp and no inverse), or g h for a group product.
Results are compared as rows of X (``sup_rows``), so pointedness and the
fixed point are exact zeros (A 0 = 0).  These suites take no conjugation
g h g^-1, no float inverse and no chart gate, and skip no sample
(``unmasked``).

The Lie suite alone acts on group elements: iota2 and the local Lie group
product live on the chart.  Its samples that leave it fail the chart
gates inside the operations and are counted as skips, never crashes, by
the rule of a loop over the samples: a skip ends the sample, and the
defects it already yielded still count.  It calls each operation once on
a stack with a mask of the slices that succeeded (see ``rack``), and
``stacked`` applies the rule with cumulative masks: property k counts the
samples where the operations of properties 1..k all succeeded.

Every suite runs its samples as stacks, and the results equal those of the
one-sample-at-a-time loops bit for bit.  It draws the whole sample set's
coordinates first (``draw_samples``, in the RNG order of drawing one sample
after another, or the basis pairs of the round trips).  A draw
exponentiates the group parts of the rows it is asked for as one stack;
each round then halves the rows that do not fit the ball yet once and
exponentiates exactly those as one stack (``_group_elements``).  Each
group part comes with the coordinates it exponentiated, x * 0.5^k of the
raw draw, which halving keeps exact: its log coordinates, with no log
taken, and with its center part a point of X.

The four suites whose stacks grow with the sample count, and the basis
pairs of the round trips, run in chunks (``_chunked``, ``CHUNK_ENTRIES``).
A slice equals its one-element call, so the chunks change no value, mask
or skip.

A suite makes one call per dependency level, not one per term: the
operations of one level that do not depend on each other run as one call
on a (k, n) stack (``_stack``).  Each part is a C-contiguous copy, so its
slices equal its own call's bit for bit.  ``rack_axiom_suite`` takes
three actions, of three, four and one points a sample, from three splits;
``cocycle_suite`` splits two elements, then three, and reads one i2 of six
pairs and one action of two off the splits; ``augmented_action_suite``
takes two actions, of three and two; ``lie_specialization_suite`` one
conjugation and two iota2, of 4 and 3 pairs, each of whose k parts narrows
its own row of the call's (k, n) mask.

The two round trips read one mixed difference, ``basis_pair_difference``,
the tangent bracket of every pair of the parent's basis, which pairs a
chunk of the basis as a column against the whole basis as a row, so each
probe of a chunk is exponentiated once.  ``tangent_suite`` compares it
with the parent bracket.  ``roundtrip_suite`` reads delta2(i2) off it: at
the lifts e_p of g0, whose center coordinates are 0, p(s e_p) acting on
(t e_q, 0) gives (A t e_q, i2(exp(s ad e_p), exp(t ad e_q))), so the
center part of the difference at (e_p, e_q) is the mixed difference of i2
that the tests' delta2 (``tests/oracles.py``) takes, bit for bit.  The
probes act on X, so the difference takes no log, inverse or gate
(``rack.tangent_bracket``).

A value is computed once per suite.  A later property may reuse a value
that an earlier one computed, since the gates it passed are already in the
later property's cumulative mask, never the reverse: the three rows of
``cocycle_suite`` share their splits, i2 values and actions, and row 3 of
``lie_specialization_suite`` reuses the iota2(u.g, v.g) of row 1 and the
i2(u.g, v.g) of row 2.

No suite logs an element it drew, and the Lie suite's only logs are
iota2's.  ``cocycle_suite`` reads its six i2 values and two actions off
the splits of h, g, g |> h, gh and (g |> h) g, with the coordinates that
k's draw carries and those of g |> k and h |> k, A eta_k under g's and
h's split (``rack.conjugate_coords``).  ``quadrature_stability_suite``
takes the paper's form, i2 by quadrature from the coordinates of g and
g |> h (``rack.i2_from_coords``) at two rules: g carries its draw's,
g |> h carries A eta under g's split.  ``lie_specialization_suite`` takes
i2 and the rack product u |> v from one conjugation and u.g's split
(``rack.conjugate_and_split``).  ``rack.log_coords`` of a draw equals the
coordinates it carries to rounding, which the tests check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .linalg import gauss_legendre_01, matvec, norm1_float
from .rack import (
    LocalRackElement,
    LocalRackSystem,
    action_from_split,
    augmented_from_split,
    conjugate_and_split,
    conjugate_coords,
    group_from_coords,
    group_inverse,
    group_product,
    i2_from_coords,
    i2_from_split,
    iota2,
    lie_group_product,
    split,
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


def unmasked(n: int, defects: Iterable[np.ndarray],
             props: list[tuple[str, float]]) -> list[PropertyResult]:
    """``stacked`` for suites that skip no sample: one PropertyResult per
    (name, tolerance) in props, each the worst of its defects (n,)."""
    ok = np.ones(n, dtype=bool)
    return stacked(n, [(x, ok) for x in defects], props)


def elem_distance(u: LocalRackElement, v: LocalRackElement):
    """max(sup |u.g - v.g|, sup |u.a - v.a|), NaN if either is; for stack
    elements, an array of the distances of their slices."""
    return np.maximum(np.abs(u.g - v.g).max(axis=(-2, -1), initial=0.0),
                      np.abs(u.a - v.a).max(axis=-1, initial=0.0))


def _stack(*parts):
    """Parts of N slices each (or of one, which broadcasts), arrays or rack
    elements, as one (k, N) stack whose part j is parts[j].  Each part is
    copied C-contiguous, so its slices have the strides of its own call's
    (see ``rack``)."""
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


def _act(sys: LocalRackSystem, big: np.ndarray, x: np.ndarray) -> np.ndarray:
    """g.x = (A eta, D b + i2(g, h)) on points x = (eta, b) of X, rows
    (..., d + m), with G = big the split of the acting element g: the
    action of G0 on all of X (``rack.augmented_from_split``), with no log,
    inverse or gate.  Stacks broadcast."""
    d = sys.g0_dim
    return np.concatenate(augmented_from_split(sys, big, x[..., :d], x[..., d:]), axis=-1)


def _group_elements(sys: LocalRackSystem, xi: np.ndarray, max_norm: float
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(exp(ad x), x) for each row of coordinates xi (N, d), with x the row
    halved until ||exp(ad x) - I|| < max_norm, each halving x * 0.5 of the
    one before: x is exactly what was exponentiated, so it is the element's
    log coordinates with no log taken.  A round halves the rows that do not
    fit yet once and exponentiates them as one stack; each row takes its
    first halving that fits, so no exponentiated row is discarded.  The
    loop ends: a row that reaches zero gives I."""
    eye = sys.identity()
    kept = np.array(xi, dtype=float)
    # a wide draw can overflow exp; it then fails the norm test and is
    # halved, so the overflow is no error
    with np.errstate(over="ignore", invalid="ignore"):
        g = group_from_coords(sys, kept)
        left = np.flatnonzero(~(norm1_float(g - eye) < max_norm))
        x = kept[left]
        while len(left):
            x = x * 0.5
            tried = group_from_coords(sys, x)
            fits = norm1_float(tried - eye) < max_norm
            g[left[fits]], kept[left[fits]] = tried[fits], x[fits]
            left, x = left[~fits], x[~fits]
    return g, kept


def draw_samples(sys: LocalRackSystem, rng, max_norm: float, n: int, parts: str):
    """n samples, each made of the parts named in order: "g" a group
    element as ``sample_group_element`` draws it, "a" the center
    coordinates of a rack element, in [-1/4, 1/4], drawn after its group
    element.  All coordinates are drawn now, in the order of drawing the
    samples one after another; the result is take(rows), which gives each
    part at rows (a slice or index array, default all): an "a" part as a
    stack of coordinate vectors, a "g" part as the pair (elements, their
    log coordinates) of stacks, the "g" parts of those rows exponentiated
    as one ``_group_elements`` stack.  Halving draws nothing."""
    d, m = sys.g0_dim, sys.center_dim
    widths = [d if part == "g" else m for part in parts]
    blocks = np.split(rng.uniform(-1.0, 1.0, size=(n, sum(widths))), np.cumsum(widths)[:-1],
                      axis=1)
    coords = [block * (max_norm if part == "g" else 0.25) for part, block in zip(parts, blocks)]

    def take(rows=slice(None)):
        xi = [x[rows] for part, x in zip(parts, coords) if part == "g"]
        g, kept = _group_elements(sys, np.concatenate(xi), max_norm)
        groups = zip(np.split(g, len(xi)), np.split(kept, len(xi)))
        return [next(groups) if part == "g" else x[rows] for part, x in zip(parts, coords)]
    return take


def sample_group_element(sys: LocalRackSystem, rng, max_norm: float
                         ) -> tuple[np.ndarray, np.ndarray]:
    """(g, xi): a group element with ||g - I|| < max_norm and the
    coordinates xi it exponentiated, one random coordinate draw halved
    until it fits, as one row of ``_group_elements``."""
    if sys.g0_dim == 0:
        return sys.identity(), np.zeros(0)
    xi = rng.uniform(-1.0, 1.0, size=sys.g0_dim) * max_norm
    g, kept = _group_elements(sys, xi[None], max_norm)
    return g[0], kept[0]


def _injectivity_defect(ins: np.ndarray, outs: np.ndarray) -> float:
    """1.0 if two inputs more than 1e-6 apart have outputs within 1e-12 of
    each other, else 0.0.  Inputs and outputs
    are rows (N, k), points (eta, b) of X, compared in the sup norm of a
    row difference, and a NaN distance never trips it.

    Outputs within 1e-12 are within 1e-12 in every coordinate, so only
    pairs close in one coordinate, the one that varies most, are compared:
    the rows are sorted by it and each is compared with the rows after it
    up to 2e-12 further on (a margin over the rounding of that bound).
    A row with a non-finite output is never within 1e-12 of another.  The
    rows are filtered and sorted through an index, never copied."""
    keep = np.isfinite(outs).all(axis=1)
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
    rack product x |> y = p(x).y on X, over the samples in chunks.  A draw
    acts by its group element's split, a product x |> y = (A eta, ...) by
    that of p(x |> y) = exp(ad A eta)."""
    rng = np.random.default_rng(seed)
    n, width = n_samples, sys.g0_dim + sys.center_dim
    take = draw_samples(sys, rng, sys.chart_radius / 4.0, 3 * n, "ga")
    zero, eye = np.zeros((1, width)), sys.identity()[None]
    # the injectivity row's points: g_0 and the inputs, draws 0..n, each
    # kept by the chunk that exponentiates it, with g_0's group element,
    # and each sample's output
    ins, outs, g_0 = np.empty((n + 1, width)), np.empty((n, width)), np.empty_like(eye)

    def run(lo, hi):
        # sample i is u, v, w = draws 3i, 3i + 1, 3i + 2, and its injectivity
        # input is draw i + 1 under the fixed g_0 = draw 0.  The chunk
        # exponentiates its own draws alone: its inputs lo + 1..hi lie at or
        # below its last draw 3 hi - 1, so this chunk or an earlier one kept
        # them
        (g, xi), a = take(slice(3 * lo, 3 * hi))
        x = np.concatenate([xi, a], axis=1)
        kept = ins[3 * lo:3 * hi]  # its draws among 0..n
        kept[:] = x[:len(kept)]
        if lo == 0:
            g_0[:] = g[:1]
        u, v, w = x[0::3], x[1::3], x[2::3]

        # v |> w, 1 |> v and g_0 |> inputs as one (3, m) stack; then u acts
        # on v |> w, v, w and 0 as one (4, m) stack, the widest, 4 a sample
        vw, one_v, outs[lo:hi] = _act(sys, split(sys, _stack(g[1::3], eye, g_0)),
                                      _stack(w, v, ins[lo + 1:hi + 1]))
        lhs, uv, uw, u_zero = _act(sys, split(sys, g[0::3])[None], _stack(vw, v, w, zero))
        rhs = _act(sys, split(sys, group_from_coords(sys, uv[:, :sys.g0_dim])), uw)
        return sup_rows(lhs - rhs), np.maximum(sup_rows(u_zero), sup_rows(one_v - v))

    sd, pointed = _chunked(sys, n, 4, run)
    return unmasked(n, [sd, pointed], [("self_distributivity", 1e-9), ("pointedness", 1e-12)]) + [
        PropertyResult("injectivity_on_samples",
                       _injectivity_defect(ins[1:], outs), 1e-9, n, 0)]


def cocycle_suite(sys: LocalRackSystem, n_triples: int = 100,
                  seed: int = 1) -> list[PropertyResult]:
    """Rack-cocycle identity of i2 in the anti-symmetric module (psi = 0),

        d_R f(g,h,k) = g.f(h,k) - f(g|>h, g|>k) - (g|>h).f(g,k) + f(g, h|>k) = 0,

    the stronger identity b(f)(g,h,k) = g.f(h,k) - f(gh,k) + f(g,h|>k) = 0,
    and the relation d_R f(g,h,k) = b(f)(g,h,k) - b(f)(g|>h,g,k) between
    them, over the triples in chunks.  The three share their terms, each
    computed once.  The six i2 values and the two actions are read off the
    splits of h, g, g|>h = exp(ad A_g eta_h), gh and (g|>h) g, in two calls
    (see ``rack.split``), with the coordinates that k's draw carries and
    those of g|>k and h|>k, A eta_k under g's and h's split."""
    rng = np.random.default_rng(seed)
    take = draw_samples(sys, rng, sys.chart_radius / 8.0, n_triples, "ggg")

    def run(lo, hi):
        (g, _), (h, eta_h), (k, eta_k) = take(slice(lo, hi))
        big_h, big_g = split(sys, _stack(h, g))
        gh = group_from_coords(sys, conjugate_coords(sys, big_g, eta_h))
        big_gh, big_g_h, big_gh_g = split(sys, _stack(gh, g @ h, gh @ g))
        # the splits of i2's six acting elements, the widest stack, 6 a
        # sample: h, g, g|>h, g, gh, (g|>h) g
        big = _stack(big_h, big_g, big_gh, big_g, big_g_h, big_gh_g)
        eta_gk, eta_hk = conjugate_coords(sys, _stack(big_g, big_h), eta_k)
        f_h_k, f_g_k, f_gh_gk, f_g_hk, f_gh_k, f_ghg_k = i2_from_split(
            sys, big, _stack(eta_k, eta_k, eta_gk, eta_hk, eta_k, eta_k))
        act_g, act_gh = action_from_split(sys, big[1:3])
        g_f_hk, gh_f_gk = matvec(act_g, f_h_k), matvec(act_gh, f_g_k)
        dr = g_f_hk - f_gh_gk - gh_f_gk + f_g_hk
        ghost = g_f_hk - f_gh_k + f_g_hk
        ghost_shift = gh_f_gk - f_ghg_k + f_gh_gk
        return sup_rows(dr), sup_rows(ghost), sup_rows(dr - (ghost - ghost_shift))

    return unmasked(n_triples, _chunked(sys, n_triples, 6, run),
                    [("rack_cocycle_identity", 1e-9), ("ghost_identity", 1e-9),
                     ("ghost_induces_cocycle", 2e-9)])


def basis_pair_difference(sys: LocalRackSystem) -> np.ndarray:
    """The tangent bracket of every pair (e_i, e_j) of the parent's basis,
    in (g0, center) coordinates, as an (n, n, n) array: the one mixed
    difference that both round trips read.  The rows i of the grid run in
    chunks, a chunk's rows as a column against the whole basis as a row,
    so a chunk exponentiates its own probes once and the row's probes act
    on X with no exp."""
    n, coords = sys.dim, sys.basis_coords
    # a grid row's widest stack, the probes' actions, is 4 steps x n pairs
    return _chunked(sys, n, 4 * n,
                    lambda lo, hi: [tangent_bracket(sys, coords[lo:hi, None], coords[None])])[0]


def roundtrip_suite(sys: LocalRackSystem, diff: np.ndarray) -> list[PropertyResult]:
    """delta2 of the integrated cocycle recovers omega on all pairs of g0's
    basis, read off ``basis_pair_difference`` (diff): the lifts e_p of g0
    have center coordinates 0, so p(s e_p) acting on (t e_q, 0) is
    (A t e_q, i2(exp(s ad e_p), exp(t ad e_q))), and the center part of the
    difference at (e_p, e_q) is delta2(i2)(e_p, e_q)."""
    d, m = sys.g0_dim, sys.center_dim
    lifts = np.ix_(sys.ext.complement_pivots, sys.ext.complement_pivots)
    got = diff[lifts][..., d:]
    omega_np = sys.omega.transpose(0, 2, 1)
    return unmasked(d * d, [sup_rows((got - omega_np).reshape(d * d, m))],
                    [("delta2_left_inverse", 1e-5)])


def tangent_suite(sys: LocalRackSystem, diff: np.ndarray) -> list[PropertyResult]:
    """The rack product differentiates back to the parent bracket on all
    basis pairs, through the splitting g = g0 (+) center: the whole of
    ``basis_pair_difference`` (diff), of which ``roundtrip_suite`` reads
    the center part at the lifts of g0, where it is delta2(i2)."""
    n = sys.dim
    return unmasked(n * n, [sup_rows(diff.reshape(n * n, n) - sys.bracket_coords)],
                    [("tangent_bracket_roundtrip", 1e-4)])


def lie_specialization_suite(sys: LocalRackSystem, n_samples: int = 50,
                             seed: int = 2) -> list[PropertyResult]:
    """For Lie input: the group product (g,a)(h,b) = (gh, a+b+iota2(g,h)) is
    associative, its conjugation equals the rack product, and
    i2(g,h) = iota2(g,h) - iota2(g|>h, g); over the samples in chunks."""
    if not sys.ext.parent.is_lie:
        raise ValueError("the Lie specialization needs a Lie algebra input")
    rng = np.random.default_rng(seed)
    take = draw_samples(sys, rng, sys.chart_radius / 8.0, n_samples, "gagaga")

    def run(lo, hi):
        (ug, _), ua, (vg, eta_v), va, (wg, _), wa = take(slice(lo, hi))
        n = hi - lo
        u, v, w = LocalRackElement(ug, ua), LocalRackElement(vg, va), LocalRackElement(wg, wa)
        inv_ok, cl_ok = np.ones(n, dtype=bool), np.ones(n, dtype=bool)
        # u.g |> v.g, u.g's split and the coordinates v.g carries give i2
        # for rows 2 and 3, and row 2's u |> v, whose center part D v.a + i2
        # is ``rack.augmented_from_split``'s with that i2 reused
        gh, big = conjugate_and_split(sys, u.g, v.g, cl_ok)
        i2_uv = i2_from_split(sys, big, eta_v)
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
        u_v = LocalRackElement(gh, matvec(action_from_split(sys, big), v.a) + i2_uv)
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
    """The G0-action axioms on X: unit action, fixed point 0, and
    compatibility g.(h.w) = (gh).w, over the samples in chunks.  w is the
    point of its draw; g, h and gh act by their splits."""
    rng = np.random.default_rng(seed)
    take = draw_samples(sys, rng, sys.chart_radius / 8.0, n_samples, "ggga")
    zero, eye = np.zeros((1, sys.g0_dim + sys.center_dim)), sys.identity()[None]

    def run(lo, hi):
        (g, _), (h, _), (_, eta_w), b_w = take(slice(lo, hi))
        w = np.concatenate([eta_w, b_w], axis=1)
        # 1, h and gh act on w as one (3, m) stack, the widest, 3 a sample;
        # then g on 0 and on h.w as one (2, m) stack
        unit, hw, rhs = _act(sys, split(sys, _stack(eye, h, g @ h)), w)
        fixed, lhs = _act(sys, split(sys, g)[None], _stack(zero, hw))
        return sup_rows(unit - w), sup_rows(fixed), sup_rows(lhs - rhs)

    return unmasked(n_samples, _chunked(sys, n_samples, 3, run),
                    [("action_unit", 1e-12), ("action_fixed_point", 1e-12),
                     ("action_compatibility", 1e-9)])


def quadrature_stability_suite(sys: LocalRackSystem, n_pairs: int = 20,
                               seed: int = 4) -> list[PropertyResult]:
    """Doubling the order of i2's quadrature cross-check (``i2_from_coords``
    at a rule) must not move it: the integrands are polynomial when rho is
    nilpotent.  All pairs at once, from g's split for both orders: g
    carries the coordinates xi of its draw and g |> h those of h under g's
    split, A eta."""
    rng = np.random.default_rng(seed)
    (g, xi), (_, eta) = draw_samples(sys, rng, sys.chart_radius / 4.0, n_pairs, "gg")()
    fine = gauss_legendre_01(2 * sys.quad.order)
    eta_gh = conjugate_coords(sys, split(sys, g), eta)
    diff = i2_from_coords(sys, xi, eta_gh, sys.quad) - i2_from_coords(sys, xi, eta_gh, fine)
    return unmasked(n_pairs, [sup_rows(diff)], [("quadrature_order_stability", 1e-12)])


def full_suite(sys: LocalRackSystem, n_samples: int = 200, seed: int = 0
               ) -> list[PropertyResult]:
    """Everything the integrate command reports."""
    results = []
    results += rack_axiom_suite(sys, n_samples, seed)
    results += cocycle_suite(sys, max(10, n_samples // 2), seed + 1)
    results += augmented_action_suite(sys, max(10, n_samples // 4), seed + 2)
    diff = basis_pair_difference(sys)
    results += roundtrip_suite(sys, diff)
    results += tangent_suite(sys, diff)
    results += quadrature_stability_suite(sys, min(20, n_samples), seed + 3)
    if sys.ext.parent.is_lie:
        results += lie_specialization_suite(sys, max(10, n_samples // 4), seed + 4)
    return results
