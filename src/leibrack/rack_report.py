"""The float half of the ``integrate`` and ``example`` reports: the rack
system, the seeded suites, the i2 probe, and each built-in example's
closed-form cross-checks.

``cli`` does the exact half of these commands (parsing, the config caps,
the extension and its sections) and imports this module only once they
have passed, so ``verify`` and ``analyze`` never load numpy, the rack or
the suites.  ``run`` fills in the rest of the report and returns the exit
code.

The functions of ``rack`` and ``suites`` are read off their modules at
each call, never bound here: this module is imported on first use, which
can fall inside a pass of the benchmark's tracer, and a name bound then
would keep the tracer's wrapper after the pass.
"""

from __future__ import annotations

import numpy as np

from . import rack, suites
from .algebra import CentralExtensionData
from .cli import _overflow_error
from .exact import OutOfChartError

# the least chart radius of the i2 probe and the dim5 extras, whose
# unit-scale group elements leave the default chart
WIDE_CHART_RADIUS = 8.0

PSI_SIGN_NOTE = (
    "rack differential: two sign conventions for the psi term circulate; the "
    "general-arity formula and the expansions the cocycle-integration "
    "identities require disagree at arity 1 over a symmetric module. The "
    "expansions are normative here (rack_differential_eval); the other "
    "convention stays available as rack_differential_general.")

PHI_TYPO_NOTE = (
    "dim5: the integrated center action is the exponential of a strictly "
    "triangular matrix, hence unipotent (diagonal 1). A variant with 0 in "
    "the bottom-right entry circulates but would drop the b5 term from the "
    "conjugation; the faithful exponential is used here and the conjugation "
    "closed-form check passes, so no residual mismatch needs attributing.")


def _config_section(args) -> dict:
    return {
        "quad_order": args.quad_order,
        "chart_radius": args.chart_radius,
        "fd_step": args.fd_step,
        "samples": args.samples,
        "seed": args.seed,
    }


def run(ext: CentralExtensionData, args, report) -> int:
    """Build the rack system on a chart of ``--chart-radius`` and run the
    suites, plus an example's extra cross-checks, into report; returns the
    exit code.  An exact value outside float range fills report['error']
    and gives 2."""
    try:
        sys_ = rack.build_rack_system(ext, args.chart_radius)
    except OverflowError as exc:
        report["error"] = _overflow_error(exc)
        return 2
    report["config"] = _config_section(args)
    extras, notes = EXAMPLE_EXTRAS[args.name] if args.subcommand == "example" else (None, ())
    cfg = rack.default_config(args.quad_order, args.fd_step)
    results = suites.full_suite(sys_, cfg, n_samples=args.samples, seed=args.seed)
    if extras is not None:
        results += extras(sys_, args)
    report["properties"] = [r.as_dict() for r in results]
    probe = _i2_probe(sys_, args)
    if probe is not None:
        report["i2_probe"] = probe
    report["notes"] = [PSI_SIGN_NOTE, *notes]
    coverage_fail = any(r.skipped > max(1, r.samples) / 2 for r in results)
    prop_fail = not all(r.passed for r in results)
    if coverage_fail:
        report["verdict"] = "chart_coverage_failure"
        return 3
    if prop_fail:
        report["verdict"] = "property_failure"
        return 4
    report["verdict"] = "pass"
    return 0


def _i2_probe(sys_: rack.LocalRackSystem, args) -> dict | None:
    """i2(g, g) at g = exp(ad e_1), the unit step along the first
    coordinate direction.  Unit-coordinate group elements usually leave the
    configured chart, so this is evaluated on an explicitly widened chart.
    The realized G0 is unipotent for every nilpotent action, but the float
    log takes its finite series only when the float test finds g - I
    exactly nilpotent; rounding can send g down the convergent series,
    which is gated at ||g - I|| < 1, and then the probe is skipped
    (random_leibniz(38) is such a case)."""
    d = sys_.g0_dim
    if d == 0:
        return None
    x = np.eye(d)[0]
    radius = max(args.chart_radius, WIDE_CHART_RADIUS)
    try:
        wide = sys_.with_chart_radius(radius)
        g = rack.group_from_coords(wide.chart, x)
        value = rack.i2(wide, g, g)
    except OutOfChartError as exc:
        return {"skipped": str(exc)}
    return {
        "coords": [list(map(float, x))] * 2,
        "value": [float(c) for c in value],
        "chart_radius_used": radius,
    }


# ---------------------------------------------------------------------------
# closed forms of the dim5 worked example (used by reports and tests)
# ---------------------------------------------------------------------------

def dim5_i1_matrix(a1: float, a2: float) -> np.ndarray:
    """The 3x2 value of the first path integral at g0-coordinates (a1, a2)."""
    col = np.array([a1, 0.5 * a1 * a1 + a2, a1 * a2 + a1 ** 3 / 6.0])
    return np.stack([col, col], axis=1)


def dim5_f(a, b) -> np.ndarray:
    """Closed form of the integrated rack 2-cocycle f(a, b)."""
    a1, a2 = float(a[0]), float(a[1])
    b1, b2 = float(b[0]), float(b[1])
    s = b1 + b2
    return np.array([
        a1 * s,
        (0.5 * b1 * a1 + a2 + 0.5 * a1 * a1) * s,
        (a1 * a2 + a1 ** 3 / 6.0 + 0.25 * b1 * a1 * a1 + 0.5 * b2 * a1
         + 0.5 * b1 * a2 + b1 * b1 * a1 / 6.0) * s,
    ])


def dim5_conjugation(a, b) -> np.ndarray:
    """The full 5-dimensional conjugation (a1..a5) |> (b1..b5).  The group
    action on the center is exp of the strictly triangular rho, which is
    unipotent: the diagonal is 1, so b5 survives into the last coordinate
    (a variant with 0 in that entry would lose it)."""
    a = [float(c) for c in a]
    b = [float(c) for c in b]
    f1, f2, f3 = dim5_f(a[:2], b[:2])
    return np.array([
        b[0],
        b[1],
        b[2] + f1,
        a[0] * b[2] + b[3] + f2,
        (a[1] + 0.5 * a[0] * a[0]) * b[2] + a[0] * b[3] + b[4] + f3,
    ])


def heisenberg_iota2(g, h) -> np.ndarray:
    """Analytic value of the group 2-cocycle for the Heisenberg area form:
    half the area spanned by the log coordinates."""
    return np.array([0.5 * (float(g[0]) * float(h[1]) - float(g[1]) * float(h[0]))])


# ---------------------------------------------------------------------------
# built-in examples with their closed-form cross-checks
# ---------------------------------------------------------------------------

# Each example draws its 20 samples first, in the RNG order of drawing one
# sample after another, and then checks them as stacks (see suites).

def _dim5_extras(sys_: rack.LocalRackSystem, args) -> list[suites.PropertyResult]:
    rng = np.random.default_rng(args.seed)
    sys_ = sys_.with_chart_radius(max(args.chart_radius, WIDE_CHART_RADIUS))
    chart = sys_.chart

    def sample_coords():
        while True:
            a = rng.uniform(-0.25, 0.25, size=2)
            if np.hypot(a[0], a[1]) <= 0.25:
                return a

    draws = [(sample_coords(), sample_coords(),
              rng.uniform(-0.5, 0.5, size=3), rng.uniform(-0.5, 0.5, size=3))
             for _ in range(20)]
    a, b, ac, bc = (np.array(part) for part in zip(*draws))
    g, h = rack.group_from_coords(chart, a), rack.group_from_coords(chart, b)
    i1_ok, i2_ok, conj_ok = (np.ones(len(draws), dtype=bool) for _ in range(3))
    got_i1 = rack.i1(sys_, sys_.omega, g, i1_ok)
    got_i2 = rack.i2(sys_, g, h, i2_ok)
    got = rack.rack_product(sys_, rack.LocalRackElement(g, ac), rack.LocalRackElement(h, bc),
                            conj_ok)
    got_conj = np.concatenate([rack.log_coords(chart, got.g, conj_ok), got.a], axis=1)
    want_i1, want_i2, want_conj = (np.array(want) for want in zip(*(
        (dim5_i1_matrix(*x), dim5_f(x, y),
         dim5_conjugation(np.concatenate([x, xc]), np.concatenate([y, yc])))
        for x, y, xc, yc in draws)))
    return suites.stacked(len(draws), [(suites.sup_rows(got_i1 - want_i1), i1_ok),
                                       (suites.sup_rows(got_i2 - want_i2), i2_ok),
                                       (suites.sup_rows(got_conj - want_conj), conj_ok)],
                          [("i1_closed_form", 1e-10), ("i2_closed_form", 1e-9),
                           ("conjugation_closed_form", 1e-9)])


def _heisenberg_extras(sys_: rack.LocalRackSystem, args) -> list[suites.PropertyResult]:
    rng = np.random.default_rng(args.seed)
    cfg = rack.default_config(args.quad_order, args.fd_step)
    a, b = np.split(rng.uniform(-0.05, 0.05, size=(20, 4)), 2, axis=1)
    ok = np.ones(20, dtype=bool)
    got = rack.iota2(sys_, rack.group_from_coords(sys_.chart, a),
                     rack.group_from_coords(sys_.chart, b), cfg, ok=ok)
    want = np.array([heisenberg_iota2(x, y) for x, y in zip(a, b)])
    return suites.stacked(20, [(suites.sup_rows(got - want), ok)],
                          [("iota2_analytic_value", 1e-9)])


def _abelian_extras(sys_: rack.LocalRackSystem, args) -> list[suites.PropertyResult]:
    rng = np.random.default_rng(args.seed)
    ug, ua, vg, va = suites.draw_samples(sys_, rng, sys_.chart.chart_radius / 4, 20, "gaga")
    v = rack.LocalRackElement(vg, va)
    ok = np.ones(20, dtype=bool)
    got = rack.rack_product(sys_, rack.LocalRackElement(ug, ua), v, ok)
    return suites.stacked(20, [(suites.elem_distance(got, v), ok)],
                          [("trivial_rack_product", 1e-12)])


EXAMPLE_EXTRAS = {"dim5": (_dim5_extras, (PHI_TYPO_NOTE,)),
                  "heisenberg": (_heisenberg_extras, ()),
                  "abelian3": (_abelian_extras, ())}
