"""Command line interface.

Subcommands:

* ``verify <file>``    exact checks only (Leibniz identity, Lie test, left
                       center, squares ideal); exit 0 iff valid.
* ``analyze <file>``   the canonical extension: center, quotient, rho, omega,
                       exact cocycle verification.
* ``integrate <file>`` build the local augmented Lie rack and run the seeded
                       invariant suites.
* ``example <name>``   run a built-in (dim5 | heisenberg | abelian3) end to
                       end, with its extra closed-form cross-checks.

Exit codes: 0 pass, 2 validation/parse failure, 3 chart coverage failure
(more than half of the samples of some suite left the chart), 4 property
failure.  ``--json`` prints the machine-readable report; runs are
deterministic for a fixed file, flags and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .algebra import (
    LeibnizAlgebra,
    ValidationError,
    canonical_extension,
    is_lie,
    left_center,
    squares_ideal,
)
from .corpus import (
    BUILTIN_NAMES,
    builtin,
    dim5_conjugation,
    dim5_f,
    dim5_i1_matrix,
    heisenberg_iota2,
)
from .fileio import ParseError, algebra_to_dict, parse_algebra_file
from .linalg import OutOfChartError
from .rack import (
    LocalRackElement,
    LocalRackSystem,
    build_rack_system,
    default_config,
    group_from_coords,
    i1,
    i2,
    iota2,
    log_coords,
    rack_product,
)
from .suites import (
    PropertyResult,
    draw_samples,
    elem_distance,
    full_suite,
    stacked,
    sup_rows,
)

# The suites draw group elements up to a quarter of --chart-radius from the
# identity; far beyond the unit the float exp overflows and no identity can
# be checked to its tolerance, so a larger radius is a config error.
MAX_CHART_RADIUS = 1e3

# numpy's leggauss(q) builds a q x q companion matrix, and the quadrature
# stability suite asks for order 2q, so a huge --quad-order is a config
# error rather than a huge allocation.
MAX_QUAD_ORDER = 64

# The suites hold all samples at once and the injectivity check compares
# every pair: at this bound `example dim5` peaks at about 126 MB and 16 s.
MAX_SAMPLES = 10_000

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


def _rational_vec(v):
    return [str(c) for c in v]


def _rational_mat(m):
    return [[str(e) for e in row] for row in m.data]


def _float_vec(v):
    return [float(c) for c in v]


def _algebra_section(alg: LeibnizAlgebra) -> dict:
    doc = algebra_to_dict(alg)
    return {
        "dim": alg.dim,
        "basis": list(alg.basis_names),
        "brackets": doc["brackets"],
        "leibniz_ok": True,
        "is_lie": is_lie(alg),
    }


def _exact_checks_section(alg: LeibnizAlgebra, center) -> dict:
    """The left center and the squares ideal; center is the left center's
    exact basis, taken from the extension where one is built."""
    squares = squares_ideal(alg)
    return {
        "center_dim": len(center),
        "center_basis": [_rational_vec(v) for v in center],
        "squares_ideal_dim": len(squares),
        "squares_ideal_basis": [_rational_vec(v) for v in squares],
    }


def _analysis_section(ext) -> dict:
    d = ext.g0_dim
    omega_entries = []
    for p in range(d):
        for q in range(d):
            val = ext.omega.at(p, q)
            if any(c != 0 for c in val):
                omega_entries.append({"args": [p, q], "value": _rational_vec(val),
                                      "value_float": _float_vec(val)})
    # exact strings are authoritative; the float renderings are for reading
    return {
        "g0_dim": d,
        "complement_pivots": list(ext.complement_pivots),
        "complement_basis": [ext.parent.basis_names[p] for p in ext.complement_pivots],
        "g0_is_lie": True,
        "g0_brackets": algebra_to_dict(ext.g0)["brackets"],
        "center_basis_float": [[float(c) for c in v] for v in ext.center_basis],
        "rho": [_rational_mat(r) for r in ext.rho],
        "rho_float": [[[float(e) for e in row] for row in r.data] for r in ext.rho],
        "omega": omega_entries,
        "omega_cocycle_exact": True,
        "note": "omega depends on the chosen complement (echelon pivots of the "
                "left-adjoint map); different splittings change it by a coboundary",
    }


def _config_section(args) -> dict:
    return {
        "quad_order": args.quad_order,
        "chart_radius": args.chart_radius,
        "fd_step": args.fd_step,
        "samples": args.samples,
        "seed": args.seed,
    }


def _emit(report: dict, args) -> None:
    if args.json:
        print(json.dumps(report, indent=2))
        return
    print(f"leibrack {report['command']}: {report.get('source', '')}")
    if "error" in report:
        err = report["error"]
        print(f"  ERROR {err['type']}: {err['message']}")
        return
    alg = report.get("algebra", {})
    if alg:
        print(f"  dim {alg['dim']}, leibniz_ok={alg['leibniz_ok']}, is_lie={alg['is_lie']}")
    checks = report.get("exact_checks", {})
    if checks:
        print(f"  left center dim {checks['center_dim']}, "
              f"squares ideal dim {checks['squares_ideal_dim']}")
    ana = report.get("analysis", {})
    if ana:
        print(f"  g0 dim {ana['g0_dim']} on complement {ana['complement_basis']}; "
              f"omega has {len(ana['omega'])} nonzero basis values")
    for prop in report.get("properties", []):
        mark = "pass" if prop["pass"] else "FAIL"
        print(f"  [{mark}] {prop['name']}: max defect {prop['max_defect']:.3e} "
              f"(tol {prop['tolerance']:.1e}, samples {prop['samples']}, "
              f"skipped {prop['skipped']})")
    for note in report.get("notes", []):
        print(f"  note: {note}")
    if "verdict" in report:
        print(f"  verdict: {report['verdict']}")


def _load_algebra(args, report) -> LeibnizAlgebra | None:
    """Parse and validate; on failure fill report['error'] and return None."""
    try:
        if getattr(args, "name", None) is not None:
            report["source"] = f"builtin:{args.name}"
            return builtin(args.name)
        report["source"] = str(args.file)
        return parse_algebra_file(args.file)
    except ParseError as exc:
        report["error"] = {"type": "ParseError", "message": str(exc)}
    except ValidationError as exc:
        entry = {"type": "ValidationError", "message": str(exc)}
        if exc.triple is not None:
            entry["triple"] = list(exc.triple)
            entry["defect"] = _rational_vec(exc.defect)
        report["error"] = entry
    return None


def cmd_verify(args) -> int:
    report = {"command": "verify"}
    alg = _load_algebra(args, report)
    if alg is None:
        _emit(report, args)
        return 2
    report["algebra"] = _algebra_section(alg)
    report["exact_checks"] = _exact_checks_section(alg, left_center(alg))
    report["verdict"] = "pass"
    _emit(report, args)
    return 0


def cmd_analyze(args) -> int:
    report = {"command": "analyze"}
    alg = _load_algebra(args, report)
    if alg is None:
        _emit(report, args)
        return 2
    ext = canonical_extension(alg)
    report["algebra"] = _algebra_section(alg)
    report["exact_checks"] = _exact_checks_section(alg, ext.center_basis)
    report["analysis"] = _analysis_section(ext)
    report["verdict"] = "pass"
    _emit(report, args)
    return 0


def _i2_probe(sys_: LocalRackSystem, args) -> dict | None:
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
    try:
        wide = sys_.with_chart_radius(max(args.chart_radius, 8.0))
        g = group_from_coords(wide.chart, x)
        value = i2(wide, g, g)
    except OutOfChartError as exc:
        return {"skipped": str(exc)}
    return {
        "coords": [list(map(float, x))] * 2,
        "value": [float(c) for c in value],
        "chart_radius_used": max(args.chart_radius, 8.0),
    }


def _rack_system(alg, args, report) -> LocalRackSystem | None:
    """The report's one extension and rack system, with the analysis and
    config sections filled in; None (and report['error']) on a bad config."""
    checks = [
        (0 < args.chart_radius <= MAX_CHART_RADIUS,
         f"--chart-radius must lie in (0, {MAX_CHART_RADIUS:g}]; got {args.chart_radius}"),
        (0 < args.fd_step < args.chart_radius / 4,
         f"--fd-step must lie in (0, chart_radius/4) = "
         f"(0, {args.chart_radius / 4}); got {args.fd_step}"),
        (args.quad_order >= 3, "--quad-order must be >= 3"),
        (args.quad_order <= MAX_QUAD_ORDER,
         f"--quad-order must be <= {MAX_QUAD_ORDER}; got {args.quad_order}"),
        (args.samples >= 1, f"--samples must be >= 1; got {args.samples}"),
        (args.samples <= MAX_SAMPLES,
         f"--samples must be <= {MAX_SAMPLES}; got {args.samples}"),
        (args.seed >= 0, f"--seed must be >= 0; got {args.seed}"),
    ]
    message = next((msg for ok, msg in checks if not ok), None)
    if message is not None:
        report["error"] = {"type": "ConfigError", "message": message}
        return None
    ext = canonical_extension(alg)
    report["algebra"] = _algebra_section(alg)
    report["exact_checks"] = _exact_checks_section(alg, ext.center_basis)
    report["analysis"] = _analysis_section(ext)
    report["config"] = _config_section(args)
    return build_rack_system(ext, chart_radius=args.chart_radius)


def _run_suites(sys_: LocalRackSystem, args, report, extras=None, notes=()) -> int:
    """Run the suites, plus an example's extra cross-checks, into report;
    returns the exit code."""
    cfg = default_config(args.quad_order, args.fd_step)
    results = full_suite(sys_, cfg, n_samples=args.samples, seed=args.seed)
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


def cmd_integrate(args, extras=None, notes=()) -> int:
    report = {"command": args.subcommand}
    alg = _load_algebra(args, report)
    sys_ = None if alg is None else _rack_system(alg, args, report)
    code = 2 if sys_ is None else _run_suites(sys_, args, report, extras, notes)
    _emit(report, args)
    return code


# ---------------------------------------------------------------------------
# built-in examples with their closed-form cross-checks
# ---------------------------------------------------------------------------

# Each example draws its 20 samples first, in the RNG order of drawing one
# sample after another, and then checks them as stacks (see suites).

def _dim5_extras(sys_: LocalRackSystem, args) -> list[PropertyResult]:
    rng = np.random.default_rng(args.seed)
    sys_ = sys_.with_chart_radius(max(args.chart_radius, 8.0))
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
    g, h = group_from_coords(chart, a), group_from_coords(chart, b)
    i1_ok, i2_ok, conj_ok = (np.ones(len(draws), dtype=bool) for _ in range(3))
    got_i1 = i1(sys_, sys_.tau_matrix, g, i1_ok).reshape(len(draws), 3, 2)
    got_i2 = i2(sys_, g, h, i2_ok)
    got = rack_product(sys_, LocalRackElement(g, ac), LocalRackElement(h, bc), conj_ok)
    got_conj = np.concatenate([log_coords(chart, got.g, conj_ok), got.a], axis=1)
    want_i1, want_i2, want_conj = (np.array(want) for want in zip(*(
        (dim5_i1_matrix(*x), dim5_f(x, y),
         dim5_conjugation(np.concatenate([x, xc]), np.concatenate([y, yc])))
        for x, y, xc, yc in draws)))
    return stacked(len(draws), [(sup_rows(got_i1 - want_i1), i1_ok),
                                (sup_rows(got_i2 - want_i2), i2_ok),
                                (sup_rows(got_conj - want_conj), conj_ok)],
                   [("i1_closed_form", 1e-10), ("i2_closed_form", 1e-9),
                    ("conjugation_closed_form", 1e-9)])


def _heisenberg_extras(sys_: LocalRackSystem, args) -> list[PropertyResult]:
    rng = np.random.default_rng(args.seed)
    cfg = default_config(args.quad_order, args.fd_step)
    a, b = np.split(rng.uniform(-0.05, 0.05, size=(20, 4)), 2, axis=1)
    ok = np.ones(20, dtype=bool)
    got = iota2(sys_, group_from_coords(sys_.chart, a), group_from_coords(sys_.chart, b),
                cfg, ok=ok)
    want = np.array([heisenberg_iota2(x, y) for x, y in zip(a, b)])
    return stacked(20, [(sup_rows(got - want), ok)], [("iota2_analytic_value", 1e-9)])


def _abelian_extras(sys_: LocalRackSystem, args) -> list[PropertyResult]:
    rng = np.random.default_rng(args.seed)
    ug, ua, vg, va = draw_samples(sys_, rng, sys_.chart.chart_radius / 4, 20, "gaga")
    v = LocalRackElement(vg, va)
    ok = np.ones(20, dtype=bool)
    got = rack_product(sys_, LocalRackElement(ug, ua), v, ok)
    return stacked(20, [(elem_distance(got, v), ok)], [("trivial_rack_product", 1e-12)])


EXAMPLE_EXTRAS = {"dim5": (_dim5_extras, (PHI_TYPO_NOTE,)),
                  "heisenberg": (_heisenberg_extras, ()),
                  "abelian3": (_abelian_extras, ())}


def cmd_example(args) -> int:
    """integrate on a built-in, with its closed-form cross-checks."""
    return cmd_integrate(args, *EXAMPLE_EXTRAS[args.name])


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibrack",
        description="Integrate a Leibniz algebra (structure-constant file) "
                    "into a local augmented Lie rack and verify the identities.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, with_file=True):
        if with_file:
            p.add_argument("file", help="algebra file (.leib JSON)")
        p.add_argument("--quad-order", type=int, default=8, dest="quad_order")
        p.add_argument("--chart-radius", type=float, default=0.5, dest="chart_radius")
        p.add_argument("--fd-step", type=float, default=1e-3, dest="fd_step")
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true",
                       help="machine-readable report on stdout")

    add_common(sub.add_parser("verify", help="exact structural checks"))
    add_common(sub.add_parser("analyze", help="canonical extension data"))
    add_common(sub.add_parser("integrate", help="build the rack, run the suites"))
    pex = sub.add_parser("example", help="run a built-in example end to end")
    pex.add_argument("name", choices=BUILTIN_NAMES)
    add_common(pex, with_file=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"verify": cmd_verify, "analyze": cmd_analyze,
               "integrate": cmd_integrate, "example": cmd_example}[args.subcommand]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
