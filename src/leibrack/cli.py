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

Exit codes: 0 pass, 2 validation/parse failure (or an exact value of the
extension outside float range), 3 chart coverage failure
(more than half of the samples of some suite left the chart), 4 property
failure.  ``--json`` prints the machine-readable report; runs are
deterministic for a fixed file, flags and seed.

This module is the exact half: parsing, ``verify``, ``analyze`` and, for
``integrate`` and ``example``, the config caps and the extension.  Only
those two commands import the float half (``rack_report``: numpy, the rack
and the suites), after every cap has passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .algebra import (
    CentralExtensionData,
    LeibnizAlgebra,
    ValidationError,
    canonical_extension,
    left_center,
    squares_ideal,
)
from .corpus import BUILTIN_NAMES, builtin
from .fileio import ParseError, algebra_to_dict, parse_algebra_file

# The suites draw group elements up to a quarter of --chart-radius from the
# identity; far beyond the unit the float exp overflows and no identity can
# be checked to its tolerance, so a larger radius is a config error.
MAX_CHART_RADIUS = 1e3

# numpy's leggauss(q) builds a q x q companion matrix, and the quadrature
# stability suite asks for order 2q, so a huge --quad-order is a config
# error rather than a huge allocation.
MAX_QUAD_ORDER = 64

# A report's time grows with the samples, so they are capped.  Its memory
# grows far less: the sampled suites run in chunks of bounded stacks
# (suites.CHUNK_ENTRIES), and only the injectivity check holds the input
# and output of every sample.  At this bound a fresh `example dim5` process
# takes about 0.8 s with one BLAS thread (1.0 s with numpy's default) and
# peaks at 132-138 MB RSS (2-core Xeon).
MAX_SAMPLES = 10_000


def _rational_vec(v):
    return [str(c) for c in v]


def _rational_mat(m):
    return [_rational_vec(m.row(i)) for i in range(m.rows)]


def _float_vec(v):
    return [float(c) for c in v]


def _algebra_section(alg: LeibnizAlgebra) -> dict:
    doc = algebra_to_dict(alg)
    return {
        "dim": alg.dim,
        "basis": list(alg.basis_names),
        "brackets": doc["brackets"],
        "leibniz_ok": alg.leibniz_ok,
        "is_lie": alg.is_lie,
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
    omega_entries = [{"args": list(idx), "value": _rational_vec(val),
                      "value_float": _float_vec(val)}
                     for idx, val in sorted(ext.omega.nonzeros.items())]
    # exact strings are authoritative; the float renderings are for reading
    return {
        "g0_dim": d,
        "complement_pivots": list(ext.complement_pivots),
        "complement_basis": [ext.parent.basis_names[p] for p in ext.complement_pivots],
        "g0_is_lie": True,
        "g0_brackets": algebra_to_dict(ext.g0)["brackets"],
        "center_basis_float": [[float(c) for c in v] for v in ext.center_basis],
        "rho": [_rational_mat(r) for r in ext.rho],
        "rho_float": [[_float_vec(r.row(i)) for i in range(r.rows)] for r in ext.rho],
        "omega": omega_entries,
        "omega_cocycle_exact": True,
        "note": "omega depends on the chosen complement (echelon pivots of the "
                "left-adjoint map); different splittings change it by a coboundary",
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


def _overflow_error(exc: OverflowError) -> dict:
    return {"type": "OverflowError",
            "message": f"an exact value lies outside float range ({exc})"}


def _extension(alg: LeibnizAlgebra, report) -> CentralExtensionData | None:
    """The report's one extension, with the algebra, exact-check and
    analysis sections filled in.  The analysis section renders exact values
    as floats too: an exact value outside float range fills
    report['error'] and returns None."""
    ext = canonical_extension(alg)
    report["algebra"] = _algebra_section(alg)
    report["exact_checks"] = _exact_checks_section(alg, ext.center_basis)
    try:
        report["analysis"] = _analysis_section(ext)
    except OverflowError as exc:
        report["error"] = _overflow_error(exc)
        return None
    return ext


def cmd_analyze(args) -> int:
    report = {"command": "analyze"}
    alg = _load_algebra(args, report)
    if alg is None or _extension(alg, report) is None:
        _emit(report, args)
        return 2
    report["verdict"] = "pass"
    _emit(report, args)
    return 0


def _config_error(report, message: str) -> None:
    report["error"] = {"type": "ConfigError", "message": message}


def _checked_extension(alg: LeibnizAlgebra, args, report) -> CentralExtensionData | None:
    """The report's extension, as ``_extension`` gives it, once the float
    knobs have passed their caps; None (and report['error']) on a bad
    config or an exact value outside float range.  All of it is exact: no
    float work starts before every cap has passed."""
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
        _config_error(report, message)
        return None
    return _extension(alg, report)


def cmd_integrate(args) -> int:
    """integrate, and example on a built-in: the exact half here, then the
    rack and the suites (``rack_report``), imported only now."""
    report = {"command": args.subcommand}
    alg = _load_algebra(args, report)
    ext = None if alg is None else _checked_extension(alg, args, report)
    if ext is None:
        code = 2
    else:
        # a local name, never a module global: a binding cached here would
        # keep whatever object the first call found
        from .rack_report import run
        code = run(ext, args, report)
    _emit(report, args)
    return code


# ---------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: ``main`` parses
    every call with it."""
    parser = argparse.ArgumentParser(
        prog="leibrack",
        description="Integrate a Leibniz algebra (structure-constant file) "
                    "into a local augmented Lie rack and verify the identities.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, with_file=True, float_knobs=True):
        if with_file:
            p.add_argument("file", help="algebra file (.leib JSON)")
        if float_knobs:
            p.add_argument("--quad-order", type=int, default=8, dest="quad_order")
            p.add_argument("--chart-radius", type=float, default=0.5, dest="chart_radius")
            p.add_argument("--fd-step", type=float, default=1e-3, dest="fd_step")
            p.add_argument("--samples", type=int, default=200)
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true",
                       help="machine-readable report on stdout")

    # verify and analyze do exact work only, so they take no float knobs
    add_common(sub.add_parser("verify", help="exact structural checks"), float_knobs=False)
    add_common(sub.add_parser("analyze", help="canonical extension data"), float_knobs=False)
    add_common(sub.add_parser("integrate", help="build the rack, run the suites"))
    pex = sub.add_parser("example", help="run a built-in example end to end")
    pex.add_argument("name", choices=BUILTIN_NAMES)
    add_common(pex, with_file=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"verify": cmd_verify, "analyze": cmd_analyze,
               "integrate": cmd_integrate, "example": cmd_integrate}[args.subcommand]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
