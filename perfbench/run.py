"""leibrack benchmark: one closed-loop client driving ``leibrack.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process sends one report at a time, each starting when the
previous one has finished, and every report is checked against the
reference captured when the benchmark was defined.

After one untimed warm-up pass, a run makes as many timed passes over the
workload's reports as the warm-up pass says fit in ``--seconds`` (at least
two).  The calibration kernel (calibrate.py) runs before every report and
after the last, and every time is stated in reference seconds, which cancel
the host's drift in speed.  ``--trace 0`` reports the end-to-end metrics,
with tracing off:

* ``setup_s``: median over fresh interpreters of importing leibrack and
  parsing and validating the workload's inputs;
* ``wall_s``: median time of one pass;
* ``report_s.p50`` / ``report_s.max``: median and largest of the per-report
  medians over the passes;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates untraced and traced passes and reports the median
per-layer metrics of the traced passes (see README.md).  The last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS thread in this process and in every child: with 2 cores,
    unpinned OpenBLAS threads make in-process timings spread far wider."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


pin_threads()  # before calibrate imports numpy, whose BLAS reads them once

import calibrate  # noqa: E402
import gate  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from tracer import REPORT_SPAN, SUITES, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = BENCH / "_run"
SETUP_REPEATS = 5

WORKLOADS = ("leibniz_nilpotent", "lie_iota2", "rho_semisimple", "exact_filiform")

PER_LAYER = (
    "rack.i1.calls", "rack.i1.self_s", "rack.i2.calls", "rack.i2.self_s",
    "linalg.integrate_01.calls", "linalg.integrate_01.s",
    "scipy.expm.calls", "scipy.expm.s", "rack.rack_product.self_s",
    "rack.log_coords.calls", "rack.log_coords.s",
    "rack.iota2.calls", "rack.iota2.self_s",
    "rack.lie_cocycle_defect.calls", "rack.lie_cocycle_defect.s",
    "cohomology.Cochain.evaluate.calls",
    "linalg.matrix_log.calls", "linalg.matrix_log.s", "linalg.nilpotency_index.none",
    "algebra.validate_leibniz.s", "algebra.canonical_extension.calls",
    "algebra.canonical_extension.s", "algebra.left_center.s", "algebra.squares_ideal.s",
    "linalg.rref.calls", "linalg.rref.s",
    "cohomology.leibniz_differential.calls", "cohomology.leibniz_differential.s",
    "cohomology.hom_representation.s", "rack.build_rack_system.s",
    "fileio.parse_algebra_file.s",
    *(f"suites.{s}.s" for s in SUITES),
    "suites.samples", "suites.skipped", "suites.identity_samples",
    "cli.report.s", "cli.self_s",
    "trace.overhead_s", "trace.coverage_misses",
    "gate.tol_headroom_dex", "gate.fail_frac", "gate.report_mismatch_frac",
)

# Layer metrics that must be non-zero (work predicted) or exactly zero (the
# workload bypasses the layer) at the commit that defined the benchmark.
_RACK_WORK = ("rack.i1.calls", "rack.i1.self_s", "rack.i2.calls", "rack.i2.self_s",
              "linalg.integrate_01.calls", "linalg.integrate_01.s",
              "scipy.expm.calls", "scipy.expm.s", "rack.rack_product.self_s",
              "rack.log_coords.calls", "rack.log_coords.s",
              "cohomology.hom_representation.s", "rack.build_rack_system.s",
              *(f"suites.{s}.s" for s in SUITES if s != "lie_specialization_suite"),
              "suites.samples")
_EXACT_WORK = ("algebra.validate_leibniz.s", "algebra.canonical_extension.calls",
               "algebra.canonical_extension.s", "algebra.left_center.s",
               "algebra.squares_ideal.s", "linalg.rref.calls", "linalg.rref.s",
               "cohomology.leibniz_differential.calls", "cohomology.leibniz_differential.s",
               "fileio.parse_algebra_file.s", "cli.report.s", "cli.self_s")
PREDICTED_WORK = {
    "leibniz_nilpotent": _RACK_WORK + _EXACT_WORK,
    "lie_iota2": _RACK_WORK + _EXACT_WORK + (
        "rack.iota2.calls", "rack.iota2.self_s", "rack.lie_cocycle_defect.calls",
        "rack.lie_cocycle_defect.s", "cohomology.Cochain.evaluate.calls",
        "suites.lie_specialization_suite.s"),
    "rho_semisimple": _RACK_WORK + _EXACT_WORK + (
        "linalg.matrix_log.calls", "linalg.matrix_log.s", "linalg.nilpotency_index.none"),
    "exact_filiform": _EXACT_WORK,
}
PREDICTED_ZERO = {
    "leibniz_nilpotent": ("rack.iota2.calls",),
    "lie_iota2": (),
    "rho_semisimple": ("rack.iota2.calls",),
    "exact_filiform": ("rack.i2.calls", "scipy.expm.calls"),
}


def import_package():
    """Import leibrack from this checkout's src/, and nowhere else."""
    init = SRC / "leibrack" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"benchmark: no package source at {init}")
    sys.path.insert(0, str(SRC))
    import leibrack
    if Path(leibrack.__file__).resolve() != init.resolve():
        raise SystemExit(f"benchmark: imported leibrack from {leibrack.__file__}, not {init}")
    return leibrack


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


@dataclass
class Outcome:
    seconds: float
    code: int | None
    stdout: str
    error: str | None = None
    ref_seconds: float = 0.0  # ``seconds`` in reference seconds (calibrate.py)


def run_report(cli, argv) -> Outcome:
    """One CLI invocation in-process, its output captured in a buffer."""
    buf = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return Outcome(perf_counter() - start, None, buf.getvalue(), f"exit {exc.code}")
    except Exception:
        return Outcome(perf_counter() - start, None, buf.getvalue(), traceback.format_exc())
    return Outcome(perf_counter() - start, code, buf.getvalue())


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    headroom: float | None = None
    problems: list = field(default_factory=list)
    self_checked: bool = False

    def check(self, jobs, outcomes) -> None:
        for (label, _argv, reference), out in zip(jobs, outcomes):
            self.attempted += 1
            if out.error is not None or out.code != 0:
                self.failed += 1
                self.problems.append(f"{label}: failed ({out.error or f'exit {out.code}'})")
            if out.error is not None:
                continue
            try:
                report = json.loads(out.stdout)
            except json.JSONDecodeError:
                self.mismatched += 1
                self.problems.append(f"{label}: output is not one JSON report")
                continue
            diff = gate.mismatch(reference, report)
            if diff is not None:
                self.mismatched += 1
                self.problems.append(f"{label}: report differs from the reference: {diff}")
            elif not self.self_checked:
                gate.self_check(reference, report)
                self.self_checked = True
            h = gate.headroom_dex(report)
            if h is not None:
                self.headroom = h if self.headroom is None else min(self.headroom, h)


def run_pass(cli, jobs, tracer: Tracer | None = None) -> list[Outcome]:
    """One pass over the reports.  The calibration kernel runs before each
    report and after the last, and untraced reports also run it from the
    sampler's timer; its time is taken out of the report's.  Traced passes
    calibrate only between reports, so no span covers the kernel."""
    outcomes, before = [], calibrate.kernel()
    sampler = calibrate.Sampler()
    for idx, (_label, argv, _ref) in enumerate(jobs):
        first, spent = len(sampler.samples), sampler.spent
        if tracer is None:
            with sampler:
                out = run_report(cli, argv)
        else:
            tracer.report = idx
            out = tracer.call(REPORT_SPAN, run_report, cli, argv)
        out.seconds -= sampler.spent - spent
        after = calibrate.kernel()
        out.ref_seconds = calibrate.to_reference(
            out.seconds, [before, *sampler.samples[first:], after])
        outcomes.append(out)
        before = after
    return outcomes


def measure_setup(entries, paths) -> float:
    """Median over fresh interpreters of import + parse/validate of inputs,
    in reference seconds: the kernel runs here before and after each."""
    targets = [paths[e["id"]] if e["id"] in paths else f"builtin:{e['input']['name']}"
               for e in entries]
    cmd = [sys.executable, "-I", str(BENCH / "probe_setup.py"), str(SRC), *targets]
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate.kernel()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(calibrate.to_reference(float(done.stdout.strip().splitlines()[-1]),
                                            [before, calibrate.kernel()]))
    return statistics.median(times)


@dataclass
class Measurement:
    walls: list = field(default_factory=list)
    raw_walls: list = field(default_factory=list)  # warm-up first, in seconds
    per_report: list = field(default_factory=list)
    traced_walls: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    unwrapped: list = field(default_factory=list)
    tracer: Tracer | None = None


def _pass_seconds(outcomes) -> float:
    return sum(o.seconds for o in outcomes)


def _pass_ref_seconds(outcomes) -> float:
    return sum(o.ref_seconds for o in outcomes)


def measure(cli, jobs, seconds: float, traced: bool, tally: Tally) -> Measurement:
    """One untimed warm-up pass, then timed passes for about ``seconds``: as
    many as the warm-up pass, kernel runs included, says fit, and at least
    two.  With ``traced``,
    every second pass runs with the tracer installed, so traced and untraced
    passes see the same machine and their difference is the overhead."""
    start = perf_counter()
    outcomes = run_pass(cli, jobs)
    passes = max(2, round(seconds / (perf_counter() - start)))
    tally.check(jobs, outcomes)
    m = Measurement(per_report=[[] for _ in jobs])
    m.raw_walls.append(_pass_seconds(outcomes))
    for k in range(passes):
        gc.collect()
        if traced and k % 2:
            m.tracer = Tracer()
            m.tracer.install()
            try:
                outcomes = run_pass(cli, jobs, m.tracer)
                m.unwrapped = m.tracer.unwrapped_bindings()
            finally:
                m.tracer.uninstall()
            m.traced_walls.append(_pass_ref_seconds(outcomes))
            m.layers.append(m.tracer.summary())
        else:
            outcomes = run_pass(cli, jobs)
            m.walls.append(_pass_ref_seconds(outcomes))
            m.raw_walls.append(_pass_seconds(outcomes))
            for times, out in zip(m.per_report, outcomes):
                times.append(out.ref_seconds)
        tally.check(jobs, outcomes)
    return m


def layer_metrics(m: Measurement, workload: str, tally: Tally) -> tuple[dict, list[str]]:
    """Per-layer metrics: the median over traced passes of each metric."""
    def median_of(name):
        return statistics.median(layer.get(name, 0) for layer in m.layers)

    values = {name: median_of(name) for name in PER_LAYER}
    values["cli.self_s"] = median_of(f"{REPORT_SPAN}.self_s")
    values["trace.overhead_s"] = statistics.median(m.traced_walls) - statistics.median(m.walls)
    values["gate.tol_headroom_dex"] = tally.headroom if tally.headroom is not None else 0.0
    values["gate.fail_frac"] = tally.failed / tally.attempted
    values["gate.report_mismatch_frac"] = tally.mismatched / tally.attempted
    misses = [f"unwrapped binding {b}" for b in m.unwrapped]
    misses += [f"{name} is 0 where work is predicted"
               for name in PREDICTED_WORK[workload] if not values[name]]
    misses += [f"{name} is {values[name]} where none is predicted"
               for name in PREDICTED_ZERO[workload] if values[name]]
    values["trace.coverage_misses"] = len(misses)
    return values, misses


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "report_s.p50": "s",
                    "report_s.max": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_dex"):
        return "dex"
    return "fraction" if name.endswith("_frac") else "count"


def _rounded(values) -> list[float]:
    return [round(v, 3) for v in values]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    reference = workloads.load_reference(args.workload)
    entries = workloads.select(reference, args.seed)
    import_package()
    from leibrack import cli

    env = environment()
    RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as tmp:
        paths = inputs.materialize(entries, tmp)
        jobs = [(f"{e['id']}#{k}", argv, e["reports"][k])
                for e in entries for k, argv in enumerate(inputs.argvs(e, paths))]
        setup_s = None if args.trace else measure_setup(entries, paths)

        tally = Tally()
        m = measure(cli, jobs, args.seconds, bool(args.trace), tally)

    for problem in tally.problems:
        print(f"benchmark: {problem}", file=sys.stderr)
    report_medians = [statistics.median(t) for t in m.per_report]
    print(f"# env {json.dumps(env)}")
    print(f"# {args.workload} seed={args.seed}: {len(jobs)} reports; untimed warm-up, then "
          f"passes of {_rounded(m.walls)} reference s"
          + (f" and traced passes of {_rounded(m.traced_walls)} reference s"
             if args.trace else "")
          + f" (untraced passes as measured: {_rounded(m.raw_walls)} s, warm-up first)"
          + f"; report_s over {len(jobs)} per-report medians of {len(m.walls)} samples")
    if args.trace:
        metrics, misses = layer_metrics(m, args.workload, tally)
        for miss in misses:
            print(f"benchmark: trace coverage: {miss}", file=sys.stderr)
        m.tracer.dump(RUN_DIR / f"spans-{args.workload}.jsonl.gz",
                      {"workload": args.workload, "seed": args.seed, "env": env,
                       "reports": [label for label, _, _ in jobs]})
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(m.walls),
            "report_s.p50": statistics.median(report_medians),
            "report_s.max": max(report_medians),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result = {
        "correct": tally.failed == 0 and tally.mismatched == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value,
                           "unit": END_TO_END_UNITS.get(name) or layer_unit(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
