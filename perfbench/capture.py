"""Capture the references every benchmark run is checked against.

    python3 perfbench/capture.py [WORKLOAD ...]

Runs every entry of each workload's candidate pool once through
``leibrack.cli.main``, requires exit code 0, and writes the fingerprints of
the normalized reports (see gate.py) to ``reference/<workload>.json``.
Random algebras the program fails on are left out of the pool and listed
under "excluded" with the failure.  Each entry records its scipy expm call
count.  Entries of the random pool also record their median time over
TIMING_PASSES runs in reference seconds (see calibrate.py), and the pool is
cut into strata of equal size by that time: the expm count does not
predict it (7441 and 7464 calls took 0.19 and 0.37 s).  Re-capturing replaces the references,
so do it only when the benchmark itself changes, never to absorb a change
in the program's output.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile

import gate
import inputs
import run
import workloads
from tracer import Tracer

TIMING_PASSES = 3


def capture(workload: str, cli, tmp: str) -> dict:
    pool = workloads.candidates(workload)
    kept, excluded = [], {}
    for entry in pool["entries"]:
        random_pool = entry["stratum"] == "random"
        if random_pool and sum(e["stratum"] == "random" for e in kept) == workloads.RANDOM_POOL:
            continue
        paths = inputs.materialize([entry], tmp)
        tracer = Tracer()
        tracer.install()
        try:
            outcomes = [run.run_report(cli, argv) for argv in inputs.argvs(entry, paths)]
        finally:
            tracer.uninstall()
        bad = [_failure(o) for o in outcomes if o.error or o.code != 0]
        if bad and random_pool:
            # a drawn algebra the program fails on is left out of the pool
            # and recorded, so the failure stays visible
            excluded[entry["id"]] = bad
            print(f"{workload}/{entry['id']}: excluded, {bad}", file=sys.stderr)
            continue
        if bad:
            raise SystemExit(f"capture: {workload}/{entry['id']} failed: {bad}")
        entry["expm_calls"] = int(tracer.summary().get("scipy.expm.calls", 0))
        entry["reports"] = [gate.fingerprint(json.loads(o.stdout)) for o in outcomes]
        if random_pool:
            jobs = [(entry["id"], argv, None) for argv in inputs.argvs(entry, paths)]
            entry["ref_seconds"] = round(statistics.median(
                sum(o.ref_seconds for o in run.run_pass(cli, jobs))
                for _ in range(TIMING_PASSES)), 4)
        kept.append(entry)
        print(f"{workload}/{entry['id']}: {sum(o.seconds for o in outcomes):.2f} s, "
              f"{entry['expm_calls']} expm calls", file=sys.stderr)
    pool["entries"] = kept
    pool["excluded"] = excluded
    strata = pool.pop("stratify")
    if strata:
        pooled = sorted((e for e in kept if e["stratum"] == "random"),
                        key=lambda e: (e["ref_seconds"], e["id"]))
        size = len(pooled) // strata
        for rank, entry in enumerate(pooled):
            entry["stratum"] = f"cost{rank // size}"
        pool["entries"] = [e for e in kept if not e["stratum"].startswith("cost")] + pooled
    return pool


def _failure(outcome) -> str:
    """Why a report failed: the error, or the exit code and failing properties."""
    if outcome.error:
        return outcome.error.strip().splitlines()[-1]
    report = json.loads(outcome.stdout)
    failing = [f"{p['name']} {p['max_defect']:.3g} > {p['tolerance']:.0e}"
               for p in report.get("properties", []) if not p["pass"]]
    return f"exit {outcome.code}: {report.get('verdict')} " + ", ".join(failing)


def dump(pool: dict) -> str:
    """JSON with one pool entry per line."""
    lines = [json.dumps(e, sort_keys=True) for e in pool["entries"]]
    rest = {k: v for k, v in pool.items() if k != "entries"}
    head = json.dumps(rest, sort_keys=True, indent=1)[:-2]
    return head + ',\n "entries": [\n' + ",\n".join(lines) + "\n ]\n}\n"


def main(argv: list[str]) -> int:
    run.pin_threads()
    run.import_package()
    from leibrack import cli

    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    run.RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RUN_DIR) as tmp:
        for workload in argv or run.WORKLOADS:
            pool = capture(workload, cli, tmp)
            pool["captured_with"] = run.environment()
            path = workloads.REFERENCE_DIR / f"{workload}.json"
            path.write_text(dump(pool))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
