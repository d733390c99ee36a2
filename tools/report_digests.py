"""Digest the reports of a fixed corpus, to check that a change leaves every
report byte-identical.

    python3 tools/report_digests.py [CHECKOUT]

runs the CLI of CHECKOUT (default: the checkout holding this script) on
each run of the corpus below, one fresh interpreter per run, and prints one
line per run: the SHA-256 over its exit code and its full ``--json``
stdout, with the temporary input directory and CHECKOUT's data directory
masked; the SHA-256 over its exit code and its report with the floats set
aside as the benchmark's gate does (``normalize`` of CHECKOUT's
``perfbench/gate.py``); then the run.  The last line is the SHA-256 over
all the lines before it.  Run it on two checkouts and diff the outputs: a
change that moves only rounding changes first digests alone, and leaves
every exit code, verdict, count and exact field, and so every second
digest, as it was.

The inputs are built by CHECKOUT's ``perfbench/inputs.py`` (read, not
changed) and written as ``.leib`` files by its ``write_algebra_file``:

* ``example dim5|heisenberg|abelian3``;
* ``integrate`` on ``random_leibniz`` 1/2/5/7/23/28/38, filiform5,
  free_nilpotent5 and two inputs of each ``rho_semisimple`` kind, at chart
  radius 0.5 and 4;
* ``integrate`` at chart radius 8/12/16/24 on six of them.  Every row
  but the Lie suite's acts on X = g0 x a, with no conjugation, inverse or
  chart gate, and the Lie suite forms its elements by exp from carried
  coordinates, so on these inputs, whose G0 is unipotent or not Lie, no
  row skips: each meets the wide chart's rounding instead;
* ``integrate`` at chart radius 8 and 24 on diagonal-0 and rotation-0,
  wide runs of a G0 that is not unipotent besides aff-0, where most
  samples lie outside the float log's chart;
* ``integrate`` at quadrature order 3 and 64 on heisenberg, rl5 and aff-0,
  the ends of the accepted range of iota2's rule and the quadrature
  cross-check;
* ``integrate`` on the benchmark's filiform-16 (sign variant 0) at
  ``--samples 515 --quad-order 64``, whose Lie suite runs in 8 chunks of
  ``suites.CHUNK_ENTRIES``, and on its filiform-32 at ``--samples 515``,
  whose rack axiom suite runs in 3 and whose basis-pair difference runs
  in 4 chunks of 8 rows;
* ``example dim5|heisenberg`` and ``integrate`` on ``random_leibniz`` 35
  and aff-0 at finite-difference step 5e-4, which moves the round trips'
  defects, and ``integrate`` on filiform5 with all three float knobs set;
* ``verify`` and ``analyze`` on the package's data files
  ``abelian3|dim5|heisenberg.leib`` (read from CHECKOUT), on every input
  above and on the benchmark's filiform-6/8/10/12 (sign variant 0);
* ``integrate`` at chart radius 0.5, 4, 8 and 24, ``verify`` and
  ``analyze`` on two Lie inputs that ``perfbench/inputs.py`` does not
  describe, written through CHECKOUT's ``LeibnizAlgebra.from_brackets``:
  the oscillator, whose ad family is not nilpotent, so iota2 runs on a G0
  that is not unipotent, and sl2, whose left center is zero, so every
  center stack is empty.  At radius 8 and 24 both leave iota2's log chart:
  most of their Lie rows are skipped, and the reports exit 3;
* ``integrate`` and ``analyze`` on three inputs with an exact value outside
  float range, written as JSON: a left center spanned by (-10^400, 1, 0),
  an omega of 10^400, and a realized g0 of 10^400, which only the rack
  system converts.  Each ``integrate`` report exits 2 with an
  ``OverflowError``, as ``analyze`` does on the first two.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RANDOM_SEEDS = (1, 2, 5, 7, 23, 28, 38)
RHO_KINDS = ("diagonal", "jordan", "rotation", "aff")
WIDE_RADII = ("8", "12", "16", "24")
WIDE_INPUTS = ("filiform5", "free_nilpotent5", "heisenberg", "rl5", "rl38", "aff-0")
WIDE_SEMISIMPLE = ("diagonal-0", "rotation-0")
WIDE_SEMISIMPLE_RADII = ("8", "24")
QUAD_ORDERS = ("3", "64")
QUAD_INPUTS = ("heisenberg", "rl5", "aff-0")
FILIFORM_DIMS = (6, 8, 10, 12)
CHUNKED = (("filiform16", ["--samples", "515", "--quad-order", "64"]),
           ("filiform32", ["--samples", "515"]))
FD_STEP = ("--fd-step", "5e-4")
FD_EXAMPLES = ("dim5", "heisenberg")
FD_INPUTS = ("rl35", "aff-0")
ALL_KNOBS = ("filiform5", ["--quad-order", "5", "--chart-radius", "4", "--fd-step", "2e-3"])
DATA_FILES = ("abelian3", "dim5", "heisenberg")
# Lie inputs the tool writes itself: (dimension, brackets) for from_brackets
LIE_INPUTS = {
    # [t,x] = y, [t,y] = -x, [x,y] = z
    "oscillator": (4, {(0, 1): {2: 1}, (1, 0): {2: -1}, (0, 2): {1: -1}, (2, 0): {1: 1},
                       (1, 2): {3: 1}, (2, 1): {3: -1}}),
    # [h,e] = 2e, [h,f] = -2f, [e,f] = h
    "sl2": (3, {(0, 1): {1: 2}, (1, 0): {1: -2}, (0, 2): {2: -2}, (2, 0): {2: 2},
                (1, 2): {0: 1}, (2, 1): {0: -1}}),
}
# inputs with an exact value outside float range: the file's JSON document
OVERFLOW_INPUTS = {
    # center is spanned by (-10^400, 1, 0)
    "tiny_and_huge": {"dim": 3, "brackets": [
        {"left": 0, "right": 0, "value": {"2": "1/1" + "0" * 200}},
        {"left": 1, "right": 0, "value": {"2": "1" + "0" * 200}}]},
    # [e1,e1] = 10^400 e2: omega(e1, e1) is 10^400
    "huge_omega": {"dim": 2, "brackets": [{"left": 0, "right": 0, "value": {"1": 10 ** 400}}]},
    # [e1,e2] = 10^400 e2 = -[e2,e1]: the realized g0 overflows
    "huge_g0": {"dim": 2, "brackets": [
        {"left": 0, "right": 1, "value": {"1": str(10 ** 400)}},
        {"left": 1, "right": 0, "value": {"1": str(-10 ** 400)}}]},
}

RUNNER = "import sys; sys.path.insert(0, sys.argv.pop(1)); " \
         "from leibrack.cli import main; sys.exit(main(sys.argv[1:]))"


def inputs() -> dict[str, dict]:
    """Input id -> the descriptor ``inputs.build`` takes."""
    descs = {f"rl{s}": {"kind": "random_leibniz", "seed": s} for s in RANDOM_SEEDS}
    for name in ("filiform5", "free_nilpotent5", "heisenberg"):
        descs[name] = {"kind": "corpus", "name": name}
    for kind in RHO_KINDS:
        for seed in (0, 1):
            descs[f"{kind}-{seed}"] = {"kind": "rho_semisimple", "family": kind, "seed": seed}
    return descs


def runs() -> list[tuple[str, list[str]]]:
    """(input id or "", argv) of every run, "{file}" standing for the input
    and "{data}/" for the package's data directory."""
    out = [("", ["example", name, "--json"]) for name in ("dim5", "heisenberg", "abelian3")]
    for id_ in inputs():
        if id_ != "heisenberg":  # ``example heisenberg`` covers it at the small radii
            out += [(id_, ["integrate", "{file}", "--json", "--chart-radius", r])
                    for r in ("0.5", "4")]
    out += [(id_, ["integrate", "{file}", "--json", "--chart-radius", r])
            for id_ in WIDE_INPUTS for r in WIDE_RADII]
    out += [(id_, ["integrate", "{file}", "--json", "--chart-radius", r])
            for id_ in WIDE_SEMISIMPLE for r in WIDE_SEMISIMPLE_RADII]
    out += [(id_, ["integrate", "{file}", "--json", "--quad-order", q])
            for id_ in QUAD_INPUTS for q in QUAD_ORDERS]
    out += [(id_, ["integrate", "{file}", "--json", *args]) for id_, args in CHUNKED]
    out += [("", ["example", name, "--json", *FD_STEP]) for name in FD_EXAMPLES]
    out += [(id_, ["integrate", "{file}", "--json", *FD_STEP]) for id_ in FD_INPUTS]
    out.append((ALL_KNOBS[0], ["integrate", "{file}", "--json", *ALL_KNOBS[1]]))
    exact = [("", f"{{data}}/{name}.leib") for name in DATA_FILES]
    exact += [(id_, "{file}") for id_ in [*inputs(), *(f"filiform{n}" for n in FILIFORM_DIMS)]]
    out += [(id_, [cmd, file, "--json"]) for id_, file in exact for cmd in ("verify", "analyze")]
    out += [(id_, ["integrate", "{file}", "--json", "--chart-radius", r])
            for id_ in LIE_INPUTS for r in ("0.5", "4", "8", "24")]
    out += [(id_, [cmd, "{file}", "--json"])
            for id_ in LIE_INPUTS for cmd in ("verify", "analyze")]
    out += [(id_, [cmd, "{file}", "--json"])
            for id_ in OVERFLOW_INPUTS for cmd in ("integrate", "analyze")]
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    checkout = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    # the imports below read CHECKOUT's modules: leave its bytecode cache as
    # it is, as the runs' -B does
    sys.dont_write_bytecode = True
    src = str(checkout / "src")
    sys.path[:0] = [src, str(checkout / "perfbench")]
    import inputs as bench_inputs
    from gate import normalize
    from leibrack.algebra import LeibnizAlgebra
    from leibrack.fileio import write_algebra_file

    # one BLAS thread, as the benchmark pins it
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        descs = inputs()
        descs.update({f"filiform{n}": {"kind": "filiform", "n": n,
                                       "signs": bench_inputs.filiform_signs(n, 0)}
                      for n in (*FILIFORM_DIMS, 16, 32)})
        descs["rl35"] = {"kind": "random_leibniz", "seed": 35}
        entries = [{"id": id_, "input": desc} for id_, desc in descs.items()]
        paths = bench_inputs.materialize(entries, tmp)
        for id_, (n, brackets) in LIE_INPUTS.items():
            paths[id_] = f"{tmp}/{id_}.leib"
            write_algebra_file(LeibnizAlgebra.from_brackets(n, brackets), paths[id_])
        for id_, doc in OVERFLOW_INPUTS.items():
            paths[id_] = f"{tmp}/{id_}.leib"
            Path(paths[id_]).write_text(json.dumps(doc))
        data = str(checkout / "src" / "leibrack" / "data")

        def masked(text):
            return text.replace(tmp, "<tmp>").replace(data, "<data>")
        for id_, args in runs():
            args = [paths[id_] if a == "{file}" else a.replace("{data}", data) for a in args]
            # -B: leave the checkout's bytecode cache as it is
            done = subprocess.run([sys.executable, "-I", "-B", "-c", RUNNER, src, *args],
                                  capture_output=True, text=True, env=env, timeout=600)
            body = f"exit {done.returncode}\n{masked(done.stdout)}"
            digest = hashlib.sha256(body.encode()).hexdigest()
            try:
                exact = json.dumps(normalize(json.loads(masked(done.stdout))), sort_keys=True)
            except json.JSONDecodeError:  # no report: the stdout as it is
                exact = masked(done.stdout)
            exact_digest = hashlib.sha256(f"exit {done.returncode}\n{exact}".encode()).hexdigest()
            lines.append(f"{digest}  {exact_digest}  {' '.join(masked(a) for a in args)}")
            print(lines[-1], flush=True)
    total = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    print(f"{total}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
