"""The package never imports scipy: every report, on nilpotent input and
on input whose exp and phi1 take the Pade kernel, runs without it."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from leibrack.algebra import LeibnizAlgebra
from leibrack.fileio import write_algebra_file

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = f"""
import contextlib, io, json, sys
sys.path.insert(0, {str(SRC)!r})
import leibrack
import leibrack.cli


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return leibrack.cli.main(list(argv))


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def run_isolated(body: str) -> dict:
    """Run PRELUDE + body in a fresh isolated interpreter and return the JSON
    object that body prints last."""
    done = subprocess.run([sys.executable, "-I", "-c", PRELUDE + body],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_nilpotent_reports_never_import_scipy():
    got = run_isolated("""
from pathlib import Path
files = sorted((Path(leibrack.__file__).parent / "data").glob("*.leib"))
for f in files:
    leibrack.parse_algebra_file(f)
codes = {}
for f in files:
    for cmd in ("verify", "analyze"):
        codes[f"{cmd} {f.stem}"] = run(cmd, str(f))
for name in ("dim5", "heisenberg", "abelian3"):
    codes[f"example {name}"] = run("example", name, "--samples", "10")
print(json.dumps({"files": len(files), "codes": codes, "scipy": scipy_modules()}))
""")
    assert got["files"] == 3
    assert set(got["codes"].values()) == {0}, got["codes"]
    assert got["scipy"] == []


def test_non_nilpotent_rho_never_imports_scipy(tmp_path):
    # test_rack's diagonal-rho algebra: [e1, ek] = lambda_k ek on the left center
    alg = LeibnizAlgebra.from_brackets(4, {(0, 0): {1: 1, 3: 1}, (0, 1): {1: 1},
                                           (0, 2): {2: Fraction(-1, 2)}, (0, 3): {3: 2}})
    path = tmp_path / "diagonal_rho.leib"
    write_algebra_file(alg, path)
    got = run_isolated(f"""
code = run("integrate", {str(path)!r}, "--samples", "10")
print(json.dumps({{"code": code, "scipy": scipy_modules()}}))
""")
    assert got == {"code": 0, "scipy": []}
