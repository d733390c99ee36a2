"""The package's import graph, pinned in fresh isolated interpreters.

The package never imports scipy: every report, on nilpotent input and on
input whose exp and phi1 take the exp kernel without a nilpotency index,
runs without it.  The exact path never imports numpy, the float modules, or the
stdlib's ``dataclasses`` and the ``inspect`` it imports (the exact
records are plain classes): ``import leibrack``, parsing, the built-ins, the
extension, ``verify`` and ``analyze``, and an ``integrate`` that a cap
refuses.  Every name the package exported before its float half became
lazy still resolves, to its defining module's object, and so does every
binding the benchmark's tracer (``perfbench/tracer.py``, read, not
changed) wraps; a first report under that tracer leaves no wrapper behind
in the lazily imported float half.  Each name ``exact`` defines is imported
from ``exact``: no module takes one through ``linalg``, which holds only
the four that it raises or that the tracer binds under its name.  The
float layer has one record: no function of the package takes a ``chart``
and nothing reads ``.chart``.  Test-only code stays in the tests: every
top-level function and class of the float layer has a reader in the
package outside its own definition, or is one the tracer binds, and the
oracles moved out of ``rack`` no longer resolve on the package."""

import ast
import importlib.util
import inspect
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import leibrack.exact as exact
import leibrack.linalg as linalg
from leibrack.algebra import LeibnizAlgebra
from leibrack.fileio import write_algebra_file

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
FLOAT_MODULES = ("leibrack.linalg", "leibrack.rack", "leibrack.suites", "leibrack.rack_report")
# stdlib modules that only the float half loads: its records are dataclasses
FLOAT_STDLIB = ("dataclasses", "inspect")

# the names ``leibrack/__init__.py`` exported when it imported them all
# eagerly, by the module that defines each now
EXPORTS = {
    "algebra": ("CentralExtensionData", "LeibnizAlgebra", "Representation",
                "ValidationError", "bracket", "canonical_extension", "is_lie",
                "left_center", "leibniz_defect", "squares_ideal"),
    "cohomology": ("Cochain", "hom_representation", "leibniz_differential", "tau"),
    "corpus": ("abelian3", "builtin", "dim5", "heisenberg", "random_leibniz"),
    "exact": ("Matrix", "OutOfChartError", "Rational", "matrix_exp", "matrix_log",
              "nullspace"),
    "fileio": ("ParseError", "algebra_from_dict", "algebra_to_dict", "parse_algebra_file",
               "write_algebra_file"),
    "linalg": ("QuadratureRule", "gauss_legendre_01", "integrate_01"),
    "rack": ("LocalRackElement", "LocalRackSystem", "NotLieCocycleError", "augmented_action",
             "build_rack_system", "conjugate", "i1", "i2", "iota2", "rack_product",
             "tangent_bracket"),
}
# the names ``rack`` exported and holds no more: the test oracles, now in
# ``tests/oracles.py``, and the float config, now fields of
# ``LocalRackSystem``; MOVED_FROM_RACK adds the oracles it held without an
# export
DROPPED_EXPORTS = ("RackCochainFn", "RackModuleStructure", "delta2", "rack_differential_eval",
                   "rack_differential_general", "IntegratorConfig", "default_config")
MOVED_FROM_RACK = DROPPED_EXPORTS + ("group_action", "lie_group_inverse", "action_from_coords")

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


def float_modules():
    return sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy.")
                  or m in {FLOAT_MODULES + FLOAT_STDLIB!r})
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


def test_the_exact_path_never_imports_numpy(tmp_path):
    # filiform-16 one sample past MAX_SAMPLES, which the exact checks tell
    filiform16 = LeibnizAlgebra.from_brackets(16, {
        **{(0, k): {k + 1: 1} for k in range(1, 15)},
        **{(k, 0): {k + 1: -1} for k in range(1, 15)}})
    path = tmp_path / "filiform16.leib"
    write_algebra_file(filiform16, path)
    got = run_isolated(f"""
from pathlib import Path
from leibrack.corpus import BUILTIN_NAMES
loaded = {{"import": float_modules()}}
files = sorted((Path(leibrack.__file__).parent / "data").glob("*.leib"))
algs = [leibrack.parse_algebra_file(f) for f in files]
algs += [leibrack.builtin(name) for name in BUILTIN_NAMES]
loaded["parse"] = float_modules()
exts = [leibrack.canonical_extension(alg) for alg in algs]
loaded["extension"] = float_modules()
codes = {{f"{{cmd}} {{f.stem}}": run(cmd, str(f), "--json")
          for f in files for cmd in ("verify", "analyze")}}
codes["integrate filiform16"] = run("integrate", {str(path)!r}, "--samples", "10001",
                                   "--quad-order", "64", "--json")
loaded["reports"] = float_modules()
codes["integrate dim5"] = run("integrate", str(files[1]), "--samples", "10")
codes["example heisenberg"] = run("example", "heisenberg", "--samples", "10")
loaded["integrate"] = float_modules()
print(json.dumps({{"files": [f.stem for f in files], "codes": codes, "loaded": loaded}}))
""")
    assert got["files"] == ["abelian3", "dim5", "heisenberg"]
    assert got["codes"] == {**{f"{cmd} {f}": 0 for f in got["files"]
                               for cmd in ("verify", "analyze")},
                            "integrate filiform16": 2, "integrate dim5": 0, "example heisenberg": 0}
    floats = got["loaded"].pop("integrate")
    assert got["loaded"] == {"import": [], "parse": [], "extension": [], "reports": []}
    assert "numpy" in floats and set(FLOAT_MODULES + FLOAT_STDLIB) <= set(floats)


def test_every_old_export_resolves_to_its_defining_modules_object():
    got = run_isolated(f"""
import importlib
exports = {EXPORTS!r}
wrong = [f"{{module}}.{{name}}" for module, names in exports.items() for name in names
         if getattr(leibrack, name) is not getattr(
             importlib.import_module(f"leibrack.{{module}}"), name)]
defined_elsewhere = [
    name for module, names in exports.items() for name in names
    if name != "Rational"
    and getattr(getattr(leibrack, name), "__module__", None) != f"leibrack.{{module}}"]
# the float names resolve on each lookup, never from the package's own dict
cached = [name for module in ("linalg", "rack") for name in exports[module]
          if name in vars(leibrack)]
missing = [n for names in exports.values() for n in names if n not in dir(leibrack)]
print(json.dumps({{"wrong": wrong, "elsewhere": defined_elsewhere, "cached": cached,
                  "missing": missing}}))
""")
    assert got == {"wrong": [], "elsewhere": [], "cached": [], "missing": []}


def test_every_binding_the_tracer_wraps_resolves():
    got = run_isolated(f"""
import importlib
sys.path.insert(0, {str(ROOT / "perfbench")!r})
from tracer import SPAN_TARGETS
targets = [*SPAN_TARGETS, ("leibrack.linalg", "nilpotency_index"),
           ("leibrack.suites", "sample_group_element"), ("leibrack.cohomology", "Cochain")]
unresolved = [f"{{m}}.{{a}}" for m, a in targets
              if not callable(getattr(importlib.import_module(m), a, None))]
if not callable(getattr(importlib.import_module("leibrack.cohomology").Cochain, "evaluate", None)):
    unresolved.append("leibrack.cohomology.Cochain.evaluate")
exact, linalg = (importlib.import_module(f"leibrack.{{m}}") for m in ("exact", "linalg"))
split = [a for m, a in targets if m == "leibrack.linalg" and hasattr(exact, a)
         and getattr(exact, a) is not getattr(linalg, a)]
print(json.dumps({{"targets": len(targets), "unresolved": unresolved, "split": split}}))
""")
    assert got["targets"] > 20
    assert got["unresolved"] == [] and got["split"] == []


def test_a_first_report_under_the_tracer_leaves_no_wrapper_in_the_float_half():
    # cli imports rack_report on the first integrate or example, which can
    # fall inside a traced pass; rack_report binds no rack or suites
    # function, so no tracer wrapper outlives the pass there
    got = run_isolated(f"""
sys.path.insert(0, {str(ROOT / "perfbench")!r})
from tracer import Tracer
tracer = Tracer()
tracer.install()
try:
    code = run("example", "heisenberg", "--samples", "10")
finally:
    tracer.uninstall()
import leibrack.rack_report as rack_report
left = sorted(k for k, v in vars(rack_report).items() if hasattr(v, "__wrapped__"))
print(json.dumps({{"code": code, "left": left}}))
""")
    assert got == {"code": 0, "left": []}


# the names ``exact`` defines that ``linalg`` holds: the error its
# ``log_float`` raises, and the three the tracer binds under ``linalg``
LINALG_EXACT_NAMES = {"OutOfChartError", "matrix_log", "nilpotency_index", "rref"}


def _defined_names(path: Path) -> set[str]:
    """The names a module defines at its top level."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _from_module(node: ast.ImportFrom) -> str:
    """The absolute name of the module a from-import reads; relative
    imports occur inside the package alone."""
    if node.level == 0:
        return node.module
    return "leibrack" + (f".{node.module}" if node.module else "")


def _names_taken_through_linalg(path: Path, names: set[str]) -> list[str]:
    """The names among ``names`` that the module at path imports from
    ``leibrack.linalg`` or reads as an attribute of that module."""
    tree = ast.parse(path.read_text())
    aliases, found = set(), []  # the local names bound to the linalg module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _from_module(node)
            if module == "leibrack.linalg":
                found += [a.name for a in node.names if a.name in names]
            elif module == "leibrack":
                aliases.update(a.asname or a.name for a in node.names if a.name == "linalg")
        elif isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "leibrack.linalg")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names \
                and ast.unparse(node.value) in aliases:
            found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def test_every_exact_name_is_imported_from_exact():
    names = _defined_names(Path(exact.__file__))
    modules = sorted(p for d in ("src", "tests", "tools") for p in (ROOT / d).rglob("*.py"))
    through_linalg = {str(p.relative_to(ROOT)): found for p in modules
                      if (found := _names_taken_through_linalg(p, names))}
    assert len(modules) > 20 and {"Matrix", "rref", "OutOfChartError"} <= names
    assert through_linalg == {}
    held = {n for n in names if getattr(linalg, n, None) is getattr(exact, n)}
    assert held == LINALG_EXACT_NAMES


def _parameters(tree: ast.AST):
    """(line, name) of each parameter of each function and lambda in tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
                if p is not None:
                    yield node.lineno, p.arg


def test_no_function_takes_a_chart_beside_the_system():
    found = []
    paths = sorted((SRC / "leibrack").glob("*.py"))
    for path in paths:
        tree = ast.parse(path.read_text())
        found += [f"{path.name}:{line} takes chart" for line, arg in _parameters(tree)
                  if arg == "chart"]
        found += [f"{path.name}:{node.lineno} reads .chart" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "chart"]
    assert SRC / "leibrack" / "rack.py" in paths and found == []


def test_no_function_takes_a_config_beside_the_system():
    # the quadrature rule and the finite-difference step live on the system
    found = []
    paths = sorted((SRC / "leibrack").glob("*.py"))
    for path in paths:
        text = path.read_text()
        found += [f"{path.name} names {name}" for name in ("IntegratorConfig", "default_config")
                  if name in text]
        found += [f"{path.name}:{line} takes cfg" for line, arg in _parameters(ast.parse(text))
                  if arg == "cfg"]
    assert SRC / "leibrack" / "suites.py" in paths and found == []


def test_the_suites_do_no_exact_arithmetic():
    # the system makes every crossing from the exact extension to floats
    exact_half = ("algebra", "exact", "cohomology")
    found = []
    for node in ast.walk(ast.parse((SRC / "leibrack" / "suites.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            module = _from_module(node)
            names = [f"{module}.{a.name}" for a in node.names]
            found += [n for n in (module, *names) if n.removeprefix("leibrack.") in exact_half]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.removeprefix("leibrack.") in exact_half]
        elif isinstance(node, ast.Attribute) and node.attr == "to_numpy":
            found.append(f"line {node.lineno} calls to_numpy")
    assert found == []


def test_the_oracles_moved_out_of_rack_are_gone_from_the_package():
    import leibrack
    import leibrack.rack as rack
    assert [n for n in DROPPED_EXPORTS if n in dir(leibrack)] == []
    for name in DROPPED_EXPORTS:
        try:
            getattr(leibrack, name)
        except AttributeError:
            continue
        raise AssertionError(f"leibrack.{name} still resolves")
    assert [n for n in MOVED_FROM_RACK if hasattr(rack, n)] == []
    # the two-sided closed form of i1 is the tests' oracle: phi1_float takes
    # no right factor, i1 no beta, and the paper's i2 only a quadrature rule
    assert list(inspect.signature(linalg.phi1_float).parameters) == ["a", "v", "index"]
    assert list(inspect.signature(rack.i1).parameters) == ["sys", "g"]
    rule = inspect.signature(rack.i2_from_coords).parameters["rule"]
    assert rule.default is inspect.Parameter.empty
    # the quadrature cross-check takes no log and shares no evaluator with
    # the production i2: neither has a mode switch
    assert [n for n in ("conjugate_and_log", "_integral", "_i1", "_i2") if hasattr(rack, n)] == []
    # no caller masks the operations that cannot skip a sample: they take no
    # mask and raise; the Lie suite forms u |> v and u^-1 by exp, so the
    # conjugation that split its conjugator is gone
    assert {name: list(inspect.signature(getattr(rack, name)).parameters) for name in (
        "i2", "conjugate", "augmented_action", "rack_product", "group_inverse")} == {
        "i2": ["sys", "g", "h"], "conjugate": ["sys", "g", "h"],
        "augmented_action": ["sys", "g", "v"], "rack_product": ["sys", "u", "v"],
        "group_inverse": ["g", "what"]}
    assert [n for n in ("conjugate_and_split", "_conjugate") if hasattr(rack, n)] == []


def _referenced_names(node: ast.AST) -> set[str]:
    """Every name node reads: a Name, an Attribute's attr, an import alias."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_float_layer_definition_has_a_caller_in_the_package():
    # test-only code lives in tests/oracles.py: each top-level function and
    # class of the float layer is referenced by package code outside its
    # own definition, or bound by the benchmark's tracer
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {*tracer.SPAN_TARGETS, ("leibrack.suites", "sample_group_element")}
    # (module, definition or None) -> the names read there
    reads = {}
    for path in sorted((SRC / "leibrack").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            reads.setdefault((path.stem, own), set()).update(_referenced_names(node))
    uncalled = []
    for module in FLOAT_MODULES:
        stem = module.split(".")[1]
        for node in ast.parse((SRC / "leibrack" / f"{stem}.py").read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or (module, node.name) in traced:
                continue
            if not any(node.name in names for (m, own), names in reads.items()
                       if (m, own) != (stem, node.name)):
                uncalled.append(f"{stem}.{node.name}")
    assert len(reads) > 100 and uncalled == []
