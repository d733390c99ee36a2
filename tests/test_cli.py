"""File format and command line behavior (exit codes, reports, determinism)."""

import json
import math
from fractions import Fraction
from importlib import resources

import pytest

from leibrack.algebra import LeibnizAlgebra, Representation, ValidationError
from leibrack.cli import MAX_CHART_RADIUS, MAX_QUAD_ORDER, MAX_SAMPLES, main
from leibrack.cohomology import Cochain
from leibrack.corpus import abelian3, dim5, heisenberg, random_leibniz
from leibrack.fileio import (
    MAX_DIM,
    ParseError,
    algebra_from_dict,
    algebra_to_dict,
    parse_algebra_file,
    write_algebra_file,
)


def data_path(name):
    return str(resources.files("leibrack").joinpath(f"data/{name}.leib"))


# -- file format -------------------------------------------------------------

def test_shipped_dim5_file_parses_to_the_example_algebra():
    alg = parse_algebra_file(data_path("dim5"))
    assert alg.c == dim5().c and alg.dim == 5


def test_shipped_heisenberg_and_abelian():
    assert parse_algebra_file(data_path("heisenberg")).c == heisenberg().c
    assert parse_algebra_file(data_path("abelian3")).c == abelian3().c


def test_roundtrip_through_file(tmp_path):
    for alg in (dim5(), heisenberg(), abelian3(), random_leibniz(3)):
        p = tmp_path / "alg.leib"
        write_algebra_file(alg, p)
        again = parse_algebra_file(p)
        assert again.c == alg.c
        # serialization is canonical: a second round trip is byte-identical
        p2 = tmp_path / "alg2.leib"
        write_algebra_file(again, p2)
        assert p.read_text() == p2.read_text()


def test_rational_coefficients_survive():
    doc = {"dim": 2, "brackets": [{"left": 0, "right": 0, "value": {"1": "2/3"}}]}
    alg = algebra_from_dict(doc)
    from fractions import Fraction
    assert alg.c[0][0][1] == Fraction(2, 3)
    assert algebra_to_dict(alg)["brackets"][0]["value"] == {"1": "2/3"}


def test_empty_brackets_is_abelian():
    alg = algebra_from_dict({"dim": 3})
    assert all(v == 0 for r in alg.c for vec in r for v in vec)


def test_validation_error_names_the_triple():
    doc = {"dim": 2, "brackets": [
        {"left": 0, "right": 0, "value": {"1": "1"}},
        {"left": 1, "right": 0, "value": {"0": "1"}}]}
    with pytest.raises(ValidationError) as err:
        algebra_from_dict(doc)
    assert err.value.triple == (0, 0, 0)


@pytest.mark.parametrize("doc", [
    {"brackets": []},
    {"dim": 0},
    {"dim": 2, "brackets": [{"left": 5, "right": 0, "value": {}}]},
    {"dim": 2, "brackets": [{"left": 0, "right": 0, "value": {"1": 0.5}}]},
    {"dim": 2, "brackets": [{"left": 0, "right": 0, "value": {"1": "x"}}]},
    {"dim": 2, "basis": ["a"]},
])
def test_parse_errors(doc):
    with pytest.raises(ParseError):
        algebra_from_dict(doc)


@pytest.mark.parametrize("doc", [
    {"dim": "2"},
    {"dim": 2.0},
    {"dim": True},
    {"dim": MAX_DIM + 1},
    {"dim": 2, "brackets": [{"left": 0.9, "right": 0, "value": {"1": "1"}}]},
    {"dim": 2, "brackets": [{"left": 0, "right": "1", "value": {"1": "1"}}]},
    {"dim": 2, "brackets": [{"left": False, "right": 0, "value": {"1": "1"}}]},
    {"dim": 2, "brackets": [{"left": 0, "right": 0, "value": {"1": True}}]},
    {"dim": 2, "brackets": [{"left": 0, "right": 0, "value": {" 1": "1"}}]},
    *({"dim": 2, "brackets": [{"left": 0, "right": 0, "value": {"1": c}}]}
      for c in ("1e5000", "1e2", "1.5", " 1", "1\n", "+1", "1_0", "\u0661")),
    {"dim": 2, "brackets": [{"left": 0, "right": 0, "value": {"1" * 5000: "1"}}]},
    {"dim": 2, "brackets": [{"left": 0, "right": 0, "value": {"1": "1" * 5000}}]},
    {"dim": 2, "brackets": [{"left": 0, "right": 0, "value": {"1": "x" * 5000}}]},
    {"dim": "x" * 5000},
    {"dim": int("9" * 4300)},
    {"dim": 3, "bracket": [{"left": 0, "right": 1, "value": {"2": "1"}}]},
    {"dim": 3, "brackets": [{"left": 0, "right": 1, "value": {"2": "1"}, "valeu": {}}]},
    {"dim": 2, "x" * 5000: 1},
], ids=["dim_str", "dim_float", "dim_bool", "dim_over_cap", "left_float", "right_str",
        "left_bool", "coeff_bool", "index_padded", "coeff_exponent_past_digit_limit",
        "coeff_exponent", "coeff_decimal", "coeff_space", "coeff_newline", "coeff_plus",
        "coeff_underscore", "coeff_non_ascii_digit", "index_past_digit_limit",
        "coeff_past_digit_limit", "coeff_long_string", "dim_long_string", "dim_4300_digits",
        "unknown_top_key", "unknown_entry_key", "unknown_long_key"])
def test_strict_parsing_exits_2(capsys, tmp_path, doc):
    # no truncation or coercion: each of these used to be read as a valid
    # file, and a coefficient with an exponent past the digit limit died in
    # algebra_to_dict with a traceback.  An index past the digit limit
    # escaped as a traceback too, a long value was repeated in full in the
    # message, and an unknown key was ignored (a misspelled "brackets" read
    # as an abelian algebra)
    p = tmp_path / "strict.leib"
    p.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "verify", str(p), "--json")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError"
    assert len(error["message"]) <= 200, error["message"]


def test_an_unknown_key_is_named(capsys, tmp_path):
    for doc, where in (({"dim": 1, "bracket": []}, "'bracket'"),
                       ({"dim": 1, "brackets": [{"left": 0, "right": 0, "value": {},
                                                 "valeu": {}}]}, "brackets[0]: unknown key 'valeu'")):
        p = tmp_path / "typo.leib"
        p.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "verify", str(p), "--json")
        assert code == 2 and where in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("raw", [
    b'{"dim": 1' + b"0" * 5000 + b"}",
    b"[" * 200_000,
    b'{"dim": 2, "basis": ["\xff", "b"]}',
    b'{"dim": 2, "brackets": [{"left": 0, "right": 0, "value": {"1": "1", "1": "3"}}]}',
    b'{"dim": 2, "brackets": [{"left": 0, "right": 0, "value": {"1": "1"}},'
    b' {"left": 0, "right": 0, "value": {"1": "2"}}]}',
    b'{"dim": 2, "brackets": [{"left": 0, "right": 0, "value": {"1": "1", "01": "2"}}]}',
    b'{"dim": 2, "basis": ["a", "a"]}',
    b'{"dim": 3, "dim": 2}',
    b'{"dim": 2, "brackets": [{"left": 0, "right": 0, "value": {"1": "1e10000000"}}]}',
], ids=["int_over_digit_limit", "deep_nesting", "not_utf8", "duplicate_value_key",
        "duplicate_bracket_pair", "duplicate_value_index", "duplicate_basis_name",
        "duplicate_dim_key", "huge_exponent"])
def test_hostile_raw_files_exit_2(capsys, tmp_path, raw):
    # the first three used to escape the parser as a traceback (exit 1); the
    # duplicates were merged silently (exit 0): the last key kept or the
    # entries summed; the huge exponent took seconds to parse and then died
    # with a traceback
    p = tmp_path / "hostile.leib"
    p.write_bytes(raw)
    code, out = run_cli(capsys, "verify", str(p), "--json")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


def test_parse_error_on_bad_json(tmp_path):
    p = tmp_path / "bad.leib"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        parse_algebra_file(p)


# -- CLI ---------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_dim5(capsys):
    code, out = run_cli(capsys, "verify", data_path("dim5"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["algebra"]["is_lie"] is False
    assert doc["exact_checks"]["center_dim"] == 3
    assert doc["verdict"] == "pass"


def test_verify_heisenberg_is_lie(capsys):
    code, out = run_cli(capsys, "verify", data_path("heisenberg"), "--json")
    assert code == 0
    assert json.loads(out)["algebra"]["is_lie"] is True


def test_verify_invalid_file_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.leib"
    p.write_text(json.dumps({"dim": 2, "brackets": [
        {"left": 0, "right": 0, "value": {"1": "1"}},
        {"left": 1, "right": 0, "value": {"0": "1"}}]}))
    code, out = run_cli(capsys, "verify", str(p), "--json")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "ValidationError"
    assert doc["error"]["triple"] == [0, 0, 0]
    assert doc["error"]["defect"] == ["-1", "0"]


def test_analyze_dim5_reports_extension(capsys):
    code, out = run_cli(capsys, "analyze", data_path("dim5"), "--json")
    assert code == 0
    doc = json.loads(out)
    ana = doc["analysis"]
    assert ana["g0_dim"] == 2
    assert ana["complement_basis"] == ["e1", "e2"]
    assert ana["rho"][0] == [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]]
    omega = {tuple(e["args"]): e["value"] for e in ana["omega"]}
    assert omega[(0, 0)] == ["1", "0", "0"]
    assert omega[(1, 1)] == ["0", "1", "0"]
    assert ana["omega_cocycle_exact"] is True


def test_analyze_abelian_reports_zero_quotient(capsys):
    code, out = run_cli(capsys, "analyze", data_path("abelian3"), "--json")
    assert code == 0
    assert json.loads(out)["analysis"]["g0_dim"] == 0


def test_integrate_dim5(capsys):
    code, out = run_cli(capsys, "integrate", data_path("dim5"),
                        "--samples", "10", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert all(p["pass"] for p in doc["properties"])
    probe = doc["i2_probe"]["value"]
    assert abs(probe[0] - 1) < 1e-9 and abs(probe[1] - 1) < 1e-9
    assert abs(probe[2] - 7 / 12) < 1e-9
    assert doc["config"]["seed"] == 0 and doc["config"]["quad_order"] == 8


def test_integrate_heisenberg_runs_lie_suite(capsys):
    code, out = run_cli(capsys, "integrate", data_path("heisenberg"),
                        "--samples", "10", "--json")
    assert code == 0
    names = {p["name"] for p in json.loads(out)["properties"]}
    assert "lie_group_associativity" in names
    assert "i2_from_iota2" in names


def test_integrate_deterministic(capsys):
    _, out1 = run_cli(capsys, "integrate", data_path("dim5"),
                      "--samples", "8", "--seed", "3", "--json")
    _, out2 = run_cli(capsys, "integrate", data_path("dim5"),
                      "--samples", "8", "--seed", "3", "--json")
    assert out1 == out2


def test_integrate_flags_are_echoed(capsys):
    code, out = run_cli(capsys, "integrate", data_path("dim5"), "--samples", "6",
                        "--quad-order", "6", "--chart-radius", "0.4",
                        "--fd-step", "5e-4", "--seed", "9", "--json")
    assert code == 0
    conf = json.loads(out)["config"]
    assert conf == {"quad_order": 6, "chart_radius": 0.4, "fd_step": 5e-4,
                    "samples": 6, "seed": 9}


def test_example_dim5(capsys):
    code, out = run_cli(capsys, "example", "dim5", "--samples", "10", "--json")
    assert code == 0
    doc = json.loads(out)
    names = {p["name"]: p for p in doc["properties"]}
    for extra in ("i1_closed_form", "i2_closed_form", "conjugation_closed_form"):
        assert names[extra]["pass"]
    assert any("bottom-right" in note for note in doc["notes"])
    assert any("psi" in note for note in doc["notes"])


def test_example_heisenberg(capsys):
    code, out = run_cli(capsys, "example", "heisenberg", "--samples", "10", "--json")
    assert code == 0
    names = {p["name"]: p for p in json.loads(out)["properties"]}
    assert names["iota2_analytic_value"]["pass"]
    assert names["iota2_analytic_value"]["max_defect"] <= 1e-9


def test_example_abelian3(capsys):
    code, out = run_cli(capsys, "example", "abelian3", "--samples", "10", "--json")
    assert code == 0
    names = {p["name"]: p for p in json.loads(out)["properties"]}
    assert names["trivial_rack_product"]["pass"]


def test_example_unknown_name_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["example", "nonsense"])


@pytest.mark.parametrize("command", ["verify", "analyze"])
@pytest.mark.parametrize("knob", ["--quad-order", "--chart-radius", "--fd-step", "--samples",
                                  "--seed"])
def test_exact_commands_take_no_float_knobs(command, knob, capsys):
    # verify and analyze run no float work, so a float knob is a usage error
    with pytest.raises(SystemExit) as exc:
        main([command, data_path("dim5"), knob, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_file_is_parse_error(capsys, tmp_path):
    code, out = run_cli(capsys, "verify", str(tmp_path / "nope.leib"), "--json")
    assert code == 2


def test_human_readable_output(capsys):
    code, out = run_cli(capsys, "verify", data_path("dim5"))
    assert code == 0
    assert "verdict: pass" in out


def test_property_failure_exits_4(capsys):
    # a coarse finite-difference step honestly fails the 1e-5 round trip
    code, out = run_cli(capsys, "integrate", data_path("dim5"),
                        "--chart-radius", "8", "--fd-step", "1.0",
                        "--samples", "5", "--json")
    assert code == 4
    doc = json.loads(out)
    assert doc["verdict"] == "property_failure"
    failed = {p["name"] for p in doc["properties"] if not p["pass"]}
    assert "delta2_left_inverse" in failed


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_defect_fails_its_property(capsys):
    # 4 h^2 underflows to 0 at h = 1e-300, so both finite-difference
    # properties divide 0 by 0; a NaN defect must fail, not read as 0
    code, out = run_cli(capsys, "integrate", data_path("dim5"), "--samples", "5",
                        "--fd-step", "1e-300", "--json")
    assert code == 4
    doc = json.loads(out)
    assert doc["verdict"] == "property_failure"
    props = {p["name"]: p for p in doc["properties"]}
    for name in ("delta2_left_inverse", "tangent_bracket_roundtrip"):
        assert math.isnan(props[name]["max_defect"]) and not props[name]["pass"]


def test_bad_fd_step_is_config_error(capsys):
    # out-of-range settings exit 2 with a ConfigError instead of crashing
    dim5_file = data_path("dim5")
    for argv in [("integrate", dim5_file, "--fd-step", "0.2", "--samples", "5"),
                 ("example", "abelian3", "--samples", "0"),
                 ("integrate", dim5_file, "--samples", "-3"),
                 ("integrate", dim5_file, "--seed", "-1", "--samples", "5"),
                 ("integrate", dim5_file, "--chart-radius", "inf", "--samples", "5")]:
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 2, argv
        assert json.loads(out)["error"]["type"] == "ConfigError", argv


def test_chart_radius_above_the_bound_is_config_error(capsys):
    # at 1e300 the float exp of every coordinate draw overflows
    for radius in ("1e300", str(2 * MAX_CHART_RADIUS)):
        code, out = run_cli(capsys, "integrate", data_path("dim5"), "--samples", "5",
                            "--chart-radius", radius, "--json")
        assert code == 2, radius
        err = json.loads(out)["error"]
        assert err["type"] == "ConfigError" and "--chart-radius" in err["message"]


def test_quad_order_above_the_bound_is_config_error(capsys):
    # the stability suite builds a Gauss-Legendre rule of twice this order,
    # and the suites hold all samples at once; only the first refused value
    # of each is tried, never a hostile size or a report at the bound
    for flag, bound in (("--quad-order", MAX_QUAD_ORDER), ("--samples", MAX_SAMPLES)):
        options = {"--samples": "5", flag: str(bound + 1)}
        code, out = run_cli(capsys, "integrate", data_path("dim5"),
                            *(x for item in options.items() for x in item), "--json")
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "ConfigError" and flag in err["message"]


def test_a_dim32_algebra_with_a_16_dimensional_center_integrates(capsys, tmp_path):
    # dim 32 with [x_i, x_i] = z_i for i < 16: g0 and the left center are
    # 16-dimensional, and no kernel takes a matrix wider than the group
    # elements' dim x dim, so the dim x dim check bounds every stack
    p = tmp_path / "hom32.leib"
    write_algebra_file(LeibnizAlgebra.from_brackets(
        32, {(i, i): {16 + i: 1} for i in range(16)}), p)
    code, out = run_cli(capsys, "integrate", str(p), "--samples", "10", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "pass"
    assert doc["analysis"]["g0_dim"] == 16 and doc["exact_checks"]["center_dim"] == 16


def test_the_parser_is_built_once_per_process():
    from leibrack.cli import build_parser
    assert build_parser() is build_parser()


_NON_UNIPOTENT = {
    # [e1, ek] = lambda_k ek with ek left-central: rho is diagonal
    "diagonal": {(0, 0): {1: 1, 3: 1}, (0, 1): {1: 1}, (0, 2): {2: Fraction(-1, 2)},
                 (0, 3): {3: 2}},
    # g0 = aff(1) acting on the left center with weights (2, 1)
    "aff": {(0, 0): {2: 1}, (0, 1): {1: 1}, (1, 0): {1: -1, 3: 1}, (0, 2): {2: 2},
            (0, 3): {3: 1}, (1, 3): {2: 1}},
    # [t,x] = y, [t,y] = -x, [x,y] = z: a Lie algebra whose ad0 is a rotation
    "oscillator": {(0, 1): {2: 1}, (1, 0): {2: -1}, (0, 2): {1: -1}, (2, 0): {1: 1},
                   (1, 2): {3: 1}, (2, 1): {3: -1}},
}


def _integrate_non_unipotent(capsys, tmp_path, kind, radius):
    p = tmp_path / f"{kind}.leib"
    write_algebra_file(LeibnizAlgebra.from_brackets(4, _NON_UNIPOTENT[kind]), p)
    code, out = run_cli(capsys, "integrate", str(p), "--samples", "20",
                        "--chart-radius", radius, "--json")
    doc = json.loads(out)
    return code, doc, {q["name"]: q for q in doc["properties"]}


def test_out_of_chart_samples_count_as_skips(capsys, tmp_path):
    # only the Lie suite acts on group elements of the chart: at radius 8
    # the oscillator's iota2 node elements leave the log's chart, a skip and
    # exit 3, not a traceback.  Every other row acts on X = g0 x a and
    # skips nothing
    code, doc, props = _integrate_non_unipotent(capsys, tmp_path, "oscillator", "8")
    assert code == 3
    assert doc["verdict"] == "chart_coverage_failure"
    assert {name for name, q in props.items() if q["skipped"]} == \
        {"lie_group_associativity", "lie_conjugation_equals_rack", "i2_from_iota2"}


def test_a_wide_aff_chart_skips_nothing_and_fails_by_rounding(capsys, tmp_path):
    # at radius 1000 the samples of aff(1) reach entries near 250.  No row
    # skips, and pointedness and the fixed point are exact zeros (A 0 = 0);
    # self-distributivity, the rack cocycle identity and the ghost identity
    # fail their absolute tolerances by rounding, and the cross-check's 8
    # nodes do not resolve its integrands
    code, doc, props = _integrate_non_unipotent(capsys, tmp_path, "aff", "1000")
    assert code == 4
    assert doc["verdict"] == "property_failure"
    assert not any(q["skipped"] for q in props.values())
    assert props["pointedness"]["max_defect"] == props["action_fixed_point"]["max_defect"] == 0.0
    assert {name for name, q in props.items() if not q["pass"]} == \
        {"self_distributivity", "rack_cocycle_identity", "ghost_identity",
         "quadrature_order_stability"}


def test_the_quadrature_cross_check_meets_no_log_gate(capsys, tmp_path):
    # the samples of the diagonal G0 at radius 8 lie outside the float log's
    # chart, but every suite, the quadrature cross-check included,
    # integrates from the coordinates its draws carry: no sample is skipped
    code, doc, props = _integrate_non_unipotent(capsys, tmp_path, "diagonal", "8")
    assert code == 0 and doc["verdict"] == "pass"
    assert not any(q["skipped"] for q in props.values())


def test_integrate_oscillator_algebra_passes(capsys, tmp_path):
    # a Lie algebra whose ad0 is a rotation, not nilpotent: iota2 and its
    # inner phi1 go through the kernel without an index (degree-18 Taylor
    # scaling and squaring)
    osc = LeibnizAlgebra.from_brackets(4, {(1, 2): {3: 1}, (2, 1): {3: -1},
                                           (0, 1): {2: 1}, (1, 0): {2: -1},
                                           (0, 2): {1: -1}, (2, 0): {1: 1}})
    p = tmp_path / "oscillator.leib"
    write_algebra_file(osc, p)
    code, out = run_cli(capsys, "integrate", str(p), "--samples", "10", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass" and doc["algebra"]["is_lie"]
    assert "i2_from_iota2" in {q["name"] for q in doc["properties"]}


def test_analysis_reports_float_renderings(capsys):
    code, out = run_cli(capsys, "analyze", data_path("dim5"), "--json")
    doc = json.loads(out)
    ana = doc["analysis"]
    assert ana["rho_float"][0][1][0] == 1.0
    assert ana["omega"][0]["value_float"] == [1.0, 0.0, 0.0]


def test_one_extension_and_one_rack_system_per_report(capsys, monkeypatch):
    import leibrack.cli as cli
    import leibrack.rack as rack
    calls = {"ext": 0, "sys": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(cli, "canonical_extension", counted("ext", cli.canonical_extension))
    monkeypatch.setattr(rack, "build_rack_system", counted("sys", rack.build_rack_system))
    for name in ("dim5", "heisenberg"):
        code, _ = run_cli(capsys, "example", name, "--samples", "10", "--json")
        assert code == 0
    assert calls == {"ext": 2, "sys": 2}


def test_one_leibniz_walk_per_report(capsys, monkeypatch, tmp_path):
    """The parse (or the built-in's constructor) checks the Leibniz
    identity and records it on the algebra, so canonical_extension does
    not walk the triples again."""
    from leibrack import algebra
    path = tmp_path / "dim5.leib"
    write_algebra_file(dim5(), path)
    walks = []
    walk = algebra.validate_leibniz
    monkeypatch.setattr(algebra, "validate_leibniz", lambda alg: walks.append(alg) or walk(alg))
    for argv in (["verify", str(path)], ["analyze", str(path)],
                 ["integrate", str(path), "--samples", "10"],
                 *(["example", name, "--samples", "10"]
                   for name in ("dim5", "heisenberg", "abelian3"))):
        walks.clear()
        code, _ = run_cli(capsys, *argv, "--json")
        assert code == 0, argv
        assert len(walks) == 1, argv


def test_a_failed_leibniz_check_is_not_recorded():
    bad = LeibnizAlgebra.from_brackets(2, {(0, 0): {1: 1}, (1, 0): {0: 1}}, check=False)
    for _ in range(2):
        with pytest.raises(ValidationError):
            bad.leibniz_ok


# dim 3, [e1,e1] = 10^-200 e3 and [e2,e1] = 10^200 e3: valid, but the left
# center is spanned by (-10^400, 1, 0)
_TINY_AND_HUGE = {"dim": 3, "brackets": [
    {"left": 0, "right": 0, "value": {"2": "1/1" + "0" * 200}},
    {"left": 1, "right": 0, "value": {"2": "1" + "0" * 200}}]}
# [e1,e1] = 10^400 e2: omega(e1, e1) is 10^400
_HUGE_OMEGA = {"dim": 2, "brackets": [{"left": 0, "right": 0, "value": {"1": 10 ** 400}}]}
# [e1,e2] = 10^400 e2 = -[e2,e1]: no float in analyze, but the realized g0 overflows
_HUGE_G0 = {"dim": 2, "brackets": [{"left": 0, "right": 1, "value": {"1": str(10 ** 400)}},
                                   {"left": 1, "right": 0, "value": {"1": str(-10 ** 400)}}]}


@pytest.mark.parametrize("doc,commands", [
    (_TINY_AND_HUGE, ("analyze", "integrate")),
    (_HUGE_OMEGA, ("analyze", "integrate")),
    (_HUGE_G0, ("integrate",)),
], ids=["tiny_and_huge", "huge_omega", "huge_g0"])
def test_exact_values_outside_float_range_exit_2(capsys, tmp_path, doc, commands):
    # each used to die with an OverflowError traceback (exit 1)
    path = tmp_path / "huge.leib"
    path.write_text(json.dumps(doc))
    code, _ = run_cli(capsys, "verify", str(path), "--json")
    assert code == 0
    for command in commands:
        code, out = run_cli(capsys, command, str(path), "--json")
        assert code == 2, command
        error = json.loads(out)["error"]
        assert error["type"] == "OverflowError"
        assert "outside float range" in error["message"]


def test_reports_with_an_extension_take_its_left_center(capsys, monkeypatch):
    """analyze and integrate read the left center off the extension, which
    already reduced the left-adjoint map; only verify computes it itself."""
    import leibrack.cli as cli
    from leibrack.algebra import left_center

    def refuse(alg):
        raise AssertionError("left_center called on a report that builds an extension")
    monkeypatch.setattr(cli, "left_center", refuse)
    for name in ("dim5", "heisenberg", "abelian3"):
        want = [[str(c) for c in v] for v in left_center(parse_algebra_file(data_path(name)))]
        for argv in (("analyze", data_path(name), "--json"),
                     ("integrate", data_path(name), "--samples", "10", "--json")):
            code, out = run_cli(capsys, *argv)
            assert code == 0
            assert json.loads(out)["exact_checks"]["center_basis"] == want
    with pytest.raises(AssertionError, match="left_center called"):
        main(["verify", data_path("dim5")])


def test_reports_never_read_the_dense_tensor(capsys, monkeypatch, tmp_path):
    """The package reads the nonzero table; the dense view c is for callers
    outside it."""
    from leibrack.corpus import filiform5
    path = tmp_path / "filiform5.leib"
    write_algebra_file(filiform5(), path)

    def refuse(alg):
        raise AssertionError("dense tensor read")
    monkeypatch.setattr(LeibnizAlgebra, "c", property(refuse))
    with pytest.raises(AssertionError, match="dense tensor read"):
        filiform5().c
    for argv in (["verify", str(path)], ["analyze", str(path)],
                 ["integrate", str(path), "--samples", "10"],
                 *(["example", name, "--samples", "10"]
                   for name in ("dim5", "heisenberg", "abelian3"))):
        code, _ = run_cli(capsys, *argv, "--json")
        assert code == 0, argv


def test_reports_never_evaluate_on_dense_vectors(capsys, monkeypatch, tmp_path):
    """The extension is checked as one isomorphism of sparse matrices, so
    no report evaluates omega on a dense vector; the package has no action
    of a vector (``left_of`` is a test oracle)."""
    from leibrack.corpus import filiform5
    path = tmp_path / "filiform5.leib"
    write_algebra_file(filiform5(), path)

    def refuse(*args):
        raise AssertionError("dense evaluation")
    monkeypatch.setattr(Cochain, "evaluate", refuse)
    assert not hasattr(Representation, "left_of")
    for argv in (["analyze", str(path)], ["integrate", str(path), "--samples", "10"]):
        code, _ = run_cli(capsys, *argv, "--json")
        assert code == 0, argv


@pytest.mark.xfail(strict=True, reason="the float unipotency test in log_float sends "
                   "this unipotent G0 element down the gated non-unipotent branch")
def test_i2_probe_returns_value_for_unipotent_g0(capsys, tmp_path):
    path = tmp_path / "rl38.leib"
    write_algebra_file(random_leibniz(38), path)
    code, out = run_cli(capsys, "integrate", str(path), "--samples", "10", "--json")
    assert code == 0
    assert "value" in json.loads(out)["i2_probe"]
