"""The rack operations on stacks of group elements, and the suites that run
their whole sample set as stacks, each against its one-element
counterpart: bit for bit where the element stays in the chart, and a
cleared mask entry exactly where the one-element call raises."""

import struct
import sys
import warnings
from argparse import Namespace
from functools import cache, partial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import leibrack.rack as rack
from leibrack.algebra import LeibnizAlgebra, canonical_extension, is_lie
from leibrack.rack_report import EXAMPLE_EXTRAS
from leibrack.corpus import abelian3, dim5, filiform5, free_nilpotent5, heisenberg, random_leibniz
from leibrack.exact import OutOfChartError
from leibrack.linalg import norm1_float
from leibrack.rack import (
    LocalRackElement,
    augmented_action,
    build_rack_system,
    conjugate,
    group_from_coords,
    group_product,
    i1,
    i2,
    iota2,
    lie_group_product,
    rack_product,
)
from leibrack.suites import (
    augmented_action_suite,
    basis_pair_difference,
    cocycle_suite,
    draw_samples,
    lie_specialization_suite,
    quadrature_stability_suite,
    _injectivity_defect,
    rack_axiom_suite,
    roundtrip_suite,
    sample_group_element,
    stacked,
    tangent_suite,
)
from oracles import (
    EXTRAS_ONE_BY_ONE,
    _injectivity,
    augmented_action_one_by_one,
    bracket_coords_by_brackets,
    carried_i2,
    cocycle_one_by_one,
    delta2,
    group_action,
    i2_quadrature,
    lie_group_inverse,
    lie_specialization_one_by_one,
    quadrature_stability_one_by_one,
    rack_axioms_one_by_one,
    random_corpus,
    roundtrip_one_by_one,
    sample_rack_element,
    sampled,
    tangent_one_by_one,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import inputs  # noqa: E402


def _bits(results):
    """Each result as (name, max_defect's bytes, samples, skipped)."""
    return [(r.name, struct.pack("<d", r.max_defect), r.samples, r.skipped) for r in results]


# -- inputs ----------------------------------------------------------------------

def _oscillator():
    # [e1, e2] = e3 central, [e0, e1] = e2, [e0, e2] = -e1: a Lie algebra
    # whose G0 is not unipotent, so its node elements can leave the log chart
    return LeibnizAlgebra.from_brackets(4, {(1, 2): {3: 1}, (2, 1): {3: -1},
                                            (0, 1): {2: 1}, (1, 0): {2: -1},
                                            (0, 2): {1: -1}, (2, 0): {1: 1}})


def _system(name, radius, quad_order=8):
    if name.startswith("rl"):
        alg = random_leibniz(int(name[2:]))
    elif name in inputs.RHO_KINDS:
        alg = inputs.rho_semisimple(name, 0)
    else:
        alg = {"dim5": dim5, "heisenberg": heisenberg, "filiform5": filiform5,
               "free_nilpotent5": free_nilpotent5, "abelian3": abelian3,
               "oscillator": _oscillator}[name]()
    return build_rack_system(canonical_extension(alg), radius, quad_order)


NARROW = ["dim5", "heisenberg", "filiform5", "rl1", "rl2", "rl23", *inputs.RHO_KINDS,
          "free_nilpotent5", "abelian3"]
# Only the Lie suite skips: the oscillator at 8 through iota2's logs of its
# node elements.  The other suites act on X = g0 x a with no gate, so dim5
# at 16, diagonal at 8 and aff at 1000, whose draws reach entries near 250,
# skip nothing: there the values of the wide charts are compared
WIDE = [("dim5", 16.0), ("diagonal", 8.0), ("aff", 1000.0), ("oscillator", 8.0)]
SKIPPING = {("oscillator", 8.0)}


# -- the stacked suites equal the one-by-one loops -----------------------------

@cache
def _one_by_one(name, radius):
    """The bits of the one-by-one loops of every suite, as
    ``test_stacked_suites_equal_the_one_by_one_loops`` runs them."""
    sys_ = _system(name, radius)
    want = (rack_axioms_one_by_one(sys_, 20, 5) + cocycle_one_by_one(sys_, 20, 8)
            + augmented_action_one_by_one(sys_, 20, 6) + roundtrip_one_by_one(sys_)
            + tangent_one_by_one(sys_) + quadrature_stability_one_by_one(sys_, 10, 7))
    if is_lie(sys_.ext.parent):
        want += lie_specialization_one_by_one(sys_, 20, 9)
    return _bits(want)


# CHUNK_ENTRIES in dim x dim matrices: None keeps the bound, at which every
# suite here is one chunk; 0 makes it 1 entry, so every chunk is one sample;
# 45 and 100 make uneven chunks of a few samples, of 11, 7 and 15 samples
# in the rack axiom, cocycle and action suites at 45, and of 3 in the Lie
# suite at 100
CASES = [(name, radius, chunk) for name, radius in [(name, 0.5) for name in NARROW] + WIDE
         for chunk in (None, 0, 45, 100)]


@pytest.mark.parametrize("name,radius,chunk", CASES,
                         ids=[f"{name}-r{radius:g}" + ("" if chunk is None else f"-chunk{chunk}")
                              for name, radius, chunk in CASES])
def test_stacked_suites_equal_the_one_by_one_loops(name, radius, chunk, monkeypatch):
    import leibrack.suites as suites
    sys_ = _system(name, radius)
    if chunk is not None:
        monkeypatch.setattr(suites, "CHUNK_ENTRIES", max(1, chunk * sys_.dim ** 2))
    diff = basis_pair_difference(sys_)
    got = (rack_axiom_suite(sys_, 20, 5) + cocycle_suite(sys_, 20, 8)
           + augmented_action_suite(sys_, 20, 6) + roundtrip_suite(sys_, diff)
           + tangent_suite(sys_, diff) + quadrature_stability_suite(sys_, 10, 7))
    if is_lie(sys_.ext.parent):
        got += lie_specialization_suite(sys_, 20, 9)
    assert _bits(got) == _one_by_one(name, radius)
    if radius > 0.5:  # the wide charts are where samples are skipped
        skipping = {r.name for r in got if r.skipped}
        assert bool(skipping) == ((name, radius) in SKIPPING)
        if name == "oscillator":
            assert "i2_from_iota2" in skipping


@pytest.mark.parametrize("name,radius", [("dim5", 0.5), ("dim5", 8.0), ("diagonal", 0.5),
                                         ("heisenberg", 0.5)])
def test_chunks_hand_the_injectivity_check_the_rows_of_one_stack(name, radius, monkeypatch):
    # the injectivity row's inputs and outputs in chunks, of one sample and
    # of 11, are those of one stack bit for bit, in the same order; its
    # verdict alone would not show an input taken from the wrong draw
    import leibrack.suites as suites
    sys_ = _system(name, radius)
    check, seen = suites._injectivity_defect, []

    def recorded(ins, outs):
        seen.append([x.tobytes() for x in (ins, outs)])
        return check(ins, outs)
    monkeypatch.setattr(suites, "_injectivity_defect", recorded)
    for chunk in (None, 1, 45 * sys_.dim ** 2):
        with monkeypatch.context() as patch:
            if chunk is not None:
                patch.setattr(suites, "CHUNK_ENTRIES", chunk)
            rack_axiom_suite(sys_, 20, 5)
    assert seen[0] == seen[1] == seen[2]


@pytest.mark.parametrize("name", ["dim5", "heisenberg", "abelian3", "diagonal", "filiform5"])
def test_a_chunked_rack_axiom_suite_exponentiates_each_draw_once(name, monkeypatch):
    # in chunks of one sample and of 5 (a bound of 20 matrices), as in one
    # stack, the 3n draws go to the draw calls once each, each in the chunk
    # that owns it; on heisenberg and abelian3 no draw is halved, so each
    # chunk's exp calls take its 3m draws, then the m products u |> v that act
    import leibrack.suites as suites
    sys_ = _system(name, 0.5)
    draw, exp = suites._group_elements, suites.group_from_coords
    for chunk in (None, 1, 20 * sys_.dim ** 2):
        draws, exps = [], []
        with monkeypatch.context() as patch:
            patch.setattr(suites, "_group_elements",
                          lambda s, xi, r: draws.append(len(xi)) or draw(s, xi, r))
            patch.setattr(suites, "group_from_coords",
                          lambda s, xi: exps.append(len(xi)) or exp(s, xi))
            if chunk is not None:
                patch.setattr(suites, "CHUNK_ENTRIES", chunk)
            rack_axiom_suite(sys_, 20, 5)
        assert sum(draws) == 60, (chunk, draws)
        if name in ("heisenberg", "abelian3"):
            assert exps == [rows for k in draws for rows in (k, k // 3)]


@pytest.mark.parametrize("name", ["dim5", "heisenberg", "abelian3", "filiform5",
                                  "free_nilpotent5", "oscillator", *inputs.RHO_KINDS])
def test_bracket_coords_equal_the_bracket_loop(name):
    # the tangent suite's expected values, the system's one sparse product,
    # against one bracket and one split per basis pair
    for seed in range(2):
        if name in inputs.RHO_KINDS:
            alg = inputs.rho_semisimple(name, seed)
        elif seed:
            continue
        else:
            alg = _system(name, 0.5).ext.parent
        ext = canonical_extension(alg)
        assert build_rack_system(ext).bracket_coords.tobytes() == \
            bracket_coords_by_brackets(ext).tobytes()


def test_bracket_coords_of_the_corpus_equal_the_bracket_loop():
    for alg in random_corpus(12, seed=3) + [random_leibniz(k) for k in (1, 2, 23, 35, 38)]:
        ext = canonical_extension(alg)
        assert build_rack_system(ext).bracket_coords.tobytes() == \
            bracket_coords_by_brackets(ext).tobytes()


@pytest.mark.parametrize("name,radius", [("dim5", 0.5), ("heisenberg", 0.5),
                                         ("heisenberg", 0.06), ("abelian3", 0.5)])
def test_example_extras_equal_the_one_by_one_loops(name, radius):
    sys_ = _system(name, radius)
    args = Namespace(seed=3, chart_radius=radius, quad_order=8, fd_step=1e-3)
    got = EXAMPLE_EXTRAS[name][0](sys_, args)
    assert _bits(got) == _bits(EXTRAS_ONE_BY_ONE[name][0](sys_, args))
    assert any(r.skipped for r in got) == (radius < 0.5)  # a narrow chart skips


def test_stacked_applies_the_rule_of_sampled():
    # a skip ends the sample: what it yielded before counts, what follows not
    defects = [np.array([0.5, 3.0, 0.25, np.nan]), np.array([1.0, 9.0, 0.5, 2.0]),
               np.array([4.0, 1.0, 0.75, 1.0])]
    masks = [np.array([True, True, True, False]), np.array([True, False, True, True]),
             np.array([False, True, True, True])]
    got = stacked(4, zip(defects, masks), [("a", 1.0), ("b", 1.0), ("c", 1.0)])

    def check(k):
        for defect, mask in zip(defects, masks):
            if not mask[k]:
                raise OutOfChartError("left the chart")
            yield defect[k]

    want = sampled(4, iter([(k,) for k in range(4)]).__next__, check,
                   [("a", 1.0), ("b", 1.0), ("c", 1.0)])
    assert _bits(got) == _bits(want)
    assert [(r.max_defect, r.skipped) for r in got] == [(3.0, 3), (1.0, 3), (0.75, 3)]
    nan_row = stacked(2, [(np.array([np.nan, 1.0]), np.ones(2, dtype=bool))], [("n", 1.0)])
    assert np.isnan(nan_row[0].max_defect)


# -- sampling ----------------------------------------------------------------------

@pytest.mark.parametrize("name,radius", [("dim5", 0.5), ("diagonal", 0.5), ("aff", 1000.0),
                                         ("abelian3", 0.5)])
def test_drawn_stacks_equal_the_draws_one_by_one(name, radius):
    sys_ = _system(name, radius)
    max_norm = radius / 4.0
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    (g, xi), (h, eta), a = draw_samples(sys_, rng, max_norm, 30, "gga")()
    for k in range(30):
        want_g, want_xi = sample_group_element(sys_, ref, max_norm)
        want, want_eta = sample_rack_element(sys_, ref, max_norm)
        assert (g[k].tobytes(), xi[k].tobytes()) == (want_g.tobytes(), want_xi.tobytes())
        assert h[k].tobytes() == want.g.tobytes() and a[k].tobytes() == want.a.tobytes()
        assert eta[k].tobytes() == want_eta.tobytes()
    assert rng.uniform() == ref.uniform()  # the same draws were taken
    if name == "aff":  # raw draws that leave the ball are halved
        raw = np.random.default_rng(11).uniform(
            -1.0, 1.0, size=(30, 2 * sys_.g0_dim + sys_.center_dim))[:, :sys_.g0_dim]
        with np.errstate(over="ignore", invalid="ignore"):
            far = norm1_float(group_from_coords(sys_, raw * max_norm) - np.eye(4))
        assert (far >= max_norm).any()
    if name == "abelian3":
        assert sys_.g0_dim == 0 and (g == np.eye(3)).all()


def test_wide_draws_overflow_without_a_warning_and_draw_the_same():
    # at radius 1000 the raw draws of aff reach norm 250, whose exp
    # overflows before the halving shrinks them
    sys_ = _system("aff", 1000.0)
    raw = np.random.default_rng(11).uniform(-1.0, 1.0, size=(30, sys_.g0_dim)) * 250.0
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        group_from_coords(sys_, raw)
    assert any("overflow" in str(w.message) for w in seen)

    def draws():
        rng = np.random.default_rng(11)
        (g, xi), (h, eta), a = draw_samples(sys_, rng, 250.0, 30, "gga")()
        return ([g, xi, h, eta, a]
                + [x for _ in range(30) for x in sample_group_element(sys_, rng, 250.0)]
                + [np.array([r.max_defect for r in rack_axiom_suite(sys_, 20, 5)])])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = draws()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = draws()
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def _halvings(sys_, max_norm, n):
    """How many times ``sample_group_element`` halves each of the 3n group
    draws of ``draw_samples(sys_, default_rng(5), max_norm, n, "ggg")()``."""
    d = sys_.g0_dim
    raw = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3 * n, d)) * max_norm
    counts = []
    with np.errstate(over="ignore", invalid="ignore"):
        for x in raw:
            count = 0
            while not norm1_float(group_from_coords(sys_, x) - sys_.identity()
                                  ) < max_norm:
                x, count = x * 0.5, count + 1
            counts.append(count)
    return np.array(counts)


# aff and diagonal rows need 0 to 3 halvings at max_norm 2; at chart radius
# 1e300 every dim5 row overflows exp and needs hundreds
HALVING_DRAWS = [("aff", 1000.0, 2.0, 30), ("diagonal", 8.0, 2.0, 30),
                 ("dim5", 1e300, 2.5e299, 4)]


@pytest.mark.parametrize("name,radius,max_norm,n", HALVING_DRAWS)
def test_draws_that_need_many_halvings_equal_the_draws_one_by_one(name, radius, max_norm, n):
    sys_ = _system(name, radius)
    counts = _halvings(sys_, max_norm, n)
    if name == "dim5":
        assert min(counts) >= 3
    else:
        assert {0, 1, 2} <= set(counts.tolist()) and max(counts) >= 3
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = draw_samples(sys_, rng, max_norm, n, "ggg")()
        want = [sample_group_element(sys_, ref, max_norm) for _ in range(3 * n)]
    assert [(g.shape, xi.shape) for g, xi in got] == \
        [((n, sys_.dim, sys_.dim), (n, sys_.g0_dim))] * 3
    # the elements and the halved coordinates each exponentiated
    for i in range(2):
        assert [x.tobytes() for part in got for x in part[i]] == \
            [want[3 * k + j][i].tobytes() for j in range(3) for k in range(n)]
    assert rng.uniform() == ref.uniform()


@pytest.mark.parametrize("name,radius,max_norm,n", HALVING_DRAWS)
def test_a_draw_takes_one_exp_call_per_halving_round(name, radius, max_norm, n, monkeypatch):
    # every "g" part in one stack; round k exponentiates the k-th halving
    # of exactly the rows that the k - 1 before did not fit, so no
    # exponentiated row is discarded
    import leibrack.suites as suites
    sys_ = _system(name, radius)
    counts = _halvings(sys_, max_norm, n)
    rows = 3 * n
    want = [rows] + [int(np.count_nonzero(counts > k)) for k in range(max(counts))]
    sizes = []
    with monkeypatch.context() as patch:
        original = suites.group_from_coords
        patch.setattr(suites, "group_from_coords",
                      lambda s, xi: sizes.append(len(xi)) or original(s, xi))
        draw_samples(sys_, np.random.default_rng(5), max_norm, n, "gga")()
        assert max(sizes) == 2 * n  # the "a" part is not exponentiated
        sizes.clear()
        draw_samples(sys_, np.random.default_rng(5), max_norm, n, "ggg")()
    assert sizes == want and max(sizes) == rows
    assert sum(sizes) == rows + int(counts.sum())


# -- masks -----------------------------------------------------------------------

def _mixed_system():
    return _system("dim5", 8.0)


def _mixed_slices(sys_):
    """An in-chart element, then one element per gate of the paper's i2
    (``i2_quadrature``), each with the error its 2-D call raises on it as
    g: the conjugator's chart gate and a singular conjugator, the two that
    the rack product meets too, then the gates of g's log, which the rack
    product does not take: the log chart, a log series that does not
    converge and the log residual."""
    n = sys_.dim
    eye = np.eye(n)
    unit = np.zeros((n, n))
    unit[0, 0] = 1.0
    return [
        (group_from_coords(sys_, [0.3, -0.2]), None),
        (10.0 * eye, "conjugator: ||g - I|| = 9 >= chart radius 8.0"),
        (eye - unit, "conjugator: singular in floating point"),
        (2.5 * eye, "||m - I|| = 1.5 >= 1: outside the log chart"),
        (1.999 * eye, "matrix log series did not converge"),
        (scipy.linalg.expm(0.1 * unit), "log(g) leaves the realized g0 (residual 0.1)"),
    ]


def _outcome(f):
    try:
        value = f()
    except OutOfChartError as exc:
        return str(exc)
    return value


def _same_or_raised(stacked_values, ok, one_by_one):
    """ok[i] is False exactly where the 2-D call raised, and the ok slices
    are its value bit for bit."""
    assert ok.shape == (len(one_by_one),)
    for k, want in enumerate(one_by_one):
        if isinstance(want, str):
            assert not ok[k], want
        else:
            assert ok[k]
            got = LocalRackElement(stacked_values.g[k], stacked_values.a[k]) \
                if isinstance(stacked_values, LocalRackElement) else stacked_values[k]
            if isinstance(want, LocalRackElement):
                assert (got.g.tobytes(), got.a.tobytes()) == (want.g.tobytes(), want.a.tobytes())
            else:
                assert got.tobytes() == want.tobytes()


OPERATIONS = ("conjugate", "group_product", "group_action", "i1", "i2", "i2_quadrature",
              "augmented_action", "rack_product")


def _operations(sys_):
    """name -> the operation on (g, h, b), for one element or stacks, with
    an optional mask."""
    return {
        "conjugate": lambda g, h, b, ok=None: conjugate(sys_, g, h, ok),
        "group_product": lambda g, h, b, ok=None: group_product(sys_, g, h, ok),
        "group_action": lambda g, h, b, ok=None: group_action(sys_, g, ok),
        "i1": lambda g, h, b, ok=None: i1(sys_, g, ok),
        "i2": lambda g, h, b, ok=None: i2(sys_, g, h, ok),
        "i2_quadrature": lambda g, h, b, ok=None: i2_quadrature(sys_, g, h, sys_.quad, ok),
        "augmented_action": lambda g, h, b, ok=None: augmented_action(
            sys_, g, LocalRackElement(h, b), ok),
        "rack_product": lambda g, h, b, ok=None: rack_product(
            sys_, LocalRackElement(g, b), LocalRackElement(h, b), ok),
    }


# the slices of _mixed_slices each operation fails: conjugate meets only the
# conjugator's gates, and so do i2 and the actions, which read g off its
# split and log only h, and i1, which reads C A^-1 off g's split, where the
# inverse of A fails as the conjugator's does; a product of two elements in
# the chart is only gated by the chart; every other operation takes log g
FAILING = {"conjugate": [1, 2], "group_product": [1], "i1": [1, 2], "i2": [1, 2],
           "augmented_action": [1, 2], "rack_product": [1, 2]}


@pytest.mark.parametrize("op", OPERATIONS)
def test_mixed_stack_mask_is_false_exactly_where_the_2d_call_raises(op):
    sys_ = _mixed_system()
    slices = _mixed_slices(sys_)
    g = np.array([s for s, _ in slices])
    h = np.array([group_from_coords(sys_, [-0.1, 0.25])] * len(g))
    b = np.linspace(-0.2, 0.2, 3 * len(g)).reshape(len(g), 3)
    stacks, one = _operations(sys_)[op], _operations(_mixed_system())[op]
    ok = np.ones(len(g), dtype=bool)
    values = stacks(g, h, b, ok)
    want = [_outcome(lambda k=k: one(g[k], h[k], b[k])) for k in range(len(g))]
    _same_or_raised(values, ok, want)
    assert list(np.flatnonzero(~ok)) == FAILING.get(op, [1, 2, 3, 4, 5])
    if op == "i2_quadrature":
        assert want[1:] == [text for _, text in slices[1:]]
    if op in ("augmented_action", "rack_product", "i2"):
        assert want[1:3] == [text for _, text in slices[1:3]]
    if op == "i1":
        assert want[1:3] == [text.replace("conjugator", "group element")
                             for _, text in slices[1:3]]
    # without a mask, a stack raises the error of its first failing slice
    with pytest.raises(OutOfChartError) as err:
        stacks(g, h, b)
    assert str(err.value) == want[1]


def test_the_chart_gates_of_the_conjugated_element_result_and_product_mask_too():
    sys_ = _mixed_system()
    n = sys_.dim
    eye = np.eye(n)
    inside = group_from_coords(sys_, [0.3, -0.2])
    shear, lift = eye.copy(), eye.copy()
    shear[0, 1], lift[1, 0] = 7.0, 7.0  # in the chart, but not their products
    g = np.array([inside, inside, shear, shear])
    h = np.array([inside, 9.0 * eye, lift, inside])
    for op, texts in ((conjugate, ["conjugated element", "conjugation result"]),
                      (group_product, ["group element", "group product"])):
        ok = np.ones(len(g), dtype=bool)
        values = op(sys_, g, h, ok)
        want = [_outcome(lambda k=k: op(sys_, g[k], h[k])) for k in range(len(g))]
        _same_or_raised(values, ok, want)
        messages = [w for w in want if isinstance(w, str)]
        assert all(any(t in m for m in messages) for t in texts), messages


def test_a_broadcast_element_acts_on_a_stack_as_on_each_slice():
    sys_ = _system("aff", 8.0)
    rng = np.random.default_rng(21)
    (g, _), (h, _), a = draw_samples(sys_, rng, 2.0, 12, "gga")()
    ok = np.ones((12, 2), dtype=bool)
    u = LocalRackElement(g[:, None], a[:, None])
    targets = LocalRackElement(np.stack([h, g[::-1]], axis=1), np.stack([a, a[::-1]], axis=1))
    got = rack_product(sys_, u, targets, ok)
    one = _system("aff", 8.0)
    for k in range(12):
        for j in range(2):
            want = _outcome(lambda: rack_product(one, LocalRackElement(g[k], a[k]),
                                                 LocalRackElement(targets.g[k, j],
                                                                  targets.a[k, j])))
            if isinstance(want, str):
                assert not ok[k, j]
            else:
                assert ok[k, j]
                assert got.g[k, j].tobytes() == want.g.tobytes()
                assert got.a[k, j].tobytes() == want.a.tobytes()
    assert not ok.all() and ok.any()


LIE_OPERATIONS = {
    "iota2": lambda sys_, u, v, ok=None: iota2(sys_, u.g, v.g, ok=ok),
    "lie_group_product": lambda sys_, u, v, ok=None: lie_group_product(sys_, u, v, ok),
    "lie_group_inverse": lambda sys_, u, v, ok=None: lie_group_inverse(sys_, u, ok),
}


@pytest.mark.parametrize("op", LIE_OPERATIONS)
def test_lie_operations_mask_a_stack_exactly_where_the_2d_call_raises(op):
    # on the oscillator at radius 8, pairs fail the chart gates, the group
    # product gate, the log of h and the logs of iota2's node elements
    sys_ = _system("oscillator", 8.0)
    rng = np.random.default_rng(18)
    scales = rng.choice([0.05, 0.4, 1.5, 3.0], size=(40, 1))
    g, h = (group_from_coords(sys_, rng.uniform(-1.0, 1.0, (40, sys_.g0_dim)) * scales)
            for _ in range(2))
    a, b = (rng.uniform(-0.25, 0.25, (40, sys_.center_dim)) for _ in range(2))
    u, v = LocalRackElement(g, a), LocalRackElement(h, b)
    call = LIE_OPERATIONS[op]
    ok = np.ones(40, dtype=bool)
    values = call(sys_, u, v, ok)
    want = [_outcome(lambda k=k: call(sys_, LocalRackElement(g[k], a[k]),
                                      LocalRackElement(h[k], b[k])))
            for k in range(40)]
    _same_or_raised(values, ok, want)
    messages = {text.split(":")[0] for text in want if isinstance(text, str)}
    assert ok.any() and len(messages) >= 2, messages
    with pytest.raises(OutOfChartError) as err:
        call(sys_, u, v)
    assert str(err.value) in want


# -- kernel calls do not grow with the sample count ---------------------------

def _kernel_slices(monkeypatch, suite, draws=False, widths=None):
    """The slice count of each call of each float kernel that suite()
    makes, outside its draws unless draws (the draws' halving rounds
    depend on the draws, not on their number); the side of each call's
    matrices goes to the list widths, if given."""
    import leibrack.suites as suites
    calls = {"log_float": [], "exp_float": [], "phi1_float": []}
    drawing = []
    with monkeypatch.context() as patch:
        for name in calls:
            original = getattr(rack, name)

            def counted(a, *args, name=name, original=original):
                if draws or not drawing:
                    calls[name].append(int(np.prod(a.shape[:-2])))
                    if widths is not None:
                        widths.append(a.shape[-1])
                return original(a, *args)
            patch.setattr(rack, name, counted)

        def uncounted(*args, draw=suites._group_elements):
            drawing.append(None)
            try:
                return draw(*args)
            finally:
                drawing.pop()
        patch.setattr(suites, "_group_elements", uncounted)
        suite()
    return calls


def _kernel_calls(monkeypatch, suite):
    """The calls of each float kernel that suite() makes outside its draws."""
    return {name: len(sizes) for name, sizes in _kernel_slices(monkeypatch, suite).items()}


@pytest.mark.parametrize("name", ["dim5", "diagonal", "aff", "heisenberg"])
def test_stacked_suites_make_as_many_kernel_calls_at_10_and_40_samples(name, monkeypatch):
    # the rack axiom, cocycle, action and quadrature suites act on or
    # integrate from elements that carry their log coordinates and take no
    # log; the Lie suite's logs are iota2's
    suites = [(0, lambda s, n: rack_axiom_suite(s, n, 0)),
              (0, lambda s, n: cocycle_suite(s, n, 1)),
              (0, lambda s, n: augmented_action_suite(s, n, 3)),
              (0, lambda s, n: quadrature_stability_suite(s, n, 4))]
    if name == "heisenberg":
        suites.append((4, lambda s, n: lie_specialization_suite(s, n, 2)))
    for logs, suite in suites:
        counts = [_kernel_calls(monkeypatch, lambda: suite(_system(name, 0.5), n))
                  for n in (10, 40)]
        assert counts[0] == counts[1] and any(counts[0].values())
        assert counts[0]["log_float"] == logs


@pytest.mark.parametrize("name", ["dim5", "diagonal", "filiform5", "abelian3"])
def test_one_basis_pair_difference_serves_both_round_trips(name, monkeypatch):
    # a report differentiates every basis pair once, in one tangent_bracket
    # call, and differentiates no cochain (``rack`` has no delta2, which
    # test_import_graph pins): the round trip reads its row off the same
    # difference.  The probes act on X, so the difference takes no log, and
    # the n basis rows meet as a column and a row, so exp takes the 4n
    # probes exp(+-h e_i) of the column alone, not all 4n^2 pairs
    import leibrack.suites as suites
    sys_ = _system(name, 0.5)
    n = sys_.ext.parent.dim
    calls = _suite_calls(monkeypatch, {"tangent_bracket": 1},
                         lambda: suites.full_suite(sys_, 10, 0))
    assert calls == {"tangent_bracket": [(n, n)]}
    sizes = _kernel_slices(monkeypatch, lambda: basis_pair_difference(sys_))
    assert sizes["log_float"] == []
    assert max(sizes["exp_float"]) == 4 * n


# the round trip's inputs: the corpus, seeds 0-3 of each rho_semisimple
# kind, two benchmark filiform algebras, and abelian3, whose g0 is empty
ROUNDTRIP_INPUTS = (["dim5", "heisenberg", "filiform5", "free_nilpotent5", "abelian3"]
                    + [f"rl{k}" for k in (1, 2, 3, 5, 7, 23, 28, 35, 38)]
                    + [f"{kind}-{seed}" for kind in inputs.RHO_KINDS for seed in range(4)]
                    + ["filiform-8", "filiform-16"])


@pytest.mark.parametrize("name", ROUNDTRIP_INPUTS)
def test_the_round_trip_row_equals_delta2_of_i2(name):
    # the center part of the basis-pair difference at the lifts of g0 is
    # delta2 of i2 at g0's basis pairs, each probe h carrying its
    # coordinates, bit for bit, and so is the row read off it
    if name.startswith("filiform-"):
        k = int(name.split("-")[1])
        ext = canonical_extension(inputs.filiform(k, inputs.filiform_signs(k, 0)))
    elif "-" in name:
        kind, seed = name.split("-")
        ext = canonical_extension(inputs.rho_semisimple(kind, int(seed)))
    else:
        ext = _system(name, 0.5).ext
    d, m = ext.g0_dim, ext.center_dim
    basis = np.eye(d)
    lifts = np.ix_(ext.complement_pivots, ext.complement_pivots)
    for radius in (0.5, 4.0, 16.0):
        sys_ = build_rack_system(ext, radius)
        diff = basis_pair_difference(sys_)
        want = delta2(sys_, partial(carried_i2, sys_), basis[:, None], basis[None])
        assert diff[lifts][..., d:].tobytes() == want.tobytes(), radius
        row = stacked(d * d, [(np.abs(want - sys_.omega.transpose(0, 2, 1))
                               .reshape(d * d, m).max(axis=1, initial=0.0),
                               np.ones(d * d, dtype=bool))],
                      [("delta2_left_inverse", 1e-5)])
        assert _bits(roundtrip_suite(sys_, diff)) == _bits(row), radius


@pytest.mark.parametrize("bound", [0, 20])
@pytest.mark.parametrize("name,quad_order", [("dim5", 4), ("diagonal", 16), ("heisenberg", 3),
                                             ("heisenberg", 8), ("filiform5", 5)])
def test_no_kernel_in_a_chunked_suite_receives_more_than_a_chunk(name, quad_order, bound,
                                                                 monkeypatch):
    # at CHUNK_ENTRIES = bound dim x dim matrices (1 entry at 0), no kernel
    # call of a sampled suite, draws included, receives more than
    # max(CHUNK_ENTRIES, one sample's widest stack) entries, though one
    # stack of 40 samples would hold 120 to 1280 matrices; the widest stacks
    # are 4 matrices a sample in the rack axioms, 6 in the cocycle suite, 3
    # in the action suite, 4 quad-order in the Lie suite and 4 dim a row of
    # basis pairs in the difference, and no kernel receives a matrix wider
    # than dim
    import leibrack.suites as suites
    sys_ = _system(name, 0.5, quad_order)
    dim = sys_.dim
    monkeypatch.setattr(suites, "CHUNK_ENTRIES", max(1, bound * dim * dim))
    runs = [(4, lambda: rack_axiom_suite(sys_, 40, 0)), (6, lambda: cocycle_suite(sys_, 40, 1)),
            (3, lambda: augmented_action_suite(sys_, 40, 3)),
            (4 * dim, lambda: basis_pair_difference(sys_))]
    if is_lie(sys_.ext.parent):
        runs.append((4 * quad_order, lambda: lie_specialization_suite(sys_, 40, 2)))
    widths = []
    for widest, run in runs:
        sizes = _kernel_slices(monkeypatch, run, draws=True, widths=widths)
        largest = max(max(s, default=0) for s in sizes.values())
        assert largest <= max(bound, widest), (run, largest)
    assert widths and max(widths) <= dim


# -- each suite makes one call per dependency level -----------------------------

def _outermost_calls(monkeypatch, names, run):
    """The mask shape of each call of each rack operation in names that
    run() makes, except those made from within one of them (the
    conjugation inside i2)."""
    import leibrack.suites as suites
    calls = {name: [] for name in names}
    depth = []
    with monkeypatch.context() as patch:
        for name in names:
            original = getattr(rack, name)

            def counted(*args, name=name, original=original, **kwargs):
                if not depth:
                    calls[name].append(next(x.shape for x in (*args, *kwargs.values())
                                            if isinstance(x, np.ndarray) and x.dtype == bool))
                depth.append(None)
                try:
                    return original(*args, **kwargs)
                finally:
                    depth.pop()
            for module in (rack, suites):
                if getattr(module, name, None) is original:
                    patch.setattr(module, name, counted)
        run()
    return calls


def _suite_calls(monkeypatch, names, run):
    """The stack shape of each call that run() makes to each function the
    suites bind under a name in names, which maps it to the number of
    trailing axes of one element of its first array argument; a second
    array argument, of one trailing axis, broadcasts with it."""
    import leibrack.suites as suites
    calls = {name: [] for name in names}
    with monkeypatch.context() as patch:
        for name, core in names.items():
            def recorded(*args, name=name, core=core, original=getattr(suites, name)):
                shape = args[1].shape[:-core]
                if len(args) > 2 and isinstance(args[2], np.ndarray):
                    shape = np.broadcast_shapes(shape, args[2].shape[:-1])
                calls[name].append(shape)
                return original(*args)
            patch.setattr(suites, name, recorded)
        run()
    return calls


# the operations on X that the sampled suites call, with the trailing axes
# of one element
ON_X = {"split": 2, "augmented_from_split": 2}
# what the sampled suites and the basis-pair difference do not call: the
# conjugation g h g^-1, the float inverse, the group product behind its
# gate, and the chart gate
GATED = ("conjugate", "conjugate_and_split", "group_inverse", "group_product", "_chart_gate")


@pytest.mark.parametrize("name", ["dim5", "aff", "heisenberg", "abelian3"])
def test_the_sampled_suites_conjugate_invert_and_gate_nothing(name, monkeypatch):
    # they act on X = g0 x a, at any radius: no g h g^-1, no float
    # inverse and no chart gate.  The Lie suite, which acts on group
    # elements of the chart, shows that the counters count
    import leibrack.suites as suites
    counts = dict.fromkeys(GATED, 0)
    for op in GATED:
        original = getattr(rack, op)

        def counted(*args, op=op, original=original, **kwargs):
            counts[op] += 1
            return original(*args, **kwargs)
        for module in (rack, suites):
            if getattr(module, op, None) is original:
                monkeypatch.setattr(module, op, counted)
    for radius in (0.5, 1000.0):
        sys_ = _system(name, radius)
        rack_axiom_suite(sys_, 10, 0)
        cocycle_suite(sys_, 10, 1)
        augmented_action_suite(sys_, 10, 3)
        quadrature_stability_suite(sys_, 10, 4)
        basis_pair_difference(sys_)
    assert counts == dict.fromkeys(GATED, 0)
    lie_specialization_suite(_system("heisenberg", 0.5), 10, 2)
    assert all(counts[op] for op in GATED if op != "conjugate"), counts


@pytest.mark.parametrize("name", ["dim5", "diagonal", "heisenberg", "abelian3"])
def test_the_rack_axiom_and_action_suites_take_one_call_per_level(name, monkeypatch):
    # v |> w, 1 |> v and the injectivity row from the splits of v's draw,
    # the identity and g_0, then u acting on four points, then uv |> uw
    # from the split of exp(ad A_u eta_v); 1, h and gh acting on w, then g
    # on two points.  No log
    sys_ = _system(name, 0.5)
    names = ("log_coords", "rack_product", "augmented_action")
    for run, want in ((lambda: rack_axiom_suite(sys_, 10, 0),
                       {"split": [(3, 10), (10,), (10,)],
                        "augmented_from_split": [(3, 10), (4, 10), (10,)]}),
                      (lambda: augmented_action_suite(sys_, 10, 3),
                       {"split": [(3, 10), (10,)], "augmented_from_split": [(3, 10), (2, 10)]})):
        assert _suite_calls(monkeypatch, ON_X, run) == want
        assert _outermost_calls(monkeypatch, names, run) == dict.fromkeys(names, [])


@pytest.mark.parametrize("name", ["dim5", "diagonal", "heisenberg", "abelian3"])
def test_the_cocycle_suite_takes_one_call_per_level(name, monkeypatch):
    # d_R i2, the ghost identity and its shift share their terms, each taken
    # once: the splits of h and g, then of g |> h = exp(ad A_g eta_h), gh
    # and (g |> h) g, the log coordinates of g |> h, then of g |> k and
    # h |> k from those the draws carry, six i2 values and two actions from
    # the splits.  No log
    sys_ = _system(name, 0.5)
    from_split = {"split": 2, "conjugate_coords": 2, "i2_from_split": 2, "action_from_split": 2}
    calls = _suite_calls(monkeypatch, from_split, lambda: cocycle_suite(sys_, 10, 1))
    assert calls == {"split": [(2, 10), (3, 10)], "conjugate_coords": [(10,), (2, 10)],
                     "i2_from_split": [(6, 10)], "action_from_split": [(2, 10)]}
    names = ("log_coords", "i2")
    assert _outermost_calls(monkeypatch, names, lambda: cocycle_suite(sys_, 10, 1)) == \
        dict.fromkeys(names, [])
    sizes = _kernel_slices(monkeypatch, lambda: cocycle_suite(sys_, 10, 1))
    assert sizes["log_float"] == []


def test_the_dim5_extras_split_without_conjugating(monkeypatch):
    # i1 reads g's split; i2 and the rack product read it too, with the
    # coordinates h was drawn at: no conjugation and no log
    sys_ = _system("dim5", 0.5)
    args = Namespace(seed=3, chart_radius=0.5, quad_order=8, fd_step=1e-3)
    names = ("_conjugate", "conjugate", "log_coords", "i1", "i2", "rack_product")
    calls = _outermost_calls(monkeypatch, names, lambda: EXAMPLE_EXTRAS["dim5"][0](sys_, args))
    assert calls == dict(zip(names, ([], [], [], [(20,)], [], [])))


@pytest.mark.parametrize("name", ["heisenberg", "filiform5"])
def test_the_lie_suite_takes_two_iota2_for_seven_pairs(name, monkeypatch):
    # row 3 reuses the iota2(u.g, v.g) of row 1's product u v; rows 2 and 3
    # take i2(u.g, v.g), and row 2 the rack product u |> v, from the one
    # conjugation u.g |> v.g that also feeds iota2, u.g's split and the
    # coordinates v.g's draw carries, so no log is taken outside iota2; the
    # four pairs of the first level, of which only the first two form their
    # group products, then the three products
    sys_ = _system(name, 0.5)
    names = ("iota2", "_conjugate", "log_coords", "group_product", "rack_product", "i2")
    calls = _outermost_calls(monkeypatch, names,
                             lambda: lie_specialization_suite(sys_, 10, 2))
    assert calls == {"iota2": [(4, 10), (3, 10)], "_conjugate": [(10,)],
                     "log_coords": [], "group_product": [(2, 10), (3, 10)],
                     "rack_product": [], "i2": []}


@pytest.mark.parametrize("name", ["dim5", "diagonal", "heisenberg", "filiform5"])
def test_the_quadrature_suite_splits_once_for_both_orders(name, monkeypatch):
    # both quadrature orders integrate from g's split, with the coordinates
    # of g's draw and A eta: no conjugation and no log
    sys_ = _system(name, 0.5)
    assert sys_.g0_dim > 0
    run = lambda: quadrature_stability_suite(sys_, 10, 4)  # noqa: E731
    assert _suite_calls(monkeypatch, {"split": 2}, run) == {"split": [(10,)]}
    names = ("_conjugate", "log_coords")
    assert _outermost_calls(monkeypatch, names, run) == dict.fromkeys(names, [])


# -- injectivity: a sorted window against all pairs --------------------------------

def _injectivity_cases():
    rng = np.random.default_rng(11)
    base = rng.uniform(-1.0, 1.0, size=(6, 5))
    cases = {"random": (rng.uniform(-1.0, 1.0, size=(300, 5)),
                        rng.uniform(-1.0, 1.0, size=(300, 5)))}
    # two inputs 1 apart, their outputs identical (a collapse), then equal
    # outputs of equal inputs (no collapse)
    outs = base.copy()
    outs[4] = outs[1]
    cases["duplicate_outputs"] = (base + np.arange(6)[:, None], outs)
    cases["duplicate_inputs_and_outputs"] = (np.vstack([base, base[:1]]),
                                             np.vstack([base, base[:1]]))
    # NaN rows never trip, not even against each other
    outs = base.copy()
    outs[[1, 3], 2] = np.nan
    ins = base.copy()
    ins[5, 0] = np.nan
    outs[5] = outs[0]
    cases["nan_rows"] = (ins + np.arange(6)[:, None], outs)
    # outputs 1e-12 apart (within), once from 0 and once from 0.5, with
    # inputs 1e-6 apart (not apart) or equal; then with inputs apart
    outs = np.zeros((4, 5))
    outs[1, 3] = 1e-12
    outs[2, 0], outs[3, 0] = 0.5, 0.5 + 1e-12
    ins = np.zeros((4, 5))
    ins[1, 1] = 1e-6
    cases["ties_at_1e-12_and_1e-6"] = (ins, outs)
    ins = ins.copy()
    ins[1, 1], ins[3, 4] = 2e-6, 2.0
    cases["ties_at_1e-12_inputs_apart"] = (ins, outs)
    # a coarse grid: ties, near-ties and NaN; the outputs vary in two
    # coordinates, so that some pairs tie in all of them
    grid = np.array([0.0, 5e-13, 1e-12, 2e-12, 1e-6, 2e-6, 1.0, np.nan])
    for k in range(40):
        rows = int(rng.integers(0, 12))
        outs = np.zeros((rows, 5))
        outs[:, 3:] = rng.choice(grid[[0, 1, 2, 3, 7]], size=(rows, 2))
        cases[f"grid{k}"] = (rng.choice(grid, size=(rows, 5)), outs)
    return cases


INJECTIVITY_CASES = _injectivity_cases()


@pytest.mark.parametrize("name", list(INJECTIVITY_CASES))
def test_injectivity_window_finds_what_all_pairs_find(name):
    ins, outs = INJECTIVITY_CASES[name]
    assert _injectivity_defect(ins, outs) == _injectivity(ins, outs)
    # and on every other row alone
    assert _injectivity_defect(ins[::2], outs[::2]) == _injectivity(ins[::2], outs[::2])


def test_injectivity_cases_cover_both_verdicts():
    verdicts = {name: _injectivity_defect(ins, outs)
                for name, (ins, outs) in INJECTIVITY_CASES.items()}
    assert verdicts["random"] == verdicts["duplicate_inputs_and_outputs"] == 0.0
    assert verdicts["nan_rows"] == verdicts["ties_at_1e-12_and_1e-6"] == 0.0
    assert verdicts["duplicate_outputs"] == verdicts["ties_at_1e-12_inputs_apart"] == 1.0
    assert 0 < sum(verdicts[f"grid{k}"] for k in range(40)) < 40
