"""The rack operations on stacks of group elements, and the suites that run
their whole sample set as stacks, each against its one-element
counterpart: bit for bit where the element stays in the chart, and a
cleared mask entry exactly where the one-element call raises."""

import struct
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import leibrack.rack as rack
from leibrack.algebra import canonical_extension
from leibrack.corpus import abelian3, dim5, filiform5, heisenberg, random_leibniz
from leibrack.linalg import OutOfChartError, gauss_legendre_01, nan_max, norm1_float, sup_norm
from leibrack.rack import (
    LocalRackElement,
    augmented_action,
    build_rack_system,
    conjugate,
    default_config,
    group_action,
    group_from_coords,
    group_product,
    i1,
    i2,
    i2_quadrature,
    rack_product,
)
from leibrack.suites import (
    PropertyResult,
    augmented_action_suite,
    draw_samples,
    quadrature_stability_suite,
    rack_axiom_suite,
    sample_group_element,
    sample_rack_element,
    sampled,
    stacked,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import inputs  # noqa: E402


# -- the one-sample-at-a-time oracles ------------------------------------------
# The suites as they ran before their samples became stacks: one draw
# (``sample_group_element``, ``sample_rack_element``), one 2-D rack operation
# and one ``sampled`` step at a time.

def _distance(u, v):
    return nan_max(sup_norm(u.g - v.g), sup_norm(u.a - v.a))


def _injectivity_one_by_one(ins, outs):
    ins, outs = (np.array([np.concatenate([u.g.ravel(), u.a]) for u in us])
                 for us in (ins, outs))
    for i in range(len(ins) - 1):
        d_in = np.abs(ins[i + 1:] - ins[i]).max(axis=1, initial=0.0)
        d_out = np.abs(outs[i + 1:] - outs[i]).max(axis=1, initial=0.0)
        if ((d_in > 1e-6) & (d_out <= 1e-12)).any():
            return 1.0
    return 0.0


def _rack_axioms_one_by_one(sys_, n_samples, seed):
    rng = np.random.default_rng(seed)
    max_norm = sys_.chart.chart_radius / 4.0
    neutral = sys_.neutral()
    elems = [sample_rack_element(sys_, rng, max_norm) for _ in range(3 * n_samples)]
    triples = [elems[3 * i:3 * i + 3] for i in range(n_samples)]

    def self_distributivity(u, v, w):
        lhs = rack_product(sys_, u, rack_product(sys_, v, w))
        rhs = rack_product(sys_, rack_product(sys_, u, v), rack_product(sys_, u, w))
        yield _distance(lhs, rhs)

    def pointedness(u, v, _w):
        yield nan_max(_distance(rack_product(sys_, u, neutral), neutral),
                      _distance(rack_product(sys_, neutral, v), v))

    results = sampled(n_samples, iter(triples).__next__, self_distributivity,
                      [("self_distributivity", 1e-9)])
    results += sampled(n_samples, iter(triples).__next__, pointedness,
                       [("pointedness", 1e-12)])
    u = elems[0]
    ins, outs, skips = [], [], 0
    for v in elems[1:n_samples + 1]:
        try:
            outs.append(rack_product(sys_, u, v))
            ins.append(v)
        except OutOfChartError:
            skips += 1
    results.append(PropertyResult("injectivity_on_samples", _injectivity_one_by_one(ins, outs),
                                  1e-9, n_samples, skips))
    return results


def _augmented_action_one_by_one(sys_, n_samples, seed):
    rng = np.random.default_rng(seed)
    max_norm = sys_.chart.chart_radius / 8.0
    neutral = sys_.neutral()
    ident = sys_.chart.identity()

    def check(g, h, w):
        yield _distance(augmented_action(sys_, ident, w), w)
        yield _distance(augmented_action(sys_, g, neutral), neutral)
        lhs = augmented_action(sys_, g, augmented_action(sys_, h, w))
        rhs = augmented_action(sys_, group_product(sys_.chart, g, h), w)
        yield _distance(lhs, rhs)

    return sampled(n_samples,
                   lambda: (sample_group_element(sys_, rng, max_norm),
                            sample_group_element(sys_, rng, max_norm),
                            sample_rack_element(sys_, rng, max_norm)),
                   check, [("action_unit", 1e-12), ("action_fixed_point", 1e-12),
                           ("action_compatibility", 1e-9)])


def _quadrature_stability_one_by_one(sys_, cfg, n_pairs, seed):
    rng = np.random.default_rng(seed)
    max_norm = sys_.chart.chart_radius / 4.0
    fine = gauss_legendre_01(2 * cfg.quad.order)

    def check(g, h):
        yield sup_norm(i2_quadrature(sys_, g, h, cfg.quad) - i2_quadrature(sys_, g, h, fine))

    return sampled(n_pairs,
                   lambda: (sample_group_element(sys_, rng, max_norm),
                            sample_group_element(sys_, rng, max_norm)),
                   check, [("quadrature_order_stability", 1e-12)])


def _bits(results):
    """Each result as (name, max_defect's bytes, samples, skipped)."""
    return [(r.name, struct.pack("<d", r.max_defect), r.samples, r.skipped) for r in results]


# -- inputs ----------------------------------------------------------------------

def _system(name, radius):
    if name.startswith("rl"):
        alg = random_leibniz(int(name[2:]))
    elif name in inputs.RHO_KINDS:
        alg = inputs.rho_semisimple(name, 0)
    else:
        alg = {"dim5": dim5, "heisenberg": heisenberg, "filiform5": filiform5,
               "abelian3": abelian3}[name]()
    return build_rack_system(canonical_extension(alg), radius)


NARROW = ["dim5", "heisenberg", "filiform5", "rl1", "rl2", "rl23", *inputs.RHO_KINDS]
WIDE = [("dim5", 8.0), ("diagonal", 8.0), ("aff", 1000.0)]


# -- the stacked suites equal the one-by-one loops -----------------------------

@pytest.mark.parametrize("name,radius", [(name, 0.5) for name in NARROW] + WIDE,
                         ids=[f"{name}-r{radius:g}" for name, radius in
                              [(name, 0.5) for name in NARROW] + WIDE])
def test_stacked_suites_equal_the_one_by_one_loops(name, radius):
    cfg = default_config()
    stacks, one_by_one = _system(name, radius), _system(name, radius)
    got = (rack_axiom_suite(stacks, 20, 5) + augmented_action_suite(stacks, 20, 6)
           + quadrature_stability_suite(stacks, cfg, 10, 7))
    want = (_rack_axioms_one_by_one(one_by_one, 20, 5)
            + _augmented_action_one_by_one(one_by_one, 20, 6)
            + _quadrature_stability_one_by_one(one_by_one, cfg, 10, 7))
    assert _bits(got) == _bits(want)
    # stacks bypass the memos
    assert (len(stacks.chart.log_memo), len(stacks.chart.action_memo),
            len(stacks.i1_memo)) == (0, 0, 0)
    if radius > 0.5:  # the wide charts are where samples are skipped
        assert any(r.skipped for r in got)


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
    g, h, a = draw_samples(sys_, rng, max_norm, 30, "gga")
    for k in range(30):
        want_g = sample_group_element(sys_, ref, max_norm)
        want = sample_rack_element(sys_, ref, max_norm)
        assert g[k].tobytes() == want_g.tobytes()
        assert h[k].tobytes() == want.g.tobytes() and a[k].tobytes() == want.a.tobytes()
    assert rng.uniform() == ref.uniform()  # the same draws were taken
    if name == "aff":  # raw draws that leave the ball are halved
        raw = np.random.default_rng(11).uniform(
            -1.0, 1.0, size=(30, 2 * sys_.g0_dim + sys_.center_dim))[:, :sys_.g0_dim]
        assert (norm1_float(group_from_coords(sys_.chart, raw * max_norm) - np.eye(4))
                >= max_norm).any()
    if name == "abelian3":
        assert sys_.g0_dim == 0 and (g == np.eye(3)).all()


# -- masks -----------------------------------------------------------------------

def _mixed_system():
    return _system("dim5", 8.0)


def _mixed_slices(sys_):
    """An in-chart element, then one element per gate of a rack product,
    each with the error the 2-D rack product raises on it: the conjugator's
    chart gate, a singular conjugator, the log chart, a log series that
    does not converge and the log residual."""
    n = sys_.chart.dim
    eye = np.eye(n)
    unit = np.zeros((n, n))
    unit[0, 0] = 1.0
    return [
        (group_from_coords(sys_.chart, [0.3, -0.2]), None),
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


def _operations(sys_, cfg):
    """name -> the operation on (g, h, b), for one element or stacks, with
    an optional mask."""
    chart = sys_.chart
    return {
        "conjugate": lambda g, h, b, ok=None: conjugate(chart, g, h, ok),
        "group_product": lambda g, h, b, ok=None: group_product(chart, g, h, ok),
        "group_action": lambda g, h, b, ok=None: group_action(chart, g, ok),
        "i1": lambda g, h, b, ok=None: i1(sys_, sys_.tau_matrix, g, ok),
        "i2": lambda g, h, b, ok=None: i2(sys_, g, h, ok),
        "i2_quadrature": lambda g, h, b, ok=None: i2_quadrature(sys_, g, h, cfg.quad, ok),
        "augmented_action": lambda g, h, b, ok=None: augmented_action(
            sys_, g, LocalRackElement(h, b), ok),
        "rack_product": lambda g, h, b, ok=None: rack_product(
            sys_, LocalRackElement(g, b), LocalRackElement(h, b), ok),
    }


# the slices of _mixed_slices each operation fails: conjugate meets only the
# conjugator's gates, and a product of two elements in the chart is only
# gated by the chart; every other operation takes log g
FAILING = {"conjugate": [1, 2], "group_product": [1]}


@pytest.mark.parametrize("op", OPERATIONS)
def test_mixed_stack_mask_is_false_exactly_where_the_2d_call_raises(op):
    cfg = default_config()
    sys_ = _mixed_system()
    slices = _mixed_slices(sys_)
    g = np.array([s for s, _ in slices])
    h = np.array([group_from_coords(sys_.chart, [-0.1, 0.25])] * len(g))
    b = np.linspace(-0.2, 0.2, 3 * len(g)).reshape(len(g), 3)
    stacks, one = _operations(sys_, cfg)[op], _operations(_mixed_system(), cfg)[op]
    ok = np.ones(len(g), dtype=bool)
    values = stacks(g, h, b, ok)
    want = [_outcome(lambda k=k: one(g[k], h[k], b[k])) for k in range(len(g))]
    _same_or_raised(values, ok, want)
    assert list(np.flatnonzero(~ok)) == FAILING.get(op, [1, 2, 3, 4, 5])
    if op in ("augmented_action", "rack_product", "i2", "i2_quadrature"):
        assert want[1:] == [text for _, text in slices[1:]]
    # without a mask, a stack raises the error of its first failing slice
    with pytest.raises(OutOfChartError) as err:
        stacks(g, h, b)
    assert str(err.value) == want[1]


def test_the_chart_gates_of_the_conjugated_element_result_and_product_mask_too():
    sys_ = _mixed_system()
    chart = sys_.chart
    n = chart.dim
    eye = np.eye(n)
    inside = group_from_coords(chart, [0.3, -0.2])
    shear, lift = eye.copy(), eye.copy()
    shear[0, 1], lift[1, 0] = 7.0, 7.0  # in the chart, but not their products
    g = np.array([inside, inside, shear, shear])
    h = np.array([inside, 9.0 * eye, lift, inside])
    for op, texts in ((conjugate, ["conjugated element", "conjugation result"]),
                      (group_product, ["group element", "group product"])):
        ok = np.ones(len(g), dtype=bool)
        values = op(chart, g, h, ok)
        want = [_outcome(lambda k=k: op(chart, g[k], h[k])) for k in range(len(g))]
        _same_or_raised(values, ok, want)
        messages = [w for w in want if isinstance(w, str)]
        assert all(any(t in m for m in messages) for t in texts), messages


def test_a_broadcast_element_acts_on_a_stack_as_on_each_slice():
    sys_ = _system("aff", 8.0)
    rng = np.random.default_rng(21)
    g, h, a = draw_samples(sys_, rng, 2.0, 12, "gga")
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


# -- kernel calls do not grow with the sample count ---------------------------

def _kernel_calls(monkeypatch, suite):
    """The calls of each float kernel that suite() makes outside its draws
    (the draws' halving rounds depend on the draws, not on their number)."""
    import leibrack.suites as suites
    calls = {"log_float": 0, "exp_float": 0, "phi1_float": 0}
    drawing = []
    with monkeypatch.context() as patch:
        for name in calls:
            original = getattr(rack, name)

            def counted(*args, name=name, original=original):
                calls[name] += not drawing
                return original(*args)
            patch.setattr(rack, name, counted)

        def uncounted(*args, draw=suites.draw_samples):
            drawing.append(None)
            try:
                return draw(*args)
            finally:
                drawing.pop()
        patch.setattr(suites, "draw_samples", uncounted)
        suite()
    return calls


@pytest.mark.parametrize("name", ["dim5", "diagonal", "aff"])
def test_stacked_suites_make_as_many_kernel_calls_at_10_and_40_samples(name, monkeypatch):
    cfg = default_config()
    for suite in (lambda s, n: rack_axiom_suite(s, n, 0),
                  lambda s, n: augmented_action_suite(s, n, 3),
                  lambda s, n: quadrature_stability_suite(s, cfg, n, 4)):
        counts = [_kernel_calls(monkeypatch, lambda: suite(_system(name, 0.5), n))
                  for n in (10, 40)]
        assert counts[0] == counts[1] and counts[0]["log_float"] > 0
