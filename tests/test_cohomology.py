"""Leibniz differential, tau, the Hom representation, rack differentials and
the rack-module axioms."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import oracles
from leibrack.algebra import LeibnizAlgebra, Representation, canonical_extension
from leibrack.cohomology import Cochain, hom_representation, leibniz_differential, tau
from leibrack.corpus import (
    dim5,
    filiform5,
    free_nilpotent5,
    heisenberg,
    random_leibniz,
)
from leibrack.exact import Matrix
from leibrack.rack import (
    RackCochainFn,
    RackModuleStructure,
    conjugate,
    group_action,
    group_from_coords,
    rack_differential_eval,
    rack_differential_general,
)
from oracles import (
    check_module_axioms,
    rack_diff1_expansion,
    rack_diff2_expansion,
    random_corpus,
    tau_inverse,
)


def random_cochain(rng, degree, dd, cd):
    vals = tuple(Fraction(int(rng.integers(-3, 4)))
                 for _ in range(dd ** degree * cd))
    return oracles.cochain_from_dense(degree, dd, cd, vals)


def representation_pool(seed=0):
    """Representations of dimension <= 4 of several flavors, built from the
    extension data of corpus algebras."""
    pool = []
    for alg in [dim5(), heisenberg(), free_nilpotent5()] + random_corpus(3, seed=seed):
        ext = canonical_extension(alg)
        if ext.g0_dim == 0:
            continue
        pool.append(ext.rep)  # anti-symmetric
        pool.append(Representation.symmetric(ext.g0, ext.rho,
                                             carrier_dim=ext.center_dim))
        pool.append(Representation.trivial(ext.g0, 2))
    return pool


def test_evaluate_is_the_dense_multilinear_sum():
    # oracle: sum over every index tuple, zero coordinates included
    rng = np.random.default_rng(4)
    for degree in (1, 2, 3):
        w = random_cochain(rng, degree, 3, 2)
        for _ in range(5):
            vecs = [tuple(Fraction(int(c), 2) for c in rng.integers(-2, 3, size=3))
                    for _ in range(degree)]
            want = [Fraction(0)] * 2
            for idx in product(range(3), repeat=degree):
                f = Fraction(1)
                for v, i in zip(vecs, idx):
                    f *= v[i]
                want = [a + f * b for a, b in zip(want, w.at(*idx))]
            assert w.evaluate(*vecs) == tuple(want)
    with pytest.raises(ValueError):
        w.evaluate((1, 0), (0, 1, 0), (1, 1, 1))


# -- leibniz differential ----------------------------------------------------

def test_dim5_omega_is_a_cocycle(dim5_ext):
    dw = leibniz_differential(dim5_ext.rep, dim5_ext.omega)
    assert dw.degree == 3 and dw.is_zero()


def test_differential_of_zero_is_zero(dim5_ext):
    for degree in (0, 1, 2):
        z = Cochain.zero(degree, 2, 3)
        assert leibniz_differential(dim5_ext.rep, z).is_zero()


def test_degree_one_differential_formula(dim5_ext):
    # anti-symmetric module over an abelian quotient: dL a(x,y) = rho_x(a(y));
    # with a = (e1 -> e3, e2 -> 0), dL a(e1,e1) = rho_e1(e3) = e4
    alpha = Cochain.from_function(1, 2, 3,
                                  lambda i: (1, 0, 0) if i == 0 else (0, 0, 0))
    da = leibniz_differential(dim5_ext.rep, alpha)
    assert da.at(0, 0) == (0, 1, 0)
    for p in range(2):
        for q in range(2):
            want = dim5_ext.rep.left[p].mat_vec(alpha.at(q))
            assert da.at(p, q) == want


def test_dL_squared_is_zero_exactly():
    rng = np.random.default_rng(42)
    reps = representation_pool()
    count = 0
    while count < 50:
        rep = reps[count % len(reps)]
        degree = int(rng.integers(0, 3))
        w = random_cochain(rng, degree, rep.algebra.dim, rep.carrier_dim)
        ddw = leibniz_differential(rep, leibniz_differential(rep, w))
        assert ddw.is_zero()
        count += 1


def test_degree_zero_convention_on_symmetric_modules():
    # dL beta(x) = [x, beta]_L when right = -left
    rng = np.random.default_rng(9)
    for rep in representation_pool():
        if rep.flavor != "symmetric":
            continue
        beta = tuple(Fraction(int(c)) for c in rng.integers(-3, 4, rep.carrier_dim))
        d0 = leibniz_differential(rep, oracles.cochain_from_dense(0, rep.algebra.dim,
                                                                  rep.carrier_dim, beta))
        for x in range(rep.algebra.dim):
            assert d0.at(x) == rep.left[x].mat_vec(beta)


def _aff1_acting():
    # g0 = aff(1) ([e1, e2] = e2) acting on the left center (e3, e4) with
    # weights (2, 1) and [e2, e4] = e3: rho is not nilpotent
    return LeibnizAlgebra.from_brackets(4, {(0, 0): {2: 1}, (0, 1): {1: 1},
                                            (1, 0): {1: -1, 3: 1}, (0, 2): {2: 2},
                                            (0, 3): {3: 1}, (1, 3): {2: 1}})


DL_ALGEBRAS = ([pytest.param(f, id=f.__name__)
                for f in (dim5, heisenberg, filiform5, free_nilpotent5, _aff1_acting)]
               + [pytest.param(lambda s=s: random_leibniz(s), id=f"random_leibniz{s}")
                  for s in (1, 2, 23)])


def _seeded_cochain(rng, degree, dd, cd, sparse):
    """Small integer values; sparse ones have at most three nonzero entries."""
    size = dd ** degree * cd
    vals = [int(rng.integers(-3, 4)) for _ in range(size)]
    if sparse:
        keep = set(rng.choice(size, size=min(3, size), replace=False).tolist())
        vals = [v if i in keep else 0 for i, v in enumerate(vals)]
    return oracles.cochain_from_dense(degree, dd, cd, vals)


@pytest.mark.parametrize("make", DL_ALGEBRAS)
def test_dL_equals_its_definition(make):
    # the scatter against the gather form, exactly: on the extension's own
    # module, rho as a symmetric module and the Hom module
    ext = canonical_extension(make())
    modules = [ext.rep, Representation.symmetric(ext.g0, ext.rho, carrier_dim=ext.center_dim),
               hom_representation(ext.rep)]
    rng = np.random.default_rng(17)
    for rep in modules:
        for degree in range(4):
            for sparse in (True, False):
                w = _seeded_cochain(rng, degree, rep.algebra.dim, rep.carrier_dim, sparse)
                assert leibniz_differential(rep, w) == \
                    oracles.leibniz_differential_by_definition(rep, w), (degree, sparse)


# -- tau ---------------------------------------------------------------------

def test_tau_curries_the_last_slot(dim5_ext):
    w = dim5_ext.omega
    t = tau(w)
    assert t.degree == 1 and t.coeff_dim == 6
    for p in range(2):
        for q in range(2):
            hom = t.at(p)
            assert tuple(hom[k * 2 + q] for k in range(3)) == w.at(p, q)


def test_tau_roundtrip_exact():
    rng = np.random.default_rng(21)
    for degree in (1, 2, 3):
        w = random_cochain(rng, degree, 3, 2)
        assert tau_inverse(tau(w)) == w
    for degree in (0, 1, 2):
        w = random_cochain(rng, degree, 3, 2 * 3)
        assert tau(tau_inverse(w)) == w


def test_tau_is_a_chain_map():
    # tau(dL w) = dL(tau w) with the Hom representation on the right
    rng = np.random.default_rng(33)
    for rep in representation_pool():
        if rep.flavor != "anti_symmetric":
            continue
        homrep = hom_representation(rep)
        for _ in range(5):
            w = random_cochain(rng, 2, rep.algebra.dim, rep.carrier_dim)
            lhs = tau(leibniz_differential(rep, w))
            rhs = leibniz_differential(homrep, tau(w))
            assert lhs == rhs


def test_chain_map_on_dim5_omega(dim5_ext):
    lhs = tau(leibniz_differential(dim5_ext.rep, dim5_ext.omega))
    rhs = leibniz_differential(hom_representation(dim5_ext.rep), tau(dim5_ext.omega))
    assert lhs == rhs and lhs.is_zero()


# -- hom representation ------------------------------------------------------

def test_hom_representation_unrolls_the_definition():
    # (x.alpha)(y) = rho_x(alpha(y)) - alpha([x,y]) entrywise
    rng = np.random.default_rng(55)
    for alg in (heisenberg(), free_nilpotent5()):
        ext = canonical_extension(alg)
        rep, homrep = ext.rep, hom_representation(canonical_extension(alg).rep)
        d, m = ext.g0_dim, ext.center_dim
        for _ in range(5):
            alpha = Matrix.from_rows([[int(rng.integers(-3, 4)) for _ in range(d)]
                                      for _ in range(m)])
            flat = [alpha.row(k)[j] for k in range(m) for j in range(d)]
            for p in range(d):
                acted = homrep.left[p].mat_vec(flat)
                for q in range(d):
                    want = rep.left[p].mat_vec(alpha.col(q))
                    br = ext.g0.c[p][q]  # [e_p, e_q] in g0
                    corr = alpha.mat_vec(br)
                    got = tuple(acted[k * d + q] for k in range(m))
                    assert got == tuple(w - c for w, c in zip(want, corr))


def test_hom_representation_requires_lie():
    ext = canonical_extension(dim5())
    bad = Representation.anti_symmetric(dim5(), [Matrix.zeros(1, 1)] * 5,
                                        carrier_dim=1)
    with pytest.raises(ValueError):
        hom_representation(bad)
    assert hom_representation(ext.rep).flavor == "symmetric"


def test_trivial_rep_on_abelian_gives_trivial_hom_action():
    from leibrack.algebra import LeibnizAlgebra
    g0 = LeibnizAlgebra.from_brackets(2, {})
    rep = Representation.trivial(g0, 3)
    hom = hom_representation(rep)
    assert all(m.is_zero() for m in hom.left)


# -- rack differential -------------------------------------------------------

def _dim5_setup(dim5_sys):
    chart = dim5_sys.chart
    conj = lambda x, y: conjugate(chart, x, y)
    action = lambda g: group_action(chart, g)
    return chart, conj, action


def test_rack_differential_of_zero(dim5_sys):
    chart, conj, action = _dim5_setup(dim5_sys)
    mod = RackModuleStructure.symmetric(3, action, conj)
    f = RackCochainFn(1, lambda g: np.zeros(3))
    g = group_from_coords(chart, [0.05, 0.1])
    h = group_from_coords(chart, [-0.07, 0.02])
    assert np.abs(rack_differential_eval(mod, f, (g, h), conj)).max() == 0.0


def test_normative_equals_hardcoded_expansions(dim5_sys):
    chart, conj, action = _dim5_setup(dim5_sys)
    rng = np.random.default_rng(2)
    mod1 = RackModuleStructure.symmetric(3, action, conj)
    mod2 = RackModuleStructure.anti_symmetric(3, action)
    lin = rng.uniform(-1, 1, size=(3, 5))

    def f1_eval(g):
        return lin @ np.concatenate([(g - np.eye(5))[2:, 0], (g - np.eye(5))[3:, 1]])

    f1 = RackCochainFn(1, f1_eval)
    f2 = RackCochainFn(2, lambda g, h: f1_eval(g) * float((h - np.eye(5)).sum()))
    for _ in range(5):
        g = group_from_coords(chart, rng.uniform(-0.1, 0.1, 2))
        h = group_from_coords(chart, rng.uniform(-0.1, 0.1, 2))
        k = group_from_coords(chart, rng.uniform(-0.1, 0.1, 2))
        got = rack_differential_eval(mod1, f1, (g, h), conj)
        want = rack_diff1_expansion(mod1, f1, g, h, conj)
        assert np.abs(got - want).max() < 1e-14
        got2 = rack_differential_eval(mod2, f2, (g, h, k), conj)
        want2 = rack_diff2_expansion(mod2, f2, g, h, k, conj)
        assert np.abs(got2 - want2).max() < 1e-14


def test_general_and_normative_differ_by_psi_sign(dim5_sys):
    chart, conj, action = _dim5_setup(dim5_sys)
    rng = np.random.default_rng(4)
    mod = RackModuleStructure.symmetric(3, action, conj)
    f = RackCochainFn(1, lambda g: np.array([g[2, 0], g[3, 0], g[4, 0]]))
    g = group_from_coords(chart, rng.uniform(-0.1, 0.1, 2))
    h = group_from_coords(chart, rng.uniform(-0.1, 0.1, 2))
    normative = rack_differential_eval(mod, f, (g, h), conj)
    general = rack_differential_general(mod, f, (g, h), conj)
    psi_term = mod.psi(g, h, f(g))
    assert np.abs((normative - general) - 2 * psi_term).max() < 1e-14
    assert np.abs(psi_term).max() > 1e-4  # the discrepancy is visible here


def test_general_equals_normative_for_anti_symmetric(dim5_sys):
    chart, conj, action = _dim5_setup(dim5_sys)
    rng = np.random.default_rng(6)
    mod = RackModuleStructure.anti_symmetric(3, action)
    f = RackCochainFn(2, lambda g, h: np.array([g[2, 0] * h[2, 1], 0.0, g[4, 0]]))
    for _ in range(5):
        args = tuple(group_from_coords(chart, rng.uniform(-0.1, 0.1, 2))
                     for _ in range(3))
        a = rack_differential_eval(mod, f, args, conj)
        b = rack_differential_general(mod, f, args, conj)
        assert np.abs(a - b).max() == 0.0


def test_i1_is_a_rack_cocycle_in_the_symmetric_module(dim5_sys):
    # arity-1 normative differential of i1(tau omega) vanishes
    from leibrack.rack import build_rack_system, i1, log_coords
    from leibrack.algebra import canonical_extension
    from leibrack.corpus import free_nilpotent5
    import scipy.linalg
    rng = np.random.default_rng(7)
    for sys_ in (dim5_sys, build_rack_system(canonical_extension(free_nilpotent5()), 0.5)):
        chart = sys_.chart
        conj = lambda x, y: conjugate(chart, x, y)

        def hom_action(g):
            # alpha -> exp(rho_xi) alpha exp(-ad0_xi) on Hom(g0, a), flattened
            # row by row: the Kronecker product of the two factors
            xi = log_coords(chart, g)
            return np.kron(scipy.linalg.expm(chart.rho_of(xi)),
                           scipy.linalg.expm(-chart.ad0_of(xi)).T)

        mod = RackModuleStructure.symmetric(sys_.center_dim * sys_.g0_dim, hom_action, conj)
        # the module's carrier is Hom(g0, a) flattened row by row
        f = RackCochainFn(1, lambda g: i1(sys_, sys_.omega, g).reshape(-1))
        for _ in range(6):
            g = group_from_coords(chart, rng.uniform(-0.05, 0.05, chart.g0_dim))
            h = group_from_coords(chart, rng.uniform(-0.05, 0.05, chart.g0_dim))
            val = rack_differential_eval(mod, f, (g, h), conj)
            assert np.abs(val).max() <= 1e-9


def test_identity_slot_vanishing(dim5_sys):
    from leibrack.rack import i2
    chart, conj, action = _dim5_setup(dim5_sys)
    mod = RackModuleStructure.anti_symmetric(3, action)
    f = RackCochainFn(2, lambda g, h: i2(dim5_sys, g, h))
    rng = np.random.default_rng(8)
    g = group_from_coords(chart, rng.uniform(-0.08, 0.08, 2))
    k = group_from_coords(chart, rng.uniform(-0.08, 0.08, 2))
    one = chart.identity()
    for args in [(one, g, k), (g, one, k), (g, k, one)]:
        val = rack_differential_eval(mod, f, args, conj)
        assert np.abs(val).max() <= 1e-12


# -- module axioms -----------------------------------------------------------

def _sample_triples(chart, rng, count):
    return [tuple(group_from_coords(chart, rng.uniform(-0.1, 0.1, chart.g0_dim))
                  for _ in range(3)) for _ in range(count)]


def test_module_axioms_symmetric_structure(dim5_sys):
    chart, conj, action = _dim5_setup(dim5_sys)
    rng = np.random.default_rng(12)
    mod = RackModuleStructure.symmetric(3, action, conj)
    report = check_module_axioms(mod, conj, _sample_triples(chart, rng, 10))
    assert report["passes"]


def test_module_axioms_anti_symmetric_structure(dim5_sys):
    chart, conj, action = _dim5_setup(dim5_sys)
    rng = np.random.default_rng(13)
    mod = RackModuleStructure.anti_symmetric(3, action)
    report = check_module_axioms(mod, conj, _sample_triples(chart, rng, 10))
    assert report["passes"]
    assert report["M2"] == 0.0 and report["M3"] == 0.0  # psi = 0 collapses them


def test_module_axioms_flag_corruption(dim5_sys):
    chart, conj, action = _dim5_setup(dim5_sys)
    rng = np.random.default_rng(14)
    # the corner entry is central in this nilpotent matrix algebra and
    # would not disturb (M1); perturb a non-central one
    noise = np.zeros((3, 3))
    noise[1, 0] = 0.1

    def bad_action(g):
        return group_action(chart, g) + noise

    mod = RackModuleStructure.symmetric(3, bad_action, conj)
    report = check_module_axioms(mod, conj, _sample_triples(chart, rng, 10))
    assert not report["passes"]
    assert report["M1"] > 1e-3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_module_axioms_nan_action_fails(dim5_sys):
    # a NaN defect must reach the report and fail, not read as 0
    chart, conj, _ = _dim5_setup(dim5_sys)
    rng = np.random.default_rng(15)
    mod = RackModuleStructure.anti_symmetric(3, lambda g: np.full((3, 3), np.nan))
    report = check_module_axioms(mod, conj, _sample_triples(chart, rng, 3))
    assert not report["passes"]
    assert np.isnan(report["M1"]) and np.isnan(report["M4"])
